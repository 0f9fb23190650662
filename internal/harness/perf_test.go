package harness

import (
	"math"
	"testing"
)

// TestMeasureSingleCore runs a short steady-state measurement of the fixed
// recipe: the host cost per simulated cycle it reports must be a finite,
// positive number of nanoseconds.
func TestMeasureSingleCore(t *testing.T) {
	sc, err := MeasureSingleCore(2_000, DefaultWarmupCycles)
	if err != nil {
		t.Fatal(err)
	}
	if ns := sc.HostNsPerCycle; !(ns > 0) || math.IsInf(ns, 0) {
		t.Fatalf("HostNsPerCycle = %v, want finite and > 0", ns)
	}
}
