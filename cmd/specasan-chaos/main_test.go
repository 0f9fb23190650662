package main

import (
	"os"
	"path/filepath"
	"testing"

	"specasan/internal/clitest"
)

// The transcripts under testdata were recorded from the binaries of the
// commit before the knob table (which spelled -max-cycles as -maxcycles),
// so each case pins that the table leaves stdout and the printed scenario
// hash unchanged.
func TestTranscripts(t *testing.T) {
	smoke := []string{"-seeds", "1", "-verdict-seeds", "0", "-workloads", "511.povray_r"}
	with := func(extra ...string) []string { return append(append([]string{}, smoke...), extra...) }
	traced := func(t *testing.T, tmp string) {
		if fi, err := os.Stat(filepath.Join(tmp, "t.json")); err != nil || fi.Size() == 0 {
			t.Fatalf("no trace written: %v", err)
		}
	}
	clitest.Run(t, run, []clitest.Case{
		{Name: "smoke", Args: smoke},
		{Name: "knobs", Args: []string{"-seeds", "2", "-seed0", "5", "-verdict-seeds", "0",
			"-workloads", "505.mcf_r", "-mits", "SpecASan", "-kinds", "latency,squash-storm",
			"-rate", "0.05", "-maxlat", "100", "-scale", "0.01", "-v"}},
		{Name: "verdicts", Args: []string{"-seeds", "1", "-verdict-seeds", "1", "-workloads", "511.povray_r"}},
		{Name: "timeouts", Args: with("-max-cycles", "5000")},
		{Name: "trace", Args: with("-scale", "0.005", "-trace", "3", "-trace-out", "$TMP/t.json"), Check: traced},
		{Name: "scenario", Args: []string{"-scenario", "../../examples/scenarios/chaos-quick.json",
			"-seeds", "2", "-verdict-seeds", "0"}},
		// A scenario without a chaos section takes the chaos-smoke one.
		{Name: "scenario-without-chaos", Args: []string{"-scenario", "figure9", "-workloads", "511.povray_r",
			"-mits", "Unsafe", "-seeds", "1", "-verdict-seeds", "0", "-kinds", "latency", "-scale", "0.01"}},
		{Name: "store-cold", Args: with("-store", "$TMP/store")},
		{Name: "store-warm", Args: with("-store", "$TMP/store")},
		// An out-of-range -trace fails before the campaign runs.
		{Name: "trace-out-of-range", Args: with("-trace", "999"),
			Fails: "-trace 999 out of range (campaign has 14 cells)"},
		{Name: "rate-nan", Args: []string{"-rate", "NaN", "-seeds", "1"},
			Fails: "rate must be in [0,1] (got NaN)"},
	})
}
