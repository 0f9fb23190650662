package cpu_test

import (
	"testing"

	"specasan/internal/attacks"
	"specasan/internal/core"
	"specasan/internal/cpu"
)

// TestSkipIdleSkipsRetryWaits pins that cycles whose only issue work is
// repeat retries are skipped, as TestSkipIdleSkipsPolicyBlocked does for
// gate blocks. The Spectre v1 PoC flushes its bound with DC CIVAC and fences
// with DSB every round, so for most of its cycles a DSB, or a load behind
// one, retries in the ready queue. If a retry stopped the skip again, it
// would step 0.95 times per simulated cycle under every Table 1 defence,
// against 0.18 with the skip.
func TestSkipIdleSkipsRetryWaits(t *testing.T) {
	v := attacks.SpectrePHT().Variants[0]
	for _, mit := range attacks.TableMitigations() {
		sc, err := v.Build()
		if err != nil {
			t.Fatal(err)
		}
		m, err := cpu.NewMachine(core.DefaultConfig(), mit, sc.Prog)
		if err != nil {
			t.Fatal(err)
		}
		sc.Setup(m)
		var steps uint64
		for !m.Done() && m.Cycle() < 2_000_000 {
			m.Step()
			steps++
		}
		if !m.Done() {
			t.Fatalf("%s under %v did not finish", v.Name, mit)
		}
		r := float64(steps) / float64(m.Cycle())
		t.Logf("%v: %.3f steps per cycle", mit, r)
		if r > 0.3 {
			t.Errorf("%v: %.3f steps per cycle, retry waits not skipped", mit, r)
		}
	}
}
