package fuzzer

import (
	"runtime"
	"testing"

	"specasan/internal/attacks"
	"specasan/internal/core"
	"specasan/internal/scenario"
)

// bytesPerRun returns the heap bytes one call of f allocates, averaged over
// runs calls after a warm-up call. It reads the process-wide TotalAlloc, so
// the caller must not run in parallel with other tests.
func bytesPerRun(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestAllocationPins bounds the host memory of the tiny machines the
// security evaluation builds by the thousand. A PoC machine fills a few of
// the cache's sets, so cache line storage must be allocated lazily (eager
// allocation costs about 800 KB a machine); a candidate evaluation must
// assemble its program once, not once per mitigation; and the 64 KiB fuzz
// probe is a .space reservation, which neither the assembler nor any of an
// evaluation's memory images may materialise.
func TestAllocationPins(t *testing.T) {
	_ = scenario.DelayOnMiss // the registry's ninth policy
	const (
		pocLimit   = 150_000
		evalLimit  = 1_400_000
		probeLimit = 250_000
	)
	pht := attacks.SpectrePHT().Variants[0]
	poc := bytesPerRun(20, func() {
		if _, err := attacks.RunVariant(pht, core.SpecASan); err != nil {
			t.Fatal(err)
		}
	})
	if poc > pocLimit {
		t.Errorf("Spectre-v1 PoC machine under SpecASan allocates %d B, limit %d", poc, pocLimit)
	}

	c, mits := Generate(1, 0), core.RegisteredMitigations()
	eval := bytesPerRun(5, func() {
		if ev := EvaluateCandidate(c, mits); !ev.Valid {
			t.Fatalf("candidate invalid: %s", ev.InvalidReason)
		}
	})
	if eval > evalLimit {
		t.Errorf("EvaluateCandidate over %d mitigations allocates %d B, limit %d", len(mits), eval, evalLimit)
	}

	// One minimisation probe: a single-policy evaluation.
	find := Generate(1, 8)
	probe := bytesPerRun(10, func() {
		if ev := EvaluateCandidate(find, []core.Mitigation{core.GhostMinion}); !ev.Valid {
			t.Fatalf("candidate invalid: %s", ev.InvalidReason)
		}
	})
	if probe > probeLimit {
		t.Errorf("single-policy EvaluateCandidate allocates %d B, limit %d", probe, probeLimit)
	}
	t.Logf("PoC machine %d B, candidate evaluation %d B, single-policy probe %d B", poc, eval, probe)
}
