package fuzzer

import (
	"runtime"
	"runtime/debug"
	"testing"

	"specasan/internal/attacks"
	"specasan/internal/core"
	"specasan/internal/scenario"
)

// bytesPerRun returns the heap bytes one call of f allocates, averaged over
// runs calls after a warm-up call. It reads the process-wide TotalAlloc, so
// the caller must not run in parallel with other tests. From the warm-up
// to the last run the collector is off and the runs share one P: a
// collection would empty the recycle pools, and a run on another P would
// miss the per-P pool caches the previous run filled, so either way the
// next run would allocate afresh what the last one handed back.
func bytesPerRun(runs int, f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
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
// assemble its program once, not once per mitigation; the 64 KiB fuzz
// probe is a .space reservation, which neither the assembler nor any of an
// evaluation's memory images may materialise; and every machine and golden
// image RunVariant and EvaluateCandidate build is released, so after the
// warm-up run the next one reuses its ROB, TSH ring, predictor tables,
// cache line chunks, directory slots, page table and page frames instead
// of allocating them (without that, a PoC machine costs about 130 KB and a
// candidate evaluation about 1 MB). The limits sit 20-30 % above the
// recycled steady state, which reads 37 KB, 188 KB and 46 KB. A -race
// build's sync.Pool drops a quarter of the arrays handed back to it, on
// purpose, so that build gets its own limits, about a third above the
// worst of 20 race runs (69 KB, 439 KB and 92 KB).
func TestAllocationPins(t *testing.T) {
	_ = scenario.DelayOnMiss // the registry's ninth policy
	pocLimit, evalLimit, probeLimit := uint64(48_000), uint64(240_000), uint64(60_000)
	if raceEnabled {
		pocLimit, evalLimit, probeLimit = 90_000, 560_000, 120_000
	}
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
