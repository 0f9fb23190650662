package harness

import (
	"runtime"
	"runtime/debug"
	"testing"

	"specasan/internal/core"
	"specasan/internal/cpu"
	"specasan/internal/workloads"
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

// TestCellAllocationPins bounds the host memory of one sweep cell once the
// recycle pools are warm. A detailed cell releases its machine; a sampled
// cell releases each window's machine, its checkpoint chain
// (mem.ReleaseShared) and the live-point images, and hands its touch rings
// back to the walker's pool. So the next cell reuses the ROB, predictor
// tables, cache line chunks, directory slots, page tables, page frames and
// 256 KB rings instead of allocating them. Before that, the sampled cell
// below allocated 3.26 MB and the detailed one 1.07 MB; recycled, they read
// about 135 KB and 73 KB, and the limits sit about half as much again
// above. Leaving out any one of the four releases breaks a limit. Both
// cells carry an Attach hook that keeps nothing, as the benchmark's traced
// rounds do, since a hooked cell releases like any other. A -race build's
// sync.Pool drops a quarter of what it is handed, on purpose, so the
// limits do not apply there.
func TestCellAllocationPins(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's pools drop storage on purpose")
	}
	spec := workloads.ByName("505.mcf_r")
	hooked := 0
	attach := func(string, core.Mitigation, *cpu.Machine) { hooked++ }
	sampledOpt := Options{Scale: 0.2, MaxCycles: 50_000_000, SampleWindows: 3, SampleWindowInsts: 2_000, Attach: attach}
	sampled := bytesPerRun(5, func() {
		if r, err := RunBenchmark(spec, core.Unsafe, sampledOpt); err != nil || r.Sampled == nil {
			t.Fatalf("sampled cell: %v (sampled %v)", err, r != nil && r.Sampled != nil)
		}
	})
	detailedOpt := Options{Scale: 0.05, MaxCycles: 50_000_000, Attach: attach}
	detailed := bytesPerRun(5, func() {
		if _, err := RunBenchmark(spec, core.Unsafe, detailedOpt); err != nil {
			t.Fatalf("detailed cell: %v", err)
		}
	})
	if hooked == 0 {
		t.Fatal("the Attach hook never ran")
	}
	const sampledLimit, detailedLimit = 200_000, 110_000
	if sampled > sampledLimit {
		t.Errorf("sampled 505.mcf_r cell (scale 0.2, 3 x 2,000-instruction windows) allocates %d B, limit %d", sampled, sampledLimit)
	}
	if detailed > detailedLimit {
		t.Errorf("detailed 505.mcf_r cell (scale 0.05) allocates %d B, limit %d", detailed, detailedLimit)
	}
	t.Logf("sampled cell %d B, detailed cell %d B", sampled, detailed)
}
