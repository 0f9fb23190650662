package harness

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"specasan/internal/core"
	"specasan/internal/cpu"
	"specasan/internal/obs"
	"specasan/internal/workloads"
)

// TestSkipIdleSweepByteIdentical is the exactness contract of event-driven
// idle-cycle skipping: a sweep with skipping on must be byte-identical to
// the same sweep walking every cycle — results, the full per-cell counter
// sets (including the analytically-accounted stall and policy-block
// counters), the verbose log, the JSONL metrics stream, and Chrome traces of
// a SpecASan cell and of a SpecBarrier cell, whose loads wait in the ready
// queue policy-blocked across skipped spans.
func TestSkipIdleSweepByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	specs := []*workloads.Spec{
		workloads.ByName("508.namd_r"), // compute-bound
		workloads.ByName("505.mcf_r"),  // memory-bound: the skip-heavy case
		workloads.ByName("557.xz_r"),
	}
	for _, s := range specs {
		if s == nil {
			t.Fatal("workload missing")
		}
	}
	mits := []core.Mitigation{core.Unsafe, core.Fence, core.STT, core.GhostMinion, core.SpecASan}
	traced := []core.Mitigation{core.SpecASan, core.Fence}

	run := func(noSkip bool) string {
		var log, metrics bytes.Buffer
		var mu sync.Mutex // Attach runs on the sweep's worker pool
		trs := map[core.Mitigation]*obs.Tracer{}
		opt := Options{
			Scale: 0.02, MaxCycles: 50_000_000,
			Verbose: true, Log: &log,
			Metrics:    &metrics,
			NoSkipIdle: noSkip,
			Attach: func(bench string, mit core.Mitigation, m *cpu.Machine) {
				if bench != "505.mcf_r" {
					return
				}
				for _, tm := range traced {
					if mit == tm {
						tr := obs.NewTracer(len(m.Cores), 0)
						mu.Lock()
						trs[mit] = tr
						mu.Unlock()
						m.AttachObs(tr, nil)
					}
				}
			},
		}
		sw, err := RunSweep(specs, mits, opt)
		if err != nil {
			t.Fatalf("noSkip=%v: %v", noSkip, err)
		}
		var b bytes.Buffer
		b.WriteString(sweepFingerprint(sw, &log))
		for _, bench := range sw.Benchmarks {
			for _, mit := range sw.Mitigations {
				if r := sw.Results[bench][mit]; r != nil {
					fmt.Fprintf(&b, "%s/%v stats: %s\n", bench, mit, r.Stats)
				}
			}
		}
		fmt.Fprintf(&b, "--- metrics ---\n%s", metrics.String())
		for _, mit := range traced {
			tr := trs[mit]
			if tr == nil {
				t.Fatalf("noSkip=%v: traced %v cell never ran", noSkip, mit)
			}
			fmt.Fprintf(&b, "--- %v trace ---\n", mit)
			if err := obs.WriteChromeTrace(&b, tr); err != nil {
				t.Fatal(err)
			}
		}
		return b.String()
	}

	withSkip, withoutSkip := run(false), run(true)
	if withSkip != withoutSkip {
		t.Errorf("skip-idle changes observable output:\n-- skip on --\n%.4000s\n-- skip off --\n%.4000s",
			withSkip, withoutSkip)
	}
}
