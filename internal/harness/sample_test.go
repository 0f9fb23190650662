package harness

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"specasan/internal/core"
	"specasan/internal/workloads"
)

// sampleTolerancePct is the stated accuracy contract of sampled simulation
// at tier-1 scale: the extrapolated IPC stays within this percentage of the
// full-walk IPC. Committed counts and program output carry no tolerance at
// all — they are exact by construction.
const sampleTolerancePct = 25.0

func ipcOf(r *PerfResult) float64 { return float64(r.Committed) / float64(r.Cycles) }

func requireIPCWithin(t *testing.T, full, sampled *PerfResult) {
	t.Helper()
	fi, si := ipcOf(full), ipcOf(sampled)
	delta := (si - fi) / fi * 100
	if delta < 0 {
		delta = -delta
	}
	if delta > sampleTolerancePct {
		t.Fatalf("sampled IPC %.3f vs full %.3f: %.1f%% off (tolerance %.0f%%)",
			si, fi, delta, sampleTolerancePct)
	}
	t.Logf("IPC full=%.3f sampled=%.3f (%.1f%% delta)", fi, si, delta)
}

// TestSampledTailMatchesFull: -fast-forward alone is a one-window plan that
// fast-forwards half the run functionally and finishes it detailed. The
// window covers exactly the instructions after the fast-forward point;
// committed and output must be exact; IPC within the tolerance.
func TestSampledTailMatchesFull(t *testing.T) {
	spec := workloads.ByName("508.namd_r")
	for _, mit := range []core.Mitigation{core.Unsafe, core.SpecASan} {
		opt := smallOpts()
		opt.Scale = 0.2
		full, err := RunBenchmark(spec, mit, opt)
		if err != nil {
			t.Fatal(err)
		}
		ff := full.Committed / 2
		opt.FastForwardInsts = ff
		sampled, err := RunBenchmark(spec, mit, opt)
		if err != nil {
			t.Fatal(err)
		}
		sp := sampled.Sampled
		if sp == nil || sp.Windows != 1 {
			t.Fatalf("%v: expected a one-window sampled result, got %+v", mit, sp)
		}
		if sp.FunctionalInsts != ff {
			t.Fatalf("%v: %d functional insts, want the fast-forward budget %d", mit, sp.FunctionalInsts, ff)
		}
		if sp.FunctionalInsts+sp.DetailedInsts != sampled.Committed {
			t.Fatalf("%v: functional %d + detailed %d != committed %d",
				mit, sp.FunctionalInsts, sp.DetailedInsts, sampled.Committed)
		}
		if sampled.Committed != full.Committed {
			t.Fatalf("%v: committed %d != full %d (must be exact)", mit, sampled.Committed, full.Committed)
		}
		if sampled.Output != full.Output {
			t.Fatalf("%v: output %q != full %q (must be exact)", mit, sampled.Output, full.Output)
		}
		requireIPCWithin(t, full, sampled)
		if mit == core.SpecASan && full.Restricted > 0 && sampled.Restricted == 0 {
			t.Fatalf("%v: sampled run lost the restricted estimate", mit)
		}
	}
}

// TestSampledWindowsMatchFull: a four-window plan's committed total and
// output come from a full functional walk, so they are exact; cycles
// extrapolate from the pooled window IPC.
func TestSampledWindowsMatchFull(t *testing.T) {
	spec := workloads.ByName("505.mcf_r")
	for _, mit := range []core.Mitigation{core.Unsafe, core.SpecASan} {
		opt := smallOpts()
		opt.Scale = 0.2
		full, err := RunBenchmark(spec, mit, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.SampleWindows = 4
		opt.SampleWindowInsts = full.Committed / 20
		sampled, err := RunBenchmark(spec, mit, opt)
		if err != nil {
			t.Fatal(err)
		}
		if sampled.Sampled == nil || sampled.Sampled.Windows != 4 {
			t.Fatalf("%v: expected 4 windows, got %+v", mit, sampled.Sampled)
		}
		if sampled.Committed != full.Committed {
			t.Fatalf("%v: committed %d != full %d (must be exact)", mit, sampled.Committed, full.Committed)
		}
		if sampled.Output != full.Output {
			t.Fatalf("%v: output %q != full %q (must be exact)", mit, sampled.Output, full.Output)
		}
		requireIPCWithin(t, full, sampled)
	}
}

// TestSampledTooShortFallsBack: a fast-forward budget past the program's end
// must produce exactly the full run, with no sampling annotation.
func TestSampledTooShortFallsBack(t *testing.T) {
	spec := workloads.ByName("508.namd_r")
	opt := smallOpts()
	full, err := RunBenchmark(spec, core.Unsafe, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.FastForwardInsts = 1 << 40
	r, err := RunBenchmark(spec, core.Unsafe, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Sampled != nil {
		t.Fatalf("short run must fall back to fully detailed, got %+v", r.Sampled)
	}
	if r.Cycles != full.Cycles || r.Committed != full.Committed || r.Output != full.Output {
		t.Fatalf("fallback differs from full run: %+v vs %+v", r, full)
	}
}

// TestSampledMultiThreadFallsBack: the transplant seam is single-core; a
// multi-threaded cell must run fully detailed and bit-identically.
func TestSampledMultiThreadFallsBack(t *testing.T) {
	spec := workloads.ByName("canneal")
	if spec == nil || spec.Threads <= 1 {
		t.Fatal("need a multi-threaded workload")
	}
	opt := smallOpts()
	full, err := RunBenchmark(spec, core.Unsafe, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.FastForwardInsts = 100
	r, err := RunBenchmark(spec, core.Unsafe, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Sampled != nil {
		t.Fatal("multi-threaded cell must not sample")
	}
	if r.Cycles != full.Cycles || r.Committed != full.Committed {
		t.Fatalf("fallback differs from full run: %+v vs %+v", r, full)
	}
}

// faultySpec runs ~15k instructions, then jumps to unmapped code. Faults the
// golden interpreter sees during a functional region must surface as cell
// faults, exactly like the detailed path would report them.
var faultySpec = &workloads.Spec{
	Name:    "faulty-loop",
	Threads: 1,
	Source: `
    MOV  X1, #5000
loop:
    SUB  X1, X1, #1
    ADD  X2, X2, #1
    CBNZ X1, loop
    MOV  X7, #0x9000
    BR   X7
    SVC  #0`,
}

func TestSampledFaultDuringFastForward(t *testing.T) {
	opt := smallOpts()
	opt.FastForwardInsts = 1 << 20 // past the fault point
	_, err := RunBenchmark(faultySpec, core.Unsafe, opt)
	if err == nil || !strings.Contains(err.Error(), "faulted") {
		t.Fatalf("want a fault error from the functional region, got %v", err)
	}

	opt.FastForwardInsts = 0
	opt.SampleWindows = 4
	opt.SampleWindowInsts = 1000
	_, err = RunBenchmark(faultySpec, core.Unsafe, opt)
	if err == nil || !strings.Contains(err.Error(), "faulted") {
		t.Fatalf("want a fault error from the functional walk, got %v", err)
	}
}

// TestSampledSweepDeterministicAcrossWorkers: the sampling path inherits the
// sweep's determinism contract — results and log bytes are identical for any
// worker count.
func TestSampledSweepDeterministicAcrossWorkers(t *testing.T) {
	specs := []*workloads.Spec{
		workloads.ByName("508.namd_r"),
		workloads.ByName("505.mcf_r"),
	}
	mits := []core.Mitigation{core.Unsafe, core.SpecASan}
	run := func(workers int) string {
		var log bytes.Buffer
		opt := smallOpts()
		opt.Scale = 0.2
		opt.Verbose = true
		opt.Log = &log
		opt.Workers = workers
		opt.SampleWindows = 3
		opt.SampleWindowInsts = 2000
		sw, err := RunSweep(specs, mits, opt)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		for _, bench := range sw.Benchmarks {
			for _, mit := range sw.Mitigations {
				r := sw.Results[bench][mit]
				if r == nil {
					fmt.Fprintf(&b, "%s/%v: err=%v\n", bench, mit, sw.Errors[bench][mit])
					continue
				}
				fmt.Fprintf(&b, "%s/%v: cycles=%d committed=%d restricted=%d sampled=%+v\n",
					bench, mit, r.Cycles, r.Committed, r.Restricted, r.Sampled)
			}
		}
		fmt.Fprintf(&b, "--- log ---\n%s", log.String())
		return b.String()
	}
	serial := run(1)
	for _, w := range []int{2, 4} {
		if got := run(w); got != serial {
			t.Fatalf("sampled sweep not deterministic across workers=%d:\n%s\n--- vs serial ---\n%s", w, got, serial)
		}
	}
}

// TestSampledCellRoundTripsThroughStore: a sampled result survives the cell
// cache with its sampling annotation intact.
func TestSampledCellRoundTripsThroughStore(t *testing.T) {
	opt := smallOpts()
	opt.Scale = 0.2
	spec := workloads.ByName("508.namd_r")
	full, err := RunBenchmark(spec, core.Unsafe, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.FastForwardInsts = full.Committed / 2
	r, err := RunBenchmark(spec, core.Unsafe, opt)
	if err != nil {
		t.Fatal(err)
	}
	back, err := CellResultOf(r).PerfResult()
	if err != nil {
		t.Fatal(err)
	}
	if back.Sampled == nil || *back.Sampled != *r.Sampled {
		t.Fatalf("sampling annotation lost in the cell round trip: %+v vs %+v", back.Sampled, r.Sampled)
	}
	if back.Cycles != r.Cycles || back.Committed != r.Committed || back.Output != r.Output {
		t.Fatal("cell round trip changed the result")
	}
}
