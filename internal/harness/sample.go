package harness

// Fast-forward sampled simulation (SMARTS-style): most of a run executes on
// the functional golden interpreter (hundreds of MIPS, exact architectural
// semantics), and only sampled regions pay cycle-accurate cost. The seam is
// the architectural state transplant (golden.Interp.Snapshot ->
// cpu.NewMachineAt), which is bit-exact by construction and by test
// (internal/cpu transplant tests), so sampling changes *when* detailed cost
// is paid, never what the program computes: Committed and Output are exact,
// Cycles (and Restricted) are estimates extrapolated from the detailed
// regions' post-warmup IPC.
//
// One planner serves every sampled cell. A full functional walk fixes the
// run's total instruction count and exact output; the plan then places
// detailed windows after the first FastForwardInsts instructions:
//
//   - SampleWindows > 1: that many evenly-spaced windows of
//     SampleWindowInsts instructions each.
//   - Otherwise (FastForwardInsts alone): one window from FastForwardInsts
//     to the program's end.
//
// One progressive functional walk transplants the state at each window's
// start into a fresh detailed machine, and whole-run cycles are
// extrapolated from the windows' pooled post-warmup IPC.
//
// Fallbacks keep sampling safe to leave enabled: multi-threaded cells (the
// transplant seam is single-core) and programs shorter than the fast-forward
// budget run fully detailed; a golden-visible fault during the functional
// walk is reported as a cell fault, mirroring the full path.

import (
	"errors"
	"fmt"

	"specasan/internal/asm"
	"specasan/internal/core"
	"specasan/internal/cpu"
	"specasan/internal/golden"
	"specasan/internal/obs"
	"specasan/internal/stats"
	"specasan/internal/workloads"
)

// errSampleTooShort signals that the program ends before the sampling plan's
// functional region — RunBenchmark falls back to a full detailed run.
var errSampleTooShort = errors.New("program too short to sample")

// warmTouches sizes the functional touch ring replayed into the transplanted
// machine's cache hierarchy. Detailed-cycle warmup alone cannot heal a cold
// hierarchy (the warmed lines are evicted by the same miss storm being
// warmed away); replaying the last ~32k functional touches reconstructs the
// working set the skipped instructions left resident, which is what makes
// the sampled IPC track the full-walk IPC.
const warmTouches = 1 << 15

// functionalBudget bounds a functional walk in instructions, derived from
// the detailed cycle budget so escalated-budget retries raise both: a
// detailed run can commit at most a few instructions per cycle, so a walk
// exceeding 8*MaxCycles instructions would have timed out fully detailed too.
func functionalBudget(maxCycles uint64) uint64 {
	const width = 8
	if maxCycles > ^uint64(0)/width {
		return ^uint64(0)
	}
	return maxCycles * width
}

// runSampled runs a single-core cell through the sampling plan: a full
// functional walk for the exact totals, then the plan's detailed windows
// pooled into one IPC estimate.
func runSampled(spec *workloads.Spec, mit core.Mitigation, opt Options,
	prog *asm.Program) (*PerfResult, error) {
	// Pass 1: total instruction count and exact output.
	walk := cpu.NewGolden(prog, mit.MTEEnabled(), 0)
	fres := walk.Run(functionalBudget(opt.MaxCycles))
	switch fres.Reason {
	case golden.StopExit:
	case golden.StopMaxInsts:
		return nil, fmt.Errorf("%s under %v: functional walk: %w after %d instructions",
			spec.Name, mit, ErrTimedOut, fres.Insts)
	default:
		// The full detailed run would commit the same fault (the interpreter
		// defines committed-path semantics), so it is a cell fault, not a
		// sampling artefact.
		return nil, fmt.Errorf("%s under %v faulted at %#x during functional fast-forward (%v)",
			spec.Name, mit, fres.PC, fres.Reason)
	}
	total := fres.Insts
	ff := opt.FastForwardInsts
	if ff >= total {
		return nil, errSampleTooShort
	}
	span := total - ff
	k, winInsts := opt.SampleWindows, opt.SampleWindowInsts
	if k <= 1 {
		k, winInsts = 1, span // one window over the rest of the run
	}
	starts := make([]uint64, 0, k)
	for i := 0; i < k; i++ {
		s := ff + span*uint64(i)/uint64(k)
		if n := len(starts); n > 0 && s <= starts[n-1] {
			continue // span smaller than the window count: drop duplicates
		}
		starts = append(starts, s)
	}

	met := opt.newMetrics(1)

	// Pass 2: one progressive functional walk; transplant at each start. The
	// walk's touch ring warms each window's caches with the working set live
	// at that window's start.
	ip := cpu.NewGolden(prog, mit.MTEEnabled(), 0)
	ip.Touch = golden.NewTouchRing(warmTouches)
	var cur uint64
	pool := stats.NewSet("machine")
	var sumCycles, sumCom, sumDetCycles, sumDetCom uint64
	warm := min(opt.warmup(), opt.MaxCycles)
	cfg := opt.config()
	cfg.Cores = 1
	for _, s := range starts {
		if s > cur {
			g := ip.Run(s - cur)
			if g.Reason != golden.StopMaxInsts {
				// Pass 1 proved the walk runs `total` instructions cleanly
				// and s < total, so anything else is an engine bug.
				return nil, fmt.Errorf("%s under %v: functional walk stopped early at %d insts (%v)",
					spec.Name, mit, cur+g.Insts, g.Reason)
			}
			cur = s
		}
		m, err := cpu.NewMachineAt(cfg, mit, prog, ip.Snapshot())
		if err != nil {
			return nil, err
		}
		opt.instrument(spec, mit, m, met)
		m.WarmCaches(ip.Touch)
		// A warmup leg that merely runs out its cycle slice is the expected
		// case, not a timeout.
		if err := runErr(spec, mit, m, m.Run(warm), false); err != nil {
			return nil, err
		}
		baseCycles, baseCom := m.Cycle(), m.Core(0).Committed()
		res := m.RunUntilCommitted(baseCom+winInsts, opt.MaxCycles)
		if err := runErr(spec, mit, m, res, true); err != nil {
			return nil, err
		}
		detCycles, detCom := m.Cycle(), res.Committed
		mCycles, mCom := detCycles-baseCycles, detCom-baseCom
		if mCycles == 0 || mCom == 0 {
			mCycles, mCom = detCycles, detCom
		}
		sumCycles += mCycles
		sumCom += mCom
		sumDetCycles += detCycles
		sumDetCom += detCom
		pool.Merge(res.Stats)
	}
	if sumCycles == 0 || sumCom == 0 {
		return nil, errSampleTooShort
	}
	ipc := float64(sumCom) / float64(sumCycles)
	cycles := uint64(float64(total)/ipc + 0.5)
	restricted := uint64(float64(pool.Get("restricted_commits"))*float64(total)/
		float64(sumDetCom) + 0.5)
	sampled := &obs.SampledRegions{
		FunctionalInsts: total - min(total, sumDetCom),
		DetailedInsts:   sumDetCom,
		DetailedCycles:  sumDetCycles,
		WarmupCycles:    warm,
		Windows:         len(starts),
	}
	pool.Set("sampled_detailed_cycles", sumDetCycles)
	pool.Set("sampled_warmup_cycles", warm)
	pool.Set("sampled_windows", uint64(len(starts)))
	opt.logf("  %-18s %-12s sampled windows=%d cycles~%-9d ipc=%.2f restricted~%d",
		spec.Name, mit, len(starts), cycles, ipc, restricted)
	if err := opt.emitMetrics(spec, mit, met, cycles, total, sampled); err != nil {
		return nil, err
	}
	return &PerfResult{
		Benchmark:  spec.Name,
		Mitigation: mit,
		Cycles:     cycles,
		Committed:  total,
		Restricted: restricted,
		Output:     string(fres.Output),
		Stats:      pool,
		Sampled:    sampled,
	}, nil
}
