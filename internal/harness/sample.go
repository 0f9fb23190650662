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
// Each cell walks its program about once. The full walk leaves up to
// maxCheckpoints snapshots behind, and each window's live-point (the golden
// state at its start plus the touch ring that warms its caches) comes from
// resuming the nearest snapshot that lies at least one ring's worth of
// touches before the start (liveWalker). The state is exact whatever the
// snapshot, and the ring equals the one a single walk from instruction 0
// would hold there, so the windows simulate what they always did. Each
// window's state is transplanted into a fresh detailed machine, and
// whole-run cycles are extrapolated from the windows' pooled post-warmup IPC.
//
// Fallbacks keep sampling safe to leave enabled: multi-threaded cells (the
// transplant seam is single-core) and programs shorter than the fast-forward
// budget run fully detailed; a golden-visible fault during the functional
// walk is reported as a cell fault, mirroring the full path.

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"specasan/internal/asm"
	"specasan/internal/core"
	"specasan/internal/cpu"
	"specasan/internal/golden"
	"specasan/internal/mem"
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

// maxCheckpoints bounds the golden snapshots a sampled cell holds at once.
// Each holds the program's memory (at most about 200 KiB for a scale-2
// kernel), sharing the pages unchanged since the snapshot before.
const maxCheckpoints = 16

// firstStride is the first walk's initial checkpoint spacing in
// instructions. It doubles as often as the walk needs to keep at most
// maxCheckpoints snapshots.
const firstStride = 1 << 16

// functionalWork, when set, receives each sampled cell's count of
// instructions executed by its golden walks: the full walk plus the walks
// to the live-points. Tests read the sampler's work through it.
var functionalWork func(insts uint64)

// runSampled runs a single-core cell through the sampling plan: a full
// functional walk for the exact totals, then the plan's detailed windows
// pooled into one IPC estimate.
func runSampled(spec *workloads.Spec, mit core.Mitigation, opt Options,
	prog *asm.Program) (*PerfResult, error) {
	// Pass 1: total instruction count and exact output.
	walk := cpu.NewGolden(prog, mit.MTEEnabled(), 0)
	fres, cps := walkCheckpointed(walk, functionalBudget(opt.MaxCycles))
	walk.Mem.Release()
	lw := newLiveWalker(prog, mit.MTEEnabled(), cps)
	defer lw.release()
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
	lw.plan(starts)
	if functionalWork != nil {
		defer func() { functionalWork(total + lw.walked) }()
	}

	met := opt.newMetrics(1)

	pool := stats.NewSet("machine")
	var sumCycles, sumCom, sumDetCycles, sumDetCom uint64
	warm := min(opt.warmup(), opt.MaxCycles)
	cfg := opt.config()
	cfg.Cores = 1
	for i := range starts {
		ip, err := lw.at(i)
		if err != nil {
			return nil, fmt.Errorf("%s under %v: %w", spec.Name, mit, err)
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
		m.Release()
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

// walkCheckpointed runs ip's whole walk (up to budget instructions) in
// strides, snapshotting at each stride boundary, and returns the walk's
// result with its cumulative instruction count plus the snapshots kept:
// checkpoint 0 is the start state, and the rest lie at multiples of the
// final stride. The stride starts at firstStride; whenever one more
// snapshot would exceed maxCheckpoints it doubles and every snapshot off
// the new stride is dropped and released. Nothing writes a snapshot, so
// each shares the pages unchanged since the one before. ip records no
// touches: the strides change only where its walk pauses, never what it
// computes.
func walkCheckpointed(ip *golden.Interp, budget uint64) (*golden.Result, []*golden.State) {
	cps := []*golden.State{ip.Snapshot()}
	stride := uint64(firstStride)
	var n uint64
	for {
		res := ip.Run(min((n/stride+1)*stride, budget) - n)
		n += res.Insts
		if res.Reason != golden.StopMaxInsts || n == budget {
			res.Insts = n
			return res, cps
		}
		if len(cps) == maxCheckpoints {
			stride *= 2
			kept, dropped := cps[:0], []*golden.State(nil)
			for _, c := range cps {
				if c.Insts%stride == 0 {
					kept = append(kept, c)
				} else {
					dropped = append(dropped, c)
				}
			}
			releaseCheckpoints(dropped, kept)
			clear(cps[len(kept):])
			cps = kept
			if n%stride != 0 {
				continue
			}
		}
		cps = append(cps, ip.SnapshotSharing(cps[len(cps)-1]))
	}
}

// releaseCheckpoints hands back the memory of the checkpoints in drop,
// whose images share frames with one another and with those of the
// checkpoints in keep (mem.ReleaseShared).
func releaseCheckpoints(drop, keep []*golden.State) {
	imgs := make([]*mem.Image, 0, len(drop)+len(keep))
	for _, c := range drop {
		imgs = append(imgs, c.Mem)
	}
	for _, c := range keep {
		imgs = append(imgs, c.Mem)
	}
	mem.ReleaseShared(imgs[:len(drop)], imgs[len(drop):])
}

// rings keeps the empty touch rings of dropped walks for later walks, of
// this cell or another.
var rings = sync.Pool{New: func() any { return golden.NewTouchRing(warmTouches) }}

// liveWalker hands out a cell's live-points in window order: a golden
// interpreter stopped at each window start whose touch ring holds exactly
// what one walk from instruction 0 holds there, if that walk stops at every
// earlier window start. The stops show in the ring: a budget stop mid-block
// makes the next Run record the fetch of the block's suffix once more.
//
// A live-point resumes the latest checkpoint c from which the walk to its
// start s records more than warmTouches touches. Past c the resumed walk
// touches what the one walk touches, except that its first touch (the
// fetch of the block it resumes in) may be one the one walk never made;
// more than warmTouches touches push that one out of the ring. A walk that
// falls short steps back to an earlier checkpoint, and checkpoint 0 is
// exactly the one walk. The previous live-point is one more place to walk
// on from, already exact, and it wins whenever it is no further back than
// the checkpoint. So a resumed walk never crosses an earlier window start
// and needs no stop of its own: where the one walk stopped between c and
// s, the previous live-point lies at or after c. For the same reason a
// checkpoint at or before a live-point handed out, or past the last window
// start, is never resumed, and the walker drops it.
type liveWalker struct {
	prog   *asm.Program
	mteOn  bool
	cps    []*golden.State // ascending, none at or before live
	starts []uint64
	live   *golden.Interp // at the last start handed out; nil before the first

	// touches and insts total the walks recorded so far, which predict how
	// far back a walk must start to record warmTouches touches. They start
	// at the bound of two touches per instruction (one fetch per block and
	// one data touch per instruction), so no walk is skipped as too short
	// before one has been measured.
	touches, insts uint64

	walked uint64 // instructions executed by the walks to live-points
}

func newLiveWalker(prog *asm.Program, mteOn bool, cps []*golden.State) *liveWalker {
	return &liveWalker{prog: prog, mteOn: mteOn, cps: cps, touches: 2, insts: 1}
}

// plan sets the window starts, ascending, and releases the checkpoints
// past the last.
func (w *liveWalker) plan(starts []uint64) {
	w.starts = starts
	n := sort.Search(len(w.cps), func(j int) bool { return w.cps[j].Insts > starts[len(starts)-1] })
	releaseCheckpoints(w.cps[n:], w.cps[:n])
	clear(w.cps[n:])
	w.cps = w.cps[:n]
}

// release hands back the checkpoints' memory, the live-point
// interpreter's image and its ring. The walker is done.
func (w *liveWalker) release() {
	releaseCheckpoints(w.cps, nil)
	w.cps = nil
	if w.live != nil {
		w.drop(w.live)
		w.live = nil
	}
}

// drop releases a walk's image and hands its ring back, empty.
func (w *liveWalker) drop(ip *golden.Interp) {
	ip.Mem.Release()
	ip.Touch.Reset()
	rings.Put(ip.Touch)
}

// enough predicts whether a walk of d instructions records more than
// warmTouches touches, with a margin of one sixteenth.
func (w *liveWalker) enough(d uint64) bool {
	return d*w.touches > (warmTouches+warmTouches/16)*w.insts
}

// from returns the index of the latest checkpoint at or before checkpoint
// j that is instruction 0 or is predicted to lie far enough before s, or
// -1 when there is none.
func (w *liveWalker) from(j int, s uint64) int {
	for j >= 0 && w.cps[j].Insts > 0 && !w.enough(s-w.cps[j].Insts) {
		j--
	}
	return j
}

// at returns the live-point of window i. Call it for i = 0, 1, ... in
// order; the interpreter it returns walks on to the next window's start.
func (w *liveWalker) at(i int) (*golden.Interp, error) {
	s := w.starts[i]
	last := sort.Search(len(w.cps), func(j int) bool { return w.cps[j].Insts > s })
	defer func() {
		releaseCheckpoints(w.cps[:last], w.cps[last:])
		clear(w.cps[:last])
		w.cps = w.cps[last:]
	}()
	for j := w.from(last-1, s); ; j = w.from(j-1, s) {
		if j < 0 || w.live != nil && w.live.Insts() >= w.cps[j].Insts {
			if err := w.run(w.live, s); err != nil {
				return nil, err
			}
			return w.live, nil
		}
		ip := cpu.ResumeGolden(w.prog, w.mteOn, 0, w.cps[j])
		ip.Touch = rings.Get().(*golden.TouchRing)
		if err := w.run(ip, s); err != nil {
			w.drop(ip)
			return nil, err
		}
		w.touches += ip.Touch.Added()
		w.insts += s - w.cps[j].Insts
		if w.cps[j].Insts == 0 || ip.Touch.Added() > warmTouches {
			if w.live != nil {
				w.drop(w.live)
			}
			w.live = ip
			return ip, nil
		}
		w.drop(ip)
	}
}

// run walks ip on to instruction to. Pass 1 proved the program runs past
// every window start cleanly, so any stop is an engine bug.
func (w *liveWalker) run(ip *golden.Interp, to uint64) error {
	from := ip.Insts()
	if to == from {
		return nil
	}
	g := ip.Run(to - from)
	w.walked += g.Insts
	if g.Reason != golden.StopMaxInsts {
		return fmt.Errorf("functional walk stopped early at %d insts (%v)", from+g.Insts, g.Reason)
	}
	return nil
}
