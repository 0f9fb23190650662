package cpu

import (
	"fmt"

	"specasan/internal/asm"
	"specasan/internal/branch"
	"specasan/internal/cache"
	"specasan/internal/core"
	"specasan/internal/isa"
	"specasan/internal/mem"
	"specasan/internal/mte"
	"specasan/internal/obs"
	"specasan/internal/stats"
)

// commitStore performs a store's architectural write and timing access at
// commit, and runs the write-to-full-address comparison that squashes
// Fallout-style false forwards.
func (c *Core) commitStore(e *robEntry) {
	in := e.inst
	switch in.Op {
	case isa.STR, isa.STRB:
		c.hier.Access(cache.AccessReq{
			Core: c.ID, Ptr: e.addr, Size: in.MemBytes(), Write: true, Now: c.cycle,
		})
		c.img.WriteUint(mte.Strip(e.addr), e.storeData, in.MemBytes())
		c.inc(ctrStoresCommitted)
		// WTF closing edge: younger loads that took the partial-match
		// forward from this store re-execute via squash. The store's
		// fallout-consumer list (filled at forward time) makes this
		// O(forwards); registrations whose load was squashed or whose slot
		// was reused no longer satisfy the predicate and drop out, and the
		// oldest live violator wins, exactly as the old loadQ sweep did.
		var oldest *robEntry
		for _, s := range e.falloutFwds {
			if s <= e.seq {
				continue
			}
			l := c.entry(s)
			if l != nil && l.falloutForward && l.forwardedFrom == e.seq &&
				(oldest == nil || l.seq < oldest.seq) {
				oldest = l
			}
		}
		if oldest != nil {
			c.inc(ctrFalloutReplays)
			c.squashAfter(oldest.seq-1, oldest.pc)
			return
		}
	case isa.STG:
		c.img.Tags.SetLock(e.addr, mte.Key(e.storeData))
		c.inc(ctrTagStores)
	case isa.ST2G:
		t := mte.Key(e.storeData)
		c.img.Tags.SetLock(e.addr, t)
		c.img.Tags.SetLock(mte.AlignGranule(e.addr)+mte.GranuleBytes, t)
		c.inc(ctrTagStores)
	case isa.SWPAL:
		// performed at execute (head-of-ROB); nothing to do
	}
}

// TagSeedBase seeds IRG's deterministic tag choice on core 0; core i uses
// TagSeedBase+i. The golden interpreter must use the same seed for
// differential runs.
const TagSeedBase = 0x5eca5a

// Machine is a full simulated system: cores, shared memory hierarchy, the
// leak oracle, and run control.
type Machine struct {
	Cfg    core.Config
	Mit    core.Mitigation
	Img    *mem.Image
	Hier   *cache.Hierarchy
	Cores  []*Core
	Oracle *core.Oracle

	// PerCycle, when set, runs after every Step — the chaos injector's
	// per-cycle driver hook.
	PerCycle func(cycle uint64)

	// Watchdog guards Run against wedged pipelines; nil disables it.
	// NewMachine installs one with default thresholds.
	Watchdog *Watchdog

	// SkipIdle enables event-driven idle-cycle skipping (see skip.go). It is
	// exactness-preserving — cycle counts, stats, traces and architectural
	// state match a non-skipping run — and on by default; runs that must see
	// every cycle (a PerCycle hook, i.e. chaos injection) bypass it
	// automatically.
	SkipIdle bool

	cycle uint64
	// skipLimit caps skips at Run's cycle budget so timed-out runs end on
	// the same cycle either way. Zero means no budget (bare Step callers).
	skipLimit uint64
}

// NewMachine builds a machine running prog on every core. For multi-core
// runs all cores share the program (SPMD) and the memory image; per-core
// behaviour is steered through registers set with Core.SetReg.
func NewMachine(cfg core.Config, mit core.Mitigation, prog *asm.Program) (*Machine, error) {
	img := mem.NewImage()
	img.LoadProgram(prog)
	return newMachineOn(cfg, mit, prog, img)
}

// newMachineOn builds a machine over a caller-supplied memory image (already
// loaded; the machine takes ownership). The state-transplant constructor
// NewMachineAt enters here with a golden-interpreter memory snapshot instead
// of a freshly loaded program image.
func newMachineOn(cfg core.Config, mit core.Mitigation, prog *asm.Program, img *mem.Image) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pol := mit.Descriptor()
	oracle := core.NewOracle()
	hier, err := cache.NewHierarchy(cache.HierConfig{
		Cores:     cfg.Cores,
		L1ISizeKB: cfg.L1ISizeKB, L1IWays: cfg.L1IWays, L1ILatency: cfg.L1ILatency,
		L1DSizeKB: cfg.L1DSizeKB, L1DWays: cfg.L1DWays, L1DLatency: cfg.L1DLatency,
		L2SizeKB: cfg.L2SizeKB, L2Ways: cfg.L2Ways, L2Latency: cfg.L2Latency,
		LineBytes: cfg.LineBytes, LFBEntries: cfg.LFBEntries, MSHRs: cfg.MSHRs,
		GhostSize: cfg.GhostSize, LoadPorts: cfg.LoadPorts,
		DRAM:            mem.DRAMConfig{Latency: cfg.DRAMLatency, BurstCycles: cfg.DRAMBurst, TagBurst: cfg.TagBurst},
		MTEOn:           pol.MTE,
		LFBTagging:      pol.SpecTagChecks && cfg.LFBTagging,
		PrefetcherOn:    cfg.PrefetcherOn,
		PrefetchChecked: cfg.PrefetchChecked && pol.SpecTagChecks,
	}, img)
	if err != nil {
		return nil, err
	}

	// Prefetches of secret-holding lines are observable state changes the
	// attacker can induce — the §6 prefetcher channel.
	hier.PrefetchSecretHit = func(lineAddr uint64) {
		if oracle.HasSecrets() && oracle.IsSecret(lineAddr, cfg.LineBytes) {
			oracle.Record(core.LeakEvent{Channel: core.ChanCache, Addr: lineAddr})
		}
	}

	m := &Machine{Cfg: cfg, Mit: mit, Img: img, Hier: hier, Oracle: oracle, SkipIdle: true}
	for i := 0; i < cfg.Cores; i++ {
		c := NewCore(i, &m.Cfg, mit, prog, hier, img, oracle, TagSeedBase+uint64(i))
		pred, err := branch.New(branch.Config{
			PHTBits: cfg.PHTBits, BTBSize: cfg.BTBSize,
			RSBDepth: cfg.RSBDepth, BHBLen: cfg.BHBLen,
		})
		if err != nil {
			return nil, err
		}
		c.SetPredictor(pred)
		m.Cores = append(m.Cores, c)
	}
	m.Watchdog = NewWatchdog(cfg.Cores)
	return m, nil
}

// AttachObs wires an event tracer and/or a metrics bundle into every core
// and the shared hierarchy. A nil argument leaves that attachment unchanged,
// so a caller can attach tracing and metrics in separate calls. Both must
// have been built for this machine's core count.
func (m *Machine) AttachObs(tr *obs.Tracer, met *obs.Metrics) {
	for i, c := range m.Cores {
		if tr != nil {
			c.Obs = tr.Core(i)
		}
		if met != nil {
			c.Met = met.Core(i)
		}
	}
	if tr != nil {
		m.Hier.Obs = tr
	}
	if met != nil {
		m.Hier.Met = met
	}
}

// Core returns core i.
func (m *Machine) Core(i int) *Core { return m.Cores[i] }

// Done reports whether every core has halted or faulted.
func (m *Machine) Done() bool {
	for _, c := range m.Cores {
		if !c.Halted && !c.Faulted {
			return false
		}
	}
	return true
}

// Step advances the whole machine by one cycle, then — with SkipIdle on and
// no per-cycle hook — fast-forwards over cycles in which no core can make
// progress. Cores tick serially in core-ID order; that order is the
// multi-core determinism contract, since every shared structure (the cache
// hierarchy and directory, the memory image and its tags, the leak oracle)
// sees core i's effects for a cycle before core i+1's.
func (m *Machine) Step() {
	m.cycle++
	for _, c := range m.Cores {
		c.Tick()
	}
	if m.PerCycle != nil {
		m.PerCycle(m.cycle)
		return // the hook must observe every cycle: no skipping
	}
	if m.SkipIdle {
		m.skipIdle()
	}
}

// CoreStatus is one core's condition at the end of a run.
type CoreStatus struct {
	Halted    bool
	Faulted   bool
	FaultPC   uint64
	TimedOut  bool // still running when the cycle budget ran out
	Committed uint64
	// LastCommit is the cycle of the core's most recent commit (0 if it
	// never committed) — the stall diagnostic for timed-out cores.
	LastCommit uint64
}

// RunResult summarises a completed (or timed-out, or wedged) run.
type RunResult struct {
	Cycles    uint64
	Committed uint64 // total across cores
	TimedOut  bool
	Faulted   bool
	FaultCore int
	// CoreStatuses reports each core's end state, so a timeout names the
	// cores that were still running rather than just a machine-wide bool.
	CoreStatuses []CoreStatus
	// Err is set when the watchdog stopped the run: a commit-progress stall
	// or a broken ROB/LSQ invariant, with a pipeview snapshot attached.
	Err   *SimError
	Stats *stats.Set // merged core stats
}

// TimedOutCores lists the indices of cores that were still running at the
// end of a timed-out run.
func (r *RunResult) TimedOutCores() []int {
	var out []int
	for i := range r.CoreStatuses {
		if r.CoreStatuses[i].TimedOut {
			out = append(out, i)
		}
	}
	return out
}

// Run executes until every core halts or maxCycles elapse. A non-nil
// machine watchdog additionally stops the run when a core wedges (no commit
// progress) or breaks a pipeline invariant, reporting it in RunResult.Err.
func (m *Machine) Run(maxCycles uint64) *RunResult {
	return m.run(maxCycles, nil)
}

// RunUntilCommitted executes until the machine-wide committed-instruction
// count reaches target, every core halts, or maxCycles elapse — the
// instruction-bounded run the sampled-window harness uses to measure a
// fixed-length detailed window. The target is a floor, not an exact stop:
// a multi-issue commit stage can overshoot it by up to CommitWidth-1.
func (m *Machine) RunUntilCommitted(target, maxCycles uint64) *RunResult {
	return m.run(maxCycles, func() bool {
		var total uint64
		for _, c := range m.Cores {
			total += c.Committed()
		}
		return total >= target
	})
}

// run is the shared Run loop; stop, when non-nil, is an extra termination
// condition checked after every step.
func (m *Machine) run(maxCycles uint64, stop func() bool) *RunResult {
	var simErr *SimError
	var stopped bool
	m.skipLimit = maxCycles
	for m.cycle < maxCycles && !m.Done() {
		if stop != nil && stop() {
			stopped = true
			break
		}
		m.Step()
		if m.Watchdog != nil {
			if simErr = m.Watchdog.Check(m); simErr != nil {
				break
			}
		}
	}
	res := &RunResult{Cycles: m.cycle, TimedOut: !m.Done() && !stopped, FaultCore: -1, Err: simErr}
	if simErr != nil {
		res.TimedOut = false // the watchdog verdict supersedes the budget
	}
	res.Stats = stats.NewSet("machine")
	for i, c := range m.Cores {
		res.Committed += c.Committed()
		res.Stats.Merge(c.Stats)
		res.CoreStatuses = append(res.CoreStatuses, CoreStatus{
			Halted:     c.Halted,
			Faulted:    c.Faulted,
			FaultPC:    c.FaultPC,
			TimedOut:   res.TimedOut && !c.Halted && !c.Faulted,
			Committed:  c.Committed(),
			LastCommit: c.lastCommitCycle,
		})
		if c.Faulted {
			res.Faulted = true
			if res.FaultCore < 0 {
				res.FaultCore = i
			}
		}
	}
	return res
}

// Cycle returns the global cycle count.
func (m *Machine) Cycle() uint64 { return m.cycle }

// IPC returns committed instructions per cycle across the machine.
func (r *RunResult) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Committed) / float64(r.Cycles)
}

// String summarises the run.
func (r *RunResult) String() string {
	s := fmt.Sprintf("run{cycles=%d committed=%d ipc=%.2f timedOut=%v faulted=%v",
		r.Cycles, r.Committed, r.IPC(), r.TimedOut, r.Faulted)
	if cores := r.TimedOutCores(); len(cores) > 0 {
		s += fmt.Sprintf(" timedOutCores=%v", cores)
	}
	if r.Err != nil {
		s += fmt.Sprintf(" simError=%s", r.Err.Kind)
	}
	return s + "}"
}
