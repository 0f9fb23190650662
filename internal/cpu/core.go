// Package cpu implements the cycle-level out-of-order core of the simulated
// machine: an 8-wide fetch/rename/issue/commit pipeline with a reorder
// buffer, load/store queues with store-to-load forwarding and memory
// dependence prediction, a functional-unit pool with port contention, branch
// prediction (PHT/BTB/RSB/BHB), and the security-policy hooks that implement
// SpecASan and the baseline mitigations it is compared against.
//
// The pipeline models the Table 2 configuration of the paper. Functional
// correctness is defined by internal/golden; differential tests in this
// package run both and compare architectural state.
package cpu

import (
	"specasan/internal/asm"
	"specasan/internal/branch"
	"specasan/internal/cache"
	"specasan/internal/core"
	"specasan/internal/isa"
	"specasan/internal/mem"
	"specasan/internal/mte"
	"specasan/internal/obs"
	"specasan/internal/recycle"
	"specasan/internal/stats"
)

// entryState tracks an instruction's progress through the back end.
type entryState uint8

const (
	stDispatched entryState = iota // in ROB/IQ, waiting for operands or a port
	stExecuting                    // occupying a unit, result pending
	stWaitMem                      // memory access outstanding
	stWaitUnsafe                   // SpecASan: tag-mismatch delay until resolve
	stDone                         // result available
)

// source is a renamed operand: the committed register (producer == 0) or an
// in-flight producer identified by sequence number.
type source struct {
	reg      isa.Reg
	producer uint64 // 0 = read the committed register file
}

// robZero holds every robEntry scalar that resetFor returns to its zero
// value (stDispatched is 0, so state qualifies). Grouping them lets slot
// reuse clear the whole block with one memclr instead of ~35 scattered
// stores. doneAt/pendingSrcs/state lead so they land in the entry's first
// cache line next to the probe header.
type robZero struct {
	doneAt      uint64 // cycle the result becomes available
	pendingSrcs int    // renamed sources (incl. flags) still pending
	state       entryState

	hasResult   bool
	writesFlags bool
	inReadyQ    bool // member of Core.readyQ
	inRiskQ     bool // member of Core.riskQ

	// Branch bookkeeping.
	brResolved bool
	brTaken    bool

	// Memory bookkeeping.
	addrReady      bool
	memIssued      bool
	falloutForward bool // baseline partial-match forward happened
	assist         bool // load to an assist (permission-faulting) region
	memDepSpec     bool // issued past unresolved older store addresses
	prefetched     bool // SpecASan STL rule: prefetch issued while delayed

	// SpecASan.
	replayed bool

	// Leak-oracle secret taint.
	secret bool

	// Commit-time exception.
	fault      bool
	faultIsTag bool

	policyDelayed bool // delayed >= 1 cycle by the active mitigation
	tookFlags     bool // this entry claimed the flags rename slot

	outFlags isa.Flags

	flagsFrom     uint64 // producer of NZCV this entry reads (0 = committed)
	result        uint64
	actualNext    uint64
	addr          uint64 // full pointer (key byte included)
	storeData     uint64
	forwardedFrom uint64 // store seq that forwarded data (0 = none)
	lastBranchSeq uint64 // youngest older branch at dispatch (0 = none)
	// STT taint: seq of the youngest speculative-load root this value
	// depends on (0 = untainted).
	taintRoot   uint64
	issuedAt    uint64 // cycle the entry left the issue stage (obs metrics)
	unsafeSince uint64 // cycle the SpecASan unsafe delay began (0 = not delayed)
	prevFlags   uint64 // RAT flags producer displaced (when tookFlags)
}

// robEntry is one in-flight instruction. Field order is deliberate: the
// struct spans multiple cache lines, and every stage begins by probing
// valid/seq/state/doneAt through entry(), so those sit together at the top;
// the big rename backing arrays (srcsBuf/prevProd) go at the bottom where
// the steady state rarely reads them.
type robEntry struct {
	valid    bool
	isBranch bool
	isLoad   bool
	isStore  bool
	tagOK    bool
	seq      uint64
	inst     *isa.Inst
	pc       uint64

	robZero

	srcs []source

	// Branch prediction state carried over from fetch.
	predTaken  bool
	rsbPred    bool // prediction came from the RSB
	predTarget uint64
	ghrSnap    uint64 // global-history snapshot at prediction time

	// O(1) rename/wakeup bookkeeping. srcsBuf backs srcs so steady-state
	// dispatch allocates nothing; consumers keeps its backing array across
	// slot reuse for the same reason.
	srcsBuf     [4]source
	consumers   []uint64  // dispatched dependents awaiting this result
	falloutFwds []uint64  // loads this store fallout-forwarded to (stores only)
	prevProd    [2]uint64 // RAT values displaced by this entry's dsts
}

// resetFor reinitialises a ROB slot for a newly dispatched instruction.
// `*e = robEntry{...}` would duffcopy the whole ~370-byte entry per
// dispatch (it dominated the profile), so the zero-returning scalars clear
// as one robZero memclr and only the genuinely non-zero fields are stored.
// The backing arrays survive (consumers/falloutFwds/srcsBuf keep their
// storage), and srcsBuf/prevProd contents need no clearing — every read is
// bounded by the lengths/claims set during this entry's own rename.
// stDispatched is 0, so the memclr also sets the state.
func (e *robEntry) resetFor(seq uint64, fi *fetchedInst) {
	in := fi.inst
	e.robZero = robZero{}
	e.valid = true
	e.seq = seq
	e.pc = fi.pc
	e.inst = in
	e.srcs = e.srcsBuf[:0]
	e.isBranch = in.Dec.Branch
	e.predTaken = fi.predTaken
	e.predTarget = fi.predTarget
	e.rsbPred = fi.rsbPred
	e.ghrSnap = fi.ghrSnap
	e.isLoad = in.Dec.Load
	e.isStore = in.Dec.Store
	e.tagOK = true
	e.consumers = e.consumers[:0]
	e.falloutFwds = e.falloutFwds[:0]
}

// candidateEvent is a potential leak recorded at execute, promoted to a real
// leak if the instruction is later squashed (transient execution).
type candidateEvent struct {
	seq uint64
	ev  core.LeakEvent
}

// Core is one simulated hardware core.
type Core struct {
	ID  int
	cfg *core.Config
	mit core.Mitigation

	prog   *asm.Program
	hier   *cache.Hierarchy
	img    *mem.Image
	pred   *branch.Predictor
	tsh    *core.TSH
	oracle *core.Oracle

	cycle   uint64
	nextSeq uint64
	headSeq uint64
	rob     []robEntry

	cRegs [isa.NumRegs]uint64
	// cSecret tracks oracle secret taint through the committed register
	// file (a register holding secret data keeps its taint across commit —
	// needed for register-targeted LVI analysis).
	cSecret [isa.NumRegs]bool
	cFlags  isa.Flags

	// Front end.
	fetchPC        uint64
	fetchStallTo   uint64        // i-cache miss / redirect penalty
	fetchBlockedBy uint64        // unresolved branch seq stalling fetch (CFI / no-prediction)
	lastFetchLine  uint64        // line of the previous I-fetch (one access per line)
	fetchQ         []fetchedInst // power-of-two ring, indexed via fqMask
	fqHead         int           // ring index of the oldest undispatched entry
	fqCount        int           // live entries in the ring
	fqMask         int
	shadowStack    []uint64 // SpecCFI speculative shadow stack (fetch-maintained)

	// instAt's code block: the one its last walk found, and the part of
	// it, [fetchLo, fetchLo+fetchSpan), that no earlier block reaches.
	fetchBlk  *asm.CodeBlock
	fetchLo   uint64
	fetchSpan uint64

	// Back-end resources. The ALUs and the multiplier are pipelined: a
	// booking lasts exactly its issue cycle, so each keeps the cycle of its
	// latest booking (and the ALUs a count of that cycle's bookings).
	aluBookedAt uint64
	aluBooked   int
	mulBookedAt uint64
	divFree     uint64 // single non-pipelined divider
	brFree      uint64

	tagSeed uint64
	mduPred map[uint64]uint8 // load PC -> conflict counter (memory disambiguation)
	lqCount int
	sqCount int
	iqCount int

	// Termination.
	Halted   bool
	Faulted  bool
	FaultPC  uint64
	ExitCode uint64
	Output   []byte

	// Fault recovery (models a signal handler around tag/permission faults,
	// which the MDS attack loops rely on).
	FaultHandler uint64 // 0 = fault stops the core

	// Assist (permission-faulting) regions — Meltdown/MDS territory.
	assistLo, assistHi uint64

	Stats *stats.Set

	// ChaosBranchDelay, when set, returns extra cycles added to a branch's
	// issue-to-resolve latency (delayed-resolution fault injection; widens
	// the speculative window without changing the resolved outcome).
	ChaosBranchDelay func(pc uint64) uint64

	// Obs, when set, receives every pipeline and SpecASan lifecycle event
	// into this core's preallocated trace ring (internal/obs): the core's
	// only observer, behind the Chrome trace, the text trace, the pipeline
	// timeline and the Figure 5 walkthrough. Met, when set, feeds the
	// per-core latency histograms directly. Both are nil-guarded: disabled,
	// each hook site costs one pointer compare.
	Obs *obs.CoreTrace
	Met *obs.CoreMetrics

	// lastCommitCycle is the cycle of the most recent commit — the
	// watchdog's progress signal.
	lastCommitCycle uint64

	// wedged freezes the commit stage (watchdog test injection).
	wedged bool

	// candidates holds potential leak events keyed by instruction seq;
	// promoted to the oracle when the instruction is squashed.
	candidates map[uint64][]core.LeakEvent

	// Cached policy-descriptor bits (core.PolicyDescriptor): the active
	// mitigation's gates, flattened once at construction so the per-cycle
	// paths read plain bools. selectiveDly is a machine-config knob.
	mteOn        bool
	specChecks   bool
	taintOn      bool
	ghostOn      bool
	cfiOn        bool
	fenceOn      bool
	selectiveDly bool
	domOn        bool // delay-on-miss: hold speculative L1D-miss loads
	domLFBHit    bool // delay-on-miss knob: an in-flight LFB line counts as a hit

	// Incremental rename/wakeup structures. The rename map table (rat) maps
	// each architectural register to its youngest in-flight producer (0 =
	// committed register file); dispatch reads it in O(1) where it used to
	// scan the window, commit clears it, and squash unwinds it through each
	// entry's prevProd chain. The seq queues below mirror subsets of the
	// in-flight window so the stages that used to sweep the whole ROB touch
	// only the entries they care about. All are maintained exactly by
	// dispatch/resolve/releaseEntry and validated by the watchdog.
	rat      [isa.NumRegs]uint64
	ratFlags uint64

	readyQ     []uint64 // stDispatched entries with all operands available
	readyDirty bool     // readyQ needs re-sorting before issue
	wakeQ      []wakeEvent
	wakeNext   []uint64 // wake batch all due at wakeNextAt (bypasses the heap)
	wakeNextAt uint64

	branchQ  []uint64 // in-flight unresolved branches, ascending
	storeQ   []uint64 // in-flight stores, ascending
	loadQ    []uint64 // in-flight loads, ascending
	barrierQ []uint64 // in-flight SWPAL/DSB, ascending
	riskQ    []uint64 // entries with fault/assist/falloutForward set

	unresolvedStores  int    // in-flight stores with !addrReady
	tagWritesInFlight int    // in-flight STG/ST2G
	incompleteFrom    uint64 // no incomplete entry older than this (lazy)

	// Due cycles: completeExecution and advanceLSQ return at once before
	// these. brDue is at most the earliest doneAt of a stExecuting branch in
	// branchQ; lsqDue at most the earliest doneAt of a stWaitMem load in
	// loadQ, and at most the cycle after the last scan while a stWaitUnsafe
	// load waits for a branch to resolve. Each scan recomputes its own;
	// issue (a branch starting, a load's memory wait or denied forward) and
	// commit (an unsafe replay) lower them; the watchdog recounts both.
	brDue  uint64
	lsqDue uint64

	// robMask/robCap: the rob slice is sized to the next power of two above
	// the configured window so seq -> slot is a mask instead of a modulo;
	// robCap is the architectural capacity the dispatch stage enforces.
	robMask uint64
	robCap  int

	// ctrs holds the core's counter handles (see ctr).
	ctrs [numCtrs]*uint64

	// Idle-issue record (skip.go): idleIssueAt is the cycle whose issue
	// stage was idle — every ready entry visited and either policy-blocked
	// or retried without changing state, nothing issued, no unit wait, no
	// DoM block. idleBlocked counts the blocked entries per reason,
	// idleMDUWaits the retries that bumped mdu_waits, and idleHeld every
	// entry the pass kept. Valid only when idleIssueAt == cycle.
	idleIssueAt  uint64
	idleBlocked  [numBlockReasons]uint32
	idleMDUWaits uint32
	idleHeld     int
}

// ctr identifies one core counter. Counters are lazily bound pointers into
// Stats so the per-event cost is a nil check plus an increment instead of a
// string-keyed map operation. Binding on first increment preserves Stats'
// first-use key ordering and which-keys-exist semantics exactly.
type ctr uint8

const (
	ctrCommits ctr = iota
	ctrRestricted
	ctrDispatched
	ctrDispatchStall
	ctrCFIStall
	ctrLoads
	ctrStoresExec
	ctrStoresCommitted
	ctrBrCorrect
	ctrBrMispred
	ctrSquashes
	ctrSquashedInsts
	ctrAtomics
	ctrMDSStaleForwards
	ctrMDUWaits
	ctrForwardDenied
	ctrSTLForwards
	ctrFalloutBlocked
	ctrFalloutForwards
	ctrSTLDelays
	ctrOrderViolations
	ctrUnsafeReplays
	ctrUnsafeAccesses
	ctrFalloutReplays
	ctrTagStores
	ctrTagFaults
	ctrAssistFaults
	ctrChaosFlushes
	ctrCFIBlockedIndirect
	ctrCFIBlockedReturn
	ctrCFIChecks
	ctrMispredB
	ctrMispredBL
	ctrMispredBCC
	ctrMispredCBZ
	ctrMispredCBNZ
	ctrMispredBR
	ctrMispredBLR
	ctrMispredRET
	// One per blockReason, in blockReason order (see blockReason.ctr).
	ctrBlockAtomic
	ctrBlockFence
	ctrBlockSTT
	ctrBlockDelayAll
	ctrBlockDoM
	numCtrs
)

var ctrNames = [numCtrs]string{
	ctrCommits:            "commits",
	ctrRestricted:         "restricted_commits",
	ctrDispatched:         "dispatched",
	ctrDispatchStall:      "dispatch_stall_cycles",
	ctrCFIStall:           "fetch_cfi_stall_cycles",
	ctrLoads:              "loads_issued",
	ctrStoresExec:         "stores_executed",
	ctrStoresCommitted:    "stores_committed",
	ctrBrCorrect:          "branches_correct",
	ctrBrMispred:          "branches_mispredicted",
	ctrSquashes:           "squashes",
	ctrSquashedInsts:      "squashed_insts",
	ctrAtomics:            "atomics",
	ctrMDSStaleForwards:   "mds_stale_forwards",
	ctrMDUWaits:           "mdu_waits",
	ctrForwardDenied:      "forward_denied",
	ctrSTLForwards:        "stl_forwards",
	ctrFalloutBlocked:     "fallout_blocked",
	ctrFalloutForwards:    "fallout_forwards",
	ctrSTLDelays:          "stl_delays",
	ctrOrderViolations:    "order_violations",
	ctrUnsafeReplays:      "unsafe_replays",
	ctrUnsafeAccesses:     "unsafe_accesses",
	ctrFalloutReplays:     "fallout_replays",
	ctrTagStores:          "tag_stores",
	ctrTagFaults:          "tag_faults",
	ctrAssistFaults:       "assist_faults",
	ctrChaosFlushes:       "chaos_flushes",
	ctrCFIBlockedIndirect: "cfi_blocked_indirect",
	ctrCFIBlockedReturn:   "cfi_blocked_return",
	ctrCFIChecks:          "cfi_checks",
	ctrMispredB:           "mispred_B",
	ctrMispredBL:          "mispred_BL",
	ctrMispredBCC:         "mispred_B.", // matches isa.BCC.String()
	ctrMispredCBZ:         "mispred_CBZ",
	ctrMispredCBNZ:        "mispred_CBNZ",
	ctrMispredBR:          "mispred_BR",
	ctrMispredBLR:         "mispred_BLR",
	ctrMispredRET:         "mispred_RET",
	ctrBlockAtomic:        "policy_block_atomic",
	ctrBlockFence:         "policy_block_fence",
	ctrBlockSTT:           "policy_block_stt",
	ctrBlockDelayAll:      "policy_block_delay_all",
	ctrBlockDoM:           "policy_block_dom",
}

// add increments counter id by n, binding its handle on first use.
func (c *Core) add(id ctr, n uint64) {
	h := c.ctrs[id]
	if h == nil {
		h = c.Stats.Counter(ctrNames[id])
		c.ctrs[id] = h
	}
	*h += n
}

// inc increments counter id by one.
func (c *Core) inc(id ctr) { c.add(id, 1) }

type fetchedInst struct {
	pc         uint64
	inst       *isa.Inst
	predTaken  bool
	predTarget uint64
	rsbPred    bool
	ghrSnap    uint64
	// stallOnResolve marks a branch fetch could not predict (or CFI
	// refused): fetch stays stalled until this instruction resolves.
	stallOnResolve bool
}

// NewCore builds a core attached to shared machine structures. Every core of
// a machine fetches from the same program.
func NewCore(id int, cfg *core.Config, mit core.Mitigation, prog *asm.Program,
	hier *cache.Hierarchy, img *mem.Image, oracle *core.Oracle, tagSeed uint64) *Core {

	pol := mit.Descriptor()
	c := &Core{
		ID:      id,
		cfg:     cfg,
		mit:     mit,
		prog:    prog,
		hier:    hier,
		img:     img,
		oracle:  oracle,
		rob:     robs.Make(pow2ceil(cfg.ROBEntries)),
		robCap:  cfg.ROBEntries,
		nextSeq: 1,
		headSeq: 1,
		fetchPC: prog.Entry,
		mduPred: make(map[uint64]uint8),
		tagSeed: tagSeed,
		Stats:   stats.NewSet("core"),

		mteOn:        pol.MTE,
		specChecks:   pol.SpecTagChecks,
		taintOn:      pol.Taint,
		ghostOn:      pol.GhostFills,
		cfiOn:        pol.CFI,
		fenceOn:      pol.FenceLoads,
		selectiveDly: cfg.SelectiveDelay,
		domOn:        pol.DelayOnMiss,
		domLFBHit:    pol.Knob("lfb_hit_ok", 1) != 0,
	}
	c.robMask = uint64(len(c.rob) - 1)
	// Pre-size the incremental queues and the fetch buffer so the steady
	// state never allocates. The fetch ring needs 3*FetchWidth-1 slots
	// (see fqNext), rounded up to a power of two for mask indexing.
	fqCap := 1
	for fqCap < 3*cfg.FetchWidth {
		fqCap <<= 1
	}
	c.fetchQ = make([]fetchedInst, fqCap)
	c.fqMask = fqCap - 1
	c.readyQ = make([]uint64, 0, cfg.ROBEntries)
	c.wakeQ = make([]wakeEvent, 0, 2*cfg.ROBEntries)
	c.wakeNext = make([]uint64, 0, cfg.ROBEntries)
	c.branchQ = make([]uint64, 0, cfg.ROBEntries)
	c.storeQ = make([]uint64, 0, cfg.SQEntries)
	c.loadQ = make([]uint64, 0, cfg.LQEntries)
	c.barrierQ = make([]uint64, 0, cfg.ROBEntries)
	c.riskQ = make([]uint64, 0, cfg.ROBEntries)
	c.tsh = core.NewTSH(tshROB{c})
	return c
}

// robs keeps the ROBs of released machines (see Machine.Release).
var robs recycle.Slices[robEntry]

// tshROB adapts the core's ROB to the TSH's SSA signalling interface.
type tshROB struct{ c *Core }

// SignalSSA implements core.ROBSignal: the TSH notifies the ROB of a
// tag-check outcome (Figure 4 steps ④/⑥). Only speculative tag checks
// hold an unsafe access; plain MTE returns its data and faults at commit.
func (t tshROB) SignalSSA(seq uint64, safe bool) {
	if safe || !t.c.specChecks {
		return
	}
	if e := t.c.entry(seq); e != nil {
		t.c.onUnsafeAccess(e)
	}
}

// SetAssistRegion marks [lo,hi) as permission-faulting for this core's
// loads: accesses return transient (assisted) data and fault at commit.
func (c *Core) SetAssistRegion(lo, hi uint64) { c.assistLo, c.assistHi = lo, hi }

func (c *Core) inAssist(addr uint64) bool {
	a := mte.Strip(addr)
	return c.assistHi > c.assistLo && a >= c.assistLo && a < c.assistHi
}

// entry returns the ROB entry for seq if still in flight.
func (c *Core) entry(seq uint64) *robEntry {
	if seq < c.headSeq || seq >= c.nextSeq {
		return nil
	}
	e := &c.rob[seq&c.robMask]
	if !e.valid || e.seq != seq {
		return nil
	}
	return e
}

func (c *Core) robCount() int { return int(c.nextSeq - c.headSeq) }

// instAt returns the instruction at pc, or nil, exactly as
// c.prog.InstAt(pc) would. Fetch stays inside one code block for long
// stretches, so the block the last walk found is kept, with the part of it
// that no earlier block reaches (InstAt returns the first block holding pc,
// which overlapping .org blocks make matter). The Program itself is never
// written: every core of a machine, and every machine of a fuzz candidate,
// shares it.
func (c *Core) instAt(pc uint64) *isa.Inst {
	if pc-c.fetchLo < c.fetchSpan {
		if off := pc - c.fetchBlk.Addr; off%isa.InstBytes == 0 {
			return &c.fetchBlk.Insts[off/isa.InstBytes]
		}
	}
	var reach uint64 // furthest end of the blocks before b
	for i := range c.prog.Code {
		b := &c.prog.Code[i]
		end := b.Addr + uint64(len(b.Insts))*isa.InstBytes
		if pc >= b.Addr && pc < end && (pc-b.Addr)%isa.InstBytes == 0 {
			c.fetchBlk, c.fetchLo, c.fetchSpan = b, max(b.Addr, reach), 0
			if c.fetchLo < end {
				c.fetchSpan = end - c.fetchLo
			}
			return &b.Insts[(pc-b.Addr)/isa.InstBytes]
		}
		reach = max(reach, end)
	}
	return nil
}

// oldestUnresolvedBranch returns the seq of the oldest in-flight unresolved
// branch, or 0 when none exists. branchQ holds exactly the unresolved
// in-flight branches in ascending seq order, so this is its front.
func (c *Core) oldestUnresolvedBranch() uint64 {
	if len(c.branchQ) == 0 {
		return 0
	}
	return c.branchQ[0]
}

// speculative reports whether entry e executes under unresolved control
// speculation at the current moment.
func (c *Core) speculative(e *robEntry) bool {
	if e.lastBranchSeq == 0 {
		return false
	}
	ob := c.oldestUnresolvedBranch()
	return ob != 0 && ob <= e.lastBranchSeq && ob < e.seq
}

// olderIncomplete reports whether any older in-flight instruction has not
// yet produced its result — the lfence drain condition. incompleteFrom is a
// lazily advanced pointer: completion is sticky (stDone never reverts and
// doneAt <= cycle stays true as cycles advance), so entries behind it never
// become incomplete again; squash clamps it when seqs roll back.
func (c *Core) olderIncomplete(seq uint64) bool {
	if c.incompleteFrom < c.headSeq {
		c.incompleteFrom = c.headSeq
	}
	for c.incompleteFrom < c.nextSeq {
		o := &c.rob[c.incompleteFrom&c.robMask]
		if o.valid && o.seq == c.incompleteFrom && (o.state != stDone || o.doneAt > c.cycle) {
			break
		}
		c.incompleteFrom++
	}
	return c.incompleteFrom < seq
}

// specOrMemDep is the speculation definition STT and GhostMinion use:
// control speculation or an open memory-dependence window.
func (c *Core) specOrMemDep(e *robEntry) bool {
	return c.speculative(e) || c.memDepWindowOpen(e.seq)
}

// transient reports whether e is younger than any in-flight instruction
// that may still fault or misspeculate — the wider window MDS-class attacks
// use. It subsumes control speculation and covers pending faults/assists,
// unresolved store addresses (memory-dependence windows) and false
// store-to-load forwards awaiting their write-to-full-address comparison.
func (c *Core) transient(e *robEntry) bool {
	if c.speculative(e) {
		return true
	}
	// riskQ holds exactly the in-flight entries with one of those flags set
	// (usually empty; a handful under attack workloads).
	for _, s := range c.riskQ {
		if s < e.seq {
			return true
		}
	}
	return c.memDepWindowOpen(e.seq)
}

// memDepWindowOpen reports whether an older store with an unresolved
// address exists — the window memory-dependence speculation opens. STT and
// GhostMinion treat loads in this window as speculative (it is part of
// their threat model); MDS-style fault windows are not.
func (c *Core) memDepWindowOpen(seq uint64) bool {
	if c.unresolvedStores == 0 {
		return false
	}
	for _, s := range c.storeQ {
		if s >= seq {
			break
		}
		if !c.rob[s&c.robMask].addrReady {
			return true
		}
	}
	return false
}

// markRisk registers e in riskQ when its fault/assist/falloutForward flag is
// first set; releaseEntry removes it.
func (c *Core) markRisk(e *robEntry) {
	if !e.inRiskQ {
		e.inRiskQ = true
		c.riskQ = append(c.riskQ, e.seq)
		c.obsRecord(e.seq, e.pc, obs.EvRiskMark, 0)
	}
}

// obsRecord forwards one event to the attached trace ring. Small enough to
// inline; disabled tracing costs the nil compare only.
func (c *Core) obsRecord(seq, pc uint64, kind obs.EventKind, arg uint64) {
	if c.Obs != nil {
		c.Obs.Record(c.cycle, seq, pc, kind, arg)
	}
}

// taintActive reports whether an STT taint root is still live (its value
// has not reached the visibility point: all older branches resolved and all
// older store addresses known).
func (c *Core) taintActive(root uint64) bool {
	if root == 0 {
		return false
	}
	e := c.entry(root)
	if e == nil {
		return false // committed or squashed: taint cleared
	}
	return c.specOrMemDep(e)
}

// entryTainted reports whether any of e's renamed sources carries live STT
// taint, returning the youngest live root.
func (c *Core) entryTainted(e *robEntry) uint64 {
	var root uint64
	for _, s := range e.srcs {
		if p := c.entry(s.producer); p != nil && p.taintRoot != 0 && c.taintActive(p.taintRoot) {
			if p.taintRoot > root {
				root = p.taintRoot
			}
		}
	}
	if e.flagsFrom != 0 {
		if p := c.entry(e.flagsFrom); p != nil && p.taintRoot != 0 && c.taintActive(p.taintRoot) {
			if p.taintRoot > root {
				root = p.taintRoot
			}
		}
	}
	return root
}

// secretSources reports whether any renamed source carries oracle secret
// taint, in flight or through the committed register file.
func (c *Core) secretSources(e *robEntry) bool {
	for _, s := range e.srcs {
		if p := c.entry(s.producer); p != nil {
			if p.secret {
				return true
			}
		} else if s.reg != isa.XZR && c.cSecret[s.reg] {
			return true
		}
	}
	if e.flagsFrom != 0 {
		if p := c.entry(e.flagsFrom); p != nil && p.secret {
			return true
		}
	}
	return false
}

// Cycle returns the core's current cycle.
func (c *Core) Cycle() uint64 { return c.cycle }

// Committed returns the number of committed instructions.
func (c *Core) Committed() uint64 {
	if h := c.ctrs[ctrCommits]; h != nil {
		return *h
	}
	return 0
}

// Reg reads a committed architectural register (after halt).
func (c *Core) Reg(r isa.Reg) uint64 {
	if r == isa.XZR {
		return 0
	}
	return c.cRegs[r]
}

// SetReg pre-loads a committed register before the run starts.
func (c *Core) SetReg(r isa.Reg, v uint64) {
	if r != isa.XZR {
		c.cRegs[r] = v
	}
}

// TSH exposes the core's tag-check status handler (stats, tests).
func (c *Core) TSH() *core.TSH { return c.tsh }

// Predictor exposes the branch predictor (attack training, tests).
func (c *Core) Predictor() *branch.Predictor { return c.pred }

// SetPredictor wires the branch predictor (done by the Machine so tests can
// substitute pre-trained state).
func (c *Core) SetPredictor(p *branch.Predictor) { c.pred = p }

// InjectWedge freezes the commit stage: the core keeps fetching and
// executing but never commits again. Watchdog tests use it to model a hung
// pipeline without depending on a real deadlock bug.
func (c *Core) InjectWedge() { c.wedged = true }

// ChaosFlush squashes every instruction younger than the ROB head and
// redirects fetch to the head's architectural successor — an external
// pipeline flush (squash-storm fault injection). The flush is refused
// (returns false) when it cannot be applied safely this cycle: empty ROB,
// or a head that is an unresolved branch or a pending fault, where the
// architectural next PC is not yet known.
func (c *Core) ChaosFlush() bool {
	if c.Halted || c.Faulted || c.robCount() == 0 {
		return false
	}
	e := c.entry(c.headSeq)
	if e == nil || e.fault {
		return false
	}
	target := e.pc + isa.InstBytes
	if e.isBranch {
		if !e.brResolved {
			return false
		}
		target = e.actualNext
	}
	c.squashAfter(e.seq, target, 0)
	c.inc(ctrChaosFlushes)
	return true
}
