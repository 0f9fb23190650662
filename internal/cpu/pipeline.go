package cpu

import (
	"specasan/internal/core"
	"specasan/internal/isa"
	"specasan/internal/obs"
)

// Tick advances the core by one clock cycle. Stages run back-to-front so a
// result produced this cycle is consumed no earlier than the next.
func (c *Core) Tick() {
	if c.Halted || c.Faulted {
		return
	}
	c.cycle++
	c.commit()
	if c.Halted || c.Faulted {
		return
	}
	c.completeExecution()
	c.advanceLSQ()
	c.wakeup()
	c.issue()
	c.dispatch()
	c.fetch()
}

// wakeup drains due events from the wake heap and fires the producers'
// consumer lists, making dependents issue-eligible this cycle — exactly when
// the old per-cycle window scan would first have seen the result available.
// Stale events (a squash rolled nextSeq back and the seq was reused) are
// filtered by the seq/state/doneAt checks: a reused entry either scheduled
// its own event for its true doneAt or is not done yet.
func (c *Core) wakeup() {
	for len(c.wakeQ) > 0 && c.wakeQ[0].at <= c.cycle {
		ev := wakePop(&c.wakeQ)
		e := &c.rob[ev.seq&c.robMask]
		// Deliberately no e.valid check: a producer that committed this
		// cycle (commit runs before wakeup) still owes its consumers their
		// wake; they will read the committed register file.
		if e.seq != ev.seq || e.state != stDone || e.doneAt > c.cycle {
			continue
		}
		c.fireConsumers(e)
	}
	// The flat single-cycle batch (see setDone). Within a cycle, firing
	// order across distinct producers is immaterial: wakes only decrement
	// pendingSrcs and insert into the (sorted-before-issue) ready queue,
	// both order-independent, so draining this after the heap is exact.
	if len(c.wakeNext) > 0 && c.wakeNextAt <= c.cycle {
		for _, seq := range c.wakeNext {
			e := &c.rob[seq&c.robMask]
			if e.seq != seq || e.state != stDone || e.doneAt > c.cycle {
				continue
			}
			c.fireConsumers(e)
		}
		c.wakeNext = c.wakeNext[:0]
	}
}

// fireConsumers wakes every registered dependent of e: each loses one
// pending source and enters the ready queue when none remain.
func (c *Core) fireConsumers(e *robEntry) {
	for _, cs := range e.consumers {
		d := c.entry(cs)
		if d == nil || d.pendingSrcs == 0 {
			continue
		}
		d.pendingSrcs--
		if d.pendingSrcs == 0 && d.state == stDispatched {
			c.pushReady(d)
		}
	}
	e.consumers = e.consumers[:0]
}

// pushReady inserts e into the ready queue (kept ascending; marked dirty on
// out-of-order insert and re-sorted once per cycle before issue).
func (c *Core) pushReady(e *robEntry) {
	if e.inReadyQ {
		return
	}
	e.inReadyQ = true
	if n := len(c.readyQ); n > 0 && c.readyQ[n-1] > e.seq {
		c.readyDirty = true
	}
	c.readyQ = append(c.readyQ, e.seq)
}

// setDone marks e's result available at cycle `at`, waking consumers
// immediately when the result is already visible or scheduling a wake event
// otherwise.
func (c *Core) setDone(e *robEntry, at uint64) {
	e.state = stDone
	e.doneAt = at
	if at <= c.cycle {
		c.fireConsumers(e)
	} else {
		// Always scheduled (even with no consumers yet): a dependent may
		// dispatch between now and doneAt and register on the list.
		// Results sharing one due cycle (the 1-cycle ALU latency dominates)
		// batch into a flat list; mixed due cycles take the heap.
		if len(c.wakeNext) == 0 {
			c.wakeNextAt = at
			c.wakeNext = append(c.wakeNext, e.seq)
		} else if c.wakeNextAt == at {
			c.wakeNext = append(c.wakeNext, e.seq)
		} else {
			wakePush(&c.wakeQ, wakeEvent{at: at, seq: e.seq})
		}
	}
}

// ---------------------------------------------------------------- fetch --

// fqLen is the number of fetched-but-not-dispatched instructions.
func (c *Core) fqLen() int { return c.fqCount }

// fqNext returns the fetch-ring slot the next fqCount++ will publish.
// Capacity covers the worst case (the fullness check admits a group at
// 2*FetchWidth-1 entries, which can grow to 3*FetchWidth-1), so the slot
// is never live: fetch builds the fetched instruction directly in place
// and publishes it by bumping fqCount.
func (c *Core) fqNext() *fetchedInst {
	return &c.fetchQ[(c.fqHead+c.fqCount)&c.fqMask]
}

func (c *Core) fetch() {
	if c.fqCount >= c.cfg.FetchWidth*2 {
		return
	}
	if c.cycle < c.fetchStallTo {
		return
	}
	if c.fetchBlockedBy != 0 {
		if c.entry(c.fetchBlockedBy) != nil {
			c.inc(ctrCFIStall)
			return // still waiting for the branch to resolve
		}
		c.fetchBlockedBy = 0
	}
	for n := 0; n < c.cfg.FetchWidth; n++ {
		in := c.prog.InstAt(c.fetchPC)
		if in == nil {
			return // off the edge of code; dispatch will fault if reached
		}
		// One I-cache access per line per fetch group.
		if line := c.fetchPC &^ uint64(c.cfg.LineBytes-1); line != c.lastFetchLine {
			ready := c.hier.FetchInst(c.ID, c.fetchPC, c.cycle)
			if ready > c.cycle+c.cfg.L1ILatency {
				c.fetchStallTo = ready // i-cache miss
				return
			}
			c.lastFetchLine = line
		}
		fi := c.fqNext()
		*fi = fetchedInst{pc: c.fetchPC, inst: in}
		next := c.fetchPC + isa.InstBytes

		switch in.Op {
		case isa.B:
			fi.predTaken, fi.predTarget = true, uint64(in.Imm)
		case isa.BL:
			fi.predTaken, fi.predTarget = true, uint64(in.Imm)
			c.pred.PushReturn(next)
			if c.cfiOn {
				c.shadowStack = append(c.shadowStack, next)
			}
		case isa.BCC, isa.CBZ, isa.CBNZ:
			taken, snap := c.pred.PredictCond(fi.pc)
			fi.ghrSnap = snap
			if taken {
				fi.predTaken, fi.predTarget = true, uint64(in.Imm)
			}
		case isa.BR, isa.BLR:
			t, ok := c.pred.PredictIndirect(fi.pc)
			if in.Op == isa.BLR {
				c.pred.PushReturn(next)
				if c.cfiOn {
					c.shadowStack = append(c.shadowStack, next)
				}
			}
			if !ok {
				// No prediction: stall fetch until the branch resolves.
				fi.stallOnResolve = true
				c.fqCount++
				c.obsRecord(0, fi.pc, obs.EvFetch, 0)
				c.fetchBlockedBy = ^uint64(0) // rebound to the seq at dispatch
				return
			}
			fi.predTaken, fi.predTarget = true, t
			if c.cfiOn && !c.targetIsBTI(t) {
				// SpecCFI: speculation to a non-BTI target is not allowed;
				// stall until the branch resolves.
				fi.predTaken = false
				fi.stallOnResolve = true
				c.fqCount++
				c.obsRecord(0, fi.pc, obs.EvFetch, 0)
				c.fetchBlockedBy = ^uint64(0)
				c.inc(ctrCFIBlockedIndirect)
				return
			}
		case isa.RET:
			t, ok := c.pred.PredictReturn()
			fi.rsbPred = ok
			if !ok {
				fi.stallOnResolve = true
				c.fqCount++
				c.obsRecord(0, fi.pc, obs.EvFetch, 0)
				c.fetchBlockedBy = ^uint64(0)
				return
			}
			fi.predTaken, fi.predTarget = true, t
			if c.cfiOn {
				// SpecCFI: the RSB prediction must agree with the
				// speculative shadow stack; a poisoned RSB disagrees and
				// speculation is refused until the return resolves.
				if !c.shadowTopMatches(t) {
					fi.predTaken = false
					fi.stallOnResolve = true
					c.fqCount++
					c.obsRecord(0, fi.pc, obs.EvFetch, 0)
					c.fetchBlockedBy = ^uint64(0)
					c.inc(ctrCFIBlockedReturn)
					return
				}
				c.shadowStack = c.shadowStack[:len(c.shadowStack)-1]
			}
		}

		c.fqCount++
		c.obsRecord(0, fi.pc, obs.EvFetch, 0)
		if in.IsBranch() {
			// The BHB is updated speculatively at fetch with the predicted
			// path (as on real front ends) — which is exactly what makes
			// branch-history injection trainable.
			nxt := next
			if fi.predTaken {
				nxt = fi.predTarget
			}
			c.pred.NoteBranch(fi.pc, nxt)
		}
		if fi.predTaken {
			c.fetchPC = fi.predTarget
			if c.cfiOn && (in.Op == isa.BR || in.Op == isa.BLR) {
				// SpecCFI validates that the predicted target is a BTI
				// landing pad before redirecting: the check reads and
				// partially decodes the target's instruction bytes — a
				// short front-end bubble per speculated indirect branch.
				// (Returns are validated against the shadow stack
				// register-side and need no bubble when they agree.)
				c.fetchStallTo = c.cycle + 3
				c.inc(ctrCFIChecks)
			}
			return // one taken branch per fetch group
		}
		c.fetchPC = next
	}
}

func (c *Core) targetIsBTI(pc uint64) bool {
	in := c.prog.InstAt(pc)
	return in != nil && in.Op == isa.BTI
}

func (c *Core) shadowTopMatches(t uint64) bool {
	n := len(c.shadowStack)
	return n > 0 && c.shadowStack[n-1] == t
}

// ------------------------------------------------------------- dispatch --

func (c *Core) dispatch() {
	for n := 0; n < c.cfg.IssueWidth && c.fqLen() > 0; n++ {
		if c.robCount() >= c.robCap || c.iqCount >= c.cfg.IQEntries {
			c.inc(ctrDispatchStall)
			return
		}
		fi := &c.fetchQ[c.fqHead]
		in := fi.inst
		if in.IsLoad() && c.lqCount >= c.cfg.LQEntries {
			return
		}
		if in.IsStore() && c.sqCount >= c.cfg.SQEntries {
			return
		}
		c.fqHead = (c.fqHead + 1) & c.fqMask
		c.fqCount--

		seq := c.nextSeq
		c.nextSeq++
		e := &c.rob[seq&c.robMask]
		e.resetFor(seq, fi)

		// Rename sources through the map table and register this entry on
		// the wakeup list of every producer whose result is still pending.
		var srcRegs [4]isa.Reg
		for _, r := range in.Srcs(srcRegs[:0]) {
			prod := uint64(0)
			if r != isa.XZR {
				prod = c.rat[r]
			}
			e.srcs = append(e.srcs, source{reg: r, producer: prod})
			if p := c.entry(prod); p != nil && !(p.state == stDone && p.doneAt <= c.cycle) {
				p.consumers = append(p.consumers, seq)
				e.pendingSrcs++
			}
		}
		if in.ReadsFlags() {
			e.flagsFrom = c.ratFlags
			if p := c.entry(e.flagsFrom); p != nil && !(p.state == stDone && p.doneAt <= c.cycle) {
				p.consumers = append(p.consumers, seq)
				e.pendingSrcs++
			}
		}
		// Claim the map table for this entry's destination, remembering the
		// displaced producer for squash restore. (DstReg never yields XZR —
		// writes there are discarded, never renamed.)
		if d, ok := in.DstReg(); ok {
			e.prevProd[0] = c.rat[d]
			c.rat[d] = seq
		}
		if in.WritesFlags() {
			e.tookFlags = true
			e.prevFlags = c.ratFlags
			c.ratFlags = seq
		}
		// Speculation context: the youngest older branch still unresolved at
		// dispatch time is the back of the unresolved-branch queue.
		if n := len(c.branchQ); n > 0 {
			e.lastBranchSeq = c.branchQ[n-1]
		}

		if c.TraceFn != nil {
			c.trace("cycle %d: dispatch seq=%d pc=%#x %v", c.cycle, seq, fi.pc, in)
		}
		if c.Rec != nil {
			c.Rec.onDispatch(c, e)
		}
		c.obsRecord(seq, fi.pc, obs.EvDispatch, 0)
		c.iqCount++
		if e.isBranch {
			c.branchQ = append(c.branchQ, seq)
		}
		if e.isLoad {
			c.lqCount++
			c.loadQ = append(c.loadQ, seq)
		}
		if e.isStore {
			c.sqCount++
			c.storeQ = append(c.storeQ, seq)
			c.unresolvedStores++
			if in.Op == isa.STG || in.Op == isa.ST2G {
				c.tagWritesInFlight++
			}
		}
		if in.Op == isa.SWPAL || in.Op == isa.DSB {
			c.barrierQ = append(c.barrierQ, seq)
		}
		if e.isLoad || e.isStore {
			c.tsh.Allocate(seq)
		}
		if e.pendingSrcs == 0 {
			c.pushReady(e)
		}
		if fi.stallOnResolve {
			c.fetchBlockedBy = seq // fetch resumes when this branch resolves
		}
		c.inc(ctrDispatched)
	}
}

// youngestProducerScan is the O(window) reference rename the map table
// replaced; the watchdog cross-checks rat against it.
func (c *Core) youngestProducerScan(r isa.Reg, seq uint64) uint64 {
	if r == isa.XZR {
		return 0
	}
	var dsts [2]isa.Reg
	for s := seq - 1; s >= c.headSeq && s > 0; s-- {
		o := &c.rob[s&c.robMask]
		if o.valid && o.seq == s {
			for _, d := range o.inst.Dsts(dsts[:0]) {
				if d == r {
					return o.seq
				}
			}
		}
		if s == c.headSeq {
			break
		}
	}
	return 0
}

func (c *Core) youngestFlagsProducerScan(seq uint64) uint64 {
	for s := seq - 1; s >= c.headSeq && s > 0; s-- {
		o := &c.rob[s&c.robMask]
		if o.valid && o.seq == s && o.inst.WritesFlags() {
			return o.seq
		}
		if s == c.headSeq {
			break
		}
	}
	return 0
}

// --------------------------------------------------------------- issue --

// readSource returns (value, ready) for a renamed source.
func (c *Core) readSource(s source) (uint64, bool) {
	if s.reg == isa.XZR {
		return 0, true
	}
	if s.producer == 0 {
		return c.cRegs[s.reg], true
	}
	p := c.entry(s.producer)
	if p == nil {
		// Producer committed after rename: value is in the register file.
		return c.cRegs[s.reg], true
	}
	if p.state == stDone && p.doneAt <= c.cycle {
		return p.result, true
	}
	return 0, false
}

func (c *Core) readFlags(e *robEntry) (isa.Flags, bool) {
	if e.flagsFrom == 0 {
		return c.cFlags, true
	}
	p := c.entry(e.flagsFrom)
	if p == nil {
		return c.cFlags, true
	}
	if p.state == stDone && p.doneAt <= c.cycle {
		return p.outFlags, true
	}
	return isa.Flags{}, false
}

func (c *Core) operandsReady(e *robEntry) bool {
	for _, s := range e.srcs {
		if _, ok := c.readSource(s); !ok {
			return false
		}
	}
	if e.inst.ReadsFlags() {
		if _, ok := c.readFlags(e); !ok {
			return false
		}
	}
	return true
}

func (c *Core) issue() {
	// readyQ holds exactly the stDispatched entries whose operands are all
	// available (maintained by dispatch/fireConsumers/releaseEntry), kept in
	// ascending seq order so issue priority matches the old oldest-first ROB
	// scan. Out-of-order wakeup inserts mark it dirty; one nearly-sorted
	// insertion sort per cycle restores order.
	if c.readyDirty {
		insertionSortU64(c.readyQ)
		c.readyDirty = false
	}
	// One pass with a write index: kept entries compact toward the front,
	// issued and stale ones drop out, and the unscanned tail is moved down
	// at the end. This replaces the old splice-per-removal (an O(n) copy
	// for every issued instruction). A squash inside startExecution only
	// seqRemoves younger entries, which sort after index i, so both
	// cursors stay valid.
	//
	// The pass also decides whether this cycle's issue was idle: every kept
	// entry policy-blocked by a gate other than DoM, nothing issued, no unit
	// wait. Idle issue with the blocked counts recorded lets nextEventCycle
	// skip a non-empty ready queue (skip.go).
	issued := 0
	busy := false // an entry waits on a unit, or DoM blocked one
	var blocked [numBlockReasons]uint32
	i, w := 0, 0
	for ; i < len(c.readyQ) && issued < c.cfg.IssueWidth; i++ {
		seq := c.readyQ[i]
		e := c.entry(seq)
		if e == nil || e.state != stDispatched {
			// Stale (issued or squashed out from under us): drop.
			if e != nil {
				e.inReadyQ = false
			}
			continue
		}
		if r := c.policyBlocksIssue(e); r != blockNone {
			e.policyDelayed = true
			c.inc(r.ctr())
			blocked[r]++
			busy = busy || r == blockDoM
			c.readyQ[w] = seq
			w++
			continue
		}
		if !c.unitAvailable(e) {
			busy = true
			c.readyQ[w] = seq
			w++
			continue
		}
		if c.Rec != nil {
			c.Rec.onIssue(c, e)
		}
		e.issuedAt = c.cycle
		c.obsRecord(e.seq, e.pc, obs.EvIssue, 0)
		c.startExecution(e)
		issued++
		if e.state == stDispatched {
			// Memory op could not proceed this cycle (port/LFB); retry.
			c.readyQ[w] = seq
			w++
			continue
		}
		e.inReadyQ = false
	}
	if w != i {
		n := copy(c.readyQ[w:], c.readyQ[i:])
		c.readyQ = c.readyQ[:w+n]
	}
	if issued == 0 && !busy && w > 0 {
		c.idleIssueAt = c.cycle
		c.idleBlocked = blocked
		c.idleBlockedSum = w
	}
}

// unitAvailable checks (without booking) that a port exists this cycle.
func (c *Core) unitAvailable(e *robEntry) bool {
	switch e.inst.Classify() {
	case isa.ClassMulDiv:
		if e.inst.Op == isa.MUL {
			return c.minOf(c.mulFree) <= c.cycle
		}
		return c.divFree <= c.cycle
	case isa.ClassBranch, isa.ClassIndirect:
		return c.brFree <= c.cycle
	case isa.ClassALU, isa.ClassNop, isa.ClassSystem:
		return c.minOf(c.aluFree) <= c.cycle
	default: // memory classes use cache ports, modelled in the hierarchy
		return true
	}
}

func (c *Core) minOf(v []uint64) uint64 {
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func (c *Core) bookUnit(v []uint64, until uint64) {
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] < v[best] {
			best = i
		}
	}
	v[best] = until
}

// startExecution computes results functionally and books timing.
func (c *Core) startExecution(e *robEntry) {
	c.iqCount--
	c.obsRecord(e.seq, e.pc, obs.EvExec, 0)
	in := e.inst
	spec := c.speculative(e)
	trans := spec || c.transient(e)

	// STT taint and oracle secret taint flow into every executed value.
	if c.taintOn {
		e.taintRoot = c.entryTainted(e)
	}
	if c.oracle.HasSecrets() && c.secretSources(e) {
		e.secret = true
		if trans {
			c.recordContention(e)
		}
	}

	switch in.Classify() {
	case isa.ClassNop:
		c.setDone(e, c.cycle+1)

	case isa.ClassALU:
		rn, _ := c.readSource2(e, in.Rn)
		rm := uint64(0)
		if in.HasImm {
			rm = uint64(in.Imm)
		} else {
			rm, _ = c.readSource2(e, in.Rm)
		}
		oldRd, _ := c.readSource2(e, in.Rd)
		fl, _ := c.readFlags(e)
		res := isa.EvalALU(in, isa.ALUInputs{Rn: rn, Rm: rm, OldRd: oldRd, Flags: fl, TagSeed: c.tagSeed})
		e.result, e.hasResult = res.Value, in.Op != isa.CMP
		e.outFlags, e.writesFlags = res.Flags, res.WritesFlags
		c.setDone(e, c.cycle+1)
		c.bookUnit(c.aluFree, c.cycle+1)

	case isa.ClassMulDiv:
		rn, _ := c.readSource2(e, in.Rn)
		rm, _ := c.readSource2(e, in.Rm)
		res := isa.EvalALU(in, isa.ALUInputs{Rn: rn, Rm: rm})
		e.result, e.hasResult = res.Value, true
		if in.Op == isa.MUL {
			c.bookUnit(c.mulFree, c.cycle+1) // pipelined
			c.setDone(e, c.cycle+uint64(c.cfg.MulLat))
		} else {
			// Early-out divider: latency depends on operand magnitude —
			// the SpectreRewind contention surface.
			lat := c.divLatency(rn)
			c.divFree = c.cycle + lat // not pipelined
			if e.secret && trans {
				c.recordEvent(e, core.ChanDivider)
			}
			c.setDone(e, c.cycle+lat)
		}

	case isa.ClassBranch, isa.ClassIndirect:
		rn, _ := c.readSource2(e, in.Rn)
		fl, _ := c.readFlags(e)
		out := isa.EvalBranch(in, e.pc, rn, fl)
		if out.WritesLink {
			e.result, e.hasResult = out.Link, true
		}
		e.brTaken = out.Taken
		e.actualNext = out.Target
		if !out.Taken {
			e.actualNext = e.pc + isa.InstBytes
		}
		e.state = stExecuting
		e.doneAt = c.cycle + uint64(c.cfg.BranchLat)
		if c.ChaosBranchDelay != nil {
			e.doneAt += c.ChaosBranchDelay(e.pc)
		}
		c.brFree = c.cycle + 1
		if e.secret && trans {
			// A branch consuming secret data perturbs fetch/execute timing.
			c.recordEvent(e, core.ChanPort)
		}

	case isa.ClassLoad, isa.ClassStore, isa.ClassAtomic, isa.ClassTagOp:
		c.startMemOp(e)

	case isa.ClassSystem:
		c.startSystem(e)
	}
	if e.state == stDispatched {
		// Memory op could not proceed yet; return it to the queue's view.
		c.iqCount++
	}
}

// readSource2 reads the current value of arch register r as renamed for e.
func (c *Core) readSource2(e *robEntry, r isa.Reg) (uint64, bool) {
	for _, s := range e.srcs {
		if s.reg == r {
			return c.readSource(s)
		}
	}
	if r == isa.XZR {
		return 0, true
	}
	return c.cRegs[r], true
}

// divLatency models an early-terminating divider.
func (c *Core) divLatency(dividend uint64) uint64 {
	lat := uint64(4)
	for v := dividend; v != 0; v >>= 8 {
		lat += 1
	}
	if lat > uint64(c.cfg.DivLat) {
		lat = uint64(c.cfg.DivLat)
	}
	return lat
}

func (c *Core) startSystem(e *robEntry) {
	in := e.inst
	switch in.Op {
	case isa.MRS:
		e.result, e.hasResult = c.cycle, true
		c.setDone(e, c.cycle+1)
	case isa.DSB:
		// Full barrier: completes only when it is the oldest instruction.
		if e.seq == c.headSeq {
			c.setDone(e, c.cycle+1)
		} else {
			e.state = stDispatched
		}
	case isa.DC:
		// Address computed now; the flush itself happens at commit.
		rn, _ := c.readSource2(e, in.Rn)
		e.addr = rn
		e.addrReady = true
		c.setDone(e, c.cycle+1)
	case isa.SVC, isa.HLT:
		// Effects applied at commit; mark done so commit can reach them.
		c.setDone(e, c.cycle+1)
	default:
		c.setDone(e, c.cycle+1)
	}
	if e.state == stDispatched {
		// keep IQ slot accounting consistent with startExecution's caller
		return
	}
	c.bookUnit(c.aluFree, c.cycle+1)
}

// ------------------------------------------------- execution completion --

func (c *Core) completeExecution() {
	// Resolve branches oldest-first so squashes do not race. branchQ holds
	// exactly the unresolved in-flight branches ascending; a correct
	// resolution removes index i (the next branch slides into it), a
	// mispredict squashes the rest of the queue.
	for i := 0; i < len(c.branchQ); {
		e := c.entry(c.branchQ[i])
		if e == nil {
			c.branchQ = append(c.branchQ[:i], c.branchQ[i+1:]...)
			continue
		}
		if e.state == stExecuting && e.doneAt <= c.cycle {
			if mispredicted := c.resolveBranch(e); mispredicted {
				break // squash flushed everything younger
			}
			continue // e left branchQ; same index is the next branch
		}
		i++
	}
}

func (c *Core) resolveBranch(e *robEntry) (mispredicted bool) {
	e.brResolved = true
	e.state = stDone
	c.branchQ = seqRemove(c.branchQ, e.seq)
	in := e.inst
	taken := e.brTaken
	correct := e.predTaken == taken && (!taken || e.predTarget == e.actualNext)
	if c.TraceFn != nil {
		c.trace("cycle %d: resolve seq=%d pc=%#x %v -> %#x (pred taken=%v tgt=%#x, %s)",
			c.cycle, e.seq, e.pc, in, e.actualNext, e.predTaken, e.predTarget,
			map[bool]string{true: "correct", false: "MISPREDICT"}[correct])
	}

	// Train the predictors.
	switch in.Op {
	case isa.BCC, isa.CBZ, isa.CBNZ:
		c.pred.ResolveCond(e.pc, e.ghrSnap, e.predTaken, taken)
	case isa.BR, isa.BLR:
		c.pred.UpdateIndirect(e.pc, e.actualNext, e.predTarget, e.predTaken)
	case isa.RET:
		c.pred.NoteReturnResolved(e.predTarget, e.rsbPred, e.actualNext)
	}

	if c.fetchBlockedBy == e.seq {
		c.fetchBlockedBy = 0
		if correct && !e.predTaken {
			// fetch was stalled waiting for this branch; restart after it
			c.fetchPC = e.actualNext
			c.fetchStallTo = c.cycle + 1
		}
	}
	if correct {
		c.inc(ctrBrCorrect)
		// The link-register result becomes visible now (doneAt <= cycle);
		// wake dependents exactly when the old polling would have seen it.
		c.fireConsumers(e)
		return false
	}
	c.inc(ctrBrMispred)
	c.inc(mispredCtr(in.Op))
	// Every registered consumer is younger and about to be squashed; drop
	// them so the seqs cannot alias to re-dispatched instructions.
	e.consumers = e.consumers[:0]
	c.squashAfter(e.seq, e.actualNext)
	return true
}

// mispredCtr returns the per-op mispredict counter. The cases are exactly
// the ops isa.Classify puts in ClassBranch/ClassIndirect, the only ones
// resolveBranch sees.
func mispredCtr(op isa.Op) ctr {
	switch op {
	case isa.B:
		return ctrMispredB
	case isa.BL:
		return ctrMispredBL
	case isa.BCC:
		return ctrMispredBCC
	case isa.CBZ:
		return ctrMispredCBZ
	case isa.CBNZ:
		return ctrMispredCBNZ
	case isa.BR:
		return ctrMispredBR
	case isa.BLR:
		return ctrMispredBLR
	}
	return ctrMispredRET
}

// restoreRAT unwinds the rename map table for a squash keeping boundary as
// the youngest surviving instruction. It runs before the entries are
// released (their prevProd chains are still intact), youngest-first so
// displacement chains unwind in reverse claim order: a restored value that
// is itself a squashed producer is older than the current entry and gets
// unwound when the loop reaches it.
func (c *Core) restoreRAT(boundary uint64) {
	for s := c.nextSeq - 1; s > boundary; s-- {
		e := &c.rob[s&c.robMask]
		if !e.valid || e.seq != s {
			continue
		}
		if d, ok := e.inst.DstReg(); ok && c.rat[d] == s {
			v := e.prevProd[0]
			if v != 0 && v <= boundary && c.entry(v) == nil {
				v = 0 // displaced producer committed since dispatch
			}
			c.rat[d] = v
		}
		if e.tookFlags && c.ratFlags == s {
			v := e.prevFlags
			if v != 0 && v <= boundary && c.entry(v) == nil {
				v = 0
			}
			c.ratFlags = v
		}
	}
}

// squashAfter flushes every instruction younger than seq and redirects
// fetch to target.
func (c *Core) squashAfter(seq uint64, target uint64) {
	c.restoreRAT(seq)
	var depth uint64
	for s := seq + 1; s < c.nextSeq; s++ {
		e := &c.rob[s&c.robMask]
		if !e.valid {
			continue
		}
		depth++
		c.releaseEntry(e, true)
	}
	if c.Met != nil {
		c.Met.SquashDepth.Observe(depth)
	}
	c.nextSeq = seq + 1
	if c.incompleteFrom > c.nextSeq {
		c.incompleteFrom = c.nextSeq
	}
	c.fqHead, c.fqCount = 0, 0
	c.fetchPC = target
	c.fetchStallTo = c.cycle + 2 // redirect penalty
	c.fetchBlockedBy = 0
	if c.cfiOn {
		c.shadowStack = c.shadowStack[:0]
	}
	c.inc(ctrSquashes)
	if c.TraceFn != nil {
		c.trace("cycle %d: squash younger than seq=%d, refetch %#x", c.cycle, seq, target)
	}
}

// releaseEntry tears down per-entry resources: queue membership, rename-map
// claims (commit path; squash unwinding happens in restoreRAT first), and —
// on the squash path — this entry's registrations on surviving producers'
// consumer lists, so a reused seq can never alias a stale wakeup.
func (c *Core) releaseEntry(e *robEntry, squashed bool) {
	if e.state == stDispatched {
		c.iqCount--
	}
	if e.unsafeSince != 0 {
		// The SpecASan hold ends here: on the Spectre path the misprediction
		// resolves to a squash and the held access never replays, so this —
		// not replayUnsafe — is where most tag-check delays close.
		d := c.cycle - e.unsafeSince
		if c.Met != nil {
			c.Met.TagDelay.Observe(d)
		}
		c.obsRecord(e.seq, e.pc, obs.EvTagDelayEnd, d)
		e.unsafeSince = 0
	}
	if e.inReadyQ {
		e.inReadyQ = false
		c.readyQ = seqRemove(c.readyQ, e.seq)
	}
	if e.inRiskQ {
		e.inRiskQ = false
		c.riskQ = seqRemove(c.riskQ, e.seq)
		c.obsRecord(e.seq, e.pc, obs.EvRiskClear, 0)
	}
	if e.isLoad {
		c.lqCount--
		c.loadQ = seqRemove(c.loadQ, e.seq)
	}
	if e.isStore {
		c.sqCount--
		c.storeQ = seqRemove(c.storeQ, e.seq)
		if !e.addrReady {
			c.unresolvedStores--
		}
		if e.inst.Op == isa.STG || e.inst.Op == isa.ST2G {
			c.tagWritesInFlight--
		}
	}
	if e.inst.Op == isa.SWPAL || e.inst.Op == isa.DSB {
		c.barrierQ = seqRemove(c.barrierQ, e.seq)
	}
	if e.isLoad || e.isStore {
		c.tsh.Release(e.seq)
	}
	if squashed {
		if e.isBranch && !e.brResolved {
			c.branchQ = seqRemove(c.branchQ, e.seq)
		}
		// Unregister from surviving producers (released producers are older
		// and already invalid here; entry() returns nil for them).
		for i := range e.srcs {
			if p := c.entry(e.srcs[i].producer); p != nil && len(p.consumers) > 0 {
				p.consumers = seqRemoveAll(p.consumers, e.seq)
			}
		}
		if e.flagsFrom != 0 {
			if p := c.entry(e.flagsFrom); p != nil && len(p.consumers) > 0 {
				p.consumers = seqRemoveAll(p.consumers, e.seq)
			}
		}
		e.consumers = e.consumers[:0]
		if c.Rec != nil {
			c.Rec.onSquash(c, e)
		}
		c.obsRecord(e.seq, e.pc, obs.EvSquash, 0)
		if c.ghostOn && e.isLoad && e.memIssued && e.addrReady {
			c.hier.DropGhost(c.ID, e.addr)
		}
		c.promoteCandidates(e.seq)
		c.inc(ctrSquashedInsts)
	} else {
		// Commit: this entry's map-table claims revert to the committed
		// register file.
		if d, ok := e.inst.DstReg(); ok && c.rat[d] == e.seq {
			c.rat[d] = 0
		}
		if e.tookFlags && c.ratFlags == e.seq {
			c.ratFlags = 0
		}
	}
	e.valid = false
}

// --------------------------------------------------------------- commit --

func (c *Core) commit() {
	if c.wedged {
		return // injected commit-stage freeze (watchdog tests)
	}
	for n := 0; n < c.cfg.CommitWidth; n++ {
		if c.robCount() == 0 {
			return
		}
		e := &c.rob[c.headSeq&c.robMask]
		if !e.valid {
			c.headSeq++
			continue
		}
		if e.state != stDone || e.doneAt > c.cycle {
			// SpecASan: an unsafe access that reached the ROB head is no
			// longer speculative — replay it (or it faults).
			if e.state == stWaitUnsafe && !c.speculative(e) {
				c.replayUnsafe(e)
			}
			return
		}
		if e.fault {
			c.raiseFault(e)
			return
		}
		if c.Rec != nil {
			c.Rec.onComplete(c, e)
			c.Rec.onCommit(c, e)
		}
		// Every committed entry passed through issue, so issuedAt is set.
		if c.Met != nil {
			c.Met.IssueToCommit.Observe(c.cycle - e.issuedAt)
		}
		c.obsRecord(e.seq, e.pc, obs.EvCommit, c.cycle-e.issuedAt)
		c.commitEntry(e)
		c.dropCandidates(e.seq)
		c.releaseEntry(e, false)
		c.headSeq++
		c.lastCommitCycle = c.cycle
		c.inc(ctrCommits)
		if e.policyDelayed {
			c.inc(ctrRestricted)
		}
		if c.Halted || c.Faulted {
			return
		}
	}
}

func (c *Core) commitEntry(e *robEntry) {
	in := e.inst
	// Write back register results and flags.
	if e.hasResult {
		if d, ok := in.DstReg(); ok {
			c.cRegs[d] = e.result
			c.cSecret[d] = e.secret
		}
	}
	if e.writesFlags {
		c.cFlags = e.outFlags
	}

	switch in.Op {
	case isa.STR, isa.STRB, isa.STG, isa.ST2G, isa.SWPAL:
		c.commitStore(e)
	case isa.DC:
		c.hier.FlushLine(e.addr, c.cycle)
	case isa.SVC:
		c.commitSVC(e)
	case isa.HLT:
		c.Halted = true
	}
	if c.ghostOn && e.isLoad && e.memIssued {
		c.hier.PromoteGhost(c.ID, e.addr, c.cycle)
	}
}

func (c *Core) commitSVC(e *robEntry) {
	switch e.inst.Imm {
	case 0:
		c.Halted = true
		c.ExitCode = c.cRegs[isa.X0]
	case 1:
		c.Output = append(c.Output, []byte(formatInt(c.cRegs[isa.X0]))...)
	case 2:
		c.Output = append(c.Output, byte(c.cRegs[isa.X0]))
	}
}

func formatInt(v uint64) string {
	// small local helper to avoid fmt in the hot path
	if v == 0 {
		return "0\n"
	}
	var buf [24]byte
	i := len(buf)
	buf[i-1] = '\n'
	i--
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// raiseFault delivers a commit-time fault: squash everything and either
// redirect to the registered handler or stop the core.
func (c *Core) raiseFault(e *robEntry) {
	if e.faultIsTag {
		c.tsh.OnFault(e.seq)
		c.inc(ctrTagFaults)
	} else {
		c.inc(ctrAssistFaults)
	}
	// The faulting instruction and everything younger is squashed; its
	// transient dependents' candidate events become real leaks.
	c.promoteCandidates(e.seq)
	c.restoreRAT(e.seq - 1)
	for s := e.seq; s < c.nextSeq; s++ {
		en := &c.rob[s&c.robMask]
		if en.valid {
			c.releaseEntry(en, true)
		}
	}
	c.nextSeq = e.seq
	if c.incompleteFrom > c.nextSeq {
		c.incompleteFrom = c.nextSeq
	}
	if c.FaultHandler != 0 {
		c.fqHead, c.fqCount = 0, 0
		c.fetchPC = c.FaultHandler
		c.fetchStallTo = c.cycle + 8 // trap latency
		c.fetchBlockedBy = 0
		return
	}
	c.Faulted = true
	c.FaultPC = e.pc
}
