package cpu

// Event-driven idle-cycle skipping.
//
// A cycle is *idle* for a core when its Tick would change nothing except the
// per-cycle stall counters (dispatch_stall_cycles, fetch_cfi_stall_cycles,
// and policy_block_* for ready entries an issue gate holds back).
// nextEventCycle computes a conservative lower bound on the first non-idle
// cycle; Machine.skipIdle jumps simulated time to the minimum across running
// cores and adds the stall counters analytically for the cycles it skipped,
// so a skipping run is bit-identical to a non-skipping one — same cycle
// counts, stats, traces, and architectural state. Skipped cycles emit no obs
// events, matching the non-skipping run (idle cycles emit none either).
//
// Exactness rests on every cycle-driven transition being visible here:
//   - commit:   ROB head stDone commits at doneAt (invalid head / replayable
//     stWaitUnsafe head mean next-cycle work → no skip)
//   - completeExecution: branchQ stExecuting resolves at doneAt
//   - advanceLSQ: loadQ stWaitMem completes at doneAt; a non-speculative
//     stWaitUnsafe load replays next cycle → no skip
//   - wakeup:   wakeQ[0].at (heap pops are (at,seq)-total-ordered, so pop
//     *timing* cannot reorder effects)
//   - issue:    a non-empty readyQ touches state every cycle (port retries,
//     stale splices, issuing) → no skip, unless this cycle's issue was idle
//     (every entry policy-blocked by a gate other than DoM, none issued,
//     none waiting on a unit) and dispatch pushed nothing after it. Those
//     gates read only older in-flight state — head position, unresolved
//     branches, older completions (each a doneAt wake), store addresses,
//     taint roots — which changes only at the events listed here, so each
//     entry stays blocked for the same reason until the next event; the
//     per-reason policy_block_* counts are added analytically. DoM's probe
//     reads LFB fill timing, which no core event tracks → no skip
//   - dispatch: would-dispatch → no skip; stalled dispatch only burns the
//     stall counter, and its unblocking is a commit/issue event seen above
//   - fetch:    resumes at fetchStallTo when unblocked; a dead or sentinel
//     fetchBlockedBy is cleared next cycle → no skip; a live blocker only
//     burns the CFI-stall counter until its branch resolves (a branch event)
// Everything else in the system (hierarchy ports, MSHRs, LFBs, DRAM,
// prefetcher, oracle) is pull-based: state changes happen inside core-tick
// calls, never "between" them, so no standalone events exist there.
//
// The watchdog is handled by the machine: skips never cross a CheckEvery
// boundary, so Watchdog.Check observes the same cycles it would unskipped.

// noEvent means "no future event known" — the core is waiting on nothing
// this model tracks (wedged or spinning off the code edge). The machine may
// still skip such cores up to the watchdog boundary or the cycle budget.
const noEvent = ^uint64(0)

// nextEventCycle returns the earliest cycle at which this core's Tick could
// do anything beyond the analytic stall counters. A return of c.cycle+1
// means "cannot skip"; noEvent means "no tracked event". Must only be called
// between Ticks (i.e. after a full Machine.Step).
func (c *Core) nextEventCycle() uint64 {
	now := c.cycle
	if c.wedged {
		// Injected commit freeze (watchdog tests): commit's behaviour is no
		// longer a pure function of tracked events; never skip.
		return now + 1
	}
	earliest := noEvent
	consider := func(at uint64) {
		if at <= now {
			at = now + 1
		}
		if at < earliest {
			earliest = at
		}
	}

	// issue: a non-empty ready queue does per-cycle work (unit retries,
	// stale-entry splices, issuing) unless this cycle's issue was idle and
	// dispatch has pushed nothing since: then every entry stays blocked,
	// for the same reason, until one of the events below.
	if len(c.readyQ) > 0 && (c.idleIssueAt != now || len(c.readyQ) != c.idleBlockedSum) {
		return now + 1
	}

	// commit: the ROB head.
	if c.robCount() > 0 {
		e := &c.rob[c.headSeq&c.robMask]
		switch {
		case !e.valid:
			return now + 1 // commit skips the hole next cycle
		case e.state == stDone:
			consider(e.doneAt)
		case e.state == stWaitUnsafe && !c.speculative(e):
			return now + 1 // commit replays it next cycle
		}
	}

	// wakeup: the earliest scheduled wake (stale or not — stale events are
	// popped, a mutation, at exactly this cycle), from the heap and the
	// flat single-cycle batch alike.
	if len(c.wakeQ) > 0 {
		consider(c.wakeQ[0].at)
	}
	if len(c.wakeNext) > 0 {
		consider(c.wakeNextAt)
	}
	// now+1 is the floor: once something is due next cycle the scan cannot
	// produce anything earlier, so skip the per-entry queue walks below.
	// (Results ready next cycle are the common case on compute-bound code,
	// which is exactly where this probe must stay cheap.)
	if earliest == now+1 {
		return earliest
	}

	// completeExecution: unresolved branches.
	for _, s := range c.branchQ {
		e := c.entry(s)
		if e == nil {
			return now + 1 // completeExecution splices it next cycle
		}
		switch e.state {
		case stExecuting:
			consider(e.doneAt)
		case stDispatched:
			// waiting on operands (a wake event) or in readyQ (handled above)
		default:
			return now + 1 // unexpected; stay exact by not skipping
		}
	}

	if earliest == now+1 {
		return earliest
	}

	// advanceLSQ: outstanding loads.
	for _, s := range c.loadQ {
		e := c.entry(s)
		if e == nil {
			return now + 1
		}
		switch e.state {
		case stWaitMem:
			consider(e.doneAt)
		case stWaitUnsafe:
			if !c.speculative(e) {
				return now + 1 // replays next cycle
			}
			// else: released by a branch resolution, covered above
		}
	}

	// dispatch: would it move an instruction into the ROB next cycle?
	if c.fqLen() > 0 {
		if c.robCount() >= c.robCap || c.iqCount >= c.cfg.IQEntries {
			// Stalled: only the stall counter advances (added analytically);
			// unblocking requires a commit or issue, events seen above.
		} else {
			fi := &c.fetchQ[c.fqHead]
			if (fi.inst.IsLoad() && c.lqCount >= c.cfg.LQEntries) ||
				(fi.inst.IsStore() && c.sqCount >= c.cfg.SQEntries) {
				// Silent LSQ block; unblocked by a commit, covered above.
			} else {
				return now + 1
			}
		}
	}

	// fetch: fqCount is exactly what fetch's fullness check will see.
	if c.fqCount < c.cfg.FetchWidth*2 {
		if c.fetchBlockedBy != 0 {
			if c.entry(c.fetchBlockedBy) == nil {
				// Dead blocker (or the pre-dispatch ^0 sentinel): fetch
				// clears it and proceeds next cycle.
				return now + 1
			}
			// Live blocker: fetch only burns the CFI-stall counter (added
			// analytically); release is a branch event, covered above.
		} else if c.prog.InstAt(c.fetchPC) != nil {
			consider(c.fetchStallTo) // resumes once the i-cache stall expires
		}
		// Off the code edge: fetch stays idle until a squash redirects it —
		// driven by the events above.
	}

	return earliest
}

// accountSkippedStalls adds the per-cycle stall counters for the idle cycles
// in (c.cycle, target), exactly as ticking each of them would have.
func (c *Core) accountSkippedStalls(target uint64) {
	now := c.cycle
	skipped := target - 1 - now
	// issue: each blocked ready entry bumps its policy_block_* counter once
	// per cycle (nextEventCycle admits a non-empty queue only after an idle
	// issue this cycle, so the recorded counts are current).
	if len(c.readyQ) > 0 {
		for r := blockAtomic; r < numBlockReasons; r++ {
			if n := c.idleBlocked[r]; n > 0 {
				c.add(r.ctr(), uint64(n)*skipped)
			}
		}
	}
	// dispatch: one bump per cycle while instructions wait on a full ROB/IQ.
	if c.fqLen() > 0 && (c.robCount() >= c.robCap || c.iqCount >= c.cfg.IQEntries) {
		c.add(ctrDispatchStall, skipped)
	}
	// fetch: one bump per cycle with queue space, the stall window expired,
	// and a live blocking branch — fetch checks in exactly that order.
	if c.fqCount < c.cfg.FetchWidth*2 && c.fetchBlockedBy != 0 &&
		c.entry(c.fetchBlockedBy) != nil {
		from := now + 1
		if c.fetchStallTo > from {
			from = c.fetchStallTo
		}
		if target > from {
			c.add(ctrCFIStall, target-from)
		}
	}
}

// skipIdle jumps the machine from m.cycle to just before the earliest next
// event across running cores, when that saves at least one full Step. Called
// by Step after ticking; never active under a PerCycle hook (the chaos
// injector must see every cycle).
func (m *Machine) skipIdle() {
	now := m.cycle
	target := noEvent
	running := false
	for _, c := range m.Cores {
		if c.Halted || c.Faulted {
			continue
		}
		running = true
		e := c.nextEventCycle()
		if e <= now+1 {
			return // this core has work next cycle
		}
		if e < target {
			target = e
		}
	}
	if !running {
		return // machine is done; Run exits at the current cycle
	}
	// Never skip across a watchdog boundary: Check must observe the same
	// multiples of CheckEvery it would unskipped (this also bounds the jump
	// when no core reports an event — a wedge the watchdog will call).
	if m.Watchdog != nil && m.Watchdog.CheckEvery > 0 {
		if b := (now/m.Watchdog.CheckEvery + 1) * m.Watchdog.CheckEvery; b < target {
			target = b
		}
	}
	// Never skip past the run's cycle budget: a timed-out run must end on
	// the same cycle count as an unskipped one.
	if m.skipLimit > 0 && m.skipLimit < target {
		target = m.skipLimit
	}
	if target == noEvent || target <= now+1 {
		return
	}
	for _, c := range m.Cores {
		if c.Halted || c.Faulted {
			continue
		}
		c.accountSkippedStalls(target)
		c.cycle = target - 1
	}
	m.cycle = target - 1
}
