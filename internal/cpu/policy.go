package cpu

import (
	"specasan/internal/core"
	"specasan/internal/isa"
	"specasan/internal/mte"
	"specasan/internal/obs"
)

// blockReason names the issue-time gate holding a ready entry back.
type blockReason uint8

const (
	blockNone blockReason = iota
	blockAtomic
	blockFence
	blockSTT
	blockDelayAll
	blockDoM
	numBlockReasons
)

// ctr returns the policy_block_* counter for r (r != blockNone).
func (r blockReason) ctr() ctr { return ctrBlockAtomic + ctr(r-blockAtomic) }

// policyBlocksIssue applies the active mitigation's issue-time gates and
// returns the first one that holds e back, or blockNone. SpecASan itself
// never blocks here (its selective delay happens at the memory response);
// the gates below model the defences the paper compares against, plus the
// delay-all ablation of SpecASan.
//
// Every gate but DoM is a pure function of older in-flight state (head
// position, unresolved branches, older completions, store addresses, taint
// roots), which changes only at events nextEventCycle tracks — so an idle
// issue's verdicts hold across a skipped span (skip.go). DoM's probe reads
// LFB fill timing, which no core event tracks.
func (c *Core) policyBlocksIssue(e *robEntry) blockReason {
	in := e.inst

	// Structural, not a mitigation: atomics and barriers run at the head.
	if in.Op == isa.SWPAL && (e.seq != c.headSeq || c.speculative(e)) {
		return blockAtomic
	}

	// Speculative barriers (lfence-style): a load issues only when every
	// older instruction has completed — the fence drains the pipeline
	// before each memory access (the delay-ACCESS defence class of
	// Figure 1).
	if c.fenceOn && e.isLoad && c.olderIncomplete(e.seq) {
		return blockFence
	}

	// STT: "transmit" instructions with tainted operands are delayed until
	// the taint root reaches its visibility point. Transmitters are memory
	// accesses (address operand forms a cache channel) and branches
	// (implicit channel through the front end).
	if c.taintOn {
		transmit := e.isLoad || e.isStore || e.isBranch
		if transmit && c.entryTainted(e) != 0 {
			return blockSTT
		}
	}

	// SpecASan delay-all ablation: every tagged speculative load waits for
	// speculation to resolve, mismatching or not.
	if c.specChecks && !c.selectiveDly && e.isLoad && c.speculative(e) {
		rn, _ := c.readSource2(e, in.Rn)
		rm := uint64(0)
		if !in.HasImm {
			rm, _ = c.readSource2(e, in.Rm)
		}
		if mte.Key(isa.EffAddr(in, rn, rm)) != 0 {
			return blockDelayAll
		}
	}

	// Delay-on-Miss (descriptor bit, no enum case anywhere): a speculative
	// load whose line is not already present in the L1D — nor, under the
	// default lfb_hit_ok knob, in flight in the LFB — is held until
	// speculation resolves. Hits proceed, so only accesses that would
	// change observable fill state pay; the probe itself is side-effect
	// free (no ports, no LRU, no fills).
	if c.domOn && e.isLoad && c.speculative(e) {
		rn, _ := c.readSource2(e, in.Rn)
		rm := uint64(0)
		if !in.HasImm {
			rm, _ = c.readSource2(e, in.Rm)
		}
		if !c.hier.Probe(c.ID, isa.EffAddr(in, rn, rm), c.cycle, c.domLFBHit) {
			return blockDoM
		}
	}
	return blockNone
}

// onUnsafeAccess reacts to an SSA=0 signal: the ROB holds the unsafe access
// and, per §3.4 step ⑧, marks dependent memory instructions unsafe in the
// LQ/SQ via the TSH. Dependents stall naturally (the load returned no data);
// the explicit marking feeds the restriction metrics and the TSH state.
func (c *Core) onUnsafeAccess(e *robEntry) {
	e.policyDelayed = true
	if e.unsafeSince == 0 {
		// First delay of this access (re-entry via forward-denied retries
		// keeps the original start cycle).
		e.unsafeSince = c.cycle
		c.obsRecord(e.seq, e.pc, obs.EvTagDelayStart, 0)
	}
	c.inc(ctrUnsafeAccesses)
	for s := e.seq + 1; s < c.nextSeq; s++ {
		d := &c.rob[s&c.robMask]
		if !d.valid {
			continue
		}
		for _, src := range d.srcs {
			if src.producer == e.seq {
				d.policyDelayed = true
				if d.isLoad || d.isStore {
					c.tsh.MarkUnsafe(d.seq)
				}
				break
			}
		}
	}
}

// recordEvent files a candidate leak event for the oracle; it becomes a real
// leak only if the instruction turns out to be transient (squashed).
func (c *Core) recordEvent(e *robEntry, ch core.LeakChannel) {
	if !c.oracle.HasSecrets() {
		return
	}
	if c.candidates == nil {
		c.candidates = make(map[uint64][]core.LeakEvent)
	}
	c.candidates[e.seq] = append(c.candidates[e.seq], core.LeakEvent{
		Channel: ch, Cycle: c.cycle, Seq: e.seq, PC: e.pc, Addr: mte.Strip(e.addr),
	})
}

// recordContention files contention-channel candidates for a non-memory
// instruction executing on secret data during transient execution. Only
// multi-cycle units are measurable channels (SMoTHERSpectre /
// SpectreRewind / Speculative Interference); a single-cycle ALU op among
// four ports is below the noise floor, so plain ALU ops are not counted —
// otherwise every USE-stage shift would register as a leak and no
// delay-the-transmit defence could ever be rated effective.
func (c *Core) recordContention(e *robEntry) {
	if e.inst.Classify() == isa.ClassMulDiv {
		c.recordEvent(e, core.ChanPort)
	}
}

// promoteCandidates turns a squashed instruction's candidate events into
// recorded leaks: the state change survived while the instruction did not.
func (c *Core) promoteCandidates(seq uint64) {
	if c.candidates == nil {
		return
	}
	for _, ev := range c.candidates[seq] {
		c.oracle.Record(ev)
	}
	delete(c.candidates, seq)
}

// dropCandidates discards candidates for a committed instruction: a
// committed secret-dependent access is the program's own architectural
// behaviour, not a transient leak.
func (c *Core) dropCandidates(seq uint64) {
	if c.candidates != nil {
		delete(c.candidates, seq)
	}
}
