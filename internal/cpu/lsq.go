package cpu

import (
	"specasan/internal/cache"
	"specasan/internal/core"
	"specasan/internal/isa"
	"specasan/internal/mte"
	"specasan/internal/obs"
)

// lateTagCheckPenalty is the extra latency of re-running the tag check at
// the core when the early-propagation design is disabled (ablation).
const lateTagCheckPenalty = 3

// startMemOp begins execution of a memory instruction whose operands are
// ready: it computes the effective address (AGU), runs disambiguation and
// store-to-load forwarding for loads, and issues cache accesses.
// It may leave the entry in stDispatched (waiting for disambiguation or an
// older store), in which case issue() retries next cycle.
func (c *Core) startMemOp(e *robEntry) {
	in := e.inst
	if !e.addrReady {
		rn, _ := c.readSource2(e, in.Rn)
		rm := uint64(0)
		if !in.HasImm {
			rm, _ = c.readSource2(e, in.Rm)
		}
		switch in.Op {
		case isa.STG, isa.ST2G, isa.LDG, isa.SWPAL:
			e.addr = rn
		default:
			e.addr = isa.EffAddr(in, rn, rm)
		}
		e.addrReady = true
		if e.isStore {
			c.unresolvedStores--
		}
		// A store's address just resolved: run the memory-order check
		// against younger loads that speculatively bypassed it.
		if e.isStore && in.Op != isa.SWPAL {
			data, _ := c.readSource2(e, in.Rd)
			e.storeData = data
			if c.checkOrderViolation(e) {
				return // squash redirected the pipeline
			}
		}
	}

	switch in.Op {
	case isa.STR, isa.STRB, isa.STG, isa.ST2G:
		c.executeStore(e)
	case isa.LDR, isa.LDRB:
		c.executeLoad(e)
	case isa.LDG:
		// Tag-granule read: returns the allocation tag in the pointer's
		// key byte. Modelled as a short tag-storage access. An older
		// uncommitted STG/ST2G to this granule must drain first — its
		// architectural tag write happens at commit.
		if c.tagWritesInFlight > 0 && c.olderTagWriteCovering(e.seq, e.addr, 1) {
			e.state = stDispatched // retry once the tag write commits
			return
		}
		lock := c.img.Tags.Lock(e.addr)
		oldRd, _ := c.readSource2(e, in.Rd)
		e.result, e.hasResult = mte.WithKey(oldRd, lock), true
		c.setDone(e, c.cycle+c.cfg.L1DLatency)
	case isa.SWPAL:
		c.executeAtomic(e)
	}
}

// olderTagWriteInFlight reports an older uncommitted STG/ST2G covering any
// granule of the access: the tag check must wait for the tag write, exactly
// as a load must wait for an older same-address store.
func (c *Core) olderTagWriteInFlight(seq uint64, addr uint64, size int) bool {
	if !c.mteOn || c.tagWritesInFlight == 0 {
		return false
	}
	return c.olderTagWriteCovering(seq, addr, size)
}

// olderTagWriteCovering is the ungated scan behind olderTagWriteInFlight.
// LDG consults it directly: tag stores update the architectural tag image at
// commit whether or not MTE checking is on, so a tag read must order after
// older in-flight STG/ST2G under every mitigation.
func (c *Core) olderTagWriteCovering(seq uint64, addr uint64, size int) bool {
	first := mte.GranuleIndex(addr)
	last := mte.GranuleIndex(mte.Strip(addr) + uint64(size) - 1)
	for _, s := range c.storeQ {
		if s >= seq {
			break
		}
		o := &c.rob[s&c.robMask]
		if o.inst.Op != isa.STG && o.inst.Op != isa.ST2G {
			continue
		}
		if !o.addrReady {
			return true // unknown granule: conservatively wait
		}
		g0 := mte.GranuleIndex(o.addr)
		g1 := g0
		if o.inst.Op == isa.ST2G {
			g1 = g0 + 1
		}
		if first <= g1 && g0 <= last {
			return true
		}
	}
	return false
}

// executeStore tag-checks the store (address known; data captured) and marks
// it executed. The actual memory write happens at commit.
func (c *Core) executeStore(e *robEntry) {
	if e.inst.Op == isa.STR || e.inst.Op == isa.STRB {
		if c.olderTagWriteInFlight(e.seq, e.addr, e.inst.MemBytes()) {
			e.state = stDispatched // wait for the older tag write to commit
			return
		}
		if c.mteOn {
			ok := c.img.Tags.CheckAccess(e.addr, e.inst.MemBytes())
			e.tagOK = ok
			c.tsh.OnResult(e.seq, ok)
			if !ok {
				// Committed-path MTE fault (G2: the store never altered
				// memory; the fault is precise at commit).
				e.fault, e.faultIsTag = true, true
			}
		} else {
			c.tsh.OnResult(e.seq, true)
		}
	} else {
		c.tsh.OnResult(e.seq, true) // STG/ST2G are tag writes, never checked
	}
	if e.fault {
		c.markRisk(e)
	}
	c.setDone(e, c.cycle+1)
	c.inc(ctrStoresExec)
	if c.TraceFn != nil {
		c.trace("cycle %d: store seq=%d pc=%#x addr=%#x data=%#x tagOK=%v",
			c.cycle, e.seq, e.pc, mte.Strip(e.addr), e.storeData, e.tagOK)
	}
}

// executeAtomic performs SWPAL at the head of the ROB only (acquire/release
// semantics: no speculation). The read-modify-write goes through the cache
// and the image immediately; commit is a no-op for it.
func (c *Core) executeAtomic(e *robEntry) {
	if e.seq != c.headSeq || c.speculative(e) {
		e.state = stDispatched
		return
	}
	res := c.hier.Access(cache.AccessReq{
		Core: c.ID, Ptr: e.addr, Size: 8, Write: true, Now: c.cycle,
	})
	e.tagOK = res.TagOK
	c.obsRecord(e.seq, e.pc, obs.EvMem, mte.Strip(e.addr))
	if c.mteOn && !res.TagOK {
		e.fault, e.faultIsTag = true, true
		c.markRisk(e)
		c.setDone(e, res.ReadyAt)
		return
	}
	a := mte.Strip(e.addr)
	old := c.img.ReadU64(a)
	newVal, _ := c.readSource2(e, e.inst.Rd)
	c.img.WriteU64(a, newVal)
	e.result, e.hasResult = old, true
	c.setDone(e, res.ReadyAt)
	c.inc(ctrAtomics)
}

// olderStoreScan classifies the relationship between a load and the store
// queue contents.
type fwdDecision uint8

const (
	fwdNone    fwdDecision = iota // no interaction: go to the cache
	fwdData                       // forward exact-match store data
	fwdWait                       // partial overlap / data not ready: retry later
	fwdDepWait                    // unresolved older store + MDU predicts conflict
	fwdFallout                    // baseline partial-address (WTF) false forward
)

func rangesOverlap(a1 uint64, s1 int, a2 uint64, s2 int) bool {
	return a1 < a2+uint64(s2) && a2 < a1+uint64(s1)
}

func covers(a1 uint64, s1 int, a2 uint64, s2 int) bool {
	return a1 <= a2 && a1+uint64(s1) >= a2+uint64(s2)
}

// scanStoreQueue inspects older in-flight stores for the load.
func (c *Core) scanStoreQueue(e *robEntry) (dec fwdDecision, st *robEntry) {
	la := mte.Strip(e.addr)
	size := e.inst.MemBytes()
	unresolved := false
	var fallout *robEntry
	// Scan youngest-first: the nearest older store wins. storeQ holds the
	// in-flight stores ascending, so walk it from the back.
	for i := len(c.storeQ) - 1; i >= 0; i-- {
		s := c.storeQ[i]
		if s >= e.seq {
			continue
		}
		o := &c.rob[s&c.robMask]
		if o.inst.Op == isa.SWPAL || o.inst.Op == isa.STG || o.inst.Op == isa.ST2G {
			continue
		}
		if !o.addrReady {
			unresolved = true
			continue
		}
		sa := mte.Strip(o.addr)
		ssize := o.inst.MemBytes()
		if rangesOverlap(la, size, sa, ssize) {
			if covers(sa, ssize, la, size) {
				return fwdData, o
			}
			return fwdWait, o
		}
		// Fallout surface: the baseline forwards on a page-offset match
		// before the full physical address is compared.
		if c.cfg.PartialSQMatching && fallout == nil && sa != la &&
			sa&0xfff == la&0xfff && ssize >= size {
			fallout = o
		}
	}
	if fallout != nil {
		return fwdFallout, fallout
	}
	if unresolved {
		if c.mduPredictsConflict(e.pc) {
			return fwdDepWait, nil
		}
		// Memory-dependence speculation window opens.
		e.memDepSpec = true
	}
	return fwdNone, nil
}

func (c *Core) mduPredictsConflict(pc uint64) bool { return c.mduPred[pc] >= 2 }

func (c *Core) trainMDU(pc uint64, violated bool) {
	v := c.mduPred[pc]
	if violated {
		c.mduPred[pc] = 3
	} else if v > 0 {
		c.mduPred[pc] = v - 1
	}
}

// olderBarrierInFlight reports an older uncompleted atomic or barrier:
// acquire/release semantics forbid younger loads from executing past it.
func (c *Core) olderBarrierInFlight(seq uint64) bool {
	for _, s := range c.barrierQ {
		if s >= seq {
			break
		}
		o := &c.rob[s&c.robMask]
		if o.state != stDone || o.doneAt > c.cycle {
			return true
		}
	}
	return false
}

// executeLoad runs the load path of Figure 4.
func (c *Core) executeLoad(e *robEntry) {
	in := e.inst
	if c.olderBarrierInFlight(e.seq) {
		e.state = stDispatched // retry after the barrier completes
		return
	}
	if c.olderTagWriteInFlight(e.seq, e.addr, in.MemBytes()) {
		e.state = stDispatched // wait for the older tag write to commit
		return
	}
	size := in.MemBytes()
	spec := c.speculative(e)
	trans := c.transient(e)

	// Assist (permission-faulting) region: the Meltdown/MDS window. The
	// load will fault at commit; transiently it may sample in-flight data.
	if c.inAssist(e.addr) && !e.memIssued {
		e.assist = true
		e.fault = true // permission fault at commit
		c.markRisk(e)
		c.tsh.OnIssue(e.seq)
		res := c.hier.Access(cache.AccessReq{
			Core: c.ID, Ptr: e.addr, Size: size, Now: c.cycle,
			Spec: true, BlockUnsafe: c.specChecks,
			FaultingSample: c.cfg.LFBLeakForwarding,
		})
		e.memIssued = true
		e.tagOK = res.TagOK
		c.obsRecord(e.seq, e.pc, obs.EvMem, mte.Strip(e.addr))
		c.tsh.OnResult(e.seq, false) // assists are never safe accesses
		e.state, e.doneAt = stWaitMem, res.ReadyAt
		e.result, e.hasResult = 0, true
		if res.ServedBy == "lfb-stale" && len(res.StaleData) > 0 {
			// Transient stale-data forward (RIDL/ZombieLoad behaviour).
			off := int(mte.Strip(e.addr)) % len(res.StaleData)
			v := uint64(0)
			for i := 0; i < size && off+i < len(res.StaleData); i++ {
				v |= uint64(res.StaleData[off+i]) << (8 * i)
			}
			e.result = v
			if c.oracle.HasSecrets() && c.oracle.IsSecret(res.StaleAddr, len(res.StaleData)) {
				e.secret = true
				c.oracle.SecretReads++
			}
			c.inc(ctrMDSStaleForwards)
		}
		return
	}

	// Store queue interaction.
	e.memDepSpec = false
	switch dec, st := c.scanStoreQueue(e); dec {
	case fwdWait, fwdDepWait:
		e.state = stDispatched // retry next cycle
		if dec == fwdDepWait {
			c.inc(ctrMDUWaits)
		}
		return
	case fwdData:
		// Store-to-load forwarding: SpecASan requires the address keys to
		// match (§3.4, "Store-to-Load Forwarding").
		keysMatch := mte.Key(e.addr) == mte.Key(st.addr) || !c.mteOn
		if c.specChecks && !c.tsh.OnForward(e.seq, keysMatch) {
			e.state = stWaitUnsafe
			c.onUnsafeAccess(e)
			c.inc(ctrForwardDenied)
			return
		}
		if !c.specChecks {
			c.tsh.OnForward(e.seq, true)
		}
		off := mte.Strip(e.addr) - mte.Strip(st.addr)
		e.result, e.hasResult = extractBytes(st.storeData, int(off), size), true
		e.forwardedFrom = st.seq
		e.tagOK = true
		if st.secret {
			e.secret = true
		}
		c.setDone(e, c.cycle+2)
		c.inc(ctrSTLForwards)
		return
	case fwdFallout:
		if c.TraceFn != nil {
			c.trace("cycle %d: load seq=%d fallout-candidate from store seq=%d", c.cycle, e.seq, st.seq)
		}
		if c.specChecks {
			// SpecASan checks tags before any forward: a partial match
			// cannot validate, so the false forward never happens; the
			// load proceeds to the cache below.
			c.inc(ctrFalloutBlocked)
		} else {
			// Baseline WTF behaviour: wrong-store data transiently
			// forwarded; the load is re-executed (squash) when the store
			// commits and the full addresses are compared.
			e.result, e.hasResult = st.storeData, true
			e.falloutForward = true
			e.forwardedFrom = st.seq
			// Register on the store so its commit-time WTF check visits
			// only its own forwards instead of sweeping the load queue.
			st.falloutFwds = append(st.falloutFwds, e.seq)
			c.markRisk(e)
			e.tagOK = true
			if st.secret || (c.oracle.HasSecrets() && c.oracle.IsSecret(mte.Strip(st.addr), 8)) {
				e.secret = true
				c.oracle.SecretReads++
			}
			c.setDone(e, c.cycle+2)
			c.inc(ctrFalloutForwards)
			return
		}
	}

	// SpecASan's Spectre-STL rule (§4.1): a tagged load that would open a
	// memory-dependence speculation window is delayed until the older store
	// addresses resolve, because forwarding cannot be tag-validated until
	// then. A prefetch request still warms the cache so the replayed load
	// completes with minimal overhead.
	if c.specChecks && e.memDepSpec && mte.Key(e.addr) != 0 {
		if !e.prefetched {
			e.prefetched = true
			c.hier.Access(cache.AccessReq{
				Core: c.ID, Ptr: e.addr, Size: size, Now: c.cycle,
				Spec: true, BlockUnsafe: true,
			})
			c.inc(ctrSTLDelays)
		}
		e.policyDelayed = true
		e.state = stDispatched // retry until the stores resolve
		return
	}

	// Issue to the cache hierarchy. GhostMinion and STT classify loads by
	// *prediction-based* speculation (control or memory dependence): loads
	// outside those windows fill the real caches directly — the scope gap
	// MDS attacks walk through.
	ghostUsed := c.ghostOn && c.specOrMemDep(e)
	c.tsh.OnIssue(e.seq)
	res := c.hier.Access(cache.AccessReq{
		Core: c.ID, Ptr: e.addr, Size: size, Now: c.cycle,
		Spec: spec, BlockUnsafe: c.specChecks, Ghost: ghostUsed,
	})
	e.memIssued = true
	e.tagOK = res.TagOK
	c.obsRecord(e.seq, e.pc, obs.EvMem, mte.Strip(e.addr))
	e.state, e.doneAt = stWaitMem, res.ReadyAt
	if c.specChecks && !c.cfg.EarlyTagCheck {
		// Ablation: without the early tag-check propagation of §3.3.1 (L1
		// signal, MSHR flag), the outcome is recomputed at the core after
		// the response arrives, and data cannot be released until then.
		e.doneAt += lateTagCheckPenalty
	}
	c.inc(ctrLoads)
	if c.TraceFn != nil {
		c.trace("cycle %d: load seq=%d pc=%#x addr=%#x key=%d lock=%d tagOK=%v spec=%v served=%s ready=%d blocked=%v",
			c.cycle, e.seq, e.pc, mte.Strip(e.addr), mte.Key(e.addr), res.Lock,
			res.TagOK, spec, res.ServedBy, res.ReadyAt, res.Blocked)
	}

	// Leak-oracle: a speculatively issued access whose *address* derives
	// from secret data perturbs the cache (and MSHRs on a miss).
	if e.secret && trans && c.oracle.HasSecrets() && !ghostUsed {
		c.recordEvent(e, core.ChanCache)
		if res.ServedBy != "l1" {
			c.recordEvent(e, core.ChanMSHR)
		}
	}
}

func extractBytes(v uint64, off, size int) uint64 {
	v >>= uint(8 * off)
	if size >= 8 {
		return v
	}
	return v & (uint64(1)<<(8*size) - 1)
}

// checkOrderViolation runs when a store's address resolves: any younger load
// that already executed against an overlapping address speculated wrongly
// and must be squashed (Spectre-STL's closing edge).
func (c *Core) checkOrderViolation(st *robEntry) bool {
	sa := mte.Strip(st.addr)
	ssize := st.inst.MemBytes()
	for _, s := range c.loadQ {
		if s <= st.seq {
			continue
		}
		e := &c.rob[s&c.robMask]
		if !e.addrReady {
			continue
		}
		if e.state != stDone && e.state != stWaitMem {
			continue
		}
		if e.forwardedFrom > st.seq {
			continue // got its data from a younger store: unaffected
		}
		if rangesOverlap(mte.Strip(e.addr), e.inst.MemBytes(), sa, ssize) {
			c.trainMDU(e.pc, true)
			c.inc(ctrOrderViolations)
			// Squash from the violating load (inclusive) and refetch it.
			c.squashAfter(e.seq-1, e.pc)
			return true
		}
	}
	return false
}

// advanceLSQ completes outstanding memory responses and replays unsafe
// accesses whose speculation has resolved.
func (c *Core) advanceLSQ() {
	// Only loads ever sit in stWaitMem/stWaitUnsafe (stores and atomics
	// complete at execute), so walking loadQ visits the same entries the old
	// full-window scan did, in the same ascending order.
	for _, s := range c.loadQ {
		e := &c.rob[s&c.robMask]
		switch e.state {
		case stWaitMem:
			if e.doneAt <= c.cycle {
				c.completeMemAccess(e)
			}
		case stWaitUnsafe:
			if !c.speculative(e) {
				c.replayUnsafe(e)
			}
		}
	}
}

// completeMemAccess finalises a load when its cache response arrives.
func (c *Core) completeMemAccess(e *robEntry) {
	if e.assist {
		// Assisted loads already carry their (transient) result; they
		// fault at commit.
		c.setDone(e, e.doneAt)
		return
	}
	if !e.replayed {
		c.tsh.OnResult(e.seq, e.tagOK)
	}
	if c.specChecks && !e.tagOK && c.speculative(e) {
		// Unsafe speculative access (Figure 4 ⑤/⑥): no data was returned;
		// hold until speculation resolves.
		e.state = stWaitUnsafe
		c.onUnsafeAccess(e)
		if c.Rec != nil {
			c.Rec.onUnsafe(e)
		}
		if c.TraceFn != nil {
			c.trace("cycle %d: seq=%d tcs=unsafe (SSA=0), delaying until speculation resolves", c.cycle, e.seq)
		}
		return
	}
	size := e.inst.MemBytes()
	e.result, e.hasResult = c.img.ReadUint(mte.Strip(e.addr), size), true
	if c.mteOn && !e.tagOK {
		// Committed-path MTE semantics: fault at commit. (Under plain MTE
		// a mispredicted path never reaches commit — the Spectre gap.)
		e.fault, e.faultIsTag = true, true
		c.markRisk(e)
	}
	c.setDone(e, e.doneAt)
	if !e.secret && c.oracle.HasSecrets() &&
		c.oracle.IsSecret(mte.Strip(e.addr), size) {
		e.secret = true
		if c.transient(e) {
			c.oracle.SecretReads++
		}
	}
	if c.taintOn && (c.speculative(e) || e.memDepSpec) {
		// STT: the value returned by a load executed under prediction-based
		// speculation is tainted with this load as its root.
		e.taintRoot = e.seq
	}
	c.trainMDU(e.pc, false)
}

// replayUnsafe re-issues a delayed unsafe access once it is no longer under
// speculation (Figure 4 ⑦: replay or fault).
func (c *Core) replayUnsafe(e *robEntry) {
	c.tsh.OnReplay(e.seq)
	e.replayed = true
	if e.unsafeSince != 0 {
		d := c.cycle - e.unsafeSince
		if c.Met != nil {
			c.Met.TagDelay.Observe(d)
		}
		c.obsRecord(e.seq, e.pc, obs.EvTagDelayEnd, d)
		e.unsafeSince = 0
	}
	res := c.hier.Access(cache.AccessReq{
		Core: c.ID, Ptr: e.addr, Size: e.inst.MemBytes(), Now: c.cycle,
	})
	e.tagOK = res.TagOK
	c.obsRecord(e.seq, e.pc, obs.EvMem, mte.Strip(e.addr))
	e.state = stWaitMem
	e.doneAt = res.ReadyAt + c.cfg.BroadcastLatency
	c.inc(ctrUnsafeReplays)
}
