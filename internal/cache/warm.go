package cache

// Functional cache warming for sampled simulation. A machine built from a
// transplanted architectural snapshot (cpu.NewMachineAt) starts with an
// empty hierarchy, so every detailed measurement window would begin under a
// cold-start miss storm the fast-forwarded program never had. These hooks
// replay the golden interpreter's recorded memory touches (golden.TouchRing)
// into the hierarchy before detailed execution starts.
//
// Warm installs deliberately bypass the access path: no port or MSHR
// reservation, no hit/miss/eviction/writeback counters, no LFB or ghost
// traffic, and validAt=0 (the data is usable immediately — functionally it
// already lives in the mem.Image). Only line presence, MESI state, the
// directory and LRU order are established.

// warm installs (or refreshes) addr's line with replay order seq as its
// recency. An already-present line only has its recency and dirtiness
// upgraded, never downgraded.
func (l *Level) warm(addr uint64, seq uint64, st mesi, dirty bool) {
	if ln := l.find(addr); ln != nil {
		ln.lastUse = seq
		if dirty {
			ln.state = modified
			ln.dirty = true
		}
		return
	}
	*l.victim(addr) = line{valid: true, addr: l.lineAddr(addr), state: st, dirty: dirty, lastUse: seq}
}

// normalizeLRU rewrites every set's lastUse values to their recency rank
// (0 = least recent). Warm installs stamp lastUse with replay sequence
// numbers that can exceed the early detailed cycle counts; without
// normalization a line the detailed core just touched at cycle 3 would look
// older than an untouched warm line stamped 30000 and become the eviction
// victim. Ranks preserve the warmed recency order while sitting below any
// live timestamp.
func (l *Level) normalizeLRU() {
	byUse := make([]*line, 0, l.ways)
	for _, c := range l.chunks { // a nil chunk holds no line
		for base := 0; base < len(c); base += l.ways {
			byUse = byUse[:0]
			for w := base; w < base+l.ways; w++ {
				if c[w].valid {
					byUse = append(byUse, &c[w])
				}
			}
			for i := 1; i < len(byUse); i++ {
				for j := i; j > 0 && byUse[j].lastUse < byUse[j-1].lastUse; j-- {
					byUse[j], byUse[j-1] = byUse[j-1], byUse[j]
				}
			}
			for r, ln := range byUse {
				ln.lastUse = uint64(r)
			}
		}
	}
}

// WarmData replays one functional data touch into core's L1D and the shared
// L2, keeping the directory consistent. seq orders replayed touches for LRU
// purposes (older touches get smaller values).
func (h *Hierarchy) WarmData(core int, addr uint64, write bool, seq uint64) {
	la := h.lineAddr(addr)
	h.L2.warm(la, seq, shared, false)
	st := exclusive
	if write {
		st = modified
	}
	h.L1D[core].warm(la, seq, st, write)
	d := h.dirFor(la)
	d.sharers |= 1 << uint(core)
	d.owner = int8(core)
	if write {
		d.modified = true
	}
}

// WarmInst replays one functional instruction fetch into core's L1I and the
// shared L2.
func (h *Hierarchy) WarmInst(core int, addr uint64, seq uint64) {
	la := h.lineAddr(addr)
	h.L2.warm(la, seq, shared, false)
	h.L1I[core].warm(la, seq, shared, false)
}

// FinishWarm normalizes LRU state in every level after a warming replay.
// Call exactly once, after the last WarmData/WarmInst and before the first
// detailed cycle.
func (h *Hierarchy) FinishWarm() {
	for _, l := range h.L1I {
		l.normalizeLRU()
	}
	for _, l := range h.L1D {
		l.normalizeLRU()
	}
	h.L2.normalizeLRU()
}
