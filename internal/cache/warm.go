package cache

// Functional cache warming for sampled simulation. A machine built from a
// transplanted architectural snapshot (cpu.NewMachineAt) starts with an
// empty hierarchy, so every detailed measurement window would begin under a
// cold-start miss storm the fast-forwarded program never had. Warm replays
// the golden interpreter's recorded memory touches (golden.TouchRing) into
// the hierarchy before detailed execution starts.
//
// Warm installs deliberately bypass the access path: no port or MSHR
// reservation, no hit/miss/eviction/writeback counters, no LFB or ghost
// traffic, and validAt=0 (the data is usable immediately — functionally it
// already lives in the mem.Image). Only line presence, MESI state, the
// directory and LRU order are established.
//
// The meaning of a replay is warmTouch applied to every touch in order,
// then finishWarm. Warm leaves every way of every level, and every
// directory entry, exactly as that would, while doing most lines' work
// once:
//
//   - L2 and L1I install each distinct line once, in first-touch order,
//     stamped with its last touch. While a set receives no more new lines
//     than it has invalid ways, no touch evicts, so each line lands in the
//     way its first touch would pick (victim takes the first invalid way)
//     and ends with its last touch's stamp; these levels never warm a line
//     dirty. A set that would overflow replays its touches one at a time.
//   - The directory gets each distinct data line once, in first-touch order,
//     marked modified if any touch wrote it: every touch sets the same
//     sharer bit and owner, and modified is sticky.
//   - L1D replays forward, because its dirty bits and way positions depend
//     on eviction history, but merges consecutive touches of a set's most
//     recent line into one: no touch in between reaches that set, so
//     nothing can evict the line or reorder the set.

import (
	"math"
	"sync"
)

// warm installs (or refreshes) addr's line with replay order seq as its
// recency. An already-present line only has its recency and dirtiness
// upgraded, never downgraded.
func (l *Level) warm(addr uint64, seq uint64, st mesi, dirty bool) {
	warmIn(l.set(addr, true), l.lineAddr(addr), seq, st, dirty)
}

// warmIn is warm for line la in the ways of its set.
func warmIn(set []line, la uint64, seq uint64, st mesi, dirty bool) {
	for w := range set {
		if ln := &set[w]; ln.valid && ln.addr == la {
			ln.lastUse = seq
			if dirty {
				ln.state = modified
				ln.dirty = true
			}
			return
		}
	}
	*victimIn(set) = line{valid: true, addr: la, state: st, dirty: dirty, lastUse: seq}
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

// setIndex returns the index of addr's set.
func (l *Level) setIndex(addr uint64) int { return int((addr >> l.lineShift) & l.setMask) }

// invalidWays counts the invalid ways of set idx.
func (l *Level) invalidWays(idx int) int {
	set := l.set(uint64(idx)<<l.lineShift, false)
	n := l.ways - len(set) // an unallocated set has every way free
	for w := range set {
		if !set[w].valid {
			n++
		}
	}
	return n
}

// warmTouch replays one functional touch: an instruction fetch into core's
// L1I and the shared L2, a load or store into core's L1D and the L2 with
// the directory kept consistent. seq orders replayed touches for LRU
// purposes (older touches get smaller values).
func (h *Hierarchy) warmTouch(core int, addr uint64, write, ifetch bool, seq uint64) {
	la := h.lineAddr(addr)
	h.L2.warm(la, seq, shared, false)
	if ifetch {
		h.L1I[core].warm(la, seq, shared, false)
		return
	}
	h.L1D[core].warm(la, seq, l1dState(write), write)
	h.warmDir(core, la, write)
}

func l1dState(write bool) mesi {
	if write {
		return modified
	}
	return exclusive
}

// warmDir records core as the sole sharer and owner of line la.
func (h *Hierarchy) warmDir(core int, la uint64, write bool) {
	d := h.dirFor(la)
	d.sharers |= 1 << uint(core)
	d.owner = int8(core)
	if write {
		d.modified = true
	}
}

// finishWarm normalizes LRU state in every level after a warming replay.
func (h *Hierarchy) finishWarm() {
	for _, l := range h.L1I {
		l.normalizeLRU()
	}
	for _, l := range h.L1D {
		l.normalizeLRU()
	}
	h.L2.normalizeLRU()
}

// warmLine is one distinct line of a replay.
type warmLine struct {
	addr      uint64
	last      uint64 // sequence number of the line's last touch
	lastFetch uint64 // and of its last instruction fetch
	fetched   bool
	data      bool // loaded or stored
	written   bool
}

// warmPend is an L1D set's most recent data line, not yet replayed.
type warmPend struct {
	set   []line // the set's ways, allocated at its first touch
	addr  uint64
	seq   uint64
	n     int32 // the line's index in warmScratch.lines
	dirty bool
	valid bool
}

// warmScratch is one replay's working storage, pooled because a sampled
// sweep replays a full ring per window.
type warmScratch struct {
	slots   []int32 // open-addressed line index: 0 empty, else index+1
	lines   []warmLine
	fetches []int32 // lines in first-fetch order
	datas   []int32 // lines in first-data-touch order
	pend    []warmPend
	l2Free  []int32 // per L2 set: invalid ways less new lines
	l1iFree []int32 // the same per L1I set
}

var warmScratches = sync.Pool{New: func() any { return &warmScratch{slots: make([]int32, 1<<12)} }}

// unseen marks a set no line of the replay maps to.
const unseen = math.MaxInt32

// lineHash spreads line numbers over the line index.
func lineHash(la uint64, lineShift uint) uint64 {
	return (la >> lineShift) * 0x9e3779b97f4a7c15 >> 32
}

// index returns the index of line la's record, adding the record on first
// sight.
func (w *warmScratch) index(la uint64, lineShift uint) int32 {
	mask := uint64(len(w.slots) - 1)
	i := lineHash(la, lineShift) & mask
	for ; w.slots[i] != 0; i = (i + 1) & mask {
		if n := w.slots[i] - 1; w.lines[n].addr == la {
			return n
		}
	}
	n := int32(len(w.lines))
	w.lines = append(w.lines, warmLine{addr: la})
	w.slots[i] = n + 1
	if len(w.lines)*2 > len(w.slots) {
		w.slots = make([]int32, 2*len(w.slots))
		mask = uint64(len(w.slots) - 1)
		for k, r := range w.lines {
			j := lineHash(r.addr, lineShift) & mask
			for w.slots[j] != 0 {
				j = (j + 1) & mask
			}
			w.slots[j] = int32(k + 1)
		}
	}
	return n
}

// resize returns s with length n, zeroed.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// installOnce installs lines into l once each, in first-touch order (the
// lines of order, or every line when order is nil), stamped with their
// last touch (their last fetch when fetch is set). It leaves out the sets
// whose new lines outnumber their invalid ways, marking them negative in
// free, and reports whether there were any: their touches must be replayed
// one at a time.
func (w *warmScratch) installOnce(l *Level, order []int32, fetch bool, free []int32) bool {
	for i := range free {
		free[i] = unseen
	}
	n := len(order)
	if order == nil {
		n = len(w.lines)
	}
	at := func(k int) *warmLine {
		if order == nil {
			return &w.lines[k]
		}
		return &w.lines[order[k]]
	}
	for k := 0; k < n; k++ {
		r := at(k)
		s := l.setIndex(r.addr)
		if free[s] == unseen {
			free[s] = int32(l.invalidWays(s))
		}
		if l.find(r.addr) == nil {
			free[s]--
		}
	}
	over := false
	for k := 0; k < n; k++ {
		r := at(k)
		if free[l.setIndex(r.addr)] < 0 {
			over = true
			continue
		}
		stamp := r.last
		if fetch {
			stamp = r.lastFetch
		}
		l.warm(r.addr, stamp, shared, false)
	}
	return over
}

// Warm replays a functional run's touches, which each visits oldest to
// newest (golden.TouchRing.Each), into core's L1I and L1D, the shared L2
// and the directory, then normalizes every level's LRU state. Call it once,
// before the first detailed cycle.
func (h *Hierarchy) Warm(core int, each func(fn func(addr uint64, write, ifetch bool))) {
	w := warmScratches.Get().(*warmScratch)
	defer func() {
		clear(w.slots)
		w.lines, w.fetches, w.datas = w.lines[:0], w.fetches[:0], w.datas[:0]
		warmScratches.Put(w)
	}()
	l1i, l1d, l2 := h.L1I[core], h.L1D[core], h.L2
	w.pend = resize(w.pend, int(l1d.setMask+1))
	var seq uint64
	fetched := int32(-1) // the line of the last fetch
	each(func(addr uint64, write, ifetch bool) {
		la := h.lineAddr(addr)
		if ifetch {
			if fetched < 0 || w.lines[fetched].addr != la {
				fetched = w.index(la, l2.lineShift)
			}
			r := &w.lines[fetched]
			if !r.fetched {
				r.fetched = true
				w.fetches = append(w.fetches, fetched)
			}
			r.last, r.lastFetch = seq, seq
			seq++
			return
		}
		// Merged touches of the set's most recent line skip the index too.
		p := &w.pend[l1d.setIndex(la)]
		if !p.valid || p.addr != la {
			if p.valid {
				warmIn(p.set, p.addr, p.seq, l1dState(p.dirty), p.dirty)
			} else {
				p.set = l1d.set(la, true)
			}
			p.addr, p.n, p.dirty, p.valid = la, w.index(la, l2.lineShift), false, true
		}
		p.seq = seq
		p.dirty = p.dirty || write
		r := &w.lines[p.n]
		if !r.data {
			r.data = true
			w.datas = append(w.datas, p.n)
		}
		r.last = seq
		r.written = r.written || write
		seq++
	})
	for _, p := range w.pend {
		if p.valid {
			warmIn(p.set, p.addr, p.seq, l1dState(p.dirty), p.dirty)
		}
	}
	h.dir.reserve(len(w.datas))
	for _, n := range w.datas {
		h.warmDir(core, w.lines[n].addr, w.lines[n].written)
	}
	w.l2Free = resize(w.l2Free, int(l2.setMask+1))
	w.l1iFree = resize(w.l1iFree, int(l1i.setMask+1))
	l2Over := w.installOnce(l2, nil, false, w.l2Free)
	l1iOver := w.installOnce(l1i, w.fetches, true, w.l1iFree)
	if l2Over || l1iOver {
		seq = 0
		each(func(addr uint64, write, ifetch bool) {
			la := h.lineAddr(addr)
			if w.l2Free[l2.setIndex(la)] < 0 {
				l2.warm(la, seq, shared, false)
			}
			if ifetch && w.l1iFree[l1i.setIndex(la)] < 0 {
				l1i.warm(la, seq, shared, false)
			}
			seq++
		})
	}
	h.finishWarm()
}
