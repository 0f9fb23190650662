package cache

import "specasan/internal/recycle"

// dirTable is the coherence directory's backing store: an open-addressed,
// linear-probed hash table from line address to dirEntry, replacing the
// previous map[uint64]*dirEntry. Entries live inline in the slot array, so
// steady-state operation allocates nothing: deleted slots become tombstones
// (the free list) that later inserts reclaim, and the table only grows when
// the working set of distinct lines genuinely grows.
//
// Pointer discipline: get/getOrCreate return pointers into the slot array,
// which stay valid until the next insert (an insert may rehash). Callers in
// this package never hold an entry pointer across an insert of a different
// key; deletes never move entries.
type dirTable struct {
	slots []dirSlot
	live  int // occupied slots
	used  int // occupied + tombstone slots
}

type dirSlot struct {
	state uint8 // slotEmpty, slotLive or slotDead
	key   uint64
	val   dirEntry
}

const (
	slotEmpty uint8 = iota
	slotLive
	slotDead // tombstone: free for reuse, but probes continue past it
)

// dirHash spreads line addresses (multiples of the line size, so the low
// bits carry no entropy) over the table.
func dirHash(key uint64) uint64 {
	key *= 0x9e3779b97f4a7c15
	return key ^ key>>29
}

// dirSlots keeps the slot arrays of released directories (see release).
var dirSlots recycle.Slices[dirSlot]

func newDirTable() *dirTable {
	return &dirTable{slots: dirSlots.Make(256)}
}

// release hands the slot array back and nils it, so a later lookup panics
// instead of reading slots another directory now owns.
func (t *dirTable) release() {
	dirSlots.Free(t.slots)
	t.slots = nil
}

// get returns the entry for key, or nil when absent.
func (t *dirTable) get(key uint64) *dirEntry {
	mask := uint64(len(t.slots) - 1)
	for i := dirHash(key) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		switch {
		case s.state == slotEmpty:
			return nil
		case s.state == slotLive && s.key == key:
			return &s.val
		}
	}
}

// getOrCreate returns the entry for key, inserting init when absent.
func (t *dirTable) getOrCreate(key uint64, init dirEntry) *dirEntry {
	if t.used*4 >= len(t.slots)*3 {
		t.rehash()
	}
	mask := uint64(len(t.slots) - 1)
	free := -1
	for i := dirHash(key) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		switch {
		case s.state == slotEmpty:
			if free >= 0 {
				s = &t.slots[free] // reuse the first tombstone on the probe path
			} else {
				t.used++
			}
			s.state = slotLive
			s.key = key
			s.val = init
			t.live++
			return &s.val
		case s.state == slotDead:
			if free < 0 {
				free = int(i)
			}
		case s.key == key:
			return &s.val
		}
	}
}

// del removes key's entry if present. The slot becomes a tombstone; no
// entries move, so outstanding entry pointers for other keys stay valid.
func (t *dirTable) del(key uint64) {
	mask := uint64(len(t.slots) - 1)
	for i := dirHash(key) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		switch {
		case s.state == slotEmpty:
			return
		case s.state == slotLive && s.key == key:
			s.state = slotDead
			s.val = dirEntry{}
			t.live--
			return
		}
	}
}

// reserve grows the table once so that n more entries fit without a
// rehash. Where entries sit is invisible outside the table.
func (t *dirTable) reserve(n int) {
	n += t.used
	size := len(t.slots)
	for n*4 >= size*3 {
		size *= 2
	}
	if size > len(t.slots) {
		t.rehashTo(size)
	}
}

// rehash rebuilds the table, dropping tombstones. It doubles the capacity
// only when live entries (not tombstones) fill it, so churny delete/insert
// traffic recycles slots instead of growing without bound.
func (t *dirTable) rehash() {
	n := len(t.slots)
	if t.live*2 >= n {
		n *= 2
	}
	t.rehashTo(n)
}

// rehashTo rebuilds the table with n slots, dropping tombstones.
func (t *dirTable) rehashTo(n int) {
	old := t.slots
	t.slots = dirSlots.Make(n)
	t.live, t.used = 0, 0
	mask := uint64(n - 1)
	for i := range old {
		s := &old[i]
		if s.state != slotLive {
			continue
		}
		for j := dirHash(s.key) & mask; ; j = (j + 1) & mask {
			d := &t.slots[j]
			if d.state == slotEmpty {
				*d = dirSlot{state: slotLive, key: s.key, val: s.val}
				t.live++
				t.used++
				break
			}
		}
	}
	dirSlots.Free(old)
}
