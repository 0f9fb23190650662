package golden

// Touch flag bits, carried in the two low bits of a ring entry. Recorded
// addresses are aligned down to 4 bytes first, so the bits are free: no
// access is smaller than a byte and no cache line smaller than a word.
const (
	touchWrite  = 1 << 0
	touchIfetch = 1 << 1
)

// TouchRing remembers the most recent memory touches of a functional run:
// the key-stripped addresses of loads, stores and basic-block fetches, with
// newer touches overwriting the oldest once the ring is full. Sampled
// simulation attaches one to the interpreter during a fast-forward and
// replays it into the detailed machine's cache hierarchy after the state
// transplant (cpu.Machine.WarmCaches), so a detailed measurement window
// starts with the cache contents the skipped instructions would have left
// behind instead of stone-cold caches.
type TouchRing struct {
	buf  []uint64
	pos  int
	full bool
}

// NewTouchRing returns a ring remembering the last n touches.
func NewTouchRing(n int) *TouchRing {
	if n <= 0 {
		n = 1
	}
	return &TouchRing{buf: make([]uint64, n)}
}

// add records one encoded touch (aligned address | flag bits).
func (t *TouchRing) add(v uint64) {
	t.buf[t.pos] = v
	t.pos++
	if t.pos == len(t.buf) {
		t.pos = 0
		t.full = true
	}
}

// Len returns the number of touches currently held.
func (t *TouchRing) Len() int {
	if t.full {
		return len(t.buf)
	}
	return t.pos
}

// Each visits the recorded touches oldest to newest. write marks stores,
// ifetch marks basic-block entry fetches; both false is a load.
func (t *TouchRing) Each(fn func(addr uint64, write, ifetch bool)) {
	emit := func(v uint64) {
		fn(v&^3, v&touchWrite != 0, v&touchIfetch != 0)
	}
	if t.full {
		for _, v := range t.buf[t.pos:] {
			emit(v)
		}
	}
	for _, v := range t.buf[:t.pos] {
		emit(v)
	}
}
