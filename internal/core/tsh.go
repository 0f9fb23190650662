package core

import (
	"fmt"

	"specasan/internal/recycle"
)

// TCS is the two-bit tag check status SpecASan attaches to every LSQ entry
// (§3.3.2): "init" (00), "safe" (01), "unsafe" (10), "wait" (11).
type TCS uint8

// Tag check states.
const (
	TCSInit   TCS = 0
	TCSSafe   TCS = 1
	TCSUnsafe TCS = 2
	TCSWait   TCS = 3
)

var tcsNames = [...]string{TCSInit: "init", TCSSafe: "safe", TCSUnsafe: "unsafe", TCSWait: "wait"}

// String returns the state name.
func (t TCS) String() string {
	if int(t) < len(tcsNames) {
		return tcsNames[t]
	}
	return fmt.Sprintf("tcs(%d)", uint8(t))
}

// ROBSignal is what the TSH needs from the Reorder Buffer: the SSA (safe
// speculative access) notification of Figure 4. The ROB uses it to hold back
// unsafe accesses and their dependents until speculation resolves, and to
// raise a tag-check fault if an unsafe access turns out to be on the correct
// path.
type ROBSignal interface {
	// SignalSSA reports the tag-check outcome for the instruction with the
	// given sequence number: safe=true corresponds to SSA=1.
	SignalSSA(seq uint64, safe bool)
}

// TSHStats counts TSH activity for the restriction metrics of Figure 8.
type TSHStats struct {
	Issued        uint64 // tag-checked accesses entering "wait"
	Safe          uint64 // transitions to "safe"
	Unsafe        uint64 // transitions to "unsafe"
	Forwarded     uint64 // store-to-load forwards allowed (tags matched)
	ForwardDenied uint64 // store-to-load forwards blocked (tag mismatch)
	DepMarked     uint64 // dependent instructions marked unsafe by the ROB
	Faults        uint64 // tag-check faults raised on the committed path
	Replays       uint64 // unsafe accesses replayed after speculation resolved
}

// TSH is the Tag-check Status Handler introduced within the LSQ (§3.3.2).
// It tracks the tcs field of in-flight memory instructions, evaluates
// tag-check outcomes arriving from the memory subsystem, and coordinates
// with the ROB through SSA signals.
//
// Entries are keyed by the instruction's global sequence number, which the
// pipeline already uses to identify LQ/SQ entries.
//
// Tracked sequence numbers are allocated monotonically and live only while
// the instruction is in flight, so at any instant they span at most the
// ROB window. That makes a power-of-two ring indexed by seq&mask a perfect
// hash in the steady state; the ring doubles on the (never expected)
// collision so the structure stays correct for any window size without
// the TSH having to know the ROB capacity.
type TSH struct {
	rob   ROBSignal
	slots []tshSlot
	mask  uint64
	count int
	Stats TSHStats
}

// tshSlot keeps a tracked seq, its status, and the occupancy bit together in
// one 16-byte record so every probe touches a single cache line.
type tshSlot struct {
	seq  uint64
	tcs  TCS
	live bool
}

// NewTSH returns a TSH wired to the given ROB.
func NewTSH(rob ROBSignal) *TSH {
	t := &TSH{rob: rob}
	t.grow(1024)
	return t
}

// tshRings keeps the slot rings of released TSHs (see ReleaseRing).
var tshRings recycle.Slices[tshSlot]

// grow resizes the ring to n slots (a power of two) and reinserts the
// live entries. Distinct live seqs within one window cannot collide once
// n exceeds the window span, so growth terminates.
func (t *TSH) grow(n int) {
	old := t.slots
	t.slots = tshRings.Make(n)
	t.mask = uint64(n - 1)
	for _, s := range old {
		if s.live {
			t.slots[s.seq&t.mask] = s
		}
	}
	tshRings.Free(old)
}

// ReleaseRing hands the slot ring back for a later TSH to reuse and nils
// it: the TSH must not be used again. Stats stay readable.
func (t *TSH) ReleaseRing() {
	tshRings.Free(t.slots)
	t.slots = nil
}

// set stores status v for seq, claiming or resizing a slot as needed.
func (t *TSH) set(seq uint64, v TCS) {
	for {
		s := &t.slots[seq&t.mask]
		if !s.live {
			*s = tshSlot{seq: seq, tcs: v, live: true}
			t.count++
			return
		}
		if s.seq == seq {
			s.tcs = v
			return
		}
		t.grow(2 * len(t.slots))
	}
}

// Allocate initialises the tcs field for a newly dispatched memory
// instruction to "init".
func (t *TSH) Allocate(seq uint64) { t.set(seq, TCSInit) }

// Status returns the current tcs of seq ("init" if unknown).
func (t *TSH) Status(seq uint64) TCS {
	if s := &t.slots[seq&t.mask]; s.live && s.seq == seq {
		return s.tcs
	}
	return TCSInit
}

// OnIssue transitions seq to "wait" when its memory request is sent to the
// L1D cache or LFB (step ① of Figure 4).
func (t *TSH) OnIssue(seq uint64) {
	t.set(seq, TCSWait)
	t.Stats.Issued++
}

// OnResult consumes the tag-check outcome returned with the memory response
// (step ②): it moves the entry to "safe" or "unsafe" (③/⑤) and signals the
// ROB (④/⑥). It returns the new state.
func (t *TSH) OnResult(seq uint64, tagOK bool) TCS {
	if tagOK {
		t.set(seq, TCSSafe)
		t.Stats.Safe++
		t.rob.SignalSSA(seq, true)
		return TCSSafe
	}
	t.set(seq, TCSUnsafe)
	t.Stats.Unsafe++
	t.rob.SignalSSA(seq, false)
	return TCSUnsafe
}

// OnForward handles store-to-load forwarding: forwarding happens only when
// the address tags (keys) of the store and the load match (§3.4). It
// updates the load's tcs, signals the ROB, and reports whether the forward
// may proceed.
func (t *TSH) OnForward(loadSeq uint64, keysMatch bool) bool {
	if keysMatch {
		t.set(loadSeq, TCSSafe)
		t.Stats.Forwarded++
		t.rob.SignalSSA(loadSeq, true)
		return true
	}
	t.set(loadSeq, TCSUnsafe)
	t.Stats.ForwardDenied++
	t.rob.SignalSSA(loadSeq, false)
	return false
}

// MarkUnsafe is the ROB→TSH direction of step ⑧: dependent memory
// instructions of an unsafe access are themselves marked unsafe in the
// LQ/SQ so they do not issue while the unsafe parent is pending.
func (t *TSH) MarkUnsafe(seq uint64) {
	if t.Status(seq) != TCSUnsafe {
		t.set(seq, TCSUnsafe)
		t.Stats.DepMarked++
	}
}

// OnReplay transitions an unsafe entry back to "init" when speculation has
// resolved in its favour and the access is re-issued non-speculatively.
func (t *TSH) OnReplay(seq uint64) {
	t.set(seq, TCSInit)
	t.Stats.Replays++
}

// OnFault records a tag-check fault raised at commit for an unsafe access
// that was on the correctly speculated path.
func (t *TSH) OnFault(seq uint64) {
	t.Stats.Faults++
	t.Release(seq)
}

// Release frees the entry when the instruction commits or is squashed.
func (t *TSH) Release(seq uint64) {
	if s := &t.slots[seq&t.mask]; s.live && s.seq == seq {
		s.live = false
		t.count--
	}
}

// Pending returns the number of tracked entries (for invariant tests).
func (t *TSH) Pending() int { return t.count }
