package cpu

import (
	"fmt"
	"strings"
)

// Recorder captures per-instruction lifecycle timestamps — dispatch, issue,
// completion, commit or squash — in the spirit of gem5's o3pipeview. Attach
// one to a core before running; Render draws an ASCII timeline.
//
// Recording is bounded: once Max records exist, older squashed-path entries
// are evicted first, then the oldest committed ones.
type Recorder struct {
	Max  int
	recs []*InstRecord
	// latest maps a (reusable, post-squash) sequence number to the index
	// of its most recent record.
	latest map[uint64]int
}

// InstRecord is one instruction's trip through the pipeline.
type InstRecord struct {
	Seq      uint64
	PC       uint64
	Text     string
	Dispatch uint64
	Issue    uint64 // 0 = never issued
	Complete uint64 // 0 = never completed
	Commit   uint64 // 0 = did not commit
	Squash   uint64 // 0 = not squashed
	Unsafe   bool   // passed through tcs=unsafe (SpecASan delay)
}

// NewRecorder returns a recorder bounded to max records (0 = 4096).
func NewRecorder(max int) *Recorder {
	if max <= 0 {
		max = 4096
	}
	return &Recorder{Max: max, latest: make(map[uint64]int)}
}

// current returns the most recent record for a live sequence number.
func (r *Recorder) current(seq uint64) *InstRecord {
	if i, ok := r.latest[seq]; ok {
		return r.recs[i]
	}
	return nil
}

func (r *Recorder) onDispatch(c *Core, e *robEntry) {
	if len(r.recs) >= r.Max {
		drop := len(r.recs) - r.Max + 1
		r.recs = r.recs[drop:]
		for seq, i := range r.latest {
			if i < drop {
				delete(r.latest, seq)
			} else {
				r.latest[seq] = i - drop
			}
		}
	}
	rec := &InstRecord{Seq: e.seq, PC: e.pc, Text: e.inst.String(), Dispatch: c.cycle}
	r.latest[e.seq] = len(r.recs)
	r.recs = append(r.recs, rec)
}

func (r *Recorder) onIssue(c *Core, e *robEntry) {
	if rec := r.current(e.seq); rec != nil && rec.Issue == 0 {
		rec.Issue = c.cycle
	}
}

func (r *Recorder) onComplete(c *Core, e *robEntry) {
	if rec := r.current(e.seq); rec != nil {
		rec.Complete = e.doneAt
	}
}

func (r *Recorder) onCommit(c *Core, e *robEntry) {
	if rec := r.current(e.seq); rec != nil {
		rec.Commit = c.cycle
	}
}

func (r *Recorder) onSquash(c *Core, e *robEntry) {
	if rec := r.current(e.seq); rec != nil {
		rec.Squash = c.cycle
	}
}

func (r *Recorder) onUnsafe(e *robEntry) {
	if rec := r.current(e.seq); rec != nil {
		rec.Unsafe = true
	}
}

// Records returns the captured records in dispatch order. Squashed
// instructions keep their own records even after the sequence number is
// reused by the refetched path.
func (r *Recorder) Records() []*InstRecord {
	return append([]*InstRecord(nil), r.recs...)
}

// Find returns every record whose disassembly contains substr.
func (r *Recorder) Find(substr string) []*InstRecord {
	var out []*InstRecord
	for _, rec := range r.Records() {
		if strings.Contains(rec.Text, substr) {
			out = append(out, rec)
		}
	}
	return out
}

// Render draws an ASCII timeline of the last n records (0 = all, capped at
// 64 rows). Columns are compressed: one character per `scale` cycles.
//
//	D dispatch   I issue   C complete   R retire/commit   X squash
//	u marks instructions that passed through tcs=unsafe.
func (r *Recorder) Render(n int) string {
	recs := r.Records()
	if n > 0 && len(recs) > n {
		recs = recs[len(recs)-n:]
	}
	if len(recs) > 64 {
		recs = recs[len(recs)-64:]
	}
	if len(recs) == 0 {
		return "(no records)\n"
	}
	lo, hi := ^uint64(0), uint64(0)
	for _, rec := range recs {
		if rec.Dispatch < lo {
			lo = rec.Dispatch
		}
		for _, t := range []uint64{rec.Complete, rec.Commit, rec.Squash, rec.Issue} {
			if t > hi {
				hi = t
			}
		}
	}
	if hi <= lo {
		hi = lo + 1
	}
	const width = 72
	scale := (hi - lo + width) / width

	var b strings.Builder
	fmt.Fprintf(&b, "pipeline timeline: cycles %d..%d, one column = %d cycle(s)\n", lo, hi, scale)
	fmt.Fprintf(&b, "D dispatch  I issue  C complete  R retire  X squash  (u: tcs=unsafe)\n\n")
	for _, rec := range recs {
		row := make([]byte, width+1)
		for i := range row {
			row[i] = ' '
		}
		put := func(t uint64, ch byte) {
			if t == 0 {
				return
			}
			col := int((t - lo) / scale)
			if col >= len(row) {
				col = len(row) - 1
			}
			row[col] = ch
		}
		put(rec.Dispatch, 'D')
		put(rec.Issue, 'I')
		put(rec.Complete, 'C')
		put(rec.Commit, 'R')
		put(rec.Squash, 'X')
		flag := " "
		if rec.Unsafe {
			flag = "u"
		}
		fmt.Fprintf(&b, "%5d %s %-28.28s |%s|\n", rec.Seq, flag, rec.Text, row)
	}
	return b.String()
}

// Stats summarises the recorded window.
func (r *Recorder) Stats() (committed, squashed int, avgDispatchToCommit float64) {
	var sum, n uint64
	for _, rec := range r.Records() {
		switch {
		case rec.Commit != 0:
			committed++
			sum += rec.Commit - rec.Dispatch
			n++
		case rec.Squash != 0:
			squashed++
		}
	}
	if n > 0 {
		avgDispatchToCommit = float64(sum) / float64(n)
	}
	return committed, squashed, avgDispatchToCommit
}
