package obs

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Text and timeline views of the event ring. Like the Chrome export they
// read only the retained events, so a ring that wrapped still renders its
// newest window. disasm names the instruction at a PC; the text listing
// takes nil to leave the disassembly out.

// EventLine formats one event of core id as a line of text: cycle, core,
// kind, the instruction's sequence number and PC, the kind's Arg decoded,
// then the disassembly.
func EventLine(id int, ev Event, disasm func(pc uint64) string) string {
	line := fmt.Sprintf("%8d c%d %-15s seq=%d pc=%#x", ev.Cycle, id, ev.Kind, ev.Seq, ev.PC)
	switch ev.Kind {
	case EvLFBStall: // recorded by the hierarchy: PC holds the address
		return fmt.Sprintf("%8d c%d %-15s addr=%#x stall=%d", ev.Cycle, id, ev.Kind, ev.PC, ev.Arg)
	case EvFetch: // sequence numbers are assigned at dispatch
		line = fmt.Sprintf("%8d c%d %-15s pc=%#x", ev.Cycle, id, ev.Kind, ev.PC)
	case EvMem:
		line += fmt.Sprintf(" addr=%#x", ev.Arg)
	case EvCommit:
		line += fmt.Sprintf(" latency=%d completed=%d", ev.IssueToCommit(), ev.Completed())
	case EvTagDelayStart:
		line += fmt.Sprintf(" key=%#x lock=%#x", ev.Arg>>4, ev.Arg&0xf)
	case EvTagDelayEnd:
		line += fmt.Sprintf(" held=%d", ev.Arg)
	case EvSquash:
		if ev.Arg != 0 {
			line += fmt.Sprintf(" mispredicted-branch=%d", ev.Arg)
		}
	}
	if disasm != nil {
		line += "  " + disasm(ev.PC)
	}
	return line
}

// WriteText writes every retained event, core by core and oldest first,
// one EventLine each.
func WriteText(w io.Writer, tr *Tracer, disasm func(pc uint64) string) error {
	bw := bufio.NewWriter(w)
	for i := 0; i < tr.Cores(); i++ {
		for _, ev := range tr.Core(i).Events() {
			fmt.Fprintln(bw, EventLine(i, ev, disasm))
		}
	}
	return bw.Flush()
}

// pipeRow is one dispatched instance's trip through the pipeline (0 = the
// stage did not happen). A squashed instance keeps its row after its
// sequence number is reused.
type pipeRow struct {
	seq, pc, dispatch, issue, complete, commit, squash uint64
	unsafe                                             bool // passed through tcs=unsafe
}

// Pipeview draws an ASCII timeline, in the style of gem5's o3pipeview, of
// the last n instructions dispatched in ct (0 = all, capped at 64 rows).
// Columns are compressed: one character per `scale` cycles.
//
//	D dispatch   I issue   C complete   R retire/commit   X squash
//	u marks instructions that passed through tcs=unsafe.
func Pipeview(ct *CoreTrace, n int, disasm func(pc uint64) string) string {
	if n <= 0 || n > 64 {
		n = 64
	}
	evs := ct.Events()
	// Start at the n-th newest dispatch: earlier events belong to rows
	// outside the window.
	start, rows := len(evs), 0
	for start > 0 && rows < n {
		start--
		if evs[start].Kind == EvDispatch {
			rows++
		}
	}
	recs := make([]pipeRow, 0, rows)
	latest := make(map[uint64]int, rows) // seq → row of its newest dispatch
	for _, ev := range evs[start:] {
		if ev.Kind == EvDispatch {
			latest[ev.Seq] = len(recs)
			recs = append(recs, pipeRow{seq: ev.Seq, pc: ev.PC, dispatch: ev.Cycle})
			continue
		}
		i, ok := latest[ev.Seq]
		if !ok {
			continue
		}
		r := &recs[i]
		switch ev.Kind {
		case EvIssue:
			if r.issue == 0 {
				r.issue = ev.Cycle // a retried issue keeps the first
			}
		case EvCommit:
			r.complete, r.commit = ev.Completed(), ev.Cycle
		case EvSquash:
			r.squash = ev.Cycle
		case EvTagDelayStart:
			r.unsafe = true
		}
	}
	if len(recs) == 0 {
		return "(no records)\n"
	}
	lo, hi := ^uint64(0), uint64(0)
	for _, r := range recs {
		lo = min(lo, r.dispatch)
		hi = max(hi, r.complete, r.commit, r.squash, r.issue)
	}
	if hi <= lo {
		hi = lo + 1
	}
	const width = 72
	scale := (hi - lo + width) / width

	var b strings.Builder
	fmt.Fprintf(&b, "pipeline timeline: cycles %d..%d, one column = %d cycle(s)\n", lo, hi, scale)
	fmt.Fprintf(&b, "D dispatch  I issue  C complete  R retire  X squash  (u: tcs=unsafe)\n\n")
	row := make([]byte, width+1)
	for _, r := range recs {
		for i := range row {
			row[i] = ' '
		}
		put := func(t uint64, ch byte) {
			if t == 0 {
				return
			}
			row[min(int((t-lo)/scale), len(row)-1)] = ch
		}
		put(r.dispatch, 'D')
		put(r.issue, 'I')
		put(r.complete, 'C')
		put(r.commit, 'R')
		put(r.squash, 'X')
		flag := " "
		if r.unsafe {
			flag = "u"
		}
		fmt.Fprintf(&b, "%5d %s %-28.28s |%s|\n", r.seq, flag, disasm(r.pc), row)
	}
	return b.String()
}
