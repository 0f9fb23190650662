package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestCommitArgPacking pins EvCommit's two waits: the issue-to-commit
// latency stays what the Chrome span reads, and the completion cycle comes
// back exactly.
func TestCommitArgPacking(t *testing.T) {
	ev := Event{Cycle: 35, Kind: EvCommit, Arg: CommitArg(23, 5)}
	if ev.IssueToCommit() != 23 || ev.Completed() != 30 {
		t.Fatalf("latency %d completed %d, want 23 and 30", ev.IssueToCommit(), ev.Completed())
	}
}

// TestEventLineDecodesArgs pins the text view of each kind-specific Arg.
func TestEventLineDecodesArgs(t *testing.T) {
	disasm := func(pc uint64) string { return "LDR X5, [X21, X0]" }
	for _, c := range []struct {
		ev   Event
		want string
	}{
		{Event{Cycle: 14, Seq: 7, PC: 0x4000, Kind: EvTagDelayStart, Arg: 0xab},
			"      14 c0 tag-delay-start seq=7 pc=0x4000 key=0xa lock=0xb  LDR X5, [X21, X0]"},
		{Event{Cycle: 40, Seq: 8, PC: 0x4004, Kind: EvSquash, Arg: 6},
			"      40 c0 squash          seq=8 pc=0x4004 mispredicted-branch=6  LDR X5, [X21, X0]"},
		{Event{Cycle: 35, Seq: 7, PC: 0x4000, Kind: EvCommit, Arg: CommitArg(23, 5)},
			"      35 c0 commit          seq=7 pc=0x4000 latency=23 completed=30  LDR X5, [X21, X0]"},
		{Event{Cycle: 10, PC: 0x4000, Kind: EvFetch},
			"      10 c0 fetch           pc=0x4000  LDR X5, [X21, X0]"},
		{Event{Cycle: 20, PC: 0xa000, Kind: EvLFBStall, Arg: 9},
			"      20 c0 lfb-stall       addr=0xa000 stall=9"},
	} {
		if got := EventLine(0, c.ev, disasm); got != c.want {
			t.Errorf("EventLine(%v):\n got %q\nwant %q", c.ev.Kind, got, c.want)
		}
	}
}

// TestWriteTextListsRetainedEvents: a wrapped ring lists only the events
// it still holds, core by core.
func TestWriteTextListsRetainedEvents(t *testing.T) {
	tr := NewTracer(2, 4)
	for i := uint64(1); i <= 6; i++ {
		tr.Core(0).Record(i, i, 0x4000, EvDispatch, 0)
	}
	tr.Core(1).Record(3, 1, 0x4000, EvDispatch, 0)
	var b bytes.Buffer
	if err := WriteText(&b, tr, nil); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if len(lines) != 5 || !strings.Contains(lines[0], "seq=3 ") || !strings.Contains(lines[4], " c1 ") {
		t.Fatalf("listing:\n%s", b.String())
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped %d, want 2", tr.Dropped())
	}
}
