package cpu

import (
	"strings"
	"testing"

	"specasan/internal/asm"
	"specasan/internal/core"
	"specasan/internal/obs"
)

// pipeview runs prog under mit with an event ring of the given capacity
// attached and renders core 0's timeline of the last n dispatches.
func pipeview(t *testing.T, prog *asm.Program, mit core.Mitigation, capacity, n int, setup func(*Machine)) []string {
	t.Helper()
	m, err := NewMachine(core.DefaultConfig(), mit, prog)
	if err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		setup(m)
	}
	tr := obs.NewTracer(1, capacity)
	m.AttachObs(tr, nil)
	if res := m.Run(1_000_000); res.TimedOut {
		t.Fatal("timeout")
	}
	out := obs.Pipeview(tr.Core(0), n, func(pc uint64) string { return prog.InstAt(pc).String() })
	var rows []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasSuffix(line, "|") {
			rows = append(rows, line)
		}
	}
	return rows
}

// cells returns a timeline row's cycle columns.
func cells(row string) string { return row[strings.Index(row, "|"):] }

func TestPipeviewTimeline(t *testing.T) {
	prog := asm.MustAssemble(`
_start:
    MOV X0, #1
    ADD X1, X0, #2
    ADR X2, buf
    LDR X3, [X2]
    SVC #0
    .org 0x40000
buf:
    .word 5
`)
	rows := pipeview(t, prog, core.Unsafe, 0, 0, nil)
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5:\n%s", len(rows), strings.Join(rows, "\n"))
	}
	// Marks in one column overwrite each other (D, I, C, R, X in that
	// order), so a row shows at least its retirement.
	for _, r := range rows {
		if c := cells(r); !strings.Contains(c, "R") || strings.Contains(c, "X") {
			t.Errorf("row must retire without a squash: %s", r)
		}
	}
	if !strings.Contains(rows[3], "LDR X3") {
		t.Errorf("row 4 must be the load: %s", rows[3])
	}
}

func TestPipeviewCapturesSquashAndUnsafe(t *testing.T) {
	// The G1 gadget: the OOB access goes tcs=unsafe; the mispredicted-path
	// variant squashes it.
	prog := asm.MustAssemble(strings.Replace(specV1Shape,
		".word 1000000", ".word 16", 1))
	rows := pipeview(t, prog, core.SpecASan, 0, 0, func(m *Machine) {
		m.Img.Tags.SetRange(0x100000, 128, 0xa)
		m.Img.Tags.SetRange(0x100080, 16, 0xb)
	})
	for _, r := range rows {
		if strings.Contains(r, "LDR X5") && strings.Contains(r, " u ") && strings.Contains(cells(r), "X") {
			return
		}
	}
	t.Fatalf("the OOB load must be drawn as unsafe and squashed:\n%s", strings.Join(rows, "\n"))
}

func TestPipeviewBounded(t *testing.T) {
	prog := asm.MustAssemble(`
_start:
    MOV X12, #100
loop:
    ADD X1, X1, #1
    SUB X12, X12, #1
    CBNZ X12, loop
    SVC #0
`)
	if rows := pipeview(t, prog, core.Unsafe, 0, 16, nil); len(rows) != 16 {
		t.Fatalf("pipeview 16 drew %d rows", len(rows))
	}
	if rows := pipeview(t, prog, core.Unsafe, 0, 1000, nil); len(rows) != 64 {
		t.Fatalf("pipeview 1000 drew %d rows, want the 64-row cap", len(rows))
	}
	// A ring too small for the window draws what it retained.
	if rows := pipeview(t, prog, core.Unsafe, 32, 16, nil); len(rows) == 0 || len(rows) > 16 {
		t.Fatalf("a wrapped ring drew %d rows", len(rows))
	}
}
