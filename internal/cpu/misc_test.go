package cpu

import (
	"testing"

	"specasan/internal/core"
	"specasan/internal/isa"
)

func TestCSELAndFlagsThroughPipeline(t *testing.T) {
	m, _ := runSrc(t, core.Unsafe, `
_start:
    MOV  X1, #5
    MOV  X2, #100
    MOV  X3, #200
    CMP  X1, #5
    CSEL X4, X2, X3, EQ
    CMP  X1, #6
    CSEL X5, X2, X3, EQ
    ADDS X6, X1, #-5     // sets Z
    CSEL X7, X2, X3, EQ
    SVC  #0
`)
	c := m.Core(0)
	if c.Reg(isa.X4) != 100 || c.Reg(isa.X5) != 200 || c.Reg(isa.X7) != 100 {
		t.Fatalf("CSEL chain: %d %d %d", c.Reg(isa.X4), c.Reg(isa.X5), c.Reg(isa.X7))
	}
}

func TestMOVKReadModifyWrite(t *testing.T) {
	m, _ := runSrc(t, core.Unsafe, `
_start:
    MOV  X0, #0x1111
    MOVK X0, #0x2222, LSL #16
    MOVK X0, #0x3333, LSL #32
    SVC  #0
`)
	if got := m.Core(0).Reg(isa.X0); got != 0x0000_3333_2222_1111 {
		t.Fatalf("X0 = %#x", got)
	}
}

func TestOutputOrderingAcrossSquashes(t *testing.T) {
	// SVC prints happen at commit, so squashes never duplicate or reorder
	// output even with mispredicted branches in between.
	m, _ := runSrc(t, core.Unsafe, `
_start:
    MOV X12, #5
loop:
    MOV X0, X12
    SVC #1
    SUB X12, X12, #1
    CBNZ X12, loop
    SVC #0
`)
	if got := string(m.Core(0).Output); got != "5\n4\n3\n2\n1\n" {
		t.Fatalf("output = %q", got)
	}
}

// The counter table must name every counter exactly once, and each branch
// op's mispredict counter must carry the "mispred_" + mnemonic key that
// result consumers read.
func TestCounterTableNames(t *testing.T) {
	seen := map[string]ctr{}
	for id := ctr(0); id < numCtrs; id++ {
		name := ctrNames[id]
		if name == "" {
			t.Errorf("counter %d has no name", id)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("counters %d and %d share the name %q", prev, id, name)
		}
		seen[name] = id
	}
	for _, op := range []isa.Op{isa.B, isa.BL, isa.BCC, isa.CBZ, isa.CBNZ, isa.BR, isa.BLR, isa.RET} {
		if got, want := ctrNames[mispredCtr(op)], "mispred_"+op.String(); got != want {
			t.Errorf("%v mispredict counter = %q, want %q", op, got, want)
		}
	}
	want := [numBlockReasons]string{
		blockAtomic:   "policy_block_atomic",
		blockFence:    "policy_block_fence",
		blockSTT:      "policy_block_stt",
		blockDelayAll: "policy_block_delay_all",
		blockDoM:      "policy_block_dom",
	}
	for r := blockAtomic; r < numBlockReasons; r++ {
		if got := ctrNames[r.ctr()]; got != want[r] {
			t.Errorf("block reason %d counts into %q, want %q", r, got, want[r])
		}
	}
}

// Fetch's block-caching lookup must answer exactly as Program.InstAt, which
// returns the first code block holding an address: here with .org blocks
// that overlap, at misaligned addresses, off the code edge, and walking up
// and then down so a later block is cached before an earlier one that
// overlaps it is asked for.
func TestInstAtMatchesProgram(t *testing.T) {
	c := newMachine(t, core.Unsafe, `
_start:
    NOP
    NOP
    NOP
    NOP
    .org 0x10008
    MOV X1, #1
    MOV X2, #2
    MOV X3, #3
    MOV X4, #4
    .org 0x10006
    MOV X5, #5
    .org 0x20000
    B _start
`).Core(0)
	var pcs []uint64
	for pc := uint64(0xfff0); pc < 0x10020; pc++ {
		pcs = append(pcs, pc)
	}
	for pc := uint64(0x10020); pc > 0xfff0; pc-- {
		pcs = append(pcs, pc)
	}
	pcs = append(pcs, 0x20000, 0x10010, 0x20004, 0x10008, 0x10006, 0x10000)
	for _, pc := range pcs {
		if got, want := c.instAt(pc), c.prog.InstAt(pc); got != want {
			t.Fatalf("instAt(%#x) = %v, Program.InstAt gives %v", pc, got, want)
		}
	}
}
