package asm

import (
	"strings"
	"testing"

	"specasan/internal/isa"
)

func TestAssembleBasicProgram(t *testing.T) {
	p, err := Assemble(`
_start:
    MOV  X0, #5
    MOV  X1, X0
    ADD  X2, X0, X1
    SVC  #0
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumInsts() != 4 {
		t.Fatalf("want 4 insts, got %d", p.NumInsts())
	}
	if p.Entry != DefaultBase {
		t.Fatalf("entry = %#x", p.Entry)
	}
	in := p.InstAt(p.Entry)
	if in == nil || in.Op != isa.MOV || in.Rd != isa.X0 || in.Imm != 5 || !in.HasImm {
		t.Fatalf("first inst = %v", in)
	}
	in = p.InstAt(p.Entry + 8)
	if in.Op != isa.ADD || in.Rd != isa.X2 || in.Rn != isa.X0 || in.Rm != isa.X1 || in.HasImm {
		t.Fatalf("third inst = %v", in)
	}
}

func TestLabelsAndBranches(t *testing.T) {
	p := MustAssemble(`
_start:
    MOV X0, #0
loop:
    ADD X0, X0, #1
    CMP X0, #10
    B.LT loop
    B   done
    NOP
done:
    SVC #0
`)
	bcc := p.InstAt(p.MustLabel("loop") + 8)
	if bcc.Op != isa.BCC || bcc.Cond != isa.LT || uint64(bcc.Imm) != p.MustLabel("loop") {
		t.Fatalf("B.LT = %v", bcc)
	}
	b := p.InstAt(p.MustLabel("loop") + 12)
	if b.Op != isa.B || uint64(b.Imm) != p.MustLabel("done") {
		t.Fatalf("B = %v", b)
	}
}

func TestMemoryOperands(t *testing.T) {
	p := MustAssemble(`
    LDR X1, [X2]
    LDR X3, [X4, #16]
    LDR X5, [X6, X7]
    STR X1, [X2, #-8]
    LDRB X9, [X10, X11]
`)
	base := p.Entry
	cases := []struct {
		op     isa.Op
		rn, rm isa.Reg
		imm    int64
		hasImm bool
	}{
		{isa.LDR, isa.X2, 0, 0, true},
		{isa.LDR, isa.X4, 0, 16, true},
		{isa.LDR, isa.X6, isa.X7, 0, false},
		{isa.STR, isa.X2, 0, -8, true},
		{isa.LDRB, isa.X10, isa.X11, 0, false},
	}
	for i, c := range cases {
		in := p.InstAt(base + uint64(4*i))
		if in.Op != c.op || in.Rn != c.rn || in.HasImm != c.hasImm || in.Imm != c.imm {
			t.Errorf("inst %d = %v, want %+v", i, in, c)
		}
		if !c.hasImm && in.Rm != c.rm {
			t.Errorf("inst %d rm = %v", i, in.Rm)
		}
	}
}

func TestDataDirectives(t *testing.T) {
	p := MustAssemble(`
_start:
    NOP
    SVC #0
    .org 0x2000
table:
    .word 1, 2, 0x10
    .byte 0xaa, 'b'
    .ascii "hi"
    .align 8
    .space 16
after:
    .word table
`)
	if p.MustLabel("table") != 0x2000 {
		t.Fatalf("table = %#x", p.MustLabel("table"))
	}
	var data *DataBlock
	for i := range p.Data {
		if p.Data[i].Addr == 0x2000 {
			data = &p.Data[i]
		}
	}
	if data == nil {
		t.Fatal("no data block at 0x2000")
	}
	if data.Bytes[0] != 1 || data.Bytes[8] != 2 || data.Bytes[16] != 0x10 {
		t.Fatalf("words wrong: % x", data.Bytes[:24])
	}
	if data.Bytes[24] != 0xaa || data.Bytes[25] != 'b' {
		t.Fatalf("bytes wrong: % x", data.Bytes[24:26])
	}
	if string(data.Bytes[26:28]) != "hi" {
		t.Fatalf("ascii wrong: %q", data.Bytes[26:28])
	}
	// after = 0x2000 + 28 aligned to 8 = 0x2020, + 16 space
	if got := p.MustLabel("after"); got != 0x2030 {
		t.Fatalf("after = %#x", got)
	}
}

// TestSpaceReservesWithoutBytes pins the reservation form of .space: its own
// block, Bytes nil and Len() the reserved size, so no loader has to
// materialise zeros. .space 0 reserves nothing.
func TestSpaceReservesWithoutBytes(t *testing.T) {
	p := MustAssemble(`
    .org 0x3000
    .byte 7
res:
    .space 4096
after:
    .byte 9
    .org 0x8000
    .space 0
`)
	if len(p.Data) != 3 {
		t.Fatalf("want 3 data blocks (byte, reservation, byte), got %d: %+v", len(p.Data), p.Data)
	}
	res := p.Data[1]
	if res.Addr != p.MustLabel("res") || res.Bytes != nil || res.Len() != 4096 || res.Zero != 4096 {
		t.Fatalf("reservation block = {Addr %#x, %d bytes, Len %d}", res.Addr, len(res.Bytes), res.Len())
	}
	if got := p.MustLabel("after"); got != 0x3001+4096 {
		t.Fatalf("after = %#x", got)
	}
	if d := p.Data[2]; d.Addr != 0x3001+4096 || d.Len() != 1 || d.Bytes[0] != 9 {
		t.Fatalf("block after the reservation = %+v", d)
	}
	for _, d := range p.Data {
		if d.Addr == 0x8000 {
			t.Fatalf(".space 0 produced a block: %+v", d)
		}
	}
}

func TestMTEInstructions(t *testing.T) {
	p := MustAssemble(`
    IRG  X0, X1
    IRG  X2, X3, X4
    ADDG X5, X6, #32, #1
    STG  X0, [X1]
    ST2G X0, [X1]
    LDG  X7, [X8]
    GMI  X9, X10, X11
`)
	irg := p.InstAt(p.Entry)
	if irg.Op != isa.IRG || irg.Rm != isa.XZR {
		t.Fatalf("IRG two-operand = %v", irg)
	}
	irg2 := p.InstAt(p.Entry + 4)
	if irg2.Rm != isa.X4 {
		t.Fatalf("IRG three-operand = %v", irg2)
	}
	addg := p.InstAt(p.Entry + 8)
	if addg.Imm != 32 || addg.Imm2 != 1 {
		t.Fatalf("ADDG = %v", addg)
	}
}

func TestErrors(t *testing.T) {
	cases := []string{
		"BOGUS X1, X2",
		"MOV X0",
		"B nowhere",
		"LDR X1, [Y2]",
		"B.QQ label",
		".word futurelabel", // forward data refs unsupported
		"dup: NOP\ndup: NOP",
		".align 8192", // beyond a page
		".space -1",
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("expected error for %q", src)
		} else if !strings.Contains(err.Error(), "line") {
			t.Errorf("error should carry a line number: %v", err)
		}
	}
}

func TestRETDefaultsToLR(t *testing.T) {
	p := MustAssemble("RET")
	if in := p.InstAt(p.Entry); in.Rn != isa.LR {
		t.Fatalf("RET Rn = %v", in.Rn)
	}
}

func TestAdrAndMovLabel(t *testing.T) {
	p := MustAssemble(`
_start:
    ADR X0, data
    MOV X1, =data
    SVC #0
data:
    .word 42
`)
	want := p.MustLabel("data")
	for i := 0; i < 2; i++ {
		in := p.InstAt(p.Entry + uint64(4*i))
		if in.Op != isa.MOV || uint64(in.Imm) != want {
			t.Fatalf("inst %d = %v want imm %#x", i, in, want)
		}
	}
}

func TestNegativeAndHexAndCharImmediates(t *testing.T) {
	p := MustAssemble(`
    MOV X0, #-1
    MOV X1, #0xff
    MOV X2, #'A'
`)
	if in := p.InstAt(p.Entry); in.Imm != -1 {
		t.Fatalf("neg imm = %d", in.Imm)
	}
	if in := p.InstAt(p.Entry + 4); in.Imm != 255 {
		t.Fatalf("hex imm = %d", in.Imm)
	}
	if in := p.InstAt(p.Entry + 8); in.Imm != 'A' {
		t.Fatalf("char imm = %d", in.Imm)
	}
}

func TestRoundTripDisassembly(t *testing.T) {
	// Every instruction must disassemble without panicking and produce a
	// non-empty string.
	p := MustAssemble(`
    NOP
    MOV X0, #1
    MOVK X0, #2, LSL #16
    ADDS X1, X2, X3
    CMP X1, #0
    CSEL X4, X5, X6, EQ
    MUL X7, X8, X9
    UDIV X1, X2, X3
    LDR X1, [X2, #8]
    STRB X3, [X4, X5]
    SWPAL X1, X2, [X3]
    B.NE _start
_start:
    CBZ X1, _start
    BL _start
    BLR X9
    RET
    IRG X0, X1
    ADDG X2, X3, #16, #2
    STG X0, [X1]
    MRS X0, CNTVCT_EL0
    DC CIVAC, X4
    DSB
    BTI
    SVC #1
    HLT
`)
	for _, blk := range p.Code {
		for i := range blk.Insts {
			if s := blk.Insts[i].String(); s == "" {
				t.Fatalf("empty disassembly at %d", i)
			}
		}
	}
}

// TestDisassembleReassembleRoundTrip: for a representative set of
// instructions, String() must produce text the assembler accepts again and
// that decodes to the same instruction.
func TestDisassembleReassembleRoundTrip(t *testing.T) {
	srcs := []string{
		"NOP", "MOV X1, #42", "MOV X2, X3", "ADD X1, X2, X3",
		"ADD X1, X2, #9", "SUBS X4, X5, #1", "CMP X1, X2", "CMP X3, #7",
		"AND X1, X2, #255", "LSL X1, X2, #3", "MUL X1, X2, X3",
		"UDIV X4, X5, X6", "CSEL X1, X2, X3, NE",
		"LDR X1, [X2, #16]", "LDR X1, [X2, X3]", "STRB X4, [X5, #-1]",
		"SWPAL X1, X2, [X3]", "BR X7", "BLR X8", "RET", "RET X9",
		"IRG X1, X2", "IRG X1, X2, X3", "ADDG X1, X2, #32, #2",
		"STG X1, [X2]", "ST2G X1, [X2]", "LDG X1, [X2]",
		"MRS X3, CNTVCT_EL0", "DC CIVAC, X4", "SVC #1", "DSB", "BTI", "HLT",
	}
	for _, src := range srcs {
		p1 := MustAssemble(src)
		in1 := p1.InstAt(p1.Entry)
		text := in1.String()
		p2, err := Assemble(text)
		if err != nil {
			t.Errorf("%q disassembled to %q which does not re-assemble: %v", src, text, err)
			continue
		}
		in2 := p2.InstAt(p2.Entry)
		if *in1 != *in2 {
			t.Errorf("%q: round trip %q decoded differently:\n  %+v\n  %+v",
				src, text, in1, in2)
		}
	}
}

// TestBranchDisassemblyShowsTargets: branch targets resolve to absolute
// addresses in disassembly.
func TestBranchDisassemblyShowsTargets(t *testing.T) {
	p := MustAssemble(`
_start:
    B end
    NOP
end:
    SVC #0
`)
	in := p.InstAt(p.Entry)
	if in.String() != "B 0x10008" {
		t.Fatalf("disassembly = %q", in.String())
	}
}

// TestCommentsAndWhitespaceVariants: the lexer tolerates both comment styles
// and flexible spacing.
func TestCommentsAndWhitespaceVariants(t *testing.T) {
	p := MustAssemble(`
  _start:   MOV   X0,#1   // trailing comment
	ADD X0 , X0 , #2  ; semicolon comment
    SVC #0
`)
	if p.NumInsts() != 3 {
		t.Fatalf("insts = %d", p.NumInsts())
	}
	in := p.InstAt(p.Entry + 4)
	if in.Op.String() != "ADD" || in.Imm != 2 {
		t.Fatalf("spaced operands parsed wrong: %v", in)
	}
}

// TestLabelOnlyLinesAndMultipleLabels: several labels may share an address.
func TestLabelOnlyLinesAndMultipleLabels(t *testing.T) {
	p := MustAssemble(`
a: b:
c:
    NOP
`)
	if p.MustLabel("a") != p.MustLabel("b") || p.MustLabel("b") != p.MustLabel("c") {
		t.Fatal("aliased labels must share the address")
	}
}
