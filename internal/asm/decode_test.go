package asm_test

import (
	"fmt"
	"strings"
	"testing"

	"specasan/internal/asm"
	"specasan/internal/isa"
)

// decodeMismatch compares in.Dec, field by field, with the accessor each
// field is defined by, and describes the first field that differs ("" when
// the record is faithful).
func decodeMismatch(in *isa.Inst) string {
	d := &in.Dec
	if int(d.NSrc) > len(d.Srcs) {
		return fmt.Sprintf("NSrc = %d, over the record's %d slots", d.NSrc, len(d.Srcs))
	}
	srcs := in.Srcs(nil)
	at := func(r isa.Reg) uint8 {
		for i, s := range srcs {
			if s == r {
				return uint8(i)
			}
		}
		return isa.NoSrc
	}
	dst, ok := in.DstReg()
	if !ok {
		dst = isa.XZR
	}
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"Class", d.Class, in.Classify()},
		{"Unit", d.Unit, in.Unit()},
		{"Bytes", int(d.Bytes), in.MemBytes()},
		{"Load", d.Load, in.IsLoad()},
		{"Store", d.Store, in.IsStore()},
		{"Branch", d.Branch, in.IsBranch()},
		{"WritesFlags", d.WritesFlags, in.WritesFlags()},
		{"ReadsFlags", d.ReadsFlags, in.ReadsFlags()},
		{"Barrier", d.Barrier, in.IsBarrier()},
		{"TagWrite", d.TagWrite, in.WritesTag()},
		{"Dst", d.Dst, dst},
		{"Srcs", fmt.Sprint(d.Srcs[:d.NSrc]), fmt.Sprint(srcs)},
		{"RnAt", d.RnAt, at(in.Rn)},
		{"RmAt", d.RmAt, at(in.Rm)},
		{"RdAt", d.RdAt, at(in.Rd)},
	} {
		if f.got != f.want {
			return fmt.Sprintf("%s = %v, accessor says %v", f.name, f.got, f.want)
		}
	}
	return ""
}

// TestDecodedRecord pins the record Decode fills for every op and operand
// form the assembler accepts: each field must equal its accessor, and the
// sources and destination must be the ones listed ("-" for none).
func TestDecodedRecord(t *testing.T) {
	forms := []struct{ src, srcs, dst string }{
		{"NOP", "-", "-"},
		{"MOV X1, #5", "-", "X1"},
		{"MOV X1, X2", "X2", "X1"},
		{"MOV X1, XZR", "XZR", "X1"},
		{"MOV XZR, #1", "-", "-"},
		{"MOV X3, =lbl", "-", "X3"},
		{"ADR X4, lbl", "-", "X4"},
		{"MOVK X1, #0x1234, LSL #16", "X1", "X1"},
		{"ADD X1, X2, X3", "X2 X3", "X1"},
		{"ADD X1, X2, #4", "X2", "X1"},
		{"ADD XZR, X2, X3", "X2 X3", "-"},
		{"ADD X1, XZR, X1", "XZR X1", "X1"},
		{"ADDS X1, X2, #1", "X2", "X1"},
		{"SUB X1, X2, X2", "X2 X2", "X1"},
		{"SUBS X1, X2, X3", "X2 X3", "X1"},
		{"CMP X1, X2", "X1 X2", "-"},
		{"CMP X1, #3", "X1", "-"},
		{"CMP XZR, X1", "XZR X1", "-"},
		{"AND X1, X2, #0xff", "X2", "X1"},
		{"ORR X1, X2, X3", "X2 X3", "X1"},
		{"EOR X1, X1, X1", "X1 X1", "X1"},
		{"LSL X1, X2, #3", "X2", "X1"},
		{"LSR X1, X2, X3", "X2 X3", "X1"},
		{"ASR X1, X2, #1", "X2", "X1"},
		{"MUL X1, X2, X3", "X2 X3", "X1"},
		{"UDIV X1, X2, X3", "X2 X3", "X1"},
		{"SDIV X1, X2, XZR", "X2 XZR", "X1"},
		{"CSEL X1, X2, X3, EQ", "X2 X3", "X1"},
		{"LDR X1, [X2, #8]", "X2", "X1"},
		{"LDR X1, [X2, X3]", "X2 X3", "X1"},
		{"LDR XZR, [X2]", "X2", "-"},
		{"LDRB X1, [X2, X1]", "X2 X1", "X1"},
		{"STR X1, [X2, #8]", "X1 X2", "-"},
		{"STR X1, [X2, X3]", "X1 X2 X3", "-"},
		{"STR XZR, [X2]", "XZR X2", "-"},
		{"STRB X1, [X1]", "X1 X1", "-"},
		{"SWPAL X1, X2, [X3]", "X1 X3", "X2"},
		{"B lbl", "-", "-"},
		{"B.EQ lbl", "-", "-"},
		{"CBZ X1, lbl", "X1", "-"},
		{"CBNZ X1, lbl", "X1", "-"},
		{"BL lbl", "-", "X30"},
		{"BR X1", "X1", "-"},
		{"BLR X1", "X1", "X30"},
		{"RET", "X30", "-"},
		{"RET X5", "X5", "-"},
		{"IRG X1, X2", "X2", "X1"},
		{"IRG X1, X2, X3", "X2 X3", "X1"},
		{"ADDG X1, X2, #16, #1", "X2", "X1"},
		{"SUBG X1, X2, #16, #1", "X2", "X1"},
		{"GMI X1, X2, X3", "X2 X3", "X1"},
		{"STG X1, [X2]", "X1 X2", "-"},
		{"ST2G X1, [X2]", "X1 X2", "-"},
		{"LDG X1, [X2]", "X2 X1", "X1"},
		{"LDG X1, [X1]", "X1", "X1"},
		{"MRS X1, CNTVCT_EL0", "-", "X1"},
		{"DC CIVAC, X1", "X1", "-"},
		{"DSB SY", "-", "-"},
		{"ISB", "-", "-"},
		{"BTI", "-", "-"},
		{"SVC #0", "X0", "-"},
		{"HLT", "-", "-"},
		{"YIELD", "-", "-"},
	}
	names := func(rs []isa.Reg) string {
		if len(rs) == 0 {
			return "-"
		}
		s := make([]string, len(rs))
		for i, r := range rs {
			s[i] = r.String()
		}
		return strings.Join(s, " ")
	}
	seen := map[isa.Op]bool{}
	for _, f := range forms {
		p, err := asm.Assemble("lbl:\n    " + f.src + "\n")
		if err != nil {
			t.Fatalf("%s: %v", f.src, err)
		}
		in := p.InstAt(p.Entry)
		seen[in.Op] = true
		if msg := decodeMismatch(in); msg != "" {
			t.Errorf("%s: %s", f.src, msg)
		}
		d := &in.Dec
		if got := names(d.Srcs[:d.NSrc]); got != f.srcs {
			t.Errorf("%s: sources %s, want %s", f.src, got, f.srcs)
		}
		dst := "-"
		if d.Dst != isa.XZR {
			dst = d.Dst.String()
		}
		if dst != f.dst {
			t.Errorf("%s: destination %s, want %s", f.src, dst, f.dst)
		}
	}
	for op := isa.Op(0); op < isa.NumOps; op++ {
		if !seen[op] {
			t.Errorf("no form of %v in the table", op)
		}
	}
}
