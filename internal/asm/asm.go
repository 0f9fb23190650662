// Package asm implements a small two-pass assembler for the simulator's
// ARM-flavoured ISA. Attack proof-of-concepts (the paper's Listing 1) and
// workload kernels are written in this assembly.
//
// Syntax overview:
//
//	// comment            ; comment also works
//	_start:               // entry point label (optional; default first inst)
//	    MOV   X0, #42
//	    LDR   X1, [X2, #8]
//	    LDR   X1, [X2, X3]
//	    ADR   X4, table    // pseudo: load label address
//	    B.LO  done
//	    CBZ   X1, done
//	    SVC   #0           // exit
//	table:
//	    .org   0x2000      // start a new block at this address
//	    .word  1, 2, 3     // 64-bit little-endian words
//	    .byte  0xff, 'a'
//	    .ascii "secret"
//	    .align 16          // at most 4096
//	    .space 64          // 64 zero bytes, reserved but never materialised
//
// Instructions occupy isa.InstBytes each; code and data share one address
// space.
package asm

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"specasan/internal/isa"
)

// CodeBlock is a contiguous run of instructions starting at Addr.
type CodeBlock struct {
	Addr  uint64
	Insts []isa.Inst
}

// DataBlock is a contiguous run of data starting at Addr: either initialised
// Bytes, or a .space reservation of Zero bytes that reads as zero and is
// never materialised (Bytes nil).
type DataBlock struct {
	Addr  uint64
	Bytes []byte
	Zero  uint64
}

// Len is the block's extent in bytes.
func (d DataBlock) Len() uint64 { return uint64(len(d.Bytes)) + d.Zero }

// Program is the output of the assembler: code blocks, data blocks, the
// resolved label table and the entry address.
type Program struct {
	Code   []CodeBlock
	Data   []DataBlock
	Labels map[string]uint64
	Entry  uint64
}

// InstAt returns the instruction at addr, or nil if addr is not code.
func (p *Program) InstAt(addr uint64) *isa.Inst {
	for i := range p.Code {
		b := &p.Code[i]
		end := b.Addr + uint64(len(b.Insts))*isa.InstBytes
		if addr >= b.Addr && addr < end && (addr-b.Addr)%isa.InstBytes == 0 {
			return &b.Insts[(addr-b.Addr)/isa.InstBytes]
		}
	}
	return nil
}

// InstsFrom returns the contiguous instruction run starting at addr through
// the end of its code block, or nil if addr is not code. The golden
// interpreter's basic-block cache decodes straight-line regions from these
// subslices without per-instruction lookups.
func (p *Program) InstsFrom(addr uint64) []isa.Inst {
	for i := range p.Code {
		b := &p.Code[i]
		end := b.Addr + uint64(len(b.Insts))*isa.InstBytes
		if addr >= b.Addr && addr < end && (addr-b.Addr)%isa.InstBytes == 0 {
			return b.Insts[(addr-b.Addr)/isa.InstBytes:]
		}
	}
	return nil
}

// NumInsts returns the total number of assembled instructions.
func (p *Program) NumInsts() int {
	n := 0
	for i := range p.Code {
		n += len(p.Code[i].Insts)
	}
	return n
}

// LookupLabel returns the address of a label, or an error when the label
// does not exist. Production code (attack builders, harness plumbing) uses
// this form so a misnamed label surfaces as a propagated error instead of
// killing a whole sweep.
func (p *Program) LookupLabel(name string) (uint64, error) {
	a, ok := p.Labels[name]
	if !ok {
		return 0, fmt.Errorf("asm: unknown label %q", name)
	}
	return a, nil
}

// MustLabel returns the address of a label, panicking if absent. It is a
// convenience for tests that by construction know the label exists.
func (p *Program) MustLabel(name string) uint64 {
	a, err := p.LookupLabel(name)
	if err != nil {
		panic(err)
	}
	return a
}

// DefaultBase is where assembly starts when no .org precedes the first item.
const DefaultBase = 0x10000

// maxAlign bounds .align at one 4 KiB page. Its padding is materialised, so
// an unbounded alignment could ask for exabytes of zeros.
const maxAlign = 4096

// Error describes an assembly failure with its source line.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

type item struct {
	line  int
	addr  uint64
	inst  isa.Inst
	fixup string // label to resolve into Imm ("" = none)
	adr   bool   // true for ADR pseudo (label -> MOV imm)
}

type assembler struct {
	pc      uint64
	labels  map[string]uint64
	items   []item
	data    []DataBlock
	curData *DataBlock
	code    []CodeBlock
	curCode *CodeBlock
}

// Assemble translates source text into a Program.
func Assemble(src string) (*Program, error) {
	a := &assembler{pc: DefaultBase, labels: make(map[string]uint64)}
	lines := strings.Split(src, "\n")
	for i, raw := range lines {
		if err := a.line(i+1, raw); err != nil {
			return nil, err
		}
	}
	// Second pass: resolve fixups.
	for i := range a.items {
		it := &a.items[i]
		if it.fixup == "" {
			continue
		}
		target, ok := a.labels[it.fixup]
		if !ok {
			return nil, &Error{it.line, "undefined label " + it.fixup}
		}
		it.inst.Imm = int64(target)
		it.inst.HasImm = true
	}
	// Place resolved instructions into their code blocks.
	for _, it := range a.items {
		placed := false
		for bi := range a.code {
			b := &a.code[bi]
			off := it.addr - b.Addr
			if it.addr >= b.Addr && off/isa.InstBytes < uint64(len(b.Insts)) {
				b.Insts[off/isa.InstBytes] = it.inst
				placed = true
				break
			}
		}
		if !placed {
			return nil, &Error{it.line, "internal: instruction placement failed"}
		}
	}
	// Fixups are resolved, so operand lists are final: cache them.
	for bi := range a.code {
		b := &a.code[bi]
		for i := range b.Insts {
			b.Insts[i].Decode()
		}
	}
	entry := uint64(0)
	if e, ok := a.labels["_start"]; ok {
		entry = e
	} else if len(a.code) > 0 {
		entry = a.code[0].Addr
	}
	sort.Slice(a.code, func(i, j int) bool { return a.code[i].Addr < a.code[j].Addr })
	sort.Slice(a.data, func(i, j int) bool { return a.data[i].Addr < a.data[j].Addr })
	return &Program{Code: a.code, Data: a.data, Labels: a.labels, Entry: entry}, nil
}

// MustAssemble is Assemble that panics on error; for tests and static PoCs.
func MustAssemble(src string) *Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

func (a *assembler) line(n int, raw string) error {
	s := raw
	if i := strings.IndexAny(s, ";"); i >= 0 {
		s = s[:i]
	}
	if i := strings.Index(s, "//"); i >= 0 {
		s = s[:i]
	}
	s = strings.TrimSpace(s)
	for s != "" {
		// Labels: one or more "name:" prefixes.
		i := strings.Index(s, ":")
		if i < 0 || !isIdent(s[:i]) {
			break
		}
		name := s[:i]
		if _, dup := a.labels[name]; dup {
			return &Error{n, "duplicate label " + name}
		}
		a.labels[name] = a.pc
		s = strings.TrimSpace(s[i+1:])
	}
	if s == "" {
		return nil
	}
	if strings.HasPrefix(s, ".") {
		return a.directive(n, s)
	}
	return a.instruction(n, s)
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == '.':
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

func (a *assembler) emitData(b []byte) {
	if a.curData == nil || a.curData.Addr+uint64(len(a.curData.Bytes)) != a.pc {
		a.data = append(a.data, DataBlock{Addr: a.pc})
		a.curData = &a.data[len(a.data)-1]
	}
	a.curData.Bytes = append(a.curData.Bytes, b...)
	a.pc += uint64(len(b))
	a.curCode = nil
}

func (a *assembler) emitInst(n int, in isa.Inst, fixup string, adr bool) {
	if a.curCode == nil || a.curCode.Addr+uint64(len(a.curCode.Insts))*isa.InstBytes != a.pc {
		a.code = append(a.code, CodeBlock{Addr: a.pc})
		a.curCode = &a.code[len(a.code)-1]
	}
	a.items = append(a.items, item{line: n, addr: a.pc, inst: in, fixup: fixup, adr: adr})
	a.curCode.Insts = append(a.curCode.Insts, isa.Inst{}) // placeholder
	a.pc += isa.InstBytes
	a.curData = nil
}

func (a *assembler) directive(n int, s string) error {
	name, rest, _ := strings.Cut(s, " ")
	rest = strings.TrimSpace(rest)
	switch name {
	case ".org":
		v, err := parseNum(rest)
		if err != nil {
			return &Error{n, ".org: " + err.Error()}
		}
		a.pc = uint64(v)
		a.curCode, a.curData = nil, nil
	case ".align":
		v, err := parseNum(rest)
		if err != nil || v <= 0 || v > maxAlign {
			return &Error{n, ".align: bad alignment"}
		}
		al := uint64(v)
		if a.pc%al != 0 {
			pad := al - a.pc%al
			a.emitData(make([]byte, pad))
		}
	case ".space":
		v, err := parseNum(rest)
		if err != nil || v < 0 {
			return &Error{n, ".space: bad size"}
		}
		if v > 0 {
			a.data = append(a.data, DataBlock{Addr: a.pc, Zero: uint64(v)})
			a.pc += uint64(v)
			a.curCode, a.curData = nil, nil
		}
	case ".byte":
		for _, f := range splitOperands(rest) {
			v, err := parseNum(f)
			if err != nil {
				return &Error{n, ".byte: " + err.Error()}
			}
			a.emitData([]byte{byte(v)})
		}
	case ".word":
		for _, f := range splitOperands(rest) {
			var buf [8]byte
			if lbl := strings.TrimSpace(f); isIdent(lbl) && !isNumStart(lbl) {
				// Label addresses in .word are resolved immediately if the
				// label is already defined; forward refs are not supported
				// in data (keeps the assembler two-pass only for code).
				addr, ok := a.labels[lbl]
				if !ok {
					return &Error{n, ".word: forward label reference " + lbl}
				}
				putU64(buf[:], addr)
			} else {
				v, err := parseNum(f)
				if err != nil {
					return &Error{n, ".word: " + err.Error()}
				}
				putU64(buf[:], uint64(v))
			}
			a.emitData(buf[:])
		}
	case ".ascii", ".asciz":
		str, err := strconv.Unquote(rest)
		if err != nil {
			return &Error{n, name + ": bad string"}
		}
		b := []byte(str)
		if name == ".asciz" {
			b = append(b, 0)
		}
		a.emitData(b)
	default:
		return &Error{n, "unknown directive " + name}
	}
	return nil
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func isNumStart(s string) bool {
	return s != "" && (s[0] >= '0' && s[0] <= '9' || s[0] == '-' || s[0] == '+' || s[0] == '#' || s[0] == '\'')
}

// splitOperands splits on commas that are outside brackets and quotes.
func splitOperands(s string) []string {
	var out []string
	depth, start := 0, 0
	inQuote := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\'':
			inQuote = !inQuote
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 && !inQuote {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	last := strings.TrimSpace(s[start:])
	if last != "" || len(out) > 0 {
		out = append(out, last)
	}
	return out
}

func parseNum(s string) (int64, error) {
	s = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(s), "#"))
	if s == "" {
		return 0, fmt.Errorf("empty number")
	}
	if len(s) >= 3 && s[0] == '\'' && s[len(s)-1] == '\'' {
		r, err := strconv.Unquote(s)
		if err != nil || len(r) != 1 {
			return 0, fmt.Errorf("bad char literal %q", s)
		}
		return int64(r[0]), nil
	}
	neg := false
	if strings.HasPrefix(s, "-") {
		neg, s = true, s[1:]
	}
	v, err := strconv.ParseUint(strings.TrimPrefix(s, "+"), 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", s)
	}
	if neg {
		return -int64(v), nil
	}
	return int64(v), nil
}

func parseReg(s string) (isa.Reg, bool) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "XZR":
		return isa.XZR, true
	case "SP":
		return isa.SP, true
	case "LR":
		return isa.LR, true
	}
	s = strings.TrimSpace(s)
	if len(s) >= 2 && (s[0] == 'X' || s[0] == 'x') {
		n, err := strconv.Atoi(s[1:])
		if err == nil && n >= 0 && n <= 30 {
			return isa.Reg(n), true
		}
	}
	return 0, false
}

var condByName = map[string]isa.Cond{
	"EQ": isa.EQ, "NE": isa.NE, "HS": isa.HS, "CS": isa.HS,
	"LO": isa.LO, "CC": isa.LO, "MI": isa.MI, "PL": isa.PL,
	"VS": isa.VS, "VC": isa.VC, "HI": isa.HI, "LS": isa.LS,
	"GE": isa.GE, "LT": isa.LT, "GT": isa.GT, "LE": isa.LE, "AL": isa.AL,
}

// memOperand parses "[Xn]", "[Xn, #imm]" or "[Xn, Xm]".
func memOperand(s string) (base, idx isa.Reg, imm int64, hasImm, ok bool) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '[' || s[len(s)-1] != ']' {
		return 0, 0, 0, false, false
	}
	parts := splitOperands(s[1 : len(s)-1])
	if len(parts) == 0 || len(parts) > 2 {
		return 0, 0, 0, false, false
	}
	base, ok = parseReg(parts[0])
	if !ok {
		return 0, 0, 0, false, false
	}
	if len(parts) == 1 {
		return base, 0, 0, true, true // [Xn] == [Xn, #0]
	}
	if r, isReg := parseReg(parts[1]); isReg {
		return base, r, 0, false, true
	}
	v, err := parseNum(parts[1])
	if err != nil {
		return 0, 0, 0, false, false
	}
	return base, 0, v, true, true
}

func (a *assembler) instruction(n int, s string) error {
	mn, rest, _ := strings.Cut(s, " ")
	mn = strings.ToUpper(mn)
	ops := splitOperands(strings.TrimSpace(rest))
	fail := func(msg string) error { return &Error{n, mn + ": " + msg} }

	reg := func(i int) (isa.Reg, error) {
		if i >= len(ops) {
			return 0, fail("missing register operand")
		}
		r, ok := parseReg(ops[i])
		if !ok {
			return 0, fail("bad register " + ops[i])
		}
		return r, nil
	}
	num := func(i int) (int64, error) {
		if i >= len(ops) {
			return 0, fail("missing immediate operand")
		}
		v, err := parseNum(ops[i])
		if err != nil {
			return 0, fail(err.Error())
		}
		return v, nil
	}

	// Conditional branch: B.<cond> label
	if strings.HasPrefix(mn, "B.") {
		c, ok := condByName[mn[2:]]
		if !ok {
			return fail("unknown condition")
		}
		if len(ops) != 1 {
			return fail("want 1 operand")
		}
		a.emitInst(n, isa.Inst{Op: isa.BCC, Cond: c}, ops[0], false)
		return nil
	}

	switch mn {
	case "NOP", "DSB", "ISB", "BTI", "HLT", "YIELD":
		var op isa.Op
		switch mn {
		case "NOP":
			op = isa.NOP
		case "DSB":
			op = isa.DSB
		case "ISB":
			op = isa.ISB
		case "BTI":
			op = isa.BTI
		case "HLT":
			op = isa.HLT
		case "YIELD":
			op = isa.YIELD
		}
		a.emitInst(n, isa.Inst{Op: op}, "", false)
		return nil

	case "MOV":
		rd, err := reg(0)
		if err != nil {
			return err
		}
		if len(ops) != 2 {
			return fail("want 2 operands")
		}
		if rs, ok := parseReg(ops[1]); ok {
			a.emitInst(n, isa.Inst{Op: isa.MOV, Rd: rd, Rn: rs}, "", false)
			return nil
		}
		if lbl := strings.TrimPrefix(ops[1], "="); lbl != ops[1] {
			a.emitInst(n, isa.Inst{Op: isa.MOV, Rd: rd, HasImm: true}, lbl, true)
			return nil
		}
		v, err := num(1)
		if err != nil {
			return err
		}
		a.emitInst(n, isa.Inst{Op: isa.MOV, Rd: rd, Imm: v, HasImm: true}, "", false)
		return nil

	case "ADR":
		rd, err := reg(0)
		if err != nil {
			return err
		}
		if len(ops) != 2 {
			return fail("want 2 operands")
		}
		a.emitInst(n, isa.Inst{Op: isa.MOV, Rd: rd, HasImm: true}, ops[1], true)
		return nil

	case "MOVK":
		rd, err := reg(0)
		if err != nil {
			return err
		}
		v, err := num(1)
		if err != nil {
			return err
		}
		var shift int64
		if len(ops) == 3 {
			sh := strings.ToUpper(strings.TrimSpace(ops[2]))
			if !strings.HasPrefix(sh, "LSL") {
				return fail("want LSL #n")
			}
			shift, err = parseNum(strings.TrimSpace(sh[3:]))
			if err != nil {
				return fail("bad shift")
			}
		}
		a.emitInst(n, isa.Inst{Op: isa.MOVK, Rd: rd, Imm: v, Imm2: shift, HasImm: true}, "", false)
		return nil

	case "ADD", "ADDS", "SUB", "SUBS", "AND", "ORR", "EOR", "LSL", "LSR", "ASR":
		opm := map[string]isa.Op{"ADD": isa.ADD, "ADDS": isa.ADDS, "SUB": isa.SUB,
			"SUBS": isa.SUBS, "AND": isa.AND, "ORR": isa.ORR, "EOR": isa.EOR,
			"LSL": isa.LSL, "LSR": isa.LSR, "ASR": isa.ASR}
		rd, err := reg(0)
		if err != nil {
			return err
		}
		rn, err := reg(1)
		if err != nil {
			return err
		}
		if len(ops) != 3 {
			return fail("want 3 operands")
		}
		in := isa.Inst{Op: opm[mn], Rd: rd, Rn: rn}
		if rm, ok := parseReg(ops[2]); ok {
			in.Rm = rm
		} else {
			v, err := num(2)
			if err != nil {
				return err
			}
			in.Imm, in.HasImm = v, true
		}
		a.emitInst(n, in, "", false)
		return nil

	case "CMP":
		rn, err := reg(0)
		if err != nil {
			return err
		}
		if len(ops) != 2 {
			return fail("want 2 operands")
		}
		in := isa.Inst{Op: isa.CMP, Rn: rn}
		if rm, ok := parseReg(ops[1]); ok {
			in.Rm = rm
		} else {
			v, err := num(1)
			if err != nil {
				return err
			}
			in.Imm, in.HasImm = v, true
		}
		a.emitInst(n, in, "", false)
		return nil

	case "MUL", "UDIV", "SDIV", "GMI":
		opm := map[string]isa.Op{"MUL": isa.MUL, "UDIV": isa.UDIV,
			"SDIV": isa.SDIV, "GMI": isa.GMI}
		rd, err := reg(0)
		if err != nil {
			return err
		}
		rn, err := reg(1)
		if err != nil {
			return err
		}
		rm, err := reg(2)
		if err != nil {
			return err
		}
		a.emitInst(n, isa.Inst{Op: opm[mn], Rd: rd, Rn: rn, Rm: rm}, "", false)
		return nil

	case "CSEL":
		rd, err := reg(0)
		if err != nil {
			return err
		}
		rn, err := reg(1)
		if err != nil {
			return err
		}
		rm, err := reg(2)
		if err != nil {
			return err
		}
		if len(ops) != 4 {
			return fail("want 4 operands")
		}
		c, ok := condByName[strings.ToUpper(strings.TrimSpace(ops[3]))]
		if !ok {
			return fail("bad condition")
		}
		a.emitInst(n, isa.Inst{Op: isa.CSEL, Rd: rd, Rn: rn, Rm: rm, Cond: c}, "", false)
		return nil

	case "LDR", "LDRB", "STR", "STRB":
		opm := map[string]isa.Op{"LDR": isa.LDR, "LDRB": isa.LDRB,
			"STR": isa.STR, "STRB": isa.STRB}
		rt, err := reg(0)
		if err != nil {
			return err
		}
		if len(ops) != 2 {
			return fail("want 2 operands")
		}
		base, idx, imm, hasImm, ok := memOperand(ops[1])
		if !ok {
			return fail("bad memory operand " + ops[1])
		}
		a.emitInst(n, isa.Inst{Op: opm[mn], Rd: rt, Rn: base, Rm: idx,
			Imm: imm, HasImm: hasImm}, "", false)
		return nil

	case "SWPAL":
		rs, err := reg(0)
		if err != nil {
			return err
		}
		rt, err := reg(1)
		if err != nil {
			return err
		}
		if len(ops) != 3 {
			return fail("want 3 operands")
		}
		base, _, _, _, ok := memOperand(ops[2])
		if !ok {
			return fail("bad memory operand")
		}
		a.emitInst(n, isa.Inst{Op: isa.SWPAL, Rd: rs, Rm: rt, Rn: base}, "", false)
		return nil

	case "B", "BL":
		if len(ops) != 1 {
			return fail("want 1 operand")
		}
		op := isa.B
		if mn == "BL" {
			op = isa.BL
		}
		a.emitInst(n, isa.Inst{Op: op}, ops[0], false)
		return nil

	case "CBZ", "CBNZ":
		rn, err := reg(0)
		if err != nil {
			return err
		}
		if len(ops) != 2 {
			return fail("want 2 operands")
		}
		op := isa.CBZ
		if mn == "CBNZ" {
			op = isa.CBNZ
		}
		a.emitInst(n, isa.Inst{Op: op, Rn: rn}, ops[1], false)
		return nil

	case "BR", "BLR":
		rn, err := reg(0)
		if err != nil {
			return err
		}
		op := isa.BR
		if mn == "BLR" {
			op = isa.BLR
		}
		a.emitInst(n, isa.Inst{Op: op, Rn: rn}, "", false)
		return nil

	case "RET":
		rn := isa.LR
		if len(ops) == 1 {
			var err error
			rn, err = reg(0)
			if err != nil {
				return err
			}
		}
		a.emitInst(n, isa.Inst{Op: isa.RET, Rn: rn}, "", false)
		return nil

	case "IRG":
		rd, err := reg(0)
		if err != nil {
			return err
		}
		rn, err := reg(1)
		if err != nil {
			return err
		}
		in := isa.Inst{Op: isa.IRG, Rd: rd, Rn: rn, Rm: isa.XZR}
		if len(ops) == 3 {
			rm, err := reg(2)
			if err != nil {
				return err
			}
			in.Rm = rm
		}
		a.emitInst(n, in, "", false)
		return nil

	case "ADDG", "SUBG":
		rd, err := reg(0)
		if err != nil {
			return err
		}
		rn, err := reg(1)
		if err != nil {
			return err
		}
		v1, err := num(2)
		if err != nil {
			return err
		}
		v2, err := num(3)
		if err != nil {
			return err
		}
		op := isa.ADDG
		if mn == "SUBG" {
			op = isa.SUBG
		}
		a.emitInst(n, isa.Inst{Op: op, Rd: rd, Rn: rn, Imm: v1, Imm2: v2, HasImm: true}, "", false)
		return nil

	case "STG", "ST2G", "LDG":
		opm := map[string]isa.Op{"STG": isa.STG, "ST2G": isa.ST2G, "LDG": isa.LDG}
		rt, err := reg(0)
		if err != nil {
			return err
		}
		if len(ops) != 2 {
			return fail("want 2 operands")
		}
		base, _, imm, hasImm, ok := memOperand(ops[1])
		if !ok || !hasImm || imm != 0 {
			return fail("want [Xn]")
		}
		a.emitInst(n, isa.Inst{Op: opm[mn], Rd: rt, Rn: base}, "", false)
		return nil

	case "MRS":
		rd, err := reg(0)
		if err != nil {
			return err
		}
		if len(ops) != 2 || !strings.EqualFold(strings.TrimSpace(ops[1]), "CNTVCT_EL0") {
			return fail("want MRS Xd, CNTVCT_EL0")
		}
		a.emitInst(n, isa.Inst{Op: isa.MRS, Rd: rd}, "", false)
		return nil

	case "DC":
		if len(ops) != 2 || !strings.EqualFold(strings.TrimSpace(ops[0]), "CIVAC") {
			return fail("want DC CIVAC, Xn")
		}
		rn, err := reg(1)
		if err != nil {
			return err
		}
		a.emitInst(n, isa.Inst{Op: isa.DC, Rn: rn}, "", false)
		return nil

	case "SVC":
		v, err := num(0)
		if err != nil {
			return err
		}
		a.emitInst(n, isa.Inst{Op: isa.SVC, Imm: v, HasImm: true}, "", false)
		return nil
	}
	return fail("unknown mnemonic")
}
