// Package isa defines the ARM-flavoured 64-bit instruction set executed by
// the simulator. It is a compact AArch64 subset extended with the Memory
// Tagging Extension (MTE) instructions that SpecASan builds on, plus the
// handful of system instructions the attack PoCs and workloads need
// (cycle counter reads, cache maintenance, BTI landing pads, barriers).
//
// Instructions are represented as decoded structs rather than binary
// encodings: the simulator models microarchitectural timing, and a decoded
// representation keeps every pipeline stage honest without an artificial
// encode/decode round trip.
package isa

import "fmt"

// Reg names an architectural register. X0..X30 are general purpose, XZR is
// the always-zero register, SP the stack pointer. The program counter is not
// a Reg; branches manipulate it explicitly.
type Reg uint8

// Architectural registers.
const (
	X0 Reg = iota
	X1
	X2
	X3
	X4
	X5
	X6
	X7
	X8
	X9
	X10
	X11
	X12
	X13
	X14
	X15
	X16
	X17
	X18
	X19
	X20
	X21
	X22
	X23
	X24
	X25
	X26
	X27
	X28
	X29
	X30
	XZR // reads as zero, writes discarded
	SP
	NumRegs // count of architectural registers
)

// LR is the conventional link register written by BL/BLR.
const LR = X30

// String returns the assembly name of the register.
func (r Reg) String() string {
	switch {
	case r < XZR:
		return fmt.Sprintf("X%d", uint8(r))
	case r == XZR:
		return "XZR"
	case r == SP:
		return "SP"
	default:
		return fmt.Sprintf("R?%d", uint8(r))
	}
}

// Op is an operation code.
type Op uint8

// Operation codes. The comments give the assembly form accepted by
// package asm.
const (
	NOP Op = iota

	// Data processing (register/immediate). Rd, Rn, Rm or Imm.
	MOV  // MOV Xd, Xn | MOV Xd, #imm
	MOVK // MOVK Xd, #imm, LSL #shift (insert 16 bits)
	ADD  // ADD Xd, Xn, Xm | ADD Xd, Xn, #imm
	ADDS // ADDS Xd, Xn, Xm|#imm (sets NZCV)
	SUB  // SUB Xd, Xn, Xm|#imm
	SUBS // SUBS Xd, Xn, Xm|#imm (sets NZCV)
	CMP  // CMP Xn, Xm|#imm (alias SUBS XZR, ...)
	AND  // AND Xd, Xn, Xm|#imm
	ORR  // ORR Xd, Xn, Xm|#imm
	EOR  // EOR Xd, Xn, Xm|#imm
	LSL  // LSL Xd, Xn, Xm|#imm
	LSR  // LSR Xd, Xn, Xm|#imm
	ASR  // ASR Xd, Xn, Xm|#imm
	MUL  // MUL Xd, Xn, Xm
	UDIV // UDIV Xd, Xn, Xm
	SDIV // SDIV Xd, Xn, Xm
	CSEL // CSEL Xd, Xn, Xm, cond

	// Memory. Address is [Xn, #imm] or [Xn, Xm] (register offset).
	LDR   // LDR Xd, [Xn, #imm] | LDR Xd, [Xn, Xm]
	LDRB  // LDRB Xd, [...]
	STR   // STR Xs, [...]
	STRB  // STRB Xs, [...]
	SWPAL // SWPAL Xs, Xd, [Xn]  atomic swap (acquire/release)

	// Branches.
	B    // B label
	BCC  // B.cond label
	CBZ  // CBZ Xn, label
	CBNZ // CBNZ Xn, label
	BL   // BL label (writes LR)
	BR   // BR Xn (indirect)
	BLR  // BLR Xn (indirect call, writes LR)
	RET  // RET | RET Xn (default X30)

	// MTE (Memory Tagging Extension).
	IRG  // IRG Xd, Xn[, Xm]   insert random tag (Xm excludes tags)
	ADDG // ADDG Xd, Xn, #uimm, #tagoff   add to address and tag
	SUBG // SUBG Xd, Xn, #uimm, #tagoff
	GMI  // GMI Xd, Xn, Xm     tag exclusion mask
	STG  // STG Xt, [Xn]       store allocation tag for granule
	ST2G // ST2G Xt, [Xn]      store allocation tag for two granules
	LDG  // LDG Xt, [Xn]       load allocation tag into Xt's tag field

	// System.
	MRS   // MRS Xd, CNTVCT_EL0 (cycle counter)
	DC    // DC CIVAC, Xn (clean+invalidate by VA) — Flush part of Flush+Reload
	DSB   // DSB SY — full barrier, drains speculation
	ISB   // ISB
	BTI   // BTI (branch target identification landing pad)
	SVC   // SVC #imm (0 = exit, 1 = print X0 as int, 2 = print char in X0)
	HLT   // HLT — stop the core
	YIELD // YIELD — hint, single cycle

	NumOps // count of operations
)

var opNames = [NumOps]string{
	NOP: "NOP", MOV: "MOV", MOVK: "MOVK", ADD: "ADD", ADDS: "ADDS",
	SUB: "SUB", SUBS: "SUBS", CMP: "CMP", AND: "AND", ORR: "ORR",
	EOR: "EOR", LSL: "LSL", LSR: "LSR", ASR: "ASR", MUL: "MUL",
	UDIV: "UDIV", SDIV: "SDIV", CSEL: "CSEL",
	LDR: "LDR", LDRB: "LDRB", STR: "STR", STRB: "STRB", SWPAL: "SWPAL",
	B: "B", BCC: "B.", CBZ: "CBZ", CBNZ: "CBNZ", BL: "BL", BR: "BR",
	BLR: "BLR", RET: "RET",
	IRG: "IRG", ADDG: "ADDG", SUBG: "SUBG", GMI: "GMI",
	STG: "STG", ST2G: "ST2G", LDG: "LDG",
	MRS: "MRS", DC: "DC", DSB: "DSB", ISB: "ISB", BTI: "BTI",
	SVC: "SVC", HLT: "HLT", YIELD: "YIELD",
}

// String returns the mnemonic for the op.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("OP(%d)", uint8(o))
}

// Cond is a branch condition evaluated against the NZCV flags.
type Cond uint8

// Branch conditions (ARM encodings).
const (
	EQ Cond = iota // Z
	NE             // !Z
	HS             // C (unsigned >=)
	LO             // !C (unsigned <)
	MI             // N
	PL             // !N
	VS             // V
	VC             // !V
	HI             // C && !Z (unsigned >)
	LS             // !C || Z (unsigned <=)
	GE             // N == V
	LT             // N != V
	GT             // !Z && N == V
	LE             // Z || N != V
	AL             // always
)

var condNames = [...]string{
	EQ: "EQ", NE: "NE", HS: "HS", LO: "LO", MI: "MI", PL: "PL",
	VS: "VS", VC: "VC", HI: "HI", LS: "LS", GE: "GE", LT: "LT",
	GT: "GT", LE: "LE", AL: "AL",
}

// String returns the condition mnemonic suffix.
func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("C?%d", uint8(c))
}

// Flags holds the NZCV condition flags.
type Flags struct {
	N, Z, C, V bool
}

// Holds reports whether the condition is satisfied by the flags.
func (c Cond) Holds(f Flags) bool {
	switch c {
	case EQ:
		return f.Z
	case NE:
		return !f.Z
	case HS:
		return f.C
	case LO:
		return !f.C
	case MI:
		return f.N
	case PL:
		return !f.N
	case VS:
		return f.V
	case VC:
		return !f.V
	case HI:
		return f.C && !f.Z
	case LS:
		return !f.C || f.Z
	case GE:
		return f.N == f.V
	case LT:
		return f.N != f.V
	case GT:
		return !f.Z && f.N == f.V
	case LE:
		return f.Z || f.N != f.V
	case AL:
		return true
	default:
		return false
	}
}

// Inst is one decoded instruction. Field usage depends on Op; unused fields
// are zero. Addr/Label resolution happens in the assembler: branch targets
// become absolute instruction addresses in Imm.
type Inst struct {
	Op   Op
	Cond Cond // for BCC, CSEL
	Rd   Reg  // destination
	Rn   Reg  // first source / base
	Rm   Reg  // second source / offset register
	// HasImm distinguishes "ADD Xd, Xn, #0" from "ADD Xd, Xn, Xm" when
	// Rm would be X0.
	HasImm bool

	// Dec is the instruction's static decode, filled once by Decode (the
	// assembler decodes every instruction it places). The pipeline reads
	// these plain fields on every cycle an instruction is in flight instead
	// of re-deriving them through the accessors below, which stay the one
	// definition each field is computed from. It sits between the byte-wide
	// fields and the immediates, in what would otherwise be padding, so an
	// Inst is no larger for carrying it.
	Dec Decoded

	Imm int64
	// Imm2 is the second immediate (MOVK shift, ADDG/SUBG tag offset).
	Imm2 int64
}

// NoSrc marks an operand field (Rn, Rm or Rd) that is not among an
// instruction's source registers.
const NoSrc uint8 = 0xff

// Decoded is an instruction's static decode: every answer the accessors
// give, computed once.
type Decoded struct {
	Class Class
	Unit  Unit
	// Bytes is MemBytes: the access width in bytes, 0 for non-memory ops.
	Bytes uint8

	Load, Store, Branch     bool
	WritesFlags, ReadsFlags bool
	Barrier                 bool // IsBarrier: SWPAL or DSB
	TagWrite                bool // WritesTag: STG or ST2G
	// Dst is DstReg's register, or XZR when the instruction writes none
	// (writes to XZR are discarded, so the two are the same to rename).
	Dst              Reg
	NSrc             uint8
	Srcs             [3]Reg // Srcs' registers, NSrc of them
	RnAt, RmAt, RdAt uint8  // first index of Rn/Rm/Rd in Srcs, or NoSrc
}

// Decode fills in.Dec from the accessor definitions. It is idempotent.
// Call it only from single-threaded program construction (the assembler):
// it mutates the Inst, and a Program's instructions are shared read-only by
// every core that runs it.
func (in *Inst) Decode() {
	d := Decoded{
		Class:       in.Classify(),
		Unit:        in.Unit(),
		Bytes:       uint8(in.MemBytes()),
		Load:        in.IsLoad(),
		Store:       in.IsStore(),
		Branch:      in.IsBranch(),
		WritesFlags: in.WritesFlags(),
		ReadsFlags:  in.ReadsFlags(),
		Barrier:     in.IsBarrier(),
		TagWrite:    in.WritesTag(),
	}
	d.Dst = XZR
	if r, ok := in.DstReg(); ok {
		d.Dst = r
	}
	d.NSrc = uint8(len(in.Srcs(d.Srcs[:0])))
	d.RnAt, d.RmAt, d.RdAt = d.srcIndex(in.Rn), d.srcIndex(in.Rm), d.srcIndex(in.Rd)
	in.Dec = d
}

// srcIndex returns the first index of r among the decoded sources, or NoSrc.
func (d *Decoded) srcIndex(r Reg) uint8 {
	for i := uint8(0); i < d.NSrc; i++ {
		if d.Srcs[i] == r {
			return i
		}
	}
	return NoSrc
}

// Class is the coarse functional class of an instruction, used by the issue
// logic to pick an execution port and by the security policies to classify
// "transmit" instructions.
type Class uint8

// Instruction classes.
const (
	ClassNop Class = iota
	ClassALU
	ClassMulDiv
	ClassLoad
	ClassStore
	ClassAtomic
	ClassBranch
	ClassIndirect // BR/BLR/RET — indirect control flow
	ClassTagOp    // STG/ST2G/LDG — tag memory ops
	ClassSystem
)

// Classify returns the functional class of the instruction.
func (in *Inst) Classify() Class {
	switch in.Op {
	case NOP, BTI, YIELD, ISB:
		return ClassNop
	case MOV, MOVK, ADD, ADDS, SUB, SUBS, CMP, AND, ORR, EOR,
		LSL, LSR, ASR, CSEL, IRG, ADDG, SUBG, GMI:
		return ClassALU
	case MUL, UDIV, SDIV:
		return ClassMulDiv
	case LDR, LDRB:
		return ClassLoad
	case STR, STRB:
		return ClassStore
	case STG, ST2G, LDG:
		return ClassTagOp
	case SWPAL:
		return ClassAtomic
	case B, BCC, CBZ, CBNZ, BL:
		return ClassBranch
	case BR, BLR, RET:
		return ClassIndirect
	case MRS, DC, DSB, SVC, HLT:
		return ClassSystem
	default:
		return ClassNop
	}
}

// IsLoad reports whether the instruction reads data memory.
func (in *Inst) IsLoad() bool {
	switch in.Op {
	case LDR, LDRB, SWPAL, LDG:
		return true
	}
	return false
}

// IsStore reports whether the instruction writes data memory.
func (in *Inst) IsStore() bool {
	switch in.Op {
	case STR, STRB, SWPAL, STG, ST2G:
		return true
	}
	return false
}

// IsBranch reports whether the instruction can redirect control flow.
func (in *Inst) IsBranch() bool {
	switch in.Classify() {
	case ClassBranch, ClassIndirect:
		return true
	}
	return false
}

// IsConditional reports whether the branch outcome depends on runtime state.
func (in *Inst) IsConditional() bool {
	switch in.Op {
	case BCC, CBZ, CBNZ:
		return true
	}
	return false
}

// IsBarrier reports whether the instruction orders younger loads behind it
// until it completes: the SWPAL atomic and the DSB barrier.
func (in *Inst) IsBarrier() bool { return in.Op == SWPAL || in.Op == DSB }

// WritesTag reports whether the instruction writes allocation tags (STG,
// ST2G); the tag image changes when it commits.
func (in *Inst) WritesTag() bool { return in.Op == STG || in.Op == ST2G }

// Unit is the functional unit an instruction issues to.
type Unit uint8

// Functional units. UnitMem instructions take cache ports, which the cache
// hierarchy models, so the issue stage books nothing for them.
const (
	UnitMem Unit = iota
	UnitALU
	UnitMul // pipelined multiplier
	UnitDiv // non-pipelined divider
	UnitBranch
)

// Unit returns the functional unit the instruction issues to.
func (in *Inst) Unit() Unit {
	switch in.Classify() {
	case ClassMulDiv:
		if in.Op == MUL {
			return UnitMul
		}
		return UnitDiv
	case ClassBranch, ClassIndirect:
		return UnitBranch
	case ClassALU, ClassNop, ClassSystem:
		return UnitALU
	}
	return UnitMem
}

// MemBytes returns the access width in bytes for memory instructions, 0
// otherwise.
func (in *Inst) MemBytes() int {
	switch in.Op {
	case LDR, STR, SWPAL:
		return 8
	case LDRB, STRB:
		return 1
	case STG, ST2G, LDG:
		return 16 // tag granule
	case DC:
		return 64 // cache line
	}
	return 0
}

// Srcs appends the architectural source registers read by the instruction.
// XZR sources are included (they are trivially ready).
func (in *Inst) Srcs(dst []Reg) []Reg {
	add := func(r Reg) {
		if r < NumRegs {
			dst = append(dst, r)
		}
	}
	switch in.Op {
	case NOP, B, BL, DSB, ISB, BTI, HLT, YIELD, MRS:
	case MOV:
		if !in.HasImm {
			add(in.Rn)
		}
	case MOVK:
		add(in.Rd) // read-modify-write
	case ADD, ADDS, SUB, SUBS, AND, ORR, EOR, LSL, LSR, ASR:
		add(in.Rn)
		if !in.HasImm {
			add(in.Rm)
		}
	case CMP:
		add(in.Rn)
		if !in.HasImm {
			add(in.Rm)
		}
	case MUL, UDIV, SDIV, GMI:
		add(in.Rn)
		add(in.Rm)
	case CSEL:
		add(in.Rn)
		add(in.Rm)
	case LDR, LDRB:
		add(in.Rn)
		if !in.HasImm {
			add(in.Rm)
		}
	case LDG:
		add(in.Rn) // the address; LDG has no index register
		if in.Rd != in.Rn {
			add(in.Rd) // the tag merges into Xt's other bits
		}
	case STR, STRB:
		add(in.Rd) // store data
		add(in.Rn)
		if !in.HasImm {
			add(in.Rm)
		}
	case STG, ST2G:
		add(in.Rd) // tag source
		add(in.Rn)
	case SWPAL:
		add(in.Rd) // swap-in value
		add(in.Rn)
	case BCC:
		// reads flags; modelled separately
	case CBZ, CBNZ:
		add(in.Rn)
	case BR, BLR:
		add(in.Rn)
	case RET:
		add(in.Rn) // assembler defaults bare RET to X30
	case IRG, ADDG, SUBG:
		add(in.Rn)
		if in.Op == IRG && in.Rm < NumRegs && in.Rm != XZR {
			add(in.Rm)
		}
	case DC:
		add(in.Rn)
	case SVC:
		add(X0)
	}
	return dst
}

// Dsts appends the architectural destination registers written by the
// instruction. XZR destinations are omitted (writes are discarded).
func (in *Inst) Dsts(dst []Reg) []Reg {
	add := func(r Reg) {
		if r < NumRegs && r != XZR {
			dst = append(dst, r)
		}
	}
	switch in.Op {
	case MOV, MOVK, ADD, ADDS, SUB, SUBS, AND, ORR, EOR, LSL, LSR, ASR,
		MUL, UDIV, SDIV, CSEL, LDR, LDRB, IRG, ADDG, SUBG, GMI, LDG, MRS:
		add(in.Rd)
	case SWPAL:
		add(in.Rm) // SWPAL Xs, Xt, [Xn]: Xt receives old memory value
	case BL, BLR:
		add(LR)
	}
	return dst
}

// DstReg returns the destination register and whether one exists. No
// instruction in this ISA writes more than one register (Dsts never
// returns XZR, and neither does this).
func (in *Inst) DstReg() (Reg, bool) {
	var buf [1]Reg
	d := in.Dsts(buf[:0])
	if len(d) == 0 {
		return 0, false
	}
	return d[0], true
}

// WritesFlags reports whether the instruction updates NZCV.
func (in *Inst) WritesFlags() bool {
	switch in.Op {
	case ADDS, SUBS, CMP:
		return true
	}
	return false
}

// ReadsFlags reports whether the instruction reads NZCV.
func (in *Inst) ReadsFlags() bool {
	switch in.Op {
	case BCC, CSEL:
		return true
	}
	return false
}

// String disassembles the instruction.
func (in *Inst) String() string {
	switch in.Op {
	case NOP, DSB, ISB, BTI, HLT, YIELD:
		return in.Op.String()
	case MOV:
		if in.HasImm {
			return fmt.Sprintf("MOV %s, #%d", in.Rd, in.Imm)
		}
		return fmt.Sprintf("MOV %s, %s", in.Rd, in.Rn)
	case MOVK:
		return fmt.Sprintf("MOVK %s, #%d, LSL #%d", in.Rd, in.Imm, in.Imm2)
	case ADD, ADDS, SUB, SUBS, AND, ORR, EOR, LSL, LSR, ASR:
		if in.HasImm {
			return fmt.Sprintf("%s %s, %s, #%d", in.Op, in.Rd, in.Rn, in.Imm)
		}
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Rd, in.Rn, in.Rm)
	case CMP:
		if in.HasImm {
			return fmt.Sprintf("CMP %s, #%d", in.Rn, in.Imm)
		}
		return fmt.Sprintf("CMP %s, %s", in.Rn, in.Rm)
	case MUL, UDIV, SDIV, GMI:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Rd, in.Rn, in.Rm)
	case CSEL:
		return fmt.Sprintf("CSEL %s, %s, %s, %s", in.Rd, in.Rn, in.Rm, in.Cond)
	case LDR, LDRB:
		if in.HasImm {
			return fmt.Sprintf("%s %s, [%s, #%d]", in.Op, in.Rd, in.Rn, in.Imm)
		}
		return fmt.Sprintf("%s %s, [%s, %s]", in.Op, in.Rd, in.Rn, in.Rm)
	case STR, STRB:
		if in.HasImm {
			return fmt.Sprintf("%s %s, [%s, #%d]", in.Op, in.Rd, in.Rn, in.Imm)
		}
		return fmt.Sprintf("%s %s, [%s, %s]", in.Op, in.Rd, in.Rn, in.Rm)
	case SWPAL:
		return fmt.Sprintf("SWPAL %s, %s, [%s]", in.Rd, in.Rm, in.Rn)
	case B, BL:
		return fmt.Sprintf("%s 0x%x", in.Op, in.Imm)
	case BCC:
		return fmt.Sprintf("B.%s 0x%x", in.Cond, in.Imm)
	case CBZ, CBNZ:
		return fmt.Sprintf("%s %s, 0x%x", in.Op, in.Rn, in.Imm)
	case BR, BLR:
		return fmt.Sprintf("%s %s", in.Op, in.Rn)
	case RET:
		if in.Rn != LR {
			return fmt.Sprintf("RET %s", in.Rn)
		}
		return "RET"
	case IRG:
		if in.Rm < NumRegs && in.Rm != XZR {
			return fmt.Sprintf("IRG %s, %s, %s", in.Rd, in.Rn, in.Rm)
		}
		return fmt.Sprintf("IRG %s, %s", in.Rd, in.Rn)
	case ADDG, SUBG:
		return fmt.Sprintf("%s %s, %s, #%d, #%d", in.Op, in.Rd, in.Rn, in.Imm, in.Imm2)
	case STG, ST2G, LDG:
		return fmt.Sprintf("%s %s, [%s]", in.Op, in.Rd, in.Rn)
	case MRS:
		return fmt.Sprintf("MRS %s, CNTVCT_EL0", in.Rd)
	case DC:
		return fmt.Sprintf("DC CIVAC, %s", in.Rn)
	case SVC:
		return fmt.Sprintf("SVC #%d", in.Imm)
	default:
		return in.Op.String()
	}
}

// InstBytes is the architectural size of one instruction; PCs advance by it.
const InstBytes = 4
