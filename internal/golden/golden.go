// Package golden is the functional reference interpreter: it executes
// programs with no speculation, no caches and no timing, producing the
// architectural state the out-of-order core must converge to. Differential
// tests run random and hand-written programs on both and compare final
// registers and memory.
//
// The interpreter also enforces committed-path MTE semantics (a tag
// mismatch is a fault), which defines the architectural behaviour SpecASan
// extends to the speculative path.
package golden

import (
	"fmt"

	"specasan/internal/asm"
	"specasan/internal/isa"
	"specasan/internal/mem"
	"specasan/internal/mte"
)

// StopReason says why execution ended.
type StopReason uint8

// Stop reasons.
const (
	StopExit     StopReason = iota // SVC #0 or HLT
	StopMaxInsts                   // instruction budget exhausted
	StopTagFault                   // committed MTE tag-check fault
	StopBadPC                      // fetched a non-code address
)

var stopNames = [...]string{
	StopExit: "exit", StopMaxInsts: "max-insts",
	StopTagFault: "tag-fault", StopBadPC: "bad-pc",
}

// String names the stop reason.
func (s StopReason) String() string {
	if int(s) < len(stopNames) {
		return stopNames[s]
	}
	return fmt.Sprintf("stop(%d)", uint8(s))
}

// Result is the final architectural state of a run.
type Result struct {
	Reason   StopReason
	Insts    uint64
	PC       uint64
	Regs     [isa.NumRegs]uint64
	Flags    isa.Flags
	Output   []byte // bytes written through SVC print calls
	FaultPC  uint64 // PC of the faulting access for StopTagFault
	ExitCode uint64 // X0 at SVC #0
}

// Interp is the reference interpreter.
type Interp struct {
	Mem     *mem.Image
	MTEOn   bool   // enforce tag checks on (committed) accesses
	TagSeed uint64 // IRG determinism seed; must match the timed core's

	// Touch, when set, records the run's memory touches for post-transplant
	// cache warming (touch.go). Nil (the default) costs one predictable
	// branch per memory operation.
	Touch *TouchRing

	prog   *asm.Program
	regs   [isa.NumRegs]uint64
	flags  isa.Flags
	pc     uint64
	cycles uint64 // synthetic "cycle" count: 1 per instruction
	output []byte

	// blocks is the lazily-built basic-block decode cache (bbcache.go).
	// Keyed by block entry PC; suffix blocks appear when control enters the
	// middle of an already-decoded block.
	blocks map[uint64]*bblock

	// Direct-mapped page TLB for the load/store fast path (bbcache.go).
	tlb [tlbWays]tlbEntry
}

// The TLB fast path hardcodes the page geometry; refuse to compile if mem
// ever changes it.
var _ [0]struct{} = [mem.PageBytes - mem4kMask - 1]struct{}{}

// New returns an interpreter over prog with its data loaded into a fresh
// memory image.
func New(prog *asm.Program) *Interp {
	img := mem.NewImage()
	img.LoadProgram(prog)
	return &Interp{prog: prog, Mem: img, pc: prog.Entry}
}

// NewWithImage runs prog against an existing image (shared-state tests).
func NewWithImage(prog *asm.Program, img *mem.Image) *Interp {
	return &Interp{prog: prog, Mem: img, pc: prog.Entry}
}

// SetReg pre-sets an architectural register before Run.
func (ip *Interp) SetReg(r isa.Reg, v uint64) {
	if r != isa.XZR {
		ip.regs[r] = v
	}
}

// Reg reads an architectural register.
func (ip *Interp) Reg(r isa.Reg) uint64 {
	if r == isa.XZR {
		return 0
	}
	return ip.regs[r]
}

func (ip *Interp) read(r isa.Reg) uint64 { return ip.Reg(r) }

func (ip *Interp) write(r isa.Reg, v uint64) {
	if r != isa.XZR && r < isa.NumRegs {
		ip.regs[r] = v
	}
}

// Run executes up to maxInsts instructions and returns the final state. It
// dispatches over the basic-block decode cache; runNaive keeps the original
// one-instruction-at-a-time loop as the in-package reference the cache is
// tested bit-identical against.
func (ip *Interp) Run(maxInsts uint64) *Result {
	var n uint64
	var reason StopReason
	b := ip.blockAt(ip.pc)
	for n < maxInsts {
		if b == nil {
			return ip.result(StopBadPC, n)
		}
		if ip.Touch != nil {
			ip.Touch.add(b.addr&^3 | touchIfetch)
		}
		limit := len(b.uops)
		if rem := maxInsts - n; uint64(limit) > rem {
			limit = int(rem)
		}
		retired, ctrl := ip.exec(b, limit, &reason)
		n += retired
		switch ctrl {
		case ctrlStop:
			return ip.result(reason, n)
		case ctrlFallthrough:
			// Fallthrough and not-taken edges land at the block's end
			// address; a budget stop mid-block lands inside it, which the
			// addr check keeps out of the chain cache (the suffix block it
			// decodes still seeds the next Run call).
			nb := b.next
			if nb == nil || nb.addr != ip.pc {
				nb = ip.blockAt(ip.pc)
				if nb != nil && nb.addr == b.endAddr() {
					b.next = nb
				}
			}
			b = nb
		case ctrlTaken:
			// Direct branches have a static target, so the taken edge is
			// cacheable on the block.
			nb := b.takenBlk
			if nb == nil || nb.addr != ip.pc {
				nb = ip.blockAt(ip.pc)
				b.takenBlk = nb
			}
			b = nb
		case ctrlIndirect:
			b = ip.blockAt(ip.pc)
		}
	}
	return ip.result(StopMaxInsts, n)
}

// runNaive is the pre-cache interpreter loop, kept verbatim as the reference
// semantics for the block-cached engine. Tests drive both engines in
// lockstep; production code always takes Run.
func (ip *Interp) runNaive(maxInsts uint64) *Result {
	for n := uint64(0); n < maxInsts; n++ {
		in := ip.prog.InstAt(ip.pc)
		if in == nil {
			return ip.result(StopBadPC, n)
		}
		ip.cycles++
		stop, reason := ip.step(in)
		if stop {
			return ip.result(reason, n+1)
		}
	}
	return ip.result(StopMaxInsts, maxInsts)
}

// State is a snapshot of the interpreter's full architectural state:
// registers, flags, PC, the program output so far, and a deep copy of memory
// including the MTE tag sidecars. It is the transplant seam for fast-forward
// sampling — cpu.NewMachineAt installs a State into a fresh cycle-accurate
// machine.
type State struct {
	PC    uint64
	Regs  [isa.NumRegs]uint64
	Flags isa.Flags
	// Insts is the cumulative instruction count since New; it is also the
	// value the synthetic MRS cycle counter would read next.
	Insts  uint64
	Output []byte
	Mem    *mem.Image
}

// Snapshot deep-copies the interpreter's architectural state. The
// interpreter remains runnable; the snapshot does not alias its memory.
func (ip *Interp) Snapshot() *State {
	st := &State{
		PC: ip.pc, Regs: ip.regs, Flags: ip.flags, Insts: ip.cycles,
		Output: append([]byte(nil), ip.output...),
		Mem:    ip.Mem.Clone(),
	}
	st.Regs[isa.XZR] = 0
	return st
}

// PC returns the current program counter.
func (ip *Interp) PC() uint64 { return ip.pc }

// Insts returns the cumulative instruction count since New.
func (ip *Interp) Insts() uint64 { return ip.cycles }

func (ip *Interp) result(reason StopReason, n uint64) *Result {
	r := &Result{Reason: reason, Insts: n, PC: ip.pc, Regs: ip.regs,
		Flags: ip.flags, Output: ip.output}
	if reason == StopTagFault {
		r.FaultPC = ip.pc
	}
	if reason == StopExit {
		r.ExitCode = ip.regs[isa.X0]
	}
	r.Regs[isa.XZR] = 0
	return r
}

func (ip *Interp) step(in *isa.Inst) (stop bool, reason StopReason) {
	next := ip.pc + isa.InstBytes
	switch in.Op {
	case isa.NOP, isa.BTI, isa.YIELD, isa.ISB, isa.DSB:
		// no architectural effect

	case isa.MOV, isa.MOVK, isa.ADD, isa.ADDS, isa.SUB, isa.SUBS, isa.CMP,
		isa.AND, isa.ORR, isa.EOR, isa.LSL, isa.LSR, isa.ASR, isa.MUL,
		isa.UDIV, isa.SDIV, isa.CSEL, isa.IRG, isa.ADDG, isa.SUBG, isa.GMI:
		rm := ip.read(in.Rm)
		if in.HasImm {
			rm = uint64(in.Imm)
		}
		res := isa.EvalALU(in, isa.ALUInputs{
			Rn: ip.read(in.Rn), Rm: rm, OldRd: ip.read(in.Rd),
			Flags: ip.flags, TagSeed: ip.TagSeed,
		})
		if in.Op != isa.CMP {
			ip.write(in.Rd, res.Value)
		}
		if res.WritesFlags {
			ip.flags = res.Flags
		}

	case isa.LDR, isa.LDRB:
		addr := isa.EffAddr(in, ip.read(in.Rn), ip.read(in.Rm))
		size := in.MemBytes()
		if ip.MTEOn && !ip.Mem.Tags.CheckAccess(addr, size) {
			return true, StopTagFault
		}
		ip.write(in.Rd, ip.Mem.ReadUint(mte.Strip(addr), size))

	case isa.STR, isa.STRB:
		addr := isa.EffAddr(in, ip.read(in.Rn), ip.read(in.Rm))
		size := in.MemBytes()
		if ip.MTEOn && !ip.Mem.Tags.CheckAccess(addr, size) {
			return true, StopTagFault
		}
		ip.Mem.WriteUint(mte.Strip(addr), ip.read(in.Rd), size)

	case isa.SWPAL:
		addr := ip.read(in.Rn)
		if ip.MTEOn && !ip.Mem.Tags.CheckAccess(addr, 8) {
			return true, StopTagFault
		}
		old := ip.Mem.ReadU64(mte.Strip(addr))
		ip.Mem.WriteU64(mte.Strip(addr), ip.read(in.Rd))
		ip.write(in.Rm, old)

	case isa.STG:
		addr := ip.read(in.Rn)
		ip.Mem.Tags.SetLock(addr, mte.Key(ip.read(in.Rd)))

	case isa.ST2G:
		addr := ip.read(in.Rn)
		t := mte.Key(ip.read(in.Rd))
		ip.Mem.Tags.SetLock(addr, t)
		ip.Mem.Tags.SetLock(mte.AlignGranule(addr)+mte.GranuleBytes, t)

	case isa.LDG:
		addr := ip.read(in.Rn)
		lock := ip.Mem.Tags.Lock(addr)
		ip.write(in.Rd, mte.WithKey(ip.read(in.Rd), lock))

	case isa.B, isa.BL, isa.BCC, isa.CBZ, isa.CBNZ, isa.BR, isa.BLR, isa.RET:
		out := isa.EvalBranch(in, ip.pc, ip.read(in.Rn), ip.flags)
		if out.WritesLink {
			ip.write(isa.LR, out.Link)
		}
		ip.pc = out.Target
		return false, 0

	case isa.MRS:
		ip.write(in.Rd, ip.cycles)

	case isa.DC:
		// cache maintenance: no architectural effect

	case isa.SVC:
		switch in.Imm {
		case 0:
			return true, StopExit
		case 1:
			ip.output = append(ip.output, []byte(fmt.Sprintf("%d\n", ip.regs[isa.X0]))...)
		case 2:
			ip.output = append(ip.output, byte(ip.regs[isa.X0]))
		}

	case isa.HLT:
		return true, StopExit
	}
	ip.pc = next
	return false, 0
}
