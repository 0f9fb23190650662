// Basic-block decode cache for the golden interpreter.
//
// The interpreter's original per-instruction loop re-resolved the PC into a
// *isa.Inst on every step (a linear scan over the program's code blocks) and
// re-derived operand kinds (HasImm, XZR handling) inside one large switch.
// Now that golden is a fast-forward engine and not just a test oracle, that
// overhead dominates. This file pre-translates each basic block into a flat
// slice of micro-ops ("uops") with operands resolved at decode time, executes
// them in a tight loop with a direct-mapped page TLB on the memory path, and
// chains blocks along fallthrough, taken and indirect edges so steady-state
// dispatch never touches the program structure or a map.
//
// Correctness story: runNaive in golden.go keeps the original one-inst-at-a-
// time loop, and tests assert the two engines are bit-identical (registers,
// flags, memory, tags, output, stop metadata) at every instruction boundary,
// including budget stops that land mid-block.
package golden

import (
	"encoding/binary"

	"specasan/internal/isa"
	"specasan/internal/mem"
	"specasan/internal/mte"
)

// uopKind discriminates pre-decoded micro-ops. Hot ALU and branch forms get
// specialized kinds with semantics inlined in exec; everything else funnels
// through the shared isa.EvalALU helper so the semantic truth stays single-
// sourced for the rare ops.
type uopKind uint8

const (
	uNop      uopKind = iota // NOP/BTI/YIELD/ISB/DSB/DC
	uMovImm                  // rd = imm
	uMovReg                  // rd = rn
	uAddImm                  // rd = rn + imm
	uAddReg                  // rd = rn + rm
	uSubImm                  // rd = rn - imm
	uSubReg                  // rd = rn - rm
	uAndImm                  // rd = rn & imm
	uAndReg                  // rd = rn & rm
	uEorReg                  // rd = rn ^ rm
	uOrrReg                  // rd = rn | rm
	uLslImm                  // rd = rn << imm (shift-saturating)
	uLsrImm                  // rd = rn >> imm
	uMulReg                  // rd = rn * rm
	uCmpImm                  // flags = subFlags(rn, imm)
	uCmpReg                  // flags = subFlags(rn, rm)
	uAluEval                 // any remaining data-processing op via isa.EvalALU
	uLdrImm                  // rd = mem64[rn + imm]
	uLdrReg                  // rd = mem64[rn + rm]
	uLdrbImm                 // rd = mem8[rn + imm]
	uLdrbReg                 // rd = mem8[rn + rm]
	uStrImm                  // mem64[rn + imm] = rd
	uStrReg                  // mem64[rn + rm] = rd
	uStrbImm                 // mem8[rn + imm] = rd
	uStrbReg                 // mem8[rn + rm] = rd
	uSwpal                   // atomic swap
	uStg                     // set one granule lock
	uSt2g                    // set two granule locks
	uLdg                     // load granule lock into pointer key
	uMrs                     // rd = synthetic cycle counter
	uSvcPrint                // SVC #1 / #2 output append
	// Terminators: at most one per block, always last. translate relies on
	// uSvcExit being the first terminator kind.
	uSvcExit // SVC #0 / HLT
	uB       // unconditional direct branch
	uBL      // direct call: link then branch
	uBcc     // conditional direct branch
	uCbz     // compare-and-branch on zero
	uCbnz    // compare-and-branch on non-zero
	uBrInd   // indirect branch (BR)
	uBlrInd  // indirect call (BLR)
	uRetInd  // return (RET)
)

// uop is one pre-decoded micro-op. Register fields are direct indices into
// the regs array (reads rely on the regs[XZR]==0 invariant; writes to XZR
// are guarded in exec).
type uop struct {
	kind uopKind
	rd   isa.Reg
	rn   isa.Reg
	rm   isa.Reg
	cond isa.Cond  // uBcc condition
	imm  uint64    // immediate / shift amount / static branch target
	in   *isa.Inst // original instruction for uAluEval/uSvcPrint paths
}

// bblock is a decoded basic block: straight-line uops ending at the first
// control-flow instruction, SVC/HLT, or the end of the assembler code block.
type bblock struct {
	addr uint64
	uops []uop
	// next chains to the block at addr+len*InstBytes (fallthrough and
	// not-taken conditional edges); takenBlk chains the static taken edge of
	// a terminating direct branch; indBlk remembers the last target of a
	// terminating RET, BR or BLR. All resolve lazily on first use, and
	// takenBlk and indBlk are checked against the PC before use.
	next     *bblock
	takenBlk *bblock
	indBlk   *bblock
}

func (b *bblock) endAddr() uint64 {
	return b.addr + uint64(len(b.uops))*isa.InstBytes
}

// blockAt returns the decoded block starting at pc, translating it on first
// use. Returns nil when pc is not a code address.
func (ip *Interp) blockAt(pc uint64) *bblock {
	if b := ip.blocks[pc]; b != nil {
		return b
	}
	return ip.decodeBlock(pc)
}

func (ip *Interp) decodeBlock(pc uint64) *bblock {
	insts := ip.prog.InstsFrom(pc)
	if insts == nil {
		return nil
	}
	// Translate on the stack, then keep exactly the block's uops: most
	// blocks are a handful of instructions.
	var buf [32]uop
	uops := buf[:0]
	for i := range insts {
		u := translate(&insts[i])
		uops = append(uops, u)
		if u.kind >= uSvcExit {
			break
		}
	}
	b := &bblock{addr: pc, uops: append([]uop(nil), uops...)}
	if ip.blocks == nil {
		ip.blocks = make(map[uint64]*bblock)
	}
	ip.blocks[pc] = b
	return b
}

// translate pre-decodes one instruction into a uop.
func translate(in *isa.Inst) uop {
	u := uop{rd: in.Rd, rn: in.Rn, rm: in.Rm, cond: in.Cond,
		imm: uint64(in.Imm), in: in}
	switch in.Op {
	case isa.NOP, isa.BTI, isa.YIELD, isa.ISB, isa.DSB, isa.DC:
		u.kind = uNop
	case isa.MOV:
		u.kind = pick(in.HasImm, uMovImm, uMovReg)
	case isa.ADD:
		u.kind = pick(in.HasImm, uAddImm, uAddReg)
	case isa.SUB:
		u.kind = pick(in.HasImm, uSubImm, uSubReg)
	case isa.AND:
		u.kind = pick(in.HasImm, uAndImm, uAndReg)
	case isa.EOR:
		u.kind = pick(in.HasImm, uAluEval, uEorReg)
	case isa.ORR:
		u.kind = pick(in.HasImm, uAluEval, uOrrReg)
	case isa.LSL:
		u.kind = pick(in.HasImm, uLslImm, uAluEval)
	case isa.LSR:
		u.kind = pick(in.HasImm, uLsrImm, uAluEval)
	case isa.MUL:
		u.kind = pick(in.HasImm, uAluEval, uMulReg)
	case isa.CMP:
		u.kind = pick(in.HasImm, uCmpImm, uCmpReg)
	case isa.MOVK, isa.ADDS, isa.SUBS, isa.ASR, isa.UDIV, isa.SDIV,
		isa.CSEL, isa.IRG, isa.ADDG, isa.SUBG, isa.GMI:
		u.kind = uAluEval
	case isa.LDR:
		u.kind = pick(in.HasImm, uLdrImm, uLdrReg)
	case isa.LDRB:
		u.kind = pick(in.HasImm, uLdrbImm, uLdrbReg)
	case isa.STR:
		u.kind = pick(in.HasImm, uStrImm, uStrReg)
	case isa.STRB:
		u.kind = pick(in.HasImm, uStrbImm, uStrbReg)
	case isa.SWPAL:
		u.kind = uSwpal
	case isa.STG:
		u.kind = uStg
	case isa.ST2G:
		u.kind = uSt2g
	case isa.LDG:
		u.kind = uLdg
	case isa.MRS:
		u.kind = uMrs
	case isa.SVC:
		u.kind = pick(in.Imm == 0, uSvcExit, uSvcPrint)
	case isa.HLT:
		u.kind = uSvcExit
	case isa.B:
		u.kind = uB
	case isa.BL:
		u.kind = uBL
	case isa.BCC:
		u.kind = uBcc
	case isa.CBZ:
		u.kind = uCbz
	case isa.CBNZ:
		u.kind = uCbnz
	case isa.BR:
		u.kind = uBrInd
	case isa.BLR:
		u.kind = uBlrInd
	case isa.RET:
		u.kind = uRetInd
	default:
		// Unknown op: architecturally a no-op, matching the naive loop's
		// default-free switch.
		u.kind = uNop
	}
	return u
}

func pick(cond bool, a, b uopKind) uopKind {
	if cond {
		return a
	}
	return b
}

// ctrlKind says how a block's execution ended.
type ctrlKind uint8

const (
	ctrlFallthrough ctrlKind = iota // ran off the end (or budget exhausted)
	ctrlTaken                       // direct branch taken: follow takenBlk
	ctrlIndirect                    // indirect branch: look up ip.pc
	ctrlStop                        // StopExit/StopTagFault raised
)

// exec runs up to limit uops of b (limit <= len(b.uops)), starting from the
// block head. It returns the number of instructions retired and how control
// left the block. ip.pc and ip.cycles are synchronized before returning;
// within the loop they are carried implicitly (pc = b.addr + i*4) so the hot
// path touches no interpreter fields it does not need.
func (ip *Interp) exec(b *bblock, limit int, stopReason *StopReason) (retired uint64, ctrl ctrlKind) {
	regs := &ip.regs
	baseCycles := ip.cycles
	uops := b.uops[:limit]
	for i := range uops {
		u := &uops[i]
		switch u.kind {
		case uNop:
		case uMovImm:
			if u.rd != isa.XZR {
				regs[u.rd] = u.imm
			}
		case uMovReg:
			if u.rd != isa.XZR {
				regs[u.rd] = regs[u.rn]
			}
		case uAddImm:
			if u.rd != isa.XZR {
				regs[u.rd] = regs[u.rn] + u.imm
			}
		case uAddReg:
			if u.rd != isa.XZR {
				regs[u.rd] = regs[u.rn] + regs[u.rm]
			}
		case uSubImm:
			if u.rd != isa.XZR {
				regs[u.rd] = regs[u.rn] - u.imm
			}
		case uSubReg:
			if u.rd != isa.XZR {
				regs[u.rd] = regs[u.rn] - regs[u.rm]
			}
		case uAndImm:
			if u.rd != isa.XZR {
				regs[u.rd] = regs[u.rn] & u.imm
			}
		case uAndReg:
			if u.rd != isa.XZR {
				regs[u.rd] = regs[u.rn] & regs[u.rm]
			}
		case uEorReg:
			if u.rd != isa.XZR {
				regs[u.rd] = regs[u.rn] ^ regs[u.rm]
			}
		case uOrrReg:
			if u.rd != isa.XZR {
				regs[u.rd] = regs[u.rn] | regs[u.rm]
			}
		case uLslImm:
			if u.rd != isa.XZR {
				regs[u.rd] = shlSat(regs[u.rn], u.imm)
			}
		case uLsrImm:
			if u.rd != isa.XZR {
				regs[u.rd] = shrSat(regs[u.rn], u.imm)
			}
		case uMulReg:
			if u.rd != isa.XZR {
				regs[u.rd] = regs[u.rn] * regs[u.rm]
			}
		case uCmpImm:
			ip.flags = subFlagsOnly(regs[u.rn], u.imm)
		case uCmpReg:
			ip.flags = subFlagsOnly(regs[u.rn], regs[u.rm])
		case uAluEval:
			in := u.in
			rm := regs[u.rm]
			if in.HasImm {
				rm = uint64(in.Imm)
			}
			res := isa.EvalALU(in, isa.ALUInputs{
				Rn: regs[u.rn], Rm: rm, OldRd: regs[u.rd],
				Flags: ip.flags, TagSeed: ip.TagSeed,
			})
			if u.rd != isa.XZR {
				regs[u.rd] = res.Value
			}
			if res.WritesFlags {
				ip.flags = res.Flags
			}
		case uLdrImm:
			v, ok := ip.load64(regs[u.rn] + u.imm)
			if !ok {
				return ip.raise(b, i, baseCycles, StopTagFault, stopReason)
			}
			if u.rd != isa.XZR {
				regs[u.rd] = v
			}
		case uLdrReg:
			v, ok := ip.load64(regs[u.rn] + regs[u.rm])
			if !ok {
				return ip.raise(b, i, baseCycles, StopTagFault, stopReason)
			}
			if u.rd != isa.XZR {
				regs[u.rd] = v
			}
		case uLdrbImm:
			v, ok := ip.load8(regs[u.rn] + u.imm)
			if !ok {
				return ip.raise(b, i, baseCycles, StopTagFault, stopReason)
			}
			if u.rd != isa.XZR {
				regs[u.rd] = v
			}
		case uLdrbReg:
			v, ok := ip.load8(regs[u.rn] + regs[u.rm])
			if !ok {
				return ip.raise(b, i, baseCycles, StopTagFault, stopReason)
			}
			if u.rd != isa.XZR {
				regs[u.rd] = v
			}
		case uStrImm:
			if !ip.store64(regs[u.rn]+u.imm, regs[u.rd]) {
				return ip.raise(b, i, baseCycles, StopTagFault, stopReason)
			}
		case uStrReg:
			if !ip.store64(regs[u.rn]+regs[u.rm], regs[u.rd]) {
				return ip.raise(b, i, baseCycles, StopTagFault, stopReason)
			}
		case uStrbImm:
			if !ip.store8(regs[u.rn]+u.imm, byte(regs[u.rd])) {
				return ip.raise(b, i, baseCycles, StopTagFault, stopReason)
			}
		case uStrbReg:
			if !ip.store8(regs[u.rn]+regs[u.rm], byte(regs[u.rd])) {
				return ip.raise(b, i, baseCycles, StopTagFault, stopReason)
			}
		case uSwpal:
			addr := regs[u.rn]
			m := ip.Mem
			if ip.Touch != nil {
				ip.Touch.add(mte.Strip(addr)&^3 | touchWrite)
			}
			if ip.MTEOn && !m.Tags.CheckAccess(addr, 8) {
				return ip.raise(b, i, baseCycles, StopTagFault, stopReason)
			}
			old := m.ReadU64(mte.Strip(addr))
			m.WriteU64(mte.Strip(addr), regs[u.rd])
			if u.rm != isa.XZR {
				regs[u.rm] = old
			}
		case uStg:
			ip.Mem.Tags.SetLock(regs[u.rn], mte.Key(regs[u.rd]))
		case uSt2g:
			addr := regs[u.rn]
			t := mte.Key(regs[u.rd])
			ip.Mem.Tags.SetLock(addr, t)
			ip.Mem.Tags.SetLock(mte.AlignGranule(addr)+mte.GranuleBytes, t)
		case uLdg:
			lock := ip.Mem.Tags.Lock(regs[u.rn])
			if u.rd != isa.XZR {
				regs[u.rd] = mte.WithKey(regs[u.rd], lock)
			}
		case uMrs:
			// The synthetic cycle counter is 1 per retired instruction,
			// incremented before the instruction executes (matching the
			// naive loop's ip.cycles++ then step ordering).
			if u.rd != isa.XZR {
				regs[u.rd] = baseCycles + uint64(i) + 1
			}
		case uSvcPrint:
			ip.svcPrint(u.in.Imm)
		case uSvcExit:
			return ip.raise(b, i, baseCycles, StopExit, stopReason)
		case uB:
			ip.cycles = baseCycles + uint64(i) + 1
			ip.pc = u.imm
			return uint64(i) + 1, ctrlTaken
		case uBL:
			regs[isa.LR] = b.addr + uint64(i+1)*isa.InstBytes
			ip.cycles = baseCycles + uint64(i) + 1
			ip.pc = u.imm
			return uint64(i) + 1, ctrlTaken
		case uBcc:
			ip.cycles = baseCycles + uint64(i) + 1
			if u.cond.Holds(ip.flags) {
				ip.pc = u.imm
				return uint64(i) + 1, ctrlTaken
			}
			ip.pc = b.addr + uint64(i+1)*isa.InstBytes
			return uint64(i) + 1, ctrlFallthrough
		case uCbz:
			ip.cycles = baseCycles + uint64(i) + 1
			if regs[u.rn] == 0 {
				ip.pc = u.imm
				return uint64(i) + 1, ctrlTaken
			}
			ip.pc = b.addr + uint64(i+1)*isa.InstBytes
			return uint64(i) + 1, ctrlFallthrough
		case uCbnz:
			ip.cycles = baseCycles + uint64(i) + 1
			if regs[u.rn] != 0 {
				ip.pc = u.imm
				return uint64(i) + 1, ctrlTaken
			}
			ip.pc = b.addr + uint64(i+1)*isa.InstBytes
			return uint64(i) + 1, ctrlFallthrough
		case uBrInd:
			ip.cycles = baseCycles + uint64(i) + 1
			ip.pc = regs[u.rn]
			return uint64(i) + 1, ctrlIndirect
		case uBlrInd:
			// Read the target before writing the link so BLR LR behaves.
			t := regs[u.rn]
			regs[isa.LR] = b.addr + uint64(i+1)*isa.InstBytes
			ip.cycles = baseCycles + uint64(i) + 1
			ip.pc = t
			return uint64(i) + 1, ctrlIndirect
		case uRetInd:
			ip.cycles = baseCycles + uint64(i) + 1
			ip.pc = regs[u.rn]
			return uint64(i) + 1, ctrlIndirect
		}
	}
	ip.cycles = baseCycles + uint64(limit)
	ip.pc = b.addr + uint64(limit)*isa.InstBytes
	return uint64(limit), ctrlFallthrough
}

// raise synchronizes pc/cycles at a stopping uop. Faults and exits leave pc
// at the stopping instruction itself, matching the naive loop, which returns
// from step before advancing pc. The stopping instruction still counts as
// retired (the naive loop reports n+1).
func (ip *Interp) raise(b *bblock, i int, baseCycles uint64, r StopReason, out *StopReason) (uint64, ctrlKind) {
	ip.cycles = baseCycles + uint64(i) + 1
	ip.pc = b.addr + uint64(i)*isa.InstBytes
	*out = r
	return uint64(i) + 1, ctrlStop
}

// --- memory fast path -------------------------------------------------------
//
// A small direct-mapped TLB caches the data and tag-lock slices of recently
// touched pages. Hits do the whole load/store (including the MTE granule
// check) without leaving the interpreter; misses fall back to the Image's
// checked slow path, which is byte-for-byte the naive engine's behaviour.
// Loads of unmapped pages are never cached and do not map them (reads of
// unmapped memory are architectural zeros and must not perturb the page
// census the differential tests compare); because entries alias live frames
// and only mapped pages are cached, external writes through the Image stay
// coherent with the TLB by construction.

// tlbWays is sized for the kernels' footprints: a scale-2 SPEC kernel maps
// 9 to 49 pages, and with 64 direct-mapped entries a run of consecutive
// pages never evicts itself.
const (
	mem4kMask = 4095 // mem.PageBytes - 1; compile-time checked in golden.go
	tlbWays   = 64
)

// tlbEntry caches one mapped page frame. Valid iff data != nil. Array
// pointers rather than slices keep an entry at 24 bytes, so the whole TLB
// adds about 1.5 KiB to an interpreter.
type tlbEntry struct {
	base  uint64 // stripped page base address
	data  *[mem.PageBytes]byte
	locks *[mem.PageBytes / mte.GranuleBytes]mte.Tag
}

func (ip *Interp) refillTLB(e *tlbEntry, stripped uint64, mapIt bool) bool {
	var data []byte
	var locks []mte.Tag
	if mapIt {
		data, locks = ip.Mem.FrameFor(stripped)
	} else if data, locks = ip.Mem.FrameAt(stripped); data == nil {
		return false
	}
	e.base = stripped &^ uint64(mem4kMask)
	e.data = (*[mem.PageBytes]byte)(data)
	e.locks = (*[mem.PageBytes / mte.GranuleBytes]mte.Tag)(locks)
	return true
}

// tagOK checks the MTE granule locks for an access of size bytes wholly
// inside the entry's page. It mirrors mte.Check: exact key==lock equality on
// every granule touched.
func tagOK(e *tlbEntry, addr, off, size uint64) bool {
	key := mte.Key(addr)
	g := off >> 4
	if e.locks[g] != key {
		return false
	}
	if (off&15)+size > 16 && e.locks[g+1] != key {
		return false
	}
	return true
}

func (ip *Interp) load64(addr uint64) (uint64, bool) {
	s := mte.Strip(addr)
	if ip.Touch != nil {
		ip.Touch.add(s &^ 3)
	}
	e := &ip.tlb[(s>>12)&(tlbWays-1)]
	off := s - e.base
	if e.data == nil || off > mem4kMask-7 {
		if s&mem4kMask > mem4kMask-7 || !ip.refillTLB(e, s, false) {
			return ip.slowLoad(addr, 8)
		}
		off = s & mem4kMask
	}
	if ip.MTEOn && !tagOK(e, addr, off, 8) {
		return 0, false
	}
	return binary.LittleEndian.Uint64(e.data[off : off+8]), true
}

func (ip *Interp) load8(addr uint64) (uint64, bool) {
	s := mte.Strip(addr)
	if ip.Touch != nil {
		ip.Touch.add(s &^ 3)
	}
	e := &ip.tlb[(s>>12)&(tlbWays-1)]
	off := s - e.base
	if e.data == nil || off > mem4kMask {
		if !ip.refillTLB(e, s, false) {
			return ip.slowLoad(addr, 1)
		}
		off = s & mem4kMask
	}
	if ip.MTEOn && !tagOK(e, addr, off, 1) {
		return 0, false
	}
	return uint64(e.data[off]), true
}

func (ip *Interp) store64(addr, v uint64) bool {
	s := mte.Strip(addr)
	if ip.Touch != nil {
		ip.Touch.add(s&^3 | touchWrite)
	}
	e := &ip.tlb[(s>>12)&(tlbWays-1)]
	off := s - e.base
	if e.data == nil || off > mem4kMask-7 {
		if s&mem4kMask > mem4kMask-7 {
			return ip.slowStore(addr, v, 8)
		}
		ip.refillTLB(e, s, true)
		off = s & mem4kMask
	}
	if ip.MTEOn && !tagOK(e, addr, off, 8) {
		return false
	}
	binary.LittleEndian.PutUint64(e.data[off:off+8], v)
	return true
}

func (ip *Interp) store8(addr uint64, v byte) bool {
	s := mte.Strip(addr)
	if ip.Touch != nil {
		ip.Touch.add(s&^3 | touchWrite)
	}
	e := &ip.tlb[(s>>12)&(tlbWays-1)]
	off := s - e.base
	if e.data == nil || off > mem4kMask {
		ip.refillTLB(e, s, true)
		off = s & mem4kMask
	}
	if ip.MTEOn && !tagOK(e, addr, off, 1) {
		return false
	}
	e.data[off] = v
	return true
}

// slowLoad is the miss path: the Image's checked read, identical to the
// naive engine (tag check against the authoritative store, then the read;
// unmapped pages read as zero without being mapped).
func (ip *Interp) slowLoad(addr uint64, size int) (uint64, bool) {
	if ip.MTEOn && !ip.Mem.Tags.CheckAccess(addr, size) {
		return 0, false
	}
	return ip.Mem.ReadUint(mte.Strip(addr), size), true
}

func (ip *Interp) slowStore(addr, v uint64, size int) bool {
	if ip.MTEOn && !ip.Mem.Tags.CheckAccess(addr, size) {
		return false
	}
	ip.Mem.WriteUint(mte.Strip(addr), v, size)
	return true
}

func (ip *Interp) svcPrint(imm int64) {
	switch imm {
	case 1:
		ip.output = appendDecimal(ip.output, ip.regs[isa.X0])
	case 2:
		ip.output = append(ip.output, byte(ip.regs[isa.X0]))
	}
}

// appendDecimal appends v in decimal plus a newline, the SVC #1 wire format,
// without the fmt machinery on the hot path.
func appendDecimal(dst []byte, v uint64) []byte {
	var buf [21]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	dst = append(dst, buf[i:]...)
	return append(dst, '\n')
}

func shlSat(v, s uint64) uint64 {
	if s >= 64 {
		return 0
	}
	return v << s
}

func shrSat(v, s uint64) uint64 {
	if s >= 64 {
		return 0
	}
	return v >> s
}

// subFlagsOnly mirrors isa's CMP flag computation for the specialized
// compare uops. isa.EvalALU remains the source of truth; TestCmpFlagsMatch
// cross-checks this against it exhaustively over sign/carry corners.
func subFlagsOnly(a, b uint64) isa.Flags {
	r := a - b
	return isa.Flags{
		N: int64(r) < 0,
		Z: r == 0,
		C: a >= b,
		V: (int64(a) >= 0) != (int64(b) >= 0) && (int64(r) >= 0) != (int64(a) >= 0),
	}
}
