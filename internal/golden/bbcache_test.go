package golden

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"specasan/internal/asm"
	"specasan/internal/isa"
	"specasan/internal/mte"
	"specasan/internal/workloads"
)

// lockstep drives the block-cached engine and the naive reference engine
// over the same program in chunks of varying size and asserts bit-identical
// architectural state (registers, flags, PC, cycle count, output, memory
// bytes, MTE tags) at every chunk boundary — including boundaries that land
// in the middle of decoded blocks.
func lockstep(t *testing.T, prog *asm.Program, mteOn bool, seed uint64, chunks []uint64) {
	t.Helper()
	fast := New(prog)
	fast.MTEOn, fast.TagSeed = mteOn, seed
	naive := New(prog)
	naive.MTEOn, naive.TagSeed = mteOn, seed
	for ci, n := range chunks {
		rf := fast.Run(n)
		rn := naive.runNaive(n)
		if rf.Reason != rn.Reason || rf.Insts != rn.Insts || rf.PC != rn.PC ||
			rf.Regs != rn.Regs || rf.Flags != rn.Flags ||
			rf.FaultPC != rn.FaultPC || rf.ExitCode != rn.ExitCode {
			t.Fatalf("chunk %d (budget %d): fast %+v\nnaive %+v", ci, n, rf, rn)
		}
		if !bytes.Equal(rf.Output, rn.Output) {
			t.Fatalf("chunk %d: output %q vs %q", ci, rf.Output, rn.Output)
		}
		if fast.cycles != naive.cycles {
			t.Fatalf("chunk %d: cycles %d vs %d", ci, fast.cycles, naive.cycles)
		}
		diffImages(t, fast, naive)
		if rf.Reason != StopMaxInsts {
			return
		}
	}
}

func diffImages(t *testing.T, a, b *Interp) {
	t.Helper()
	pages := map[uint64]bool{}
	for _, p := range a.Mem.PageAddrs() {
		pages[p] = true
	}
	for _, p := range b.Mem.PageAddrs() {
		pages[p] = true
	}
	for p := range pages {
		for off := uint64(0); off < 4096; off += 8 {
			if av, bv := a.Mem.ReadU64(p+off), b.Mem.ReadU64(p+off); av != bv {
				t.Fatalf("mem[%#x] = %#x vs %#x", p+off, av, bv)
			}
		}
		// Tags live in the page frames, so the mapped pages hold them all.
		for g := p / mte.GranuleBytes; g < (p+4096)/mte.GranuleBytes; g++ {
			if al, bl := a.Mem.LockAtGranule(g), b.Mem.LockAtGranule(g); al != bl {
				t.Fatalf("tag granule %#x: lock %d vs %d", g*mte.GranuleBytes, al, bl)
			}
		}
	}
}

// mixedChunks returns instruction budgets that deliberately straddle block
// boundaries: lots of tiny steps plus larger strides.
func mixedChunks(rng *rand.Rand, total int) []uint64 {
	var out []uint64
	for i := 0; i < total; i++ {
		switch rng.Intn(4) {
		case 0:
			out = append(out, 1)
		case 1:
			out = append(out, uint64(rng.Intn(7)+2))
		case 2:
			out = append(out, uint64(rng.Intn(100)+10))
		default:
			out = append(out, uint64(rng.Intn(5000)+100))
		}
	}
	return append(out, 1<<62)
}

func TestBlockCacheMatchesNaiveHandwritten(t *testing.T) {
	progs := map[string]string{
		"loop-sum": `
    MOV X0, #0
    MOV X1, #0
loop:
    ADD X1, X1, X0
    ADD X0, X0, #1
    CMP X0, #500
    B.LT loop
    SVC #0`,
		"call-ret-indirect": `
    MOV  X5, #0
    MOV  X6, #0
outer:
    BL   work
    ADR  X7, work2
    BLR  X7
    ADD  X6, X6, #1
    CMP  X6, #100
    B.LT outer
    SVC  #0
work:
    ADR  X8, hop
    BR   X8
hop:
    ADD  X5, X5, #3
    RET
work2:
    ADD  X5, X5, #5
    RET`,
		"mrs-and-output": `
    MOV X2, #0
ploop:
    MRS X0, CNTVCT_EL0
    SVC #1
    ADD X2, X2, #1
    CMP X2, #5
    B.LT ploop
    MOV X0, #65
    SVC #2
    SVC #0`,
		"mid-block-branch-in": `
    MOV X0, #0
    B   mid
head:
    ADD X0, X0, #1
    ADD X0, X0, #2
mid:
    ADD X0, X0, #4
    ADD X0, X0, #8
    CMP X0, #100
    B.LT head
    SVC #0`,
		"movk-shift-div": `
    MOV  X0, #1
    MOVK X0, #0xbeef, LSL #16
    MOV  X1, #7
    SDIV X2, X0, X1
    UDIV X3, X0, X1
    ASR  X4, X0, #3
    LSL  X5, X0, #70
    CSEL X6, X0, X1, EQ
    SVC  #0`,
	}
	rng := rand.New(rand.NewSource(7))
	for name, src := range progs {
		t.Run(name, func(t *testing.T) {
			prog := asm.MustAssemble(src)
			lockstep(t, prog, false, 0, mixedChunks(rng, 40))
			lockstep(t, prog, false, 0, []uint64{1 << 62})
		})
	}
}

func TestBlockCacheMatchesNaiveMTE(t *testing.T) {
	src := `
    MOV X1, #0x3000
    MOV X2, #0
    IRG X1, X1
    MOV X3, #0
tag:
    ADD X4, X1, X3
    STG X4, [X4]
    ADD X3, X3, #16
    CMP X3, #256
    B.LT tag
store:
    ADD X4, X1, X2
    STR X2, [X4]
    LDR X5, [X4]
    ADD X2, X2, #8
    CMP X2, #256
    B.LT store
    LDG X6, [X1]
    ST2G X1, [X1]
    SVC #0`
	prog := asm.MustAssemble(src)
	rng := rand.New(rand.NewSource(13))
	lockstep(t, prog, true, 0x5eca5a, mixedChunks(rng, 40))
	lockstep(t, prog, true, 99, []uint64{1 << 62})
}

func TestBlockCacheMatchesNaiveTagFault(t *testing.T) {
	// Tag the granule with IRG's pick, then access with the wrong key: both
	// engines must fault at the same instruction with the same FaultPC.
	src := `
    MOV  X1, #0x3000
    IRG  X1, X1
    STG  X1, [X1]
    ADDG X2, X1, #0, #1  ; bump the key: now mismatched
    LDR  X3, [X2]        ; must fault
    SVC  #0`
	prog := asm.MustAssemble(src)
	for _, chunks := range [][]uint64{{1 << 62}, {1, 1, 1, 1, 1, 1, 1, 1}, {3, 3, 3}} {
		lockstep(t, prog, true, 0x5eca5a, chunks)
	}
}

func TestBlockCacheMatchesNaiveBadPC(t *testing.T) {
	src := `
    MOV X7, #0x9000
    BR  X7
    SVC #0`
	prog := asm.MustAssemble(src)
	lockstep(t, prog, false, 0, []uint64{1 << 62})
	lockstep(t, prog, false, 0, []uint64{1, 1, 1, 1})
}

func TestBlockCacheMatchesNaiveWorkloads(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, name := range []string{"505.mcf_r", "508.namd_r", "520.omnetpp_r", "531.deepsjeng_r"} {
		spec := workloads.ByName(name)
		if spec == nil {
			t.Fatalf("unknown workload %s", name)
		}
		for _, tagged := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/mte=%v", name, tagged), func(t *testing.T) {
				prog, err := spec.Build(tagged, 0.1)
				if err != nil {
					t.Fatal(err)
				}
				lockstep(t, prog, tagged, 0x5eca5a, mixedChunks(rng, 30))
			})
		}
	}
}

func TestCmpFlagsMatch(t *testing.T) {
	// subFlagsOnly (the specialized CMP uop) must agree with isa.EvalALU's
	// CMP across sign/carry/overflow corners.
	vals := []uint64{0, 1, 2, 7, 0x7fffffffffffffff, 0x8000000000000000,
		0xffffffffffffffff, 0xfffffffffffffffe, 1 << 32, 0x8000000000000001}
	in := &isa.Inst{Op: isa.CMP}
	for _, a := range vals {
		for _, b := range vals {
			want := isa.EvalALU(in, isa.ALUInputs{Rn: a, Rm: b})
			if got := subFlagsOnly(a, b); got != want.Flags {
				t.Fatalf("CMP %#x,%#x: %+v want %+v", a, b, got, want.Flags)
			}
		}
	}
}

func TestRunZeroBudget(t *testing.T) {
	prog := asm.MustAssemble(`
    MOV X0, #1
    SVC #0`)
	ip := New(prog)
	res := ip.Run(0)
	if res.Reason != StopMaxInsts || res.Insts != 0 || res.PC != prog.Entry {
		t.Fatalf("zero budget: %+v", res)
	}
	// And still resumable to completion afterwards.
	res = ip.Run(100)
	if res.Reason != StopExit || res.Regs[isa.X0] != 1 {
		t.Fatalf("resume after zero budget: %+v", res)
	}
}

func TestSnapshotDoesNotAlias(t *testing.T) {
	prog := asm.MustAssemble(`
    MOV X1, #0x3000
    MOV X2, #42
    STR X2, [X1]
    STG X1, [X1]     ; lock granule with key 0 (no-op tag) — still exercises sidecar
    MOV X0, #7
    SVC #1
    ADD X2, X2, #1
    STR X2, [X1, #8]
    SVC #0`)
	ip := New(prog)
	if r := ip.Run(5); r.Reason != StopMaxInsts {
		t.Fatalf("setup: %+v", r)
	}
	st := ip.Snapshot()
	if st.PC != ip.pc || st.Insts != 5 || st.Regs != ip.regs {
		t.Fatalf("snapshot mismatch: %+v vs pc=%#x", st, ip.pc)
	}
	before := st.Mem.ReadU64(0x3000)
	if before != 42 {
		t.Fatalf("snapshot mem = %d, want 42", before)
	}
	// Keep running the interpreter; the snapshot must not change.
	if r := ip.Run(1 << 62); r.Reason != StopExit {
		t.Fatalf("finish: %+v", r)
	}
	if got := st.Mem.ReadU64(0x3008); got != 0 {
		t.Fatalf("snapshot aliased live memory: mem[0x3008]=%d", got)
	}
	if len(st.Output) != 0 {
		t.Fatalf("snapshot output aliased: %q", st.Output)
	}
}
