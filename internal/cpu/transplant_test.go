package cpu

// Exactness tests for the golden-state transplant seam: fast-forwarding N
// instructions functionally and transplanting into a detailed machine must
// be architecturally invisible — bit-identical registers, flags, PC, memory
// and MTE tags at instruction N, and a final state identical to the golden
// full walk after the detailed region finishes.

import (
	"fmt"
	"testing"

	"specasan/internal/asm"
	"specasan/internal/core"
	"specasan/internal/golden"
	"specasan/internal/workloads"
)

// goldenTo runs core 0's golden twin exactly n instructions.
func goldenTo(t *testing.T, prog *asm.Program, mteOn bool, n uint64) (*golden.Interp, *golden.Result) {
	t.Helper()
	ip := NewGolden(prog, mteOn, 0)
	res := ip.Run(n)
	if res.Insts != n {
		t.Fatalf("golden stopped early: %d/%d insts (%v)", res.Insts, n, res.Reason)
	}
	return ip, res
}

// diffMachineVsGolden compares a machine's committed architectural state at
// the transplant point with a golden walk stopped there: the fetch PC, then
// everything GoldenDiff compares. After a run to halt only GoldenDiff
// applies (checkGolden): the golden interpreter rests on its SVC #0 while
// the machine's fetch has moved past it.
func diffMachineVsGolden(t *testing.T, m *Machine, ip *golden.Interp, res *golden.Result) {
	t.Helper()
	if c := m.Core(0); c.fetchPC != ip.PC() {
		t.Errorf("fetchPC = %#x, golden %#x", c.fetchPC, ip.PC())
	}
	checkGolden(t, m, ip, res)
}

// transplantAt fast-forwards n instructions and builds the detailed machine
// from the snapshot.
func transplantAt(t *testing.T, prog *asm.Program, mit core.Mitigation, n uint64) (*Machine, *golden.Interp) {
	t.Helper()
	ip, _ := goldenTo(t, prog, mit.MTEEnabled(), n)
	m, err := NewMachineAt(core.DefaultConfig(), mit, prog, ip.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return m, ip
}

// TestTransplantExactness: for budgets N straddling basic-block boundaries,
// the machine built from a snapshot at N must match an independent golden
// walk to N bit for bit, before executing a single detailed cycle.
func TestTransplantExactness(t *testing.T) {
	spec := workloads.ByName("505.mcf_r")
	for _, mit := range []core.Mitigation{core.Unsafe, core.SpecASan} {
		prog, err := spec.Build(mit.MTEEnabled(), 0.1)
		if err != nil {
			t.Fatal(err)
		}
		// 1 and 2 land inside the entry block; the rest land at arbitrary
		// points of loop bodies (blocks in these kernels are 3-40 insts).
		for _, n := range []uint64{1, 2, 7, 63, 1000, 4097, 50_000} {
			t.Run(fmt.Sprintf("%v/n=%d", mit, n), func(t *testing.T) {
				m, _ := transplantAt(t, prog, mit, n)
				ref, rres := goldenTo(t, prog, mit.MTEEnabled(), n)
				diffMachineVsGolden(t, m, ref, rres)
			})
		}
	}
}

// TestTransplantRunsToGoldenFinalState: fast-forward + transplant + detailed
// execution of the remainder must reach the same final architectural state
// as the golden full walk (the PR 4-style end-to-end exactness property).
func TestTransplantRunsToGoldenFinalState(t *testing.T) {
	spec := workloads.ByName("531.deepsjeng_r")
	for _, mit := range []core.Mitigation{core.Unsafe, core.SpecASan} {
		prog, err := spec.Build(mit.MTEEnabled(), 0.05)
		if err != nil {
			t.Fatal(err)
		}
		full := NewGolden(prog, mit.MTEEnabled(), 0)
		fres := full.Run(1 << 40)
		if fres.Reason != golden.StopExit {
			t.Fatalf("golden full walk: %v", fres.Reason)
		}
		for _, n := range []uint64{5, 999, fres.Insts * 9 / 10} {
			t.Run(fmt.Sprintf("%v/n=%d", mit, n), func(t *testing.T) {
				m, _ := transplantAt(t, prog, mit, n)
				mres := m.Run(500_000_000)
				if mres.TimedOut || mres.Faulted || mres.Err != nil {
					t.Fatalf("detailed remainder failed: %v", mres)
				}
				if got := mres.Committed + n; got != fres.Insts {
					t.Errorf("committed %d + ff %d != golden %d", mres.Committed, n, fres.Insts)
				}
				checkGolden(t, m, full, fres)
			})
		}
	}
}

// TestTransplantPageStraddle targets the 4 KiB seams: data writes and an
// ST2G whose two granules land on opposite sides of a page boundary, with
// the transplant taken between the tag write and the accesses that depend
// on it.
func TestTransplantPageStraddle(t *testing.T) {
	// 0x5ff0 is the last granule of page 0x5000; its ST2G partner granule
	// 0x6000 is the first of page 0x6000.
	src := `
_start:
    MOV  X1, #0x5ff0
    IRG  X1, X1
    ST2G X1, [X1]
    STR  X1, [X1]        ; 8 bytes fully inside granule one
    ADDG X2, X1, #8, #0  ; same key, +8: straddles the page boundary
    STR  X2, [X2]
    LDR  X3, [X2]
    LDR  X4, [X1]
    SVC  #0`
	prog := asm.MustAssemble(src)
	mit := core.SpecASan
	// Transplant after every single instruction of the program.
	for n := uint64(1); n <= 8; n++ {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			m, _ := transplantAt(t, prog, mit, n)
			ref, rres := goldenTo(t, prog, true, n)
			diffMachineVsGolden(t, m, ref, rres)
			// And the remainder must complete identically to the full walk.
			full := NewGolden(prog, true, 0)
			fres := full.Run(1 << 20)
			if fres.Reason != golden.StopExit {
				t.Fatalf("full walk: %v", fres.Reason)
			}
			mres := m.Run(10_000_000)
			if mres.TimedOut || mres.Faulted || mres.Err != nil {
				t.Fatalf("remainder: %v", mres)
			}
			checkGolden(t, m, full, fres)
		})
	}
}

// TestTransplantMidLoopPC transplants at PCs inside a loop body — in-flight-
// looking register state (partial accumulator, loop counter mid-count) —
// and checks the detailed machine continues to the same final state.
func TestTransplantMidLoopPC(t *testing.T) {
	src := `
_start:
    MOV X0, #0
    MOV X1, #0
    MOV X2, #0x3000
loop:
    ADD X1, X1, X0
    STR X1, [X2]
    LDR X3, [X2]
    ADD X0, X0, #1
    CMP X0, #200
    B.LT loop
    SVC #0`
	prog := asm.MustAssemble(src)
	full := NewGolden(prog, false, 0)
	fres := full.Run(1 << 20)
	if fres.Reason != golden.StopExit {
		t.Fatalf("full walk: %v", fres.Reason)
	}
	// The loop body is 6 instructions starting at inst index 3; these
	// budgets land on every distinct offset within an iteration.
	for _, n := range []uint64{3, 4, 5, 6, 7, 8, 9, 601, 602, 603} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			m, ip := transplantAt(t, prog, core.Unsafe, n)
			if pc := ip.PC(); pc == prog.Entry {
				t.Fatalf("budget %d did not leave entry", n)
			}
			ref, rres := goldenTo(t, prog, false, n)
			diffMachineVsGolden(t, m, ref, rres)
			mres := m.Run(10_000_000)
			if mres.TimedOut || mres.Faulted || mres.Err != nil {
				t.Fatalf("remainder: %v", mres)
			}
			if mres.Committed+n != fres.Insts {
				t.Errorf("committed %d + ff %d != golden total %d", mres.Committed, n, fres.Insts)
			}
			checkGolden(t, m, full, fres)
		})
	}
}
