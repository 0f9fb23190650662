package cpu

// The differential-testing safety net behind the observability layer: a
// 64-program seeded corpus run under the paper's Figure 6 mitigation set,
// each checked bit-for-bit against the reference interpreter, plus a native
// fuzz target that keeps exploring the same property unbounded under -fuzz.

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"specasan/internal/asm"
	"specasan/internal/core"
	"specasan/internal/golden"
)

// figure6Mitigations mirrors the figure6 scenario preset's columns — the
// paper's headline comparison set. Spelled out here because cpu cannot import
// the scenario package without a cycle; TestFigure6MitigationSet in
// internal/harness pins the two lists together.
var figure6Mitigations = []core.Mitigation{
	core.Unsafe, core.Fence, core.STT, core.GhostMinion, core.SpecASan,
}

// TestDifferentialFigure6Corpus is the corpus half of the safety net:
// 64 seeded random ARM-flavoured programs (half of them MTE-tagged) must
// produce bit-equivalent committed state on the OoO pipeline and the golden
// interpreter under every Figure 6 mitigation.
func TestDifferentialFigure6Corpus(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for seed := int64(1000); seed < 1064; seed++ {
		rng := rand.New(rand.NewSource(seed))
		withMTE := seed%2 == 0
		src := genRandomProgram(rng, withMTE)
		for _, mit := range figure6Mitigations {
			mit := mit
			t.Run(fmt.Sprintf("seed%d/%v", seed, mit), func(t *testing.T) {
				diffGolden(t, core.DefaultConfig(), mit, src)
			})
		}
	}
}

// fuzzDiffBudget bounds each fuzz execution; mutated programs that spin
// longer are inconclusive, not wrong, and are skipped. Kept tight: each
// input runs once per Figure 6 mitigation, and throughput is what makes a
// fuzz smoke worth its CI seconds.
const fuzzDiffBudget = 500_000

// fuzzDiffGolden is diffGolden restated for fuzzing: malformed or
// non-terminating inputs skip (the fuzzer's job is finding divergence, not
// assembling), and any reachable architectural mismatch fails.
func fuzzDiffGolden(t *testing.T, mit core.Mitigation, src string) {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Skip("does not assemble")
	}
	ip := NewGolden(prog, mit.MTEEnabled(), 0)
	gres := ip.Run(fuzzDiffBudget)
	if gres.Reason == golden.StopMaxInsts {
		t.Skip("golden inconclusive (budget exhausted)")
	}

	// CI runs the fuzz smoke in three modes: both time-advance modes
	// (skipping is meant to be invisible, so the divergence hunt must cover
	// both) and, with SPECASAN_FAST_FORWARD, through the sampled-simulation
	// seam — half the program executes on a second golden interpreter, the
	// snapshot transplants into the machine, and the final state must still
	// match the full golden walk bit for bit.
	var m *Machine
	if os.Getenv("SPECASAN_FAST_FORWARD") != "" && gres.Insts >= 2 {
		ff := NewGolden(prog, mit.MTEEnabled(), 0)
		if fres := ff.Run(gres.Insts / 2); fres.Reason != golden.StopMaxInsts {
			t.Fatalf("fast-forward of %d insts stopped early: %v (full walk ran %d)",
				gres.Insts/2, fres.Reason, gres.Insts)
		}
		m, err = NewMachineAt(core.DefaultConfig(), mit, prog, ff.Snapshot())
		if err != nil {
			t.Skip("machine rejects transplant")
		}
	} else {
		m, err = NewMachine(core.DefaultConfig(), mit, prog)
		if err != nil {
			t.Skip("machine rejects program")
		}
	}
	if os.Getenv("SPECASAN_NO_SKIP_IDLE") != "" {
		m.SkipIdle = false
	}
	mres := m.Run(fuzzDiffBudget)
	if mres.TimedOut || mres.Err != nil {
		// A wedge the watchdog catches is a real bug, but it reproduces far
		// better through the corpus tests; the fuzz target hunts divergence.
		t.Skipf("machine inconclusive: %v", mres)
	}
	if d := m.GoldenDiff(0, ip, gres); len(d) > 0 {
		t.Fatalf("%v:\n%s", mit, strings.Join(d, "\n"))
	}
}

// FuzzDifferentialGolden feeds assembly sources to the OoO-vs-golden
// comparison under every Figure 6 mitigation. `go test -fuzz
// FuzzDifferentialGolden` explores unbounded; the checked-in corpus under
// testdata/fuzz seeds it with MTE tag-manipulation interleavings.
func FuzzDifferentialGolden(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f.Add(genRandomProgram(rng, seed%2 == 0))
	}
	f.Add(`
_start:
    ADR X10, buf
    IRG X10, X10
    STG X10, [X10]
    STR X3, [X10]
    LDR X4, [X10]
    LDG X5, [X10]
    SVC #0
    .org 0x40000
buf:
    .space 64
`)
	// Final state that comparing registers alone misses: a tag stored to a
	// granule nothing reads (its tagged pointer is then overwritten), NZCV
	// set just before the exit, and the exit code of an HLT.
	f.Add(`
_start:
    ADR X10, buf
    IRG X10, X10
    STG X10, [X10]
    MOV X10, #0
    SVC #0
    .org 0x40000
buf:
    .space 32
`)
	f.Add(`
_start:
    MOV X1, #3
    CMP X1, #5
    SVC #0
`)
	f.Add(`
_start:
    MOV X0, #5
    HLT
`)
	// LDG merges the tag into Xt, so Xt is a source: here it is still in
	// flight from the ADR when the LDG executes.
	f.Add(`
_start:
    ADR X1, probe
    MOV X13, 1
    LDG X1, [X0]
    SVC #0
probe:
`)
	// Page-boundary MTE case: buf places its first granule in the last 16
	// bytes of a 4 KiB page, so the ST2G straddles the page boundary and the
	// second access lands on the next page's tag sidecar.
	f.Add(`
_start:
    ADR X10, buf
    IRG X10, X10
    ST2G X10, [X10]
    STR X3, [X10]
    LDR X4, [X10]
    ADD X11, X10, #16
    STR X5, [X11]
    LDR X6, [X11]
    LDG X7, [X11]
    SVC #0
    .org 0x40ff0
buf:
    .space 32
`)
	// Generator template corners from the attack-discovery fuzzer
	// (internal/fuzzer), frozen as literals — this package is what the
	// fuzzer tests, so it cannot import it. First: a bounds-check-bypass
	// trigger with the tag-check-latency transmit (MTE granule select plus a
	// transient LDG). Second: a return-stack misdirection whose gadget is
	// never architecturally reached — the RET steers into it transiently via
	// a poisoned-RSB-shaped LR slot swap.
	f.Add(`
_start:
    ADR  X20, size_slot
    ADR  X21, array1
    LDG  X21, [X21]
    ADR  X22, probe
    ADR  X15, fuzzprobe
    MOV  X27, #128
    MOV  X28, #8
    MOV  X7, #13

    MOV  X13, #1048704
    LDG  X13, [X13]
    LDR  X14, [X13]
    DSB

    MOV  X12, #15
loop:
    ADR  X9, size_slot
    DC   CIVAC, X9
    DSB
    CMP  X12, #1
    CSEL X0, X27, X28, EQ
    BL   victim
    SUB  X12, X12, #1
    CBNZ X12, loop
    SVC  #0

victim:
    BTI
    LDR  X1, [X20]
    CMP  X0, X1
    B.HS vdone
    ADD  X26, X21, X0
    LDR  X5, [X26]
    AND  X6, X5, #3
    LSL  X6, X6, #4
    ADD  X16, X15, X6
    LDR  X8, [X16]
    LDG  X11, [X16]
vdone:
    RET

    .org 0x120000
size_slot:
    .word 16

    .org 1048576
array1:
    .space 128
    .org 1114112
probe:
    .space 4096

    .org 2097152
fuzzprobe:
    .space 65536
`)
	f.Add(`
_start:
    ADR  X22, probe
    ADR  X15, fuzzprobe
    MOV  X7, #13
    MOV  X13, #1048704
    LDG  X13, [X13]
    LDR  X14, [X13]
    DSB
    MOV  X26, #1048704
    LDG  X26, [X26]
    ADR  X9, lrslot
    LDR  X30, [X9]
    RET

gadget:
    LDR  X5, [X26]
    LSL  X6, X5, #6
    AND  X6, X6, #960
    LDR  X8, [X15, X6]
    RET
real_continue:
    BTI
    SVC  #0

    .org 0x120000
lrslot:
    .word real_continue

    .org 1048576
array1:
    .space 128
    .org 1114112
probe:
    .space 4096

    .org 2097152
fuzzprobe:
    .space 65536
`)
	// The retry-wait shapes (skip_test.go): ready entries that retry,
	// changing nothing, across a DRAM miss, so both time-advance modes of
	// the CI smoke start on the skip's repeat-retry path.
	for _, p := range retryWaitPrograms {
		f.Add(p.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 || strings.Count(src, "\n") > 2048 {
			t.Skip("oversized input")
		}
		for _, mit := range figure6Mitigations {
			fuzzDiffGolden(t, mit, src)
		}
	})
}
