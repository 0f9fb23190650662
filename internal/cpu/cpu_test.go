package cpu

import (
	"fmt"
	"math/rand"
	"testing"

	"specasan/internal/asm"
	"specasan/internal/core"
	"specasan/internal/golden"
	"specasan/internal/isa"
)

// newMachine builds a single-core machine for tests.
func newMachine(t *testing.T, mit core.Mitigation, src string) *Machine {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(core.DefaultConfig(), mit, prog)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func runToHalt(t *testing.T, m *Machine) *RunResult {
	t.Helper()
	res := m.Run(2_000_000)
	if res.TimedOut {
		t.Fatalf("machine timed out: %v (stats %v)", res, m.Core(0).Stats)
	}
	return res
}

func TestSmokeArithmetic(t *testing.T) {
	m := newMachine(t, core.Unsafe, `
    MOV  X0, #7
    MOV  X1, #3
    ADD  X2, X0, X1
    MUL  X3, X2, X2
    SVC  #0
`)
	runToHalt(t, m)
	if got := m.Core(0).Reg(isa.X3); got != 100 {
		t.Fatalf("X3 = %d, want 100", got)
	}
}

func TestSmokeLoop(t *testing.T) {
	m := newMachine(t, core.Unsafe, `
    MOV X0, #0
    MOV X1, #0
loop:
    ADD X1, X1, X0
    ADD X0, X0, #1
    CMP X0, #100
    B.LT loop
    SVC #0
`)
	res := runToHalt(t, m)
	if got := m.Core(0).Reg(isa.X1); got != 4950 {
		t.Fatalf("sum = %d, want 4950", got)
	}
	if res.Committed < 400 {
		t.Fatalf("committed = %d, expected ~401", res.Committed)
	}
}

func TestSmokeMemory(t *testing.T) {
	m := newMachine(t, core.Unsafe, `
_start:
    ADR X0, buf
    MOV X1, #0
    MOV X2, #0
fill:
    STR X1, [X0, X3]
    ADD X1, X1, #1
    ADD X3, X3, #8
    CMP X1, #50
    B.LT fill
    MOV X3, #0
    MOV X1, #0
sum:
    LDR X4, [X0, X3]
    ADD X2, X2, X4
    ADD X3, X3, #8
    ADD X1, X1, #1
    CMP X1, #50
    B.LT sum
    SVC #0
    .org 0x40000
buf:
    .space 512
`)
	runToHalt(t, m)
	if got := m.Core(0).Reg(isa.X2); got != 1225 {
		t.Fatalf("sum = %d, want 1225", got)
	}
}

func TestSmokeCallsAndIndirect(t *testing.T) {
	m := newMachine(t, core.Unsafe, `
_start:
    MOV X0, #5
    BL  double
    BL  double
    ADR X9, fin
    BR  X9
    MOV X0, #0
fin:
    BTI
    SVC #0
double:
    BTI
    ADD X0, X0, X0
    RET
`)
	runToHalt(t, m)
	if got := m.Core(0).Reg(isa.X0); got != 20 {
		t.Fatalf("X0 = %d, want 20", got)
	}
}

// diffGolden runs src on a machine built with cfg under mit and fails t on
// every difference between core 0 and its golden twin.
func diffGolden(t *testing.T, cfg core.Config, mit core.Mitigation, src string) {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(cfg, mit, prog)
	if err != nil {
		t.Fatal(err)
	}
	if res := m.Run(20_000_000); res.TimedOut {
		t.Fatalf("timed out: %v", res)
	}
	ip := NewGolden(prog, mit.MTEEnabled(), 0)
	checkGolden(t, m, ip, ip.Run(20_000_000))
}

// checkGolden fails t with every difference between core 0 and its golden
// twin ip, whose walk ended with res.
func checkGolden(t *testing.T, m *Machine, ip *golden.Interp, res *golden.Result) {
	t.Helper()
	for _, d := range m.GoldenDiff(0, ip, res) {
		t.Error(d)
	}
}

// genRandomProgram emits a random but well-formed program: arithmetic over
// X0..X7, loads/stores into a private 512-byte buffer, conditional skips
// and a bounded countdown loop, so control flow always terminates.
func genRandomProgram(rng *rand.Rand, withMTE bool) string {
	var b []byte
	emit := func(format string, args ...interface{}) {
		b = append(b, []byte(fmt.Sprintf(format+"\n", args...))...)
	}
	emit("_start:")
	emit("    ADR X10, buf")
	if withMTE {
		emit("    IRG X10, X10")
		for g := 0; g < 32; g++ { // tag all 512 bytes
			emit("    ADDG X11, X10, #%d, #0", g*16)
			emit("    STG X11, [X11]")
		}
	}
	for r := 0; r < 8; r++ {
		emit("    MOV X%d, #%d", r, rng.Intn(1000))
	}
	emit("    MOV X12, #%d", 3+rng.Intn(5)) // outer loop counter
	emit("loop:")
	nSkips := 0
	body := 20 + rng.Intn(30)
	for i := 0; i < body; i++ {
		ra, rb, rc := rng.Intn(8), rng.Intn(8), rng.Intn(8)
		off := rng.Intn(63) * 8 // in-bounds offsets only
		switch rng.Intn(12) {
		case 0:
			emit("    ADD X%d, X%d, X%d", ra, rb, rc)
		case 1:
			emit("    SUB X%d, X%d, X%d", ra, rb, rc)
		case 2:
			emit("    MUL X%d, X%d, X%d", ra, rb, rc)
		case 3:
			emit("    EOR X%d, X%d, X%d", ra, rb, rc)
		case 4:
			emit("    AND X%d, X%d, #%d", ra, rb, rng.Intn(256))
		case 5:
			emit("    LSR X%d, X%d, #%d", ra, rb, rng.Intn(8))
		case 6:
			emit("    UDIV X%d, X%d, X%d", ra, rb, rc)
		case 7:
			emit("    STR X%d, [X10, #%d]", ra, off)
		case 8, 9:
			emit("    LDR X%d, [X10, #%d]", ra, off)
		case 10:
			emit("    LDRB X%d, [X10, #%d]", ra, off)
		case 11: // data-dependent forward skip (mispredictable branch)
			emit("    CMP X%d, X%d", rb, rc)
			emit("    B.%s skip%d", []string{"EQ", "NE", "LT", "GE", "HI"}[rng.Intn(5)], nSkips)
			emit("    ADD X%d, X%d, #1", ra, ra)
			emit("    STR X%d, [X10, #%d]", rc, off)
			emit("skip%d:", nSkips)
			nSkips++
		}
	}
	emit("    SUB X12, X12, #1")
	emit("    CBNZ X12, loop")
	emit("    SVC #0")
	emit("    .org 0x40000")
	emit("buf:")
	emit("    .space 512")
	return string(b)
}

// TestDifferentialRandomPrograms is the correctness backbone: random
// programs must produce identical architectural results on the OoO pipeline
// (under every mitigation) and the in-order reference interpreter.
func TestDifferentialRandomPrograms(t *testing.T) {
	mits := []core.Mitigation{core.Unsafe, core.MTE, core.Fence, core.STT,
		core.GhostMinion, core.SpecCFI, core.SpecASan, core.SpecASanCFI}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		withMTE := seed%3 == 0
		src := genRandomProgram(rng, withMTE)
		for _, mit := range mits {
			mit := mit
			t.Run(fmt.Sprintf("seed%d/%v", seed, mit), func(t *testing.T) {
				diffGolden(t, core.DefaultConfig(), mit, src)
			})
		}
	}
}

func TestDifferentialStoreLoadPatterns(t *testing.T) {
	// Dense store->load dependencies stress forwarding and disambiguation.
	src := `
_start:
    ADR X10, buf
    MOV X0, #1
    MOV X5, #0
    MOV X12, #40
loop:
    STR X0, [X10]
    LDR X1, [X10]      // exact forward
    STR X1, [X10, #8]
    LDR X2, [X10, #8]  // forward again
    ADD X0, X1, X2
    STRB X0, [X10, #16]
    LDRB X3, [X10, #16] // partial-size forward from byte store
    ADD X5, X5, X3
    SUB X12, X12, #1
    CBNZ X12, loop
    SVC #0
    .org 0x40000
buf:
    .space 64
`
	for _, mit := range []core.Mitigation{core.Unsafe, core.SpecASan} {
		diffGolden(t, core.DefaultConfig(), mit, src)
	}
}

func TestTagFaultOnCommittedPath(t *testing.T) {
	// A mismatching access on the committed path must fault under MTE and
	// SpecASan but run to completion under Unsafe.
	src := `
_start:
    ADR  X0, buf
    IRG  X1, X0
    STG  X1, [X1]
    ADDG X2, X1, #0, #3   // wrong key
    LDR  X3, [X2]
    SVC  #0
    .org 0x40000
buf:
    .space 16
`
	m := newMachine(t, core.Unsafe, src)
	res := runToHalt(t, m)
	if res.Faulted {
		t.Fatal("unsafe baseline must not fault")
	}
	for _, mit := range []core.Mitigation{core.MTE, core.SpecASan} {
		prog := asm.MustAssemble(src)
		m2, err := NewMachine(core.DefaultConfig(), mit, prog)
		if err != nil {
			t.Fatal(err)
		}
		r := m2.Run(1_000_000)
		if !r.Faulted {
			t.Fatalf("%v: expected tag fault, got %v", mit, r)
		}
	}
}

func TestMultiCoreSharedCounter(t *testing.T) {
	// Four cores atomically increment a shared counter via SWPAL spinlock.
	src := `
_start:
    ADR X9, lock
    ADR X10, counter
    MOV X12, #50
loop:
acquire:
    MOV X0, #1
    SWPAL X0, X1, [X9]
    CBNZ X1, acquire
    LDR X2, [X10]
    ADD X2, X2, #1
    STR X2, [X10]
    MOV X0, #0
    SWPAL X0, X1, [X9]   // release
    SUB X12, X12, #1
    CBNZ X12, loop
    SVC #0
    .org 0x40000
lock:
    .word 0
counter:
    .word 0
`
	cfg := core.DefaultConfig()
	cfg.Cores = 4
	prog := asm.MustAssemble(src)
	m, err := NewMachine(cfg, core.Unsafe, prog)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run(5_000_000)
	if res.TimedOut {
		t.Fatalf("timed out: %v", res)
	}
	if got := m.Img.ReadU64(prog.MustLabel("counter")); got != 200 {
		t.Fatalf("counter = %d, want 200", got)
	}
}

func TestRestrictionCountersDiffer(t *testing.T) {
	// A branchy, loady kernel: fences must restrict far more instructions
	// than SpecASan.
	src := `
_start:
    ADR X10, buf
    MOV X12, #200
    MOV X5, #0
loop:
    AND X1, X12, #63
    LSL X1, X1, #3
    LDR X2, [X10, X1]
    ADD X5, X5, X2
    CMP X2, #0
    B.EQ skip
    ADD X5, X5, #1
skip:
    SUB X12, X12, #1
    CBNZ X12, loop
    SVC #0
    .org 0x40000
buf:
    .space 512
`
	restricted := map[core.Mitigation]uint64{}
	for _, mit := range []core.Mitigation{core.Fence, core.SpecASan} {
		prog := asm.MustAssemble(src)
		m, err := NewMachine(core.DefaultConfig(), mit, prog)
		if err != nil {
			t.Fatal(err)
		}
		r := m.Run(2_000_000)
		if r.TimedOut {
			t.Fatalf("%v timed out", mit)
		}
		restricted[mit] = r.Stats.Get("restricted_commits")
	}
	if restricted[core.Fence] <= restricted[core.SpecASan] {
		t.Fatalf("fence restricted %d, SpecASan %d — expected fence >> specasan",
			restricted[core.Fence], restricted[core.SpecASan])
	}
}
