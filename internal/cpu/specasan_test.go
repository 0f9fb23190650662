package cpu

// Integration tests for the SpecASan mechanism itself: the tcs life cycle
// on the pipeline, selective delay, replay, dependent marking, and the
// paper's three design goals (G1: no mismatched data to speculative loads,
// G2: no in-flight memory mutation by mismatched stores, G3: no
// microarchitectural traces from unsafe accesses).

import (
	"strings"
	"testing"

	"specasan/internal/asm"
	"specasan/internal/core"
	"specasan/internal/isa"
	"specasan/internal/mte"
	"specasan/internal/obs"
)

// specV1Shape builds a bounds-check gadget with a controllable index. The
// secret granule is tagged differently from the array.
const specV1Shape = `
_start:
    ADR  X20, size_slot
    ADR  X21, array1
    LDG  X21, [X21]
    MOV  X13, #0x100080     // victim warms its secret
    LDG  X13, [X13]
    LDR  X14, [X13]
    DSB
    ADR  X9, size_slot
    DC   CIVAC, X9
    DSB
    MOV  X0, #128           // OOB index (the secret)
    LDR  X1, [X20]          // slow bound
    CMP  X0, X1
    B.LO body               // resolves late; the fresh PHT predicts taken,
    B    done               // so the body is fetched speculatively
body:
    LDR  X5, [X21, X0]      // speculative OOB access
    LSL  X6, X5, #6
done:
    SVC  #0
    .org 0x120000
size_slot:
    .word 1000000           // huge bound: the branch IS taken (in bounds)
    .org 0x100000
array1:
    .space 128
`

func buildSpecV1(t *testing.T, mit core.Mitigation) *Machine {
	t.Helper()
	prog, err := asm.Assemble(specV1Shape)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(core.DefaultConfig(), mit, prog)
	if err != nil {
		t.Fatal(err)
	}
	m.Img.Tags.SetRange(0x100000, 128, 0xa)
	m.Img.Tags.SetRange(0x100080, 16, 0xb)
	m.Img.WriteU64(0x100080, 0x5ec4e7)
	m.Oracle.MarkSecret(0x100080, 16)
	return m
}

// TestG1NoDataForMismatchedSpeculativeLoad: with a huge bound the branch is
// NOT taken, so the OOB access is architecturally reached — but it is
// speculative while the bound load is outstanding. SpecASan must withhold
// the data during that window (tcs=unsafe), then replay it once the branch
// resolves, and finally fault at commit because the access is genuinely
// mismatched on the correct path.
func TestG1UnsafeAccessDelayedThenFaults(t *testing.T) {
	m := buildSpecV1(t, core.SpecASan)
	tr := obs.NewTracer(1, 0)
	m.AttachObs(tr, nil)
	res := m.Run(1_000_000)
	sawUnsafe := false
	for _, ev := range tr.Core(0).Events() {
		sawUnsafe = sawUnsafe || ev.Kind == obs.EvTagDelayStart
	}
	if !sawUnsafe {
		t.Error("the speculative mismatched load must pass through tcs=unsafe")
	}
	if !res.Faulted {
		t.Error("a mismatched access on the correct path must fault at commit")
	}
	if res.Stats.Get("unsafe_replays") == 0 {
		t.Error("the unsafe access must be replayed after speculation resolves")
	}
	if m.Oracle.SecretReads != 0 {
		t.Error("G1: no secret byte may reach the pipeline speculatively")
	}
}

// TestSelectiveDelayLetsSafeAccessesRun: a tag-matching speculative load in
// the same window proceeds without any unsafe transition.
func TestSelectiveDelayLetsSafeAccessesRun(t *testing.T) {
	prog := asm.MustAssemble(`
_start:
    ADR  X21, array1
    LDG  X21, [X21]
    LDR  X14, [X21]        // warm
    DSB
    ADR  X9, slot
    DC   CIVAC, X9
    DSB
    LDR  X1, [X9]          // slow: opens the window
    CMP  X1, #999
    B.LS body              // taken (0 <= 999); predicted taken
    B    skip
body:
    LDR  X5, [X21, #8]     // tag-matching speculative load
    ADD  X6, X5, #1
skip:
    SVC  #0
    .org 0x100000
array1:
    .space 64
    .org 0x120000
slot:
    .word 0
`)
	m, err := NewMachine(core.DefaultConfig(), core.SpecASan, prog)
	if err != nil {
		t.Fatal(err)
	}
	m.Img.Tags.SetRange(0x100000, 64, 0xa)
	res := m.Run(1_000_000)
	if res.Faulted {
		t.Fatal("tag-matching program must not fault")
	}
	if res.Stats.Get("unsafe_accesses") != 0 {
		t.Fatal("selective delay: safe accesses must not be delayed")
	}
	if m.Core(0).TSH().Stats.Safe == 0 {
		t.Fatal("safe accesses must pass through tcs=safe")
	}
}

// TestG3SquashedUnsafeAccessLeavesNoCacheTrace: when the OOB access sits on
// a mispredicted path, SpecASan squashes it without any fill.
func TestG3SquashedUnsafeAccessLeavesNoCacheTrace(t *testing.T) {
	// Small bound: the branch IS taken at resolution, so the OOB body is a
	// mispredicted path. Flush the secret line so a leak would need a fill.
	prog := asm.MustAssemble(strings.Replace(specV1Shape,
		".word 1000000", ".word 16", 1))
	m, err := NewMachine(core.DefaultConfig(), core.SpecASan, prog)
	if err != nil {
		t.Fatal(err)
	}
	m.Img.Tags.SetRange(0x100000, 128, 0xa)
	m.Img.Tags.SetRange(0x100080, 16, 0xb)
	m.Oracle.MarkSecret(0x100080, 16)
	// Do NOT warm the secret: if the speculative OOB access fills it, the
	// trace is visible. (The PoC's warm sequence uses a valid pointer; we
	// flush afterwards by pointing X13 at the array instead.)
	res := m.Run(1_000_000)
	if res.Faulted {
		t.Fatalf("mispredicted-path access must not fault (flushed with the squash)")
	}
	if m.Oracle.Leaked() {
		t.Fatal("G3: unsafe speculative access left a trace")
	}
}

// TestUnsafeBaselineLeaksInSameShape sanity-checks the test gadget: on the
// unprotected machine, the same mispredicted-path gadget does leak.
func TestUnsafeBaselineLeaksInSameShape(t *testing.T) {
	prog := asm.MustAssemble(strings.Replace(specV1Shape,
		".word 1000000", ".word 16", 1))
	prog2 := asm.MustAssemble(strings.Replace(strings.Replace(specV1Shape,
		".word 1000000", ".word 16", 1),
		"LSL  X6, X5, #6", "LSL  X6, X5, #6\n    AND  X6, X6, #4032\n    LDR  X8, [X21, X6]", 1))
	_ = prog
	m, err := NewMachine(core.DefaultConfig(), core.Unsafe, prog2)
	if err != nil {
		t.Fatal(err)
	}
	m.Img.Tags.SetRange(0x100000, 128, 0xa)
	m.Img.Tags.SetRange(0x100080, 16, 0xb)
	m.Img.WriteU64(0x100080, 0x5ec4e7)
	m.Oracle.MarkSecret(0x100080, 16)
	m.Run(1_000_000)
	if m.Oracle.SecretReads == 0 {
		t.Fatal("gadget sanity check: baseline must read the secret speculatively")
	}
	if !m.Oracle.Leaked() {
		t.Fatal("gadget sanity check: baseline must leak")
	}
}

// TestG2StoreNeverMutatesMemorySpeculatively: a mismatched store under
// speculation must not change memory, and must fault if it reaches commit.
func TestG2MismatchedStoreFaultsWithoutWriting(t *testing.T) {
	prog := asm.MustAssemble(`
_start:
    ADR  X21, array1
    MOV  X2, #7777
    STR  X2, [X21]         // untagged pointer, tagged memory: mismatch
    SVC  #0
    .org 0x100000
array1:
    .word 1234
`)
	m, err := NewMachine(core.DefaultConfig(), core.SpecASan, prog)
	if err != nil {
		t.Fatal(err)
	}
	m.Img.Tags.SetRange(0x100000, 16, 0xa)
	res := m.Run(1_000_000)
	if !res.Faulted {
		t.Fatal("mismatched store must fault")
	}
	if got := m.Img.ReadU64(0x100000); got != 1234 {
		t.Fatalf("G2 violated: memory changed to %d", got)
	}
}

// TestFaultHandlerResumesExecution: the commit-time fault redirects to the
// registered handler (the MDS attack-loop pattern) instead of stopping.
func TestFaultHandlerResumesExecution(t *testing.T) {
	prog := asm.MustAssemble(`
_start:
    ADR  X21, array1
    LDR  X2, [X21]         // mismatch: untagged key vs tagged memory
    MOV  X0, #111          // skipped (squashed by the fault)
    SVC  #0
handler:
    BTI
    MOV  X0, #222
    SVC  #0
    .org 0x100000
array1:
    .word 5
`)
	m, err := NewMachine(core.DefaultConfig(), core.SpecASan, prog)
	if err != nil {
		t.Fatal(err)
	}
	m.Img.Tags.SetRange(0x100000, 16, 0xa)
	m.Core(0).FaultHandler = prog.MustLabel("handler")
	res := m.Run(1_000_000)
	if res.Faulted {
		t.Fatal("handler must absorb the fault")
	}
	if got := m.Core(0).Reg(isa.X0); got != 222 {
		t.Fatalf("X0 = %d, want 222 (handler path)", got)
	}
	if res.Stats.Get("tag_faults") != 1 {
		t.Fatalf("tag_faults = %d", res.Stats.Get("tag_faults"))
	}
}

// TestMemoryOrderViolationSquashAndReplay: a load that bypasses an older
// store to the same address must be squashed when the store resolves, and
// re-execute with the right value.
func TestMemoryOrderViolationSquashAndReplay(t *testing.T) {
	prog := asm.MustAssemble(`
_start:
    ADR  X9, depslot
    LDR  X1, [X9]          // slow (cold): delays the store address
    AND  X1, X1, #7
    ADR  X2, slot
    ADD  X2, X2, X1
    MOV  X3, #99
    STR  X3, [X2]          // address resolves late
    LDR  X4, [X2]          // hmm: same register chain... use fixed addr:
    SVC  #0
    .org 0x120000
depslot:
    .word 0
    .org 0x121000
slot:
    .word 1
`)
	_ = prog
	// The load must use an address available early while the store's
	// resolves late; rebuild properly:
	prog = asm.MustAssemble(`
_start:
    ADR  X8, slot
    ADR  X9, depslot
    LDR  X1, [X9]
    AND  X1, X1, #7
    ADD  X2, X8, X1        // store address: late
    MOV  X3, #99
    STR  X3, [X2]
    LDR  X4, [X8]          // early address: speculates past the store
    SVC  #0
    .org 0x120000
depslot:
    .word 0
    .org 0x121000
slot:
    .word 1
`)
	m, err := NewMachine(core.DefaultConfig(), core.Unsafe, prog)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run(1_000_000)
	if res.Stats.Get("order_violations") == 0 {
		t.Fatal("expected a memory-order violation")
	}
	if got := m.Core(0).Reg(isa.X4); got != 99 {
		t.Fatalf("X4 = %d, want the store's value 99 after replay", got)
	}
}

// TestSTTBlocksTaintedTransmitNotSafeWork: under STT, the dependent load of
// a speculative load is delayed, but independent work is not.
func TestSTTBlocksTaintedTransmit(t *testing.T) {
	prog := asm.MustAssemble(`
_start:
    ADR  X21, array1
    LDR  X14, [X21]        // warm line
    DSB
    ADR  X9, slot
    LDR  X1, [X9]          // cold: opens the window
    CMP  X1, #999
    B.LS body              // taken; predicted taken: body speculates
    B    skip
body:
    LDR  X5, [X21]         // speculative: result tainted
    AND  X6, X5, #56
    ADD  X6, X21, X6
    LDR  X7, [X6]          // transmit: tainted address -> delayed
skip:
    SVC  #0
    .org 0x100000
array1:
    .word 8, 9, 10, 11, 12, 13, 14, 15
    .org 0x120000
slot:
    .word 0
`)
	m, err := NewMachine(core.DefaultConfig(), core.STT, prog)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run(1_000_000)
	if res.Faulted || res.TimedOut {
		t.Fatalf("run failed: %v", res)
	}
	if res.Stats.Get("policy_block_stt") == 0 {
		t.Fatal("STT must delay the tainted transmit at least one cycle")
	}
	// Architectural result must still be correct after the delay.
	if got := m.Core(0).Reg(isa.X7); got != 9 {
		t.Fatalf("X7 = %d, want 9", got)
	}
}

// TestGhostPromotionOnCommit: a speculative load on the CORRECT path leaves
// its line out of the caches until commit, then promotes it.
func TestGhostPromotionOnCommit(t *testing.T) {
	prog := asm.MustAssemble(`
_start:
    ADR  X9, slot
    LDR  X1, [X9]          // cold: window opener
    CMP  X1, #999
    B.LS body              // taken; predicted taken: body speculates
    B    skip
body:
    ADR  X21, array1
    LDR  X5, [X21]         // speculative, correct-path: ghost then promote
skip:
    SVC  #0
    .org 0x100000
array1:
    .word 7
    .org 0x120000
slot:
    .word 0
`)
	m, err := NewMachine(core.DefaultConfig(), core.GhostMinion, prog)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run(1_000_000)
	if res.Faulted || res.TimedOut {
		t.Fatalf("run failed: %v", res)
	}
	if m.Hier.Ghost[0].Fills == 0 {
		t.Fatal("the speculative load must fill the ghost buffer")
	}
	if m.Hier.Ghost[0].Promotes == 0 {
		t.Fatal("the committed load must promote its ghost line")
	}
	if !m.Hier.InL1D(0, 0x100000, m.Cores[0].Cycle()+2) {
		t.Fatal("promoted line must be in L1 after commit")
	}
	if got := m.Core(0).Reg(isa.X5); got != 7 {
		t.Fatalf("X5 = %d", got)
	}
}

// TestSpecCFIBlocksNonBTISpeculation: fetch must refuse to follow a
// predicted indirect target that is not a BTI landing pad.
func TestSpecCFIBlocksNonBTISpeculation(t *testing.T) {
	prog := asm.MustAssemble(`
_start:
    ADR  X19, fnslot
    ADR  X9, target
    STR  X9, [X19]
    MOV  X12, #4
loop:
    LDR  X9, [X19]
    BLR  X9                // target lacks BTI
    SUB  X12, X12, #1
    CBNZ X12, loop
    SVC  #0
target:
    ADD  X5, X5, #1
    RET
    .org 0x120000
fnslot:
    .word 0
`)
	m, err := NewMachine(core.DefaultConfig(), core.SpecCFI, prog)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run(1_000_000)
	if res.TimedOut {
		t.Fatal("CFI stall must not deadlock: the branch resolves and proceeds")
	}
	if res.Stats.Get("cfi_blocked_indirect") == 0 {
		t.Fatal("speculation to a non-BTI target must be refused")
	}
	if got := m.Core(0).Reg(isa.X5); got != 4 {
		t.Fatalf("X5 = %d, want 4 (architectural execution unaffected)", got)
	}
}

// TestTagKeysSurviveRegisterDataflow: pointers keep their key through ALU
// ops, memory round trips and forwarding (differential vs. direct check).
func TestTagKeysSurviveRegisterDataflow(t *testing.T) {
	prog := asm.MustAssemble(`
_start:
    ADR  X0, buf
    IRG  X1, X0
    STG  X1, [X1]
    ADD  X2, X1, #0
    STR  X2, [X0, #512]    // spill the tagged pointer (untagged slot)
    LDR  X3, [X0, #512]    // reload it
    MOV  X4, #5
    STR  X4, [X3]          // use through the round-tripped pointer
    LDR  X5, [X3]
    SVC  #0
    .org 0x100000
buf:
    .space 1024
`)
	m, err := NewMachine(core.DefaultConfig(), core.SpecASan, prog)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run(1_000_000)
	if res.Faulted {
		t.Fatalf("round-tripped tagged pointer must still match, fault at %#x", m.Core(0).FaultPC)
	}
	if got := m.Core(0).Reg(isa.X5); got != 5 {
		t.Fatalf("X5 = %d", got)
	}
	if mte.Key(m.Core(0).Reg(isa.X3)) == 0 {
		t.Fatal("the key byte was lost in the memory round trip")
	}
}
