package cpu

import (
	"fmt"
	"strings"
	"testing"

	"specasan/internal/asm"
	"specasan/internal/core"
	"specasan/internal/stats"
	"specasan/internal/workloads"
)

// skipFingerprint runs prog under mit (with cfg adjusted by tune, if set)
// with skipping on or off and flattens everything observable: cycle count,
// commits, run flags, the full counter set, architectural registers, and
// program output.
func skipFingerprint(t *testing.T, prog *asm.Program, mit core.Mitigation,
	tune func(*core.Config), skip bool) (string, *stats.Set) {
	t.Helper()
	cfg := core.DefaultConfig()
	if tune != nil {
		tune(&cfg)
	}
	m, err := NewMachine(cfg, mit, prog)
	if err != nil {
		t.Fatal(err)
	}
	m.SkipIdle = skip
	res := m.Run(300_000)
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d committed=%d timedOut=%v faulted=%v exit=%d\n",
		res.Cycles, res.Committed, res.TimedOut, res.Faulted, m.Core(0).ExitCode)
	fmt.Fprintf(&b, "stats=%s keys=%v\n", res.Stats, res.Stats.Keys())
	fmt.Fprintf(&b, "regs=%v flags=%v output=%q\n",
		m.Core(0).cRegs, m.Core(0).cFlags, m.Core(0).Output)
	return b.String(), res.Stats
}

// TestSkipIdleExactness drives pipelines through their distinct wait states
// — DRAM fills, tag-check delays under every mitigation, unresolved-branch
// fetch stalls, store-queue backpressure, ready entries held by an issue
// gate across long waits — and requires the skipping run to be
// indistinguishable from the cycle-by-cycle one, timeouts included.
func TestSkipIdleExactness(t *testing.T) {
	progs := map[string]string{
		"dram-stalls": `
_start:
    ADR X1, buf
    MOV X3, #0
    MOV X4, #16
loop:
    LDR X2, [X1]       // cold miss every line: long idle windows
    ADD X1, X1, #64
    ADD X3, X3, #1
    CMP X3, X4
    B.NE loop
    DC CIVAC, X1
    DSB
    SVC #0
    .org 0x40000
buf:
    .space 2048
`,
		"branchy": `
_start:
    MOV X3, #0
    MOV X4, #200
loop:
    AND X5, X3, #3
    CBZ X5, skip1
    ADD X6, X6, X5
skip1:
    ADD X3, X3, #1
    CMP X3, X4
    B.NE loop
    SVC #0
`,
		"store-pressure": `
_start:
    ADR X1, buf
    MOV X3, #0
    MOV X4, #64
loop:
    STR X3, [X1]
    ADD X1, X1, #8
    ADD X3, X3, #1
    CMP X3, X4
    B.NE loop
    SVC #0
    .org 0x40000
buf:
    .space 1024
`,
		"tagged-loads": `
_start:
    ADR X1, buf
    IRG X1, X1
    STG X1, [X1]
    STR X1, [X1]
    LDR X2, [X1]
    SVC #0
    .org 0x40000
buf:
    .space 64
`,
		"timeout": `
_start:
    B _start
`,
		// A pointer chase whose every hop is a cold DRAM miss, with an
		// independent load per hop: under SpecBarrier the side load sits in
		// the ready queue, fence-blocked, for the whole miss ahead of it.
		"fence-drain": `
_start:
    ADR X1, n7
    ADR X6, side
    MOV X3, #0
    MOV X4, #8
loop:
    LDR X1, [X1]       // chase: every hop a cold miss
    LDR X5, [X6]       // independent: drains behind the chase
    ADD X6, X6, #8
    ADD X3, X3, #1
    CMP X3, X4
    B.NE loop
    SVC #0
    .org 0x40000
n0:
    .word n0
    .org 0x41340
n1:
    .word n0
    .org 0x42a80
n2:
    .word n1
    .org 0x43b00
n3:
    .word n2
    .org 0x45140
n4:
    .word n3
    .org 0x46380
n5:
    .word n4
    .org 0x47e40
n6:
    .word n5
    .org 0x49000
n7:
    .word n6
    .org 0x4c000
side:
    .space 128
`,
		// A load->load chain under a branch that waits on a cold miss: the
		// first load's value is STT-tainted, so the second (tainted address)
		// is held until the branch resolves. The first load is tagged, so
		// SpecASan's delay-all ablation holds it instead.
		"stt-chain": `
_start:
    ADR X1, ptrs
    IRG X1, X1
    STG X1, [X1]
    ADR X7, cold
    MOV X3, #0
    MOV X4, #8
loop:
    LDR X8, [X7]       // cold miss: the branch below waits on it
    ADD X7, X7, #320
    CMP X8, #1
    B.EQ skip          // unresolved for the whole miss
    LDR X2, [X1]       // speculative tagged load: its value is tainted
    LDR X5, [X2]       // tainted address: held until the branch resolves
skip:
    ADD X3, X3, #1
    CMP X3, X4
    B.NE loop
    SVC #0
    .org 0x40000
target:
    .space 64
ptrs:
    .word target
    .org 0x50000
cold:
    .space 4096
`,
		// An atomic behind a cold miss at the ROB head: SWPAL only runs at
		// the head, so it waits in the ready queue for the whole miss.
		"swpal-miss": `
_start:
    ADR X1, cold
    ADR X2, lock
    MOV X3, #0
    MOV X4, #6
loop:
    LDR X5, [X1]       // cold miss at the ROB head
    ADD X1, X1, #576
    MOV X6, #1
    SWPAL X6, X7, [X2] // held (policy_block_atomic) until it is the head
    ADD X3, X3, #1
    CMP X3, X4
    B.NE loop
    SVC #0
    .org 0x40000
lock:
    .space 64
    .org 0x50000
cold:
    .space 4096
`,
	}
	delayAll := func(cfg *core.Config) { cfg.SelectiveDelay = false }
	variants := []struct {
		name string
		mit  core.Mitigation
		tune func(*core.Config)
	}{
		{"Unsafe", core.Unsafe, nil},
		{"SpecBarrier", core.Fence, nil},
		{"STT", core.STT, nil},
		{"GhostMinion", core.GhostMinion, nil},
		{"SpecCFI", core.SpecCFI, nil},
		{"SpecASan", core.SpecASan, nil},
		// DoM's probe depends on LFB fill timing, so its blocked cycles
		// must stay on the no-skip path.
		{"DoM", domTestPolicy, nil},
		{"SpecASan/delay-all", core.SpecASan, delayAll},
	}
	// Each held-entry program must really hold ready entries under its
	// gate, or the exactness check above proves nothing about that gate.
	holds := map[[2]string]string{
		{"fence-drain", "SpecBarrier"}:      "policy_block_fence",
		{"stt-chain", "STT"}:                "policy_block_stt",
		{"stt-chain", "SpecASan/delay-all"}: "policy_block_delay_all",
		{"stt-chain", "DoM"}:                "policy_block_dom",
		{"swpal-miss", "Unsafe"}:            "policy_block_atomic",
	}
	for name, src := range progs {
		prog := asm.MustAssemble(src)
		for _, v := range variants {
			on, st := skipFingerprint(t, prog, v.mit, v.tune, true)
			off, _ := skipFingerprint(t, prog, v.mit, v.tune, false)
			if on != off {
				t.Errorf("%s under %s diverges:\n-- skip on --\n%s-- skip off --\n%s",
					name, v.name, on, off)
			}
			if key, ok := holds[[2]string{name, v.name}]; ok && st.Get(key) == 0 {
				t.Errorf("%s under %s: %s = 0, want ready entries held", name, v.name, key)
			}
		}
	}
}

// A cycle in which Delay-on-Miss held a ready entry must never be skipped:
// DoM's probe reads LFB fill timing, which no core event bounds. The run
// walks every cycle and asks the core after each one.
func TestSkipIdleDoMKeepsNoSkipPath(t *testing.T) {
	m := newMachine(t, domTestPolicy, `
_start:
    ADR X0, buf
    MOV X1, #0
loop:
    LDR X2, [X0]
    ADD X0, X0, #64
    ADD X1, X1, #1
    CMP X1, #32
    B.GE done
    CMP X2, #1
    B.LT loop
done:
    SVC #0
    .org 0x40000
buf:
    .space 4096
`)
	m.SkipIdle = false
	c := m.Core(0)
	var prev uint64
	held := 0
	for !m.Done() && m.Cycle() < 200_000 {
		m.Step()
		if n := c.Stats.Get("policy_block_dom"); n != prev {
			prev = n
			held++
			if e := c.nextEventCycle(); e != c.Cycle()+1 {
				t.Fatalf("cycle %d: DoM held a ready entry, next event %d, want %d",
					c.Cycle(), e, c.Cycle()+1)
			}
		}
	}
	if held == 0 {
		t.Fatal("no cycle held a ready entry under DoM")
	}
}

// stepsPerCycle runs 505.mcf_r under mit with bare Steps and returns the
// Steps it took per simulated cycle.
func stepsPerCycle(t *testing.T, mit core.Mitigation) float64 {
	t.Helper()
	spec := workloads.ByName("505.mcf_r")
	if spec == nil {
		t.Fatal("workload 505.mcf_r missing")
	}
	prog, err := spec.Build(mit.Descriptor().MTE, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Cores = spec.Threads
	m, err := NewMachine(cfg, mit, prog)
	if err != nil {
		t.Fatal(err)
	}
	var steps uint64
	for !m.Done() && m.Cycle() < 2_000_000 {
		m.Step()
		steps++
	}
	if !m.Done() {
		t.Fatalf("%v: 505.mcf_r did not finish", mit)
	}
	return float64(steps) / float64(m.Cycle())
}

// TestSkipIdleActuallySkips pins that the optimisation is live: on a
// memory-bound kernel the machine must cover its cycles in far fewer Step
// calls than cycles (i.e. the idle windows between DRAM fills are jumped).
func TestSkipIdleActuallySkips(t *testing.T) {
	r := stepsPerCycle(t, core.Unsafe)
	t.Logf("Unsafe: %.2f steps per cycle", r)
	if r > 2.0/3 {
		t.Errorf("skip inactive: %.2f steps per cycle", r)
	}
}

// TestSkipIdleSkipsPolicyBlocked pins that cycles whose ready queue is all
// policy-blocked are skipped too. Under SpecBarrier and STT a held load
// waits in the ready queue for the whole miss ahead of it; if a non-empty
// ready queue stopped the skip again, these defences would step nearly
// every cycle (0.96 and 0.90 steps per cycle, against 0.29 and 0.53 with
// the skip).
func TestSkipIdleSkipsPolicyBlocked(t *testing.T) {
	for _, mit := range []core.Mitigation{core.Fence, core.STT} {
		r := stepsPerCycle(t, mit)
		t.Logf("%v: %.2f steps per cycle", mit, r)
		if r > 0.75 {
			t.Errorf("%v: %.2f steps per cycle, policy-blocked cycles not skipped", mit, r)
		}
	}
}

// retryWaitPrograms are the retry-wait shapes: ready entries that retry
// every cycle, changing nothing, while a DRAM miss keeps the state they wait
// on in flight. FuzzDifferentialGolden is seeded with them.
var retryWaitPrograms = []struct{ name, src string }{
	// A DSB waits for the ROB head, a cold miss, every round.
	{"dsb-miss", `
_start:
    ADR X1, cold
    ADR X8, warm
    MOV X3, #0
    MOV X4, #8
loop:
    LDR X5, [X1]       // cold miss at the ROB head
    ADD X1, X1, #576
    DSB                // retries until it is the head
    LDR X7, [X8]       // retries until the DSB completes
    ADD X6, X6, X5
    ADD X3, X3, #1
    CMP X3, X4
    B.NE loop
    SVC #0
    .org 0x40000
warm:
    .space 64
    .org 0x50000
cold:
    .space 8192
`},
	// The SWPAL misses to DRAM once it reaches the head; the load behind it
	// retries for the whole fill.
	{"swpal-load", `
_start:
    ADR X1, cold
    ADR X8, warm
    MOV X3, #0
    MOV X4, #6
loop:
    MOV X6, #1
    SWPAL X6, X7, [X1] // in flight for a cold fill
    LDR X5, [X8]       // retries behind the in-flight SWPAL
    ADD X9, X9, X5
    ADD X1, X1, #576
    ADD X3, X3, #1
    CMP X3, X4
    B.NE loop
    SVC #0
    .org 0x40000
warm:
    .space 64
    .org 0x50000
cold:
    .space 4096
`},
	// The STG cannot commit behind a cold miss, so the LDG (and, with MTE
	// checking on, the STR) to its granule retries until it does.
	{"stg-ldg", `
_start:
    ADR X1, cold
    ADR X2, buf
    IRG X2, X2
    MOV X3, #0
    MOV X4, #6
loop:
    LDR X5, [X1]       // cold miss at the ROB head
    ADD X1, X1, #576
    STG X2, [X2]       // tag write commits behind the miss
    LDG X9, [X2]       // retries until the STG commits
    STR X3, [X2]       // so does the tag-checked store
    ADD X2, X2, #16
    ADD X3, X3, #1
    CMP X3, X4
    B.NE loop
    SVC #0
    .org 0x40000
buf:
    .space 128
    .org 0x50000
cold:
    .space 4096
`},
	// The store's address waits on a cold miss. The load to the same slot
	// runs ahead once and is squashed, which trains the MDU to hold it
	// (fwdDepWait) while the address is unresolved; the load's pointer is
	// tagged, so under SpecASan the STL delay holds it instead.
	{"store-addr-miss", `
_start:
    ADR X8, slot
    IRG X8, X8
    STG X8, [X8]
    ADR X1, cold
    MOV X3, #0
    MOV X4, #6
loop:
    LDR X9, [X1]       // cold miss: zero, but late
    ADD X1, X1, #576
    ADD X2, X8, X9     // the store's address waits on the miss
    STR X3, [X2]
    LDR X5, [X8]       // same slot
    ADD X6, X6, X5
    ADD X3, X3, #1
    CMP X3, X4
    B.NE loop
    SVC #0
    .org 0x40000
slot:
    .space 64
    .org 0x50000
cold:
    .space 4096
`},
}

// retryJumps steps m to completion with skipping on and counts the jumps
// taken over a ready queue that held a repeat retry, and those over one
// that held an MDU wait.
func retryJumps(t *testing.T, m *Machine) (jumps, mduJumps int) {
	t.Helper()
	c := m.Core(0)
	for !m.Done() && m.Cycle() < 300_000 {
		before := m.Cycle()
		m.Step()
		if m.Cycle() == before+1 || c.idleIssueAt != before+1 {
			continue
		}
		held := c.idleHeld
		for _, n := range c.idleBlocked {
			held -= int(n)
		}
		if held > 0 {
			jumps++
		}
		if c.idleMDUWaits > 0 {
			mduJumps++
		}
	}
	if !m.Done() {
		t.Fatal("did not finish")
	}
	return jumps, mduJumps
}

// TestSkipIdleJumpsRetryWaits pins the repeat-retry rule (skip.go). Each
// retry-wait shape, plus a load waiting on a partially overlapping older
// store, must run identically with skipping on and off, and the skip must
// really jump spans whose ready queue holds a repeat retry: for the MDU
// wait under Unsafe (its mdu_waits added analytically) and for the STL
// delay under SpecASan.
func TestSkipIdleJumpsRetryWaits(t *testing.T) {
	progs := append(retryWaitPrograms[:len(retryWaitPrograms):len(retryWaitPrograms)],
		struct{ name, src string }{"partial-forward", `
_start:
    ADR X1, cold
    ADR X8, slot
    MOV X3, #0
    MOV X4, #6
loop:
    LDR X5, [X1]       // cold miss at the ROB head
    ADD X1, X1, #576
    STRB X3, [X8]      // commits behind the miss
    LDR X7, [X8]       // overlaps the byte store, cannot forward: retries
    ADD X6, X6, X7
    ADD X3, X3, #1
    CMP X3, X4
    B.NE loop
    SVC #0
    .org 0x40000
slot:
    .space 64
    .org 0x50000
cold:
    .space 4096
`})
	mits := []core.Mitigation{core.Unsafe, core.MTE, core.Fence, core.STT, core.GhostMinion,
		core.SpecCFI, core.SpecASan, domTestPolicy}
	for _, p := range progs {
		prog := asm.MustAssemble(p.src)
		for _, mit := range mits {
			on, _ := skipFingerprint(t, prog, mit, nil, true)
			off, _ := skipFingerprint(t, prog, mit, nil, false)
			if on != off {
				t.Errorf("%s under %v diverges:\n-- skip on --\n%s-- skip off --\n%s", p.name, mit, on, off)
			}
		}
		for _, mit := range []core.Mitigation{core.Unsafe, core.SpecASan} {
			m, err := NewMachine(core.DefaultConfig(), mit, prog)
			if err != nil {
				t.Fatal(err)
			}
			jumps, mduJumps := retryJumps(t, m)
			t.Logf("%s under %v: %d jumps over repeat retries, %d over MDU waits", p.name, mit, jumps, mduJumps)
			if jumps == 0 {
				t.Errorf("%s under %v: no jump over a repeat retry", p.name, mit)
			}
			if p.name == "store-addr-miss" && mit == core.Unsafe && mduJumps == 0 {
				t.Errorf("%s under %v: no jump over an MDU wait", p.name, mit)
			}
		}
	}
}
