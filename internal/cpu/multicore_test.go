package cpu

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"specasan/internal/asm"
	"specasan/internal/core"
	"specasan/internal/obs"
	"specasan/internal/workloads"
)

// multicoreFingerprint runs a machine with idle skipping on or off and
// flattens everything observable into one comparable string: run shape, the
// merged counter set, every core's architectural end state and console
// output, the oracle's leak record, the full per-core event traces (hashed),
// and the metrics histograms.
func multicoreFingerprint(t *testing.T, build func(t *testing.T) *Machine, skip bool, budget uint64) string {
	t.Helper()
	m := build(t)
	m.SkipIdle = skip
	return runFingerprint(m, budget)
}

// runFingerprint runs m for up to budget cycles with tracing and metrics
// attached and flattens everything observable (see multicoreFingerprint).
func runFingerprint(m *Machine, budget uint64) string {
	tr := obs.NewTracer(len(m.Cores), 0)
	met := obs.NewMetrics(len(m.Cores))
	m.AttachObs(tr, met)
	res := m.Run(budget)

	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d committed=%d timedOut=%v faulted=%v faultCore=%d\n",
		res.Cycles, res.Committed, res.TimedOut, res.Faulted, res.FaultCore)
	if res.Err != nil {
		fmt.Fprintf(&b, "simErr=%v\n", res.Err)
	}
	fmt.Fprintf(&b, "stats=%s\n", res.Stats)
	for i := range m.Cores {
		c, st := m.Cores[i], res.CoreStatuses[i]
		fmt.Fprintf(&b, "core%d: halted=%v faulted=%v faultPC=%#x timedOut=%v committed=%d lastCommit=%d exit=%d\n",
			i, st.Halted, st.Faulted, st.FaultPC, st.TimedOut, st.Committed, st.LastCommit, c.ExitCode)
		fmt.Fprintf(&b, "core%d: regs=%v flags=%v output=%q stats=%s\n",
			i, c.cRegs, c.cFlags, c.Output, c.Stats)
	}
	fmt.Fprintf(&b, "secretReads=%d leaks=%v\n", m.Oracle.SecretReads, m.Oracle.Events())
	for i := range m.Cores {
		ct := tr.Core(i)
		h := sha256.New()
		for _, ev := range ct.Events() {
			fmt.Fprintf(h, "%d %d %d %d %d\n", ev.Cycle, ev.Seq, ev.PC, ev.Arg, ev.Kind)
		}
		fmt.Fprintf(&b, "trace%d: n=%d dropped=%d h=%s\n",
			i, ct.Recorded(), ct.Dropped(), hex.EncodeToString(h.Sum(nil))[:16])
	}
	fmt.Fprintf(&b, "metrics=%+v\n", met.Record("fp", "fp", res.Cycles, res.Committed).Histograms)
	return b.String()
}

// requireSkipExact fails t unless the skipping and cycle-by-cycle runs of
// the machine build makes are indistinguishable.
func requireSkipExact(t *testing.T, build func(t *testing.T) *Machine, budget uint64) {
	t.Helper()
	stepped := multicoreFingerprint(t, build, false, budget)
	skipped := multicoreFingerprint(t, build, true, budget)
	if stepped != skipped {
		t.Errorf("idle-skipping run diverged from the cycle-by-cycle run:\n--- stepped ---\n%s\n--- skipped ---\n%s",
			stepped, skipped)
	}
}

// coherencePingPong is an SPMD kernel that stresses every cross-core
// ordering the serial core walk fixes: a SWPAL spinlock (atomic ownership
// transfer through the directory), true-sharing stores to one line (remote
// L1D invalidations), reads of lines other cores dirty, a DC flush (touches
// every level), and per-core private work.
const coherencePingPong = `
_start:
    ADR  X9, lock
    ADR  X10, shared
    ADR  X11, private
    LSL  X12, X0, #10      // per-core private slab
    ADD  X11, X11, X12
    MOV  X13, #30          // iterations
loop:
acquire:
    MOV  X1, #1
    SWPAL X1, X2, [X9]
    CBNZ X2, acquire
    LDR  X3, [X10]         // read line the previous owner dirtied
    ADD  X3, X3, #1
    STR  X3, [X10]         // dirty it again (true sharing)
    MOV  X1, #0
    SWPAL X1, X2, [X9]     // release
    STR  X3, [X11]         // private store: core-local traffic
    LDR  X4, [X11]
    AND  X5, X13, #3
    CBZ  X5, flush
    B    next
flush:
    DC   CIVAC, X10        // periodic flush of the contended line
    DSB
next:
    SUB  X13, X13, #1
    CBNZ X13, loop
    SVC  #0
    .org 0x40000
lock:
    .word 0
shared:
    .word 0
    .org 0x48000
private:
    .space 8192
`

func buildCoherence(cores int, mit core.Mitigation) func(t *testing.T) *Machine {
	return func(t *testing.T) *Machine {
		t.Helper()
		prog, err := asm.Assemble(coherencePingPong)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.Cores = cores
		m, err := NewMachine(cfg, mit, prog)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cores; i++ {
			m.Core(i).SetReg(0, uint64(i))
		}
		return m
	}
}

// buildSpectreSPMD runs the Spectre-v1 gadget on every core at once: the
// transient out-of-bounds loads race for the same secret-holding lines, so
// oracle leak recording and ghost-buffer traffic (under GhostMinion) see
// several cores in the same cycles.
func buildSpectreSPMD(cores int, mit core.Mitigation) func(t *testing.T) *Machine {
	return func(t *testing.T) *Machine {
		t.Helper()
		prog, err := asm.Assemble(specV1Shape)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.Cores = cores
		m, err := NewMachine(cfg, mit, prog)
		if err != nil {
			t.Fatal(err)
		}
		m.Img.Tags.SetRange(0x100000, 128, 0xa)
		m.Img.Tags.SetRange(0x100080, 16, 0xb)
		m.Img.WriteU64(0x100080, 0x5ec4e7)
		m.Oracle.MarkSecret(0x100080, 16)
		return m
	}
}

// buildPARSEC builds a real 4-thread PARSEC kernel cell — the machine shape
// the paper's multicore evaluation uses.
func buildPARSEC(name string, mit core.Mitigation) func(t *testing.T) *Machine {
	return func(t *testing.T) *Machine {
		t.Helper()
		spec := workloads.ByName(name)
		if spec == nil {
			t.Fatalf("workload %s missing", name)
		}
		prog, err := spec.Build(mit.MTEEnabled(), 0.05)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.Cores = spec.Threads
		m, err := NewMachine(cfg, mit, prog)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < spec.Threads; i++ {
			m.Core(i).SetReg(0, uint64(i))
		}
		return m
	}
}

// TestParallelRunByteIdentity pins idle skipping on machines whose cores run
// in parallel in simulated time: the skip must wait for the earliest event
// of any core, so the skipping run must be bit-identical to the
// cycle-by-cycle walk — same cycles, counters, architectural state, leak
// record and event traces — at 1, 2 and 4 cores, across mitigations that
// exercise every shared structure (plain caches, SpecASan tag checks,
// GhostMinion ghost promotion/drop).
func TestParallelRunByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cases := []struct {
		name   string
		build  func(t *testing.T) *Machine
		budget uint64
	}{
		{"coherence-2core-unsafe", buildCoherence(2, core.Unsafe), 2_000_000},
		{"coherence-4core-unsafe", buildCoherence(4, core.Unsafe), 2_000_000},
		{"coherence-4core-specasan", buildCoherence(4, core.SpecASan), 2_000_000},
		{"spectre-1core-specasan", buildSpectreSPMD(1, core.SpecASan), 300_000},
		{"spectre-2core-unsafe", buildSpectreSPMD(2, core.Unsafe), 300_000},
		{"spectre-4core-specasan", buildSpectreSPMD(4, core.SpecASan), 300_000},
		{"spectre-4core-ghostminion", buildSpectreSPMD(4, core.GhostMinion), 300_000},
		{"parsec-blackscholes-unsafe", buildPARSEC("blackscholes", core.Unsafe), 20_000_000},
		{"parsec-blackscholes-specasan", buildPARSEC("blackscholes", core.SpecASan), 20_000_000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			requireSkipExact(t, tc.build, tc.budget)
		})
	}
}

// TestParallelDifferentialCorpusByteIdentity runs the differential safety
// net's 64-seed random program corpus as 2-core SPMD machines: both cores
// execute the same generated program, so their stores and MTE tag writes
// collide on the same data granules in the same cycles. The skipping and
// cycle-by-cycle fingerprints must match seed by seed.
func TestParallelDifferentialCorpusByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for seed := int64(1000); seed < 1064; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := genRandomProgram(rng, seed%2 == 0)
		mit := core.Unsafe
		if seed%3 == 0 {
			mit = core.SpecASan
		}
		build := func(t *testing.T) *Machine {
			prog, err := asm.Assemble(src)
			if err != nil {
				t.Fatalf("corpus program does not assemble: %v", err)
			}
			cfg := core.DefaultConfig()
			cfg.Cores = 2
			m, err := NewMachine(cfg, mit, prog)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		t.Run(fmt.Sprintf("seed%d/%v", seed, mit), func(t *testing.T) {
			requireSkipExact(t, build, 500_000)
		})
	}
}

// TestParallelSkipIdleByteIdentity pins the per-cycle hook's bypass of idle
// skipping on a 4-core machine: with a PerCycle hook set (the chaos
// injector's driver), a SkipIdle machine must call the hook on every cycle,
// in order, and end bit-identical to the plain cycle-by-cycle run.
func TestParallelSkipIdleByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	build := buildCoherence(4, core.SpecASan)
	ref := multicoreFingerprint(t, build, false, 2_000_000)
	var seen, gaps uint64
	hooked := func(t *testing.T) *Machine {
		m := build(t)
		m.PerCycle = func(cycle uint64) {
			seen++
			if cycle != seen {
				gaps++
			}
		}
		return m
	}
	got := multicoreFingerprint(t, hooked, true, 2_000_000)
	if got != ref {
		t.Errorf("hooked skipping run diverged from the cycle-by-cycle run:\n--- want ---\n%s\n--- got ---\n%s",
			ref, got)
	}
	if seen == 0 || gaps != 0 {
		t.Errorf("PerCycle hook saw %d cycles with %d out of order, want every cycle once in order", seen, gaps)
	}
	if skipped := multicoreFingerprint(t, build, true, 2_000_000); skipped != ref {
		t.Errorf("skipping run diverged from the cycle-by-cycle run:\n--- want ---\n%s\n--- got ---\n%s",
			ref, skipped)
	}
}
