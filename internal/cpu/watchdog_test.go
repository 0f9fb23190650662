package cpu

import (
	"strings"
	"testing"

	"specasan/internal/asm"
	"specasan/internal/core"
)

func wedgeProg(t *testing.T) *asm.Program {
	t.Helper()
	prog, err := asm.Assemble(`
_start:
    MOV  X1, #0
loop:
    ADD  X1, X1, #1
    CMP  X1, #100000000
    B.LT loop
    SVC  #0
`)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// A commit-stage freeze must be caught by the watchdog as a structured
// SimError carrying a pipeview snapshot — not burn the MaxCycles budget and
// report an anonymous timeout. On a multi-core machine the verdict names the
// wedged core and leaves the healthy ones' progress visible.
func TestWatchdogCatchesWedgedPipeline(t *testing.T) {
	for _, tc := range []struct {
		name          string
		cores, wedged int
	}{
		{"1core", 1, 0},
		{"2core-wedge1", 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.Cores = tc.cores
			m, err := NewMachine(cfg, core.Unsafe, wedgeProg(t))
			if err != nil {
				t.Fatal(err)
			}
			m.Watchdog.StallCycles = 2000 // keep the test fast
			m.Core(tc.wedged).InjectWedge()
			res := m.Run(50_000_000)
			if res.Err == nil {
				t.Fatalf("wedged pipeline not caught: %v", res)
			}
			if res.Err.Kind != "commit-stall" || res.Err.Core != tc.wedged {
				t.Fatalf("wrong verdict: %v", res.Err)
			}
			if res.TimedOut {
				t.Fatal("watchdog verdict should supersede the timeout flag")
			}
			if res.Cycles > 1_000_000 {
				t.Fatalf("watchdog fired only after %d cycles", res.Cycles)
			}
			if !strings.Contains(res.Err.Snapshot, "rob head=") ||
				!strings.Contains(res.Err.Snapshot, "seq=") {
				t.Fatalf("snapshot missing pipeline state:\n%s", res.Err.Snapshot)
			}
			if !strings.Contains(res.Err.Error(), "commit-stall") {
				t.Fatalf("Error() = %q", res.Err.Error())
			}
			if len(res.CoreStatuses) != tc.cores {
				t.Fatalf("core statuses: %+v", res.CoreStatuses)
			}
			for i, st := range res.CoreStatuses {
				if i == tc.wedged {
					if st.Committed != 0 {
						t.Fatalf("wedged core %d committed %d instructions past the freeze", i, st.Committed)
					}
				} else if st.LastCommit == 0 {
					t.Fatalf("healthy core %d should have commit progress: %+v", i, st)
				}
			}
		})
	}
}

// Corrupted LSQ bookkeeping (here: a leaked IQ slot) must be caught as an
// invariant violation rather than surfacing later as a mystery deadlock.
func TestWatchdogCatchesCounterCorruption(t *testing.T) {
	m, err := NewMachine(core.DefaultConfig(), core.Unsafe, wedgeProg(t))
	if err != nil {
		t.Fatal(err)
	}
	m.Watchdog.CheckEvery = 64
	wedged := false
	m.PerCycle = func(cycle uint64) {
		if cycle == 1000 && !wedged {
			m.Core(0).iqCount += 3 // simulate a counter leak
			wedged = true
		}
	}
	res := m.Run(1_000_000)
	if res.Err == nil || res.Err.Kind != "lsq-invariant" {
		t.Fatalf("counter corruption not caught: %v", res)
	}
}

// A healthy run must pass under the watchdog without a verdict.
func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	prog, err := asm.Assemble(`
_start:
    MOV  X1, #0
loop:
    ADD  X1, X1, #1
    CMP  X1, #2000
    B.LT loop
    SVC  #0
`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(core.DefaultConfig(), core.SpecASan, prog)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run(10_000_000)
	if res.Err != nil {
		t.Fatalf("false positive: %v\n%s", res.Err, res.Err.Snapshot)
	}
	if res.TimedOut || res.Faulted {
		t.Fatalf("run did not complete: %v", res)
	}
	if len(res.CoreStatuses) != 1 || !res.CoreStatuses[0].Halted {
		t.Fatalf("core status wrong: %+v", res.CoreStatuses)
	}
}

// A timed-out multicore run must name the cores that were still running.
func TestRunReportsTimedOutCores(t *testing.T) {
	// X0 = thread id: core 0 exits immediately, core 1 spins forever.
	prog, err := asm.Assemble(`
_start:
    CBZ  X0, done
spin:
    B    spin
done:
    SVC  #0
`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Cores = 2
	m, err := NewMachine(cfg, core.Unsafe, prog)
	if err != nil {
		t.Fatal(err)
	}
	m.Core(1).SetReg(1, 1) // X1 unused; ids come via X0
	m.Core(0).SetReg(0, 0)
	m.Core(1).SetReg(0, 1)
	m.Watchdog = nil // the spin loop commits forever; let the budget end it
	res := m.Run(20_000)
	if !res.TimedOut {
		t.Fatalf("expected timeout: %v", res)
	}
	cores := res.TimedOutCores()
	if len(cores) != 1 || cores[0] != 1 {
		t.Fatalf("TimedOutCores = %v, want [1]", cores)
	}
	st := res.CoreStatuses
	if !st[0].Halted || st[0].TimedOut || !st[1].TimedOut {
		t.Fatalf("statuses: %+v", st)
	}
	// LastCommit is the stall diagnostic: the spinning core kept committing
	// after the halted one stopped.
	if st[1].LastCommit == 0 || st[1].LastCommit < st[0].LastCommit {
		t.Fatalf("LastCommit: core 0 %d, core 1 %d; want core 1 non-zero and >= core 0",
			st[0].LastCommit, st[1].LastCommit)
	}
	if !strings.Contains(res.String(), "timedOutCores=[1]") {
		t.Fatalf("String() = %q", res.String())
	}
}

// A due cycle later than the work the window holds would let
// completeExecution or advanceLSQ sleep through a completion. The watchdog
// recounts both from the window, so each, set one cycle too late on a
// running machine, must be reported as its invariant failure.
func TestWatchdogCatchesLateDueCycles(t *testing.T) {
	prog, err := asm.Assemble(`
_start:
    ADR  X0, buf
    MOV  X1, #0
loop:
    LDR  X2, [X0]
    ADD  X0, X0, #64
    ADD  X1, X1, #1
    CMP  X1, #64
    B.LT loop
    SVC  #0
    .org 0x40000
buf:
    .space 4096
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, kind string
		// pending returns the earliest completion the stage has waiting,
		// and the stage's stored due cycle.
		pending func(c *Core) (uint64, *uint64)
	}{
		{"branch", "rob-invariant", func(c *Core) (uint64, *uint64) {
			at := noEvent
			for _, s := range c.branchQ {
				if e := c.entry(s); e.state == stExecuting {
					at = min(at, e.doneAt)
				}
			}
			return at, &c.brDue
		}},
		{"load", "lsq-invariant", func(c *Core) (uint64, *uint64) {
			at := noEvent
			for _, s := range c.loadQ {
				if e := c.entry(s); e.state == stWaitMem {
					at = min(at, e.doneAt)
				}
			}
			return at, &c.lsqDue
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewMachine(core.DefaultConfig(), core.Unsafe, prog)
			if err != nil {
				t.Fatal(err)
			}
			m.Watchdog.CheckEvery = 1
			late := uint64(0)
			m.PerCycle = func(cycle uint64) {
				if at, due := tc.pending(m.Core(0)); late == 0 && at != noEvent && at > cycle {
					late = at + 1
					*due = late
				}
			}
			res := m.Run(1_000_000)
			if late == 0 {
				t.Fatal("the stage never had a completion pending")
			}
			if res.Err == nil || res.Err.Kind != tc.kind {
				t.Fatalf("due cycle %d, one past the pending completion, not caught: %v", late, res)
			}
			t.Log(res.Err.Detail)
		})
	}
}

// A load whose store-to-load forward SpecASan denies (the keys differ)
// waits in stWaitUnsafe with no memory response due, and advanceLSQ must
// poll it from the next cycle. With the watchdog recounting every cycle, a
// due cycle the denial left high is an invariant failure.
func TestForwardDenialLowersLSQDue(t *testing.T) {
	m := newMachine(t, core.SpecASan, `
_start:
    ADR  X0, buf
    IRG  X1, X0
    STG  X1, [X1]
    MOV  X2, #42
    STR  X2, [X1]
    ADDG X3, X1, #0, #1
    LDR  X4, [X3]
    SVC  #0
    .org 0x40000
buf:
    .space 64
`)
	m.Watchdog.CheckEvery = 1
	res := m.Run(100_000)
	if res.Err != nil {
		t.Fatalf("%v\n%s", res.Err, res.Err.Snapshot)
	}
	if m.Core(0).Stats.Get("forward_denied") == 0 {
		t.Fatal("no forward was denied")
	}
}
