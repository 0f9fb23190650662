package harness

import (
	"strings"
	"testing"

	"specasan/internal/core"
	"specasan/internal/scenario"
	"specasan/internal/workloads"
)

// runScenario runs the sweep a scenario describes: its workloads against its
// mitigations under OptionsFromScenario, the route every scenario-driven
// command takes.
func runScenario(s *scenario.Scenario) (*Sweep, error) {
	specs, err := s.WorkloadSpecs()
	if err != nil {
		return nil, err
	}
	mits, err := s.MitigationList()
	if err != nil {
		return nil, err
	}
	return RunSweep(specs, mits, OptionsFromScenario(s))
}

// A scenario-driven sweep must be byte-identical to the flag-style RunSweep
// call it describes: same workloads, mitigations, machine, and run knobs
// produce the same formatted table, so switching a script to -scenario can
// never silently change results.
func TestScenarioSweepMatchesFlagSweep(t *testing.T) {
	s := scenario.Default()
	s.Name = "equiv"
	s.Workloads = []string{"511.povray_r"}
	s.Mitigations = []string{"Unsafe", "SpecBarrier"}
	s.Run.Scale = 0.02

	flagOpt := DefaultOptions()
	flagOpt.Scale = 0.02
	flagOpt.Config = &s.Machine
	flagOpt.ScenarioHash = s.Hash()
	flagOpt.NoSkipIdle = !s.Run.SkipIdle
	flagSw, err := RunSweep(
		[]*workloads.Spec{workloads.ByName("511.povray_r")},
		[]core.Mitigation{core.Unsafe, core.Fence},
		flagOpt,
	)
	if err != nil {
		t.Fatal(err)
	}

	scenSw, err := runScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	a := flagSw.FormatNormalized("t")
	b := scenSw.FormatNormalized("t")
	if a != b {
		t.Fatalf("scenario sweep diverged from flag sweep:\n--- flags\n%s--- scenario\n%s", a, b)
	}
}

// The registry-only DoM policy must flow through the sweep like any builtin:
// a scenario naming it yields a DelayOnMiss column with sane normalization.
func TestScenarioSweepRunsRegistryPolicy(t *testing.T) {
	s := scenario.Default()
	s.Name = "dom-column"
	s.Workloads = []string{"505.mcf_r"}
	s.Mitigations = []string{"Unsafe", "DelayOnMiss"}
	s.Run.Scale = 0.02

	sw, err := runScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	out := sw.FormatNormalized("dom")
	if !strings.Contains(out, "DelayOnMiss") {
		t.Fatalf("DelayOnMiss column missing:\n%s", out)
	}
	if n := sw.Normalized("505.mcf_r", scenario.DelayOnMiss); n < 1.0 {
		t.Fatalf("DelayOnMiss normalized %v; delaying misses cannot beat Unsafe", n)
	}
}

// OptionsFromScenario must carry the machine, run knobs, and content hash,
// and leave output plumbing to the caller.
func TestOptionsFromScenario(t *testing.T) {
	s := scenario.Default()
	s.Machine.L1DSizeKB = 128
	s.Run.Scale = 0.25
	s.Run.Workers = 3
	opt := OptionsFromScenario(s)
	if opt.Config == nil || opt.Config.L1DSizeKB != 128 {
		t.Fatalf("machine config not carried: %+v", opt.Config)
	}
	if opt.Scale != 0.25 || opt.Workers != 3 {
		t.Fatalf("run knobs not carried: %+v", opt)
	}
	if opt.ScenarioHash != s.Hash() {
		t.Fatalf("hash %q, want %q", opt.ScenarioHash, s.Hash())
	}
	if opt.Config == &s.Machine {
		t.Fatal("Options.Config aliases the scenario's machine; must be a copy")
	}
}
