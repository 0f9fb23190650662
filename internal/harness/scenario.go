package harness

import (
	"fmt"

	"specasan/internal/scenario"
)

// OptionsFromScenario converts a scenario's run section into harness Options:
// the scenario's machine becomes the run config, its run knobs map onto
// Scale/MaxCycles/Workers/NoSkipIdle, and its content hash is stamped into
// every metrics record the run emits. Output fields (Verbose, Log, Metrics,
// Attach) stay zero — they belong to the caller, not the scenario.
func OptionsFromScenario(s *scenario.Scenario) Options {
	cfg := s.Machine
	retries := s.Run.MaxRetries
	if retries == 0 {
		retries = -1 // the scenario knob is explicit: 0 means no retries
	}
	return Options{
		Scale:             s.Run.Scale,
		MaxCycles:         s.Run.MaxCycles,
		Workers:           s.Run.Workers,
		NoSkipIdle:        !s.Run.SkipIdle,
		FastForwardInsts:  s.Run.FastForwardInsts,
		SampleWindows:     s.Run.SampleWindows,
		SampleWindowInsts: s.Run.SampleWindowInsts,
		WarmupCycles:      s.Run.WarmupCycles,
		Config:            &cfg,
		ScenarioHash:      s.Hash(),
		ResultHash:        s.ResultHash(),
		Retry: RetryPolicy{
			BudgetFactor: s.Run.RetryBudgetFactor,
			MaxRetries:   retries,
		},
	}
}

// RunScenarioSweep runs the sweep a scenario describes: its workloads against
// its mitigations under its machine, with opt supplying the output plumbing
// (Log/Metrics/Attach/Verbose). Run-shape fields of opt (Scale, MaxCycles,
// Workers, NoSkipIdle, Config, ScenarioHash) are overwritten from the
// scenario so the sweep cannot silently diverge from the hash it stamps.
func RunScenarioSweep(s *scenario.Scenario, opt Options) (*Sweep, error) {
	specs, err := s.WorkloadSpecs()
	if err != nil {
		return nil, err
	}
	mits, err := s.MitigationList()
	if err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	so := OptionsFromScenario(s)
	so.Verbose, so.Log, so.Metrics, so.Attach = opt.Verbose, opt.Log, opt.Metrics, opt.Attach
	so.Store = opt.Store // cache keying (ResultHash) comes from the scenario
	return RunSweep(specs, mits, so)
}
