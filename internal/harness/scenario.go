package harness

import "specasan/internal/scenario"

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
