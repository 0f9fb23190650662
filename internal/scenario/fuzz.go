package scenario

// FuzzOptions configures an attack-discovery fuzzing run (specasan-fuzz):
// the generator seed and the stopping rule. Candidates > 0 runs exactly that
// many candidates (same seed gives a byte-identical PoC corpus at any worker
// count) and ignores BudgetSeconds; Candidates == 0 runs whole candidate
// batches until BudgetSeconds expires.
type FuzzOptions struct {
	// Seed drives candidate generation; candidate i is a pure function of
	// (Seed, i).
	Seed uint64 `json:"seed"`
	// Candidates is the number of candidates to generate and evaluate
	// (0 = unbounded, rely on BudgetSeconds).
	Candidates int `json:"candidates,omitempty"`
	// BudgetSeconds bounds the wall-clock time of a Candidates == 0 run.
	BudgetSeconds int `json:"budget_seconds,omitempty"`
}

// PoCScenario emits the pinned scenario document embedded in each fuzzer
// find: the paper's default machine, the sweep's mitigation columns, and
// the minimised PoC assembly as a file workload — so a find replays through
// the standard sweep harness (`specasan-sim -scenario <poc>.json`) with the
// same identity hashing every other result carries.
func PoCScenario(name, asmPath string, mitigations []string) *Scenario {
	s := Default()
	s.Name = name
	s.Extends = ""
	s.Mitigations = append([]string(nil), mitigations...)
	s.Workloads = []string{FileWorkloadPrefix + asmPath}
	s.Run = DefaultRunOptions()
	// Generated PoCs finish in a few thousand cycles; the bound only fences
	// runaways.
	s.Run.MaxCycles = 400_000
	return s
}
