// Package scenario is the declarative configuration layer of the
// reproduction: one Scenario value captures everything a run depends on —
// the simulated machine (Table 2 fields), the defence policies under test,
// the workload set, and the run/observability options — as a typed,
// versioned, JSON-serializable document with strict validation and a
// canonical content hash.
//
// Scenarios are layered: a named preset (table2, figure6, ...) provides the
// base, a scenario file overrides the fields it names (via "extends"), and
// CLI flags override individual values on top. Whatever the layering, the
// effective scenario hashes to a single stable identity that is stamped into
// every output (sweep metrics JSONL, chaos campaign headers, each CLI's
// stderr header), so any recorded result is reproducible from its scenario
// alone.
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"specasan/internal/chaos"
	"specasan/internal/core"
	"specasan/internal/workloads"
)

// Version is the scenario schema version this package reads and writes.
const Version = 1

// FileWorkloadPrefix marks a workload entry that is an assembly file path
// rather than a named kernel ("file:prog.s"). specasan-sim stamps
// single-file runs with such scenarios; sweep runners reject them.
const FileWorkloadPrefix = "file:"

// RunOptions are the cost/behaviour knobs of a run, shared by every
// harness entry point.
type RunOptions struct {
	// Scale multiplies every kernel's iteration count (1.0 ≈ 100k-200k
	// committed instructions per benchmark).
	Scale float64 `json:"scale"`
	// MaxCycles bounds each simulated run.
	MaxCycles uint64 `json:"max_cycles"`
	// Workers bounds sweep-cell concurrency (0 = GOMAXPROCS, 1 = serial).
	// Output is byte-identical for every value.
	Workers int `json:"workers"`
	// SkipIdle enables event-driven idle-cycle skipping
	// (exactness-preserving).
	SkipIdle bool `json:"skip_idle"`
	// RetryBudgetFactor scales MaxCycles on each escalated-budget retry of a
	// timed-out sweep cell (the policy PR 1 hardcoded at 4; now a knob the
	// CLIs and the serve daemon share).
	RetryBudgetFactor uint64 `json:"retry_budget_factor"`
	// MaxRetries bounds how many escalated-budget retries a timed-out cell
	// gets before it is declared failed (0 = fail on the first timeout).
	MaxRetries int `json:"max_retries"`

	// The sampling knobs below select fast-forward sampled simulation: part
	// of a run executes on the functional golden interpreter (hundreds of
	// MIPS) and only sampled windows pay cycle-accurate cost. They are
	// result-relevant (sampled cycle counts are estimates), so they stay in
	// the ResultHash — a sampled run can never cache-collide with a full
	// run. All use omitempty so pre-sampling scenarios keep their hashes.

	// FastForwardInsts, when > 0, executes the first N instructions of every
	// single-core cell functionally before switching to cycle-accurate
	// simulation. Without SampleWindows the rest of the run is fully
	// detailed ("tail mode"). Multi-threaded cells fall back to full runs.
	FastForwardInsts uint64 `json:"fast_forward_insts,omitempty"`
	// SampleWindows, when > 1, measures that many evenly-spaced detailed
	// windows of SampleWindowInsts instructions each across the (functionally
	// pre-walked) run, and extrapolates whole-run cycles from their pooled
	// IPC. 0 and 1 both mean tail mode.
	SampleWindows int `json:"sample_windows,omitempty"`
	// SampleWindowInsts is the detailed length of each sampled window;
	// required exactly when SampleWindows > 1.
	SampleWindowInsts uint64 `json:"sample_window_insts,omitempty"`
	// WarmupCycles is the micro-architectural warmup budget: detailed cycles
	// executed after a state transplant whose counters are excluded from IPC
	// estimates. 0 means the harness default (2000).
	WarmupCycles uint64 `json:"warmup_cycles,omitempty"`
}

// Sampling reports whether the run options select fast-forward sampled
// simulation (tail mode or windowed mode).
func (r *RunOptions) Sampling() bool {
	return r.FastForwardInsts > 0 || r.SampleWindows > 1
}

// ChaosOptions configure a fault-injection campaign (specasan-chaos).
type ChaosOptions struct {
	// Seeds is the number of chaos seeds per grid cell, starting at Seed0.
	Seeds int    `json:"seeds"`
	Seed0 uint64 `json:"seed0"`
	// Kinds names the fault kinds to inject; empty means every kind.
	Kinds []string `json:"kinds,omitempty"`
	// Rate is the per-opportunity injection probability.
	Rate float64 `json:"rate"`
	// MaxLatency caps injected latency in cycles.
	MaxLatency uint64 `json:"max_latency"`
	// VerdictSeeds is the seed count for the Table 1 verdict-invariance
	// sweep (0 disables it).
	VerdictSeeds int `json:"verdict_seeds"`
}

// Scenario is one fully-specified experiment: machine x defences x
// workloads x run options. The zero value is not runnable — start from
// Default(), a preset, or Load.
type Scenario struct {
	// Version must equal the package Version (1).
	Version int `json:"version"`
	// Name labels the scenario for humans; it is excluded from the hash, so
	// renaming a scenario (or deriving it from a differently-named file)
	// does not orphan recorded results.
	Name string `json:"name,omitempty"`
	// Extends names the preset a scenario file layers over ("table2" when
	// empty). Provenance, not content: excluded from the hash.
	Extends string `json:"extends,omitempty"`
	// Machine is the simulated CPU configuration (Table 2 fields, Go field
	// names as JSON keys).
	Machine core.Config `json:"machine"`
	// Mitigations are policy names resolved against the policy registry,
	// case-insensitively. Sweep columns appear in this order.
	Mitigations []string `json:"mitigations"`
	// Workloads are benchmark kernel names (internal/workloads), rows in
	// sweep order, or one "file:<path>" entry for single-file runs.
	Workloads []string `json:"workloads"`
	// Run tunes execution cost and concurrency.
	Run RunOptions `json:"run"`
	// Chaos, when present, configures a fault-injection campaign.
	Chaos *ChaosOptions `json:"chaos,omitempty"`
	// Fuzz, when present, configures an attack-discovery fuzzing run
	// (specasan-fuzz). Like Chaos it is a pointer with omitempty so
	// pre-fuzzer scenarios keep their content hashes.
	Fuzz *FuzzOptions `json:"fuzz,omitempty"`
}

// DefaultRunOptions match the harness defaults: full-scale kernels, the
// sweep cycle budget, GOMAXPROCS workers, idle skipping on.
func DefaultRunOptions() RunOptions {
	return RunOptions{
		Scale: 1.0, MaxCycles: 200_000_000, Workers: 0, SkipIdle: true,
		RetryBudgetFactor: 4, MaxRetries: 1,
	}
}

// Validate checks the scenario strictly: schema version, machine geometry,
// resolvable mitigation and workload names, sane run and chaos options.
// A scenario that validates can run; one that doesn't names the first
// offending field.
func (s *Scenario) Validate() error {
	if s.Version != Version {
		return fmt.Errorf("scenario: version %d unsupported (want %d)", s.Version, Version)
	}
	if err := s.Machine.Validate(); err != nil {
		return fmt.Errorf("scenario machine: %w", err)
	}
	if len(s.Mitigations) == 0 {
		return fmt.Errorf("scenario: no mitigations")
	}
	for _, name := range s.Mitigations {
		if _, err := core.ParseMitigation(name); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	if len(s.Workloads) == 0 {
		return fmt.Errorf("scenario: no workloads")
	}
	for _, name := range s.Workloads {
		if strings.HasPrefix(name, FileWorkloadPrefix) {
			if name == FileWorkloadPrefix {
				return fmt.Errorf("scenario: empty %q workload path", FileWorkloadPrefix)
			}
			continue
		}
		if workloads.ByName(name) == nil {
			return fmt.Errorf("scenario: unknown workload %q", name)
		}
	}
	if !(s.Run.Scale > 0) || math.IsInf(s.Run.Scale, 1) {
		return fmt.Errorf("scenario run: scale must be finite and > 0 (got %v)", s.Run.Scale)
	}
	if s.Run.MaxCycles < 1 {
		return fmt.Errorf("scenario run: max_cycles must be >= 1")
	}
	if s.Run.Workers < 0 {
		return fmt.Errorf("scenario run: workers must be >= 0")
	}
	if s.Run.MaxRetries < 0 || s.Run.MaxRetries > 8 {
		return fmt.Errorf("scenario run: max_retries must be in [0,8] (got %d)", s.Run.MaxRetries)
	}
	if s.Run.MaxRetries > 0 && s.Run.RetryBudgetFactor < 1 {
		return fmt.Errorf("scenario run: retry_budget_factor must be >= 1 when max_retries > 0 (got %d)",
			s.Run.RetryBudgetFactor)
	}
	if s.Run.SampleWindows < 0 {
		return fmt.Errorf("scenario run: sample_windows must be >= 0 (got %d)", s.Run.SampleWindows)
	}
	if s.Run.SampleWindows > 1 && s.Run.SampleWindowInsts == 0 {
		return fmt.Errorf("scenario run: sample_window_insts must be > 0 when sample_windows > 1")
	}
	if s.Run.SampleWindowInsts > 0 && s.Run.SampleWindows <= 1 {
		return fmt.Errorf("scenario run: sample_window_insts requires sample_windows > 1 (tail mode ignores it)")
	}
	if s.Run.Sampling() && s.Chaos != nil {
		return fmt.Errorf("scenario run: sampling is incompatible with a chaos section (the injector must observe every cycle)")
	}
	if f := s.Fuzz; f != nil {
		if f.Candidates < 0 {
			return fmt.Errorf("scenario fuzz: candidates must be >= 0 (got %d)", f.Candidates)
		}
		if f.BudgetSeconds < 0 {
			return fmt.Errorf("scenario fuzz: budget_seconds must be >= 0 (got %d)", f.BudgetSeconds)
		}
		if f.Candidates == 0 && f.BudgetSeconds == 0 {
			return fmt.Errorf("scenario fuzz: one of candidates or budget_seconds must be set")
		}
	}
	if c := s.Chaos; c != nil {
		if c.Seeds < 1 {
			return fmt.Errorf("scenario chaos: seeds must be >= 1")
		}
		if !(c.Rate >= 0 && c.Rate <= 1) { // NaN fails both
			return fmt.Errorf("scenario chaos: rate must be in [0,1] (got %v)", c.Rate)
		}
		if c.MaxLatency < 1 {
			return fmt.Errorf("scenario chaos: max_latency must be >= 1")
		}
		if c.VerdictSeeds < 0 {
			return fmt.Errorf("scenario chaos: verdict_seeds must be >= 0")
		}
		for _, k := range c.Kinds {
			if _, err := chaos.ParseKind(k); err != nil {
				return fmt.Errorf("scenario chaos: %w", err)
			}
		}
	}
	return nil
}

// MitigationList resolves the scenario's policy names against the registry,
// in scenario order.
func (s *Scenario) MitigationList() ([]core.Mitigation, error) {
	return ParseMitigationNames(s.Mitigations)
}

// WorkloadSpecs resolves the scenario's workload names, in scenario order.
// "file:" entries are not named kernels and are rejected here — single-file
// runs are the CLI's business.
func (s *Scenario) WorkloadSpecs() ([]*workloads.Spec, error) {
	out := make([]*workloads.Spec, 0, len(s.Workloads))
	for _, name := range s.Workloads {
		if strings.HasPrefix(name, FileWorkloadPrefix) {
			return nil, fmt.Errorf("scenario: %q is a file workload, not a named kernel", name)
		}
		spec := workloads.ByName(name)
		if spec == nil {
			return nil, fmt.Errorf("scenario: unknown workload %q", name)
		}
		out = append(out, spec)
	}
	return out, nil
}

// ChaosKinds resolves the chaos section's fault kinds; an absent section or
// empty list means every kind.
func (s *Scenario) ChaosKinds() ([]chaos.Kind, error) {
	if s.Chaos == nil || len(s.Chaos.Kinds) == 0 {
		return chaos.AllKinds(), nil
	}
	out := make([]chaos.Kind, 0, len(s.Chaos.Kinds))
	for _, name := range s.Chaos.Kinds {
		k, err := chaos.ParseKind(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

// canonical returns the scenario's content in hash-canonical form: the
// identity fields (Name, Extends) cleared, everything else as-is. JSON
// marshalling of the result is deterministic — structs marshal in field
// order and the only map (descriptor knobs) never appears here.
func (s *Scenario) canonical() Scenario {
	c := *s
	c.Name = ""
	c.Extends = ""
	return c
}

// Hash returns the scenario's canonical content hash: 16 hex characters of
// SHA-256 over the canonical JSON encoding. Two scenarios hash equal exactly
// when every behaviour-determining field matches; Name and Extends are
// provenance and excluded. This is the identity stamped into sweep metrics,
// perf history, and chaos reports.
func (s *Scenario) Hash() string {
	c := s.canonical()
	b, err := json.Marshal(&c)
	if err != nil {
		// Marshal fails only on a non-finite float (run.scale, chaos.rate),
		// which Validate rejects: hash validated scenarios only.
		panic(fmt.Sprintf("scenario: canonical marshal: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// MarshalJSONIndent renders the scenario as a checked-in-friendly document:
// two-space indent, trailing newline. The document names no base preset
// (Extends is provenance, outside the hash): layered over its original base,
// a field the document leaves out, an omitempty zero or a nil section,
// would take the base's value, as a fuzz section set to null, or
// fuzz.candidates set to 0, would over fuzz-smoke. Parse lays it over
// table2, whose optional sections and omitempty fields are all empty, and
// so gives back a scenario with the same Hash.
func (s *Scenario) MarshalJSONIndent() ([]byte, error) {
	c := *s
	c.Extends = ""
	b, err := json.MarshalIndent(&c, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ParseMitigationNames resolves policy names (case-insensitive) in order.
func ParseMitigationNames(names []string) ([]core.Mitigation, error) {
	out := make([]core.Mitigation, 0, len(names))
	for _, name := range names {
		m, err := core.ParseMitigation(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// MitigationNames renders mitigations back to their canonical display names
// (the inverse of ParseMitigationNames, for stamping scenarios built from
// flags).
func MitigationNames(mits []core.Mitigation) []string {
	out := make([]string, len(mits))
	for i, m := range mits {
		out[i] = m.String()
	}
	return out
}

// WorkloadNames lists the specs' names in order.
func WorkloadNames(specs []*workloads.Spec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

func splitCSV(csv string) []string {
	var out []string
	for _, part := range strings.Split(csv, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
