package chaos

import (
	"bytes"
	"io"

	"specasan/internal/attacks"
	"specasan/internal/core"
	"specasan/internal/cpu"
	"specasan/internal/obs"
	"specasan/internal/par"
	"specasan/internal/workloads"
)

// CampaignCell is one run of the chaos campaign grid: a workload under a
// mitigation with one chaos configuration (kinds + seed). Cells are fully
// independent — each builds its own machine and injector — which is what
// makes the campaign safe to run on a worker pool.
//
// Key, when non-empty, is the cell's store key (derived by the caller, e.g.
// scenario.ChaosCellKey, which folds the kinds and seed into a
// filesystem-safe slug). It only matters when the campaign runs with a
// CampaignStore; a cell without a key always simulates.
type CampaignCell struct {
	Spec *workloads.Spec
	Mit  core.Mitigation
	Cfg  Config
	Key  string
}

// CampaignOptions bundles the campaign-wide knobs of RunCampaignOpts.
type CampaignOptions struct {
	// Scale is the workload scale factor; MaxCycles the per-cell cycle
	// budget; Workers the pool width (0 = GOMAXPROCS).
	Scale     float64
	MaxCycles uint64
	Workers   int
	// Metrics, when set, receives one obs JSONL record per
	// successfully-run cell, buffered cell-locally and flushed in cell
	// order — byte-identical for any worker count. Instrumented campaigns
	// never use the cell cache: a cached report cannot replay the stream.
	Metrics io.Writer
	// ScenarioHash, when non-empty, is stamped into every metrics record.
	ScenarioHash string
	// Store + ResultHash enable the cell cache: completed cells (verdicts
	// included) persist under (ResultHash, cell.Key) and later campaigns
	// reuse them without simulating. Either empty disables caching.
	Store      CampaignStore
	ResultHash string
	// Attach hooks run on every cell's machine after construction.
	Attach []func(*cpu.Machine)
}

// RunCampaignOpts executes every cell with up to opt.Workers running
// concurrently (0 = GOMAXPROCS) and returns one report per cell, in cell
// order. The result is deterministic for any worker count: chaos randomness
// is seeded per cell, and reports are collected positionally. A cell that
// cannot run at all stops the campaign; the first error (in cell order) is
// returned with the reports of the cells before it.
//
// When a cell cache is configured (Store, ResultHash, cell keys) and the
// campaign is not instrumented, each cell first consults the store: a
// verified entry whose embedded identity matches the cell is rehydrated
// instead of simulated, and every cold result — divergent or not — is
// written back. Cached and cold campaigns produce identical reports because
// every cell is deterministic in (workload, mitigation, chaos config, scale,
// budget), all of which are pinned by the result hash and cell key.
func RunCampaignOpts(cells []CampaignCell, opt CampaignOptions) ([]*RunReport, error) {
	cacheable := opt.Store != nil && opt.ResultHash != "" &&
		opt.Metrics == nil && len(opt.Attach) == 0
	reps := make([]*RunReport, len(cells))
	errs := make([]error, len(cells))
	bufs := make([]bytes.Buffer, len(cells))
	var flush func(i int)
	if opt.Metrics != nil {
		flush = func(i int) { io.Copy(opt.Metrics, &bufs[i]) }
	}
	par.ForEachOrdered(len(cells), opt.Workers, func(i int) {
		c := cells[i]
		if cacheable && c.Key != "" {
			if rec, ok := opt.Store.GetCell(opt.ResultHash, c.Key); ok &&
				rec.matches(c.Spec, c.Mit, c.Cfg) {
				reps[i] = rec.report(c.Spec, c.Mit)
				return
			}
		}
		attach := append([]func(*cpu.Machine){}, opt.Attach...)
		var met *obs.Metrics
		if opt.Metrics != nil {
			attach = append(attach, func(m *cpu.Machine) {
				met = obs.NewMetrics(len(m.Cores))
				m.AttachObs(nil, met)
			})
		}
		reps[i], errs[i] = RunWorkload(c.Spec, c.Mit, c.Cfg,
			opt.Scale, opt.MaxCycles, attach...)
		if errs[i] != nil {
			return
		}
		if met != nil {
			rec := met.Record(c.Spec.Name, c.Mit.String(),
				reps[i].Cycles, reps[i].Committed)
			rec.ScenarioHash = opt.ScenarioHash
			errs[i] = obs.WriteMetricsLine(&bufs[i], rec)
		}
		if cacheable && c.Key != "" && errs[i] == nil {
			opt.Store.PutCell(opt.ResultHash, c.Key, CellRecordOf(reps[i]))
		}
	}, flush)
	for i, err := range errs {
		if err != nil {
			return reps[:i], err
		}
	}
	return reps, nil
}

// verdictCell pairs one Table 1 attack with one mitigation for the
// invariance sweep.
type verdictCell struct {
	attack *attacks.Attack
	mit    core.Mitigation
}

// CheckVerdictInvariance evaluates every Table 1 attack under every given
// mitigation twice — clean, then with timing-safe chaos attached — and
// returns the cells whose verdict moved. The timing-safe kinds reorder and
// delay microarchitectural events without changing which transient
// instructions run, so a security verdict that depends on them indicates a
// race in the simulator's mitigation logic. Cells run on a pool of workers
// (0 = GOMAXPROCS, 1 = serial); drifts come back attack-major,
// mitigation-minor, whatever the worker count.
func CheckVerdictInvariance(seed uint64, rate float64,
	mits []core.Mitigation, workers int) ([]VerdictDrift, error) {

	cfg := Config{Seed: seed, Kinds: TimingSafeKinds(), Rate: rate, MaxLatency: 150}
	var cells []verdictCell
	for _, a := range attacks.All() {
		for _, mit := range mits {
			cells = append(cells, verdictCell{attack: a, mit: mit})
		}
	}
	drifts := make([][]VerdictDrift, len(cells))
	errs := make([]error, len(cells))
	par.ForEachOrdered(len(cells), workers, func(i int) {
		a, mit := cells[i].attack, cells[i].mit
		base, _, err := a.Evaluate(mit)
		if err != nil {
			errs[i] = err
			return
		}
		inj, err := New(cfg)
		if err != nil {
			errs[i] = err
			return
		}
		chaotic, _, err := a.EvaluateWith(mit, inj.Attach)
		if err != nil {
			errs[i] = err
			return
		}
		if chaotic != base {
			drifts[i] = []VerdictDrift{{
				Attack: a.Name, Mitigation: mit,
				Baseline: base, Chaotic: chaotic,
			}}
		}
	}, nil)
	var out []VerdictDrift
	for i := range cells {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out = append(out, drifts[i]...)
	}
	return out, nil
}
