package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"specasan/internal/core"
	"specasan/internal/cpu"
	"specasan/internal/golden"
	"specasan/internal/isa"
	"specasan/internal/par"
	"specasan/internal/workloads"
)

// PerfSchema versions the BENCH_sim.json layout. LoadPerfHistory reads
// only this version; a report in any other layout is converted once by hand
// when the schema changes, so the loader never carries upgrade paths.
const PerfSchema = "specasan-bench/perf/v6"

// PerfBaseline pins the pre-optimisation numbers the current build is
// compared against: the linear-scan core and serial sweep harness as of the
// chaos-layer commit, measured with BenchmarkMachineStep on the same recipe
// (508.namd_r, scale 10, no mitigation) as SingleCorePerf. Host-specific,
// like every wall-clock figure in the report.
type PerfBaseline struct {
	Description    string  `json:"description"`
	HostNsPerCycle float64 `json:"host_ns_per_simulated_cycle"`
	SimInstsPerSec float64 `json:"simulated_insts_per_second"`
}

// ReferenceBaseline returns the recorded pre-optimisation measurement.
func ReferenceBaseline() PerfBaseline {
	return PerfBaseline{
		Description:    "linear-scan core + serial harness (pre O(1) rename/wakeup)",
		HostNsPerCycle: 4175,
		SimInstsPerSec: 879_294,
	}
}

// SingleCorePerf is the steady-state Machine.Step measurement: how many host
// nanoseconds one simulated cycle costs, and whether the hot loop allocates.
type SingleCorePerf struct {
	Workload   string `json:"workload"`
	Mitigation string `json:"mitigation"`
	// Steps counts host Machine.Step calls; Cycles counts simulated cycles
	// they covered. With idle-cycle skipping one Step can advance many
	// cycles, so Cycles >= Steps and the per-cycle cost divides by Cycles.
	Steps              uint64  `json:"steps"`
	Cycles             uint64  `json:"cycles_simulated"`
	Committed          uint64  `json:"committed_instructions"`
	HostNsPerCycle     float64 `json:"host_ns_per_simulated_cycle"`
	SimInstsPerSec     float64 `json:"simulated_insts_per_second"`
	SimMIPS            float64 `json:"simulated_mips"`
	AllocsPerStep      float64 `json:"allocs_per_step"`
	AllocsPerCommitted float64 `json:"allocs_per_committed_instr"`
}

// GoldenPerf is the functional-interpreter measurement: how fast the golden
// path (the fast-forward engine of sampled simulation) retires instructions
// on the same recipe as the single-core block.
type GoldenPerf struct {
	Workload string  `json:"workload"`
	Insts    uint64  `json:"insts_simulated"`
	SimMIPS  float64 `json:"simulated_mips"`
}

// SampledSweepPerf is the end-to-end sampled-simulation measurement: the
// same sweep run fully detailed and with windowed fast-forward sampling,
// plus the worst-case IPC disagreement between the two, so the speedup is
// never quoted without its accuracy cost.
type SampledSweepPerf struct {
	Workloads          int     `json:"workloads"`
	Mitigations        int     `json:"mitigations"`
	Cells              int     `json:"cells"`
	Scale              float64 `json:"scale"`
	Windows            int     `json:"sample_windows"`
	WindowInsts        uint64  `json:"sample_window_insts"`
	FullWallSeconds    float64 `json:"full_wall_seconds"`
	SampledWallSeconds float64 `json:"sampled_wall_seconds"`
	Speedup            float64 `json:"speedup_vs_full"`
	MaxIPCDeltaPct     float64 `json:"max_ipc_delta_pct"`
}

// SweepPerf is the harness-level measurement: wall time of one normalized-
// execution-time sweep on the worker pool, against the serial path on the
// same host and inputs.
type SweepPerf struct {
	Workloads         int     `json:"workloads"`
	Mitigations       int     `json:"mitigations"`
	Cells             int     `json:"cells"`
	Scale             float64 `json:"scale"`
	Workers           int     `json:"workers"`
	WallSeconds       float64 `json:"wall_seconds"`
	SerialWallSeconds float64 `json:"serial_wall_seconds"`
	Speedup           float64 `json:"speedup_vs_serial"`
}

// PerfHistoryEntry is one point in the cross-PR perf trajectory: the headline
// numbers of a past `specasan-bench -perf` run, kept when the report is
// regenerated so BENCH_sim.json records progress instead of overwriting it.
type PerfHistoryEntry struct {
	GeneratedAt string `json:"generated_at"`
	Description string `json:"description,omitempty"`
	// ScenarioHash identifies the scenario the sweep leg ran under
	// (internal/scenario canonical hash). Entries recorded before the
	// scenario layer have none; the regression gate treats a hash mismatch
	// (including legacy-empty) as incomparable and skips with a notice.
	ScenarioHash   string  `json:"scenario_hash,omitempty"`
	HostNsPerCycle float64 `json:"host_ns_per_simulated_cycle"`
	SimMIPS        float64 `json:"simulated_mips"`
	SweepSpeedup   float64 `json:"sweep_speedup_vs_serial"`
	SweepWorkers   int     `json:"sweep_workers"`
	GoMaxProcs     int     `json:"gomaxprocs"`
	// GoldenMIPS and SampledSweepSpeedup arrive with the v3 schema; entries
	// recorded before it carry zero and marshal without the fields.
	GoldenMIPS          float64 `json:"golden_mips,omitempty"`
	SampledSweepSpeedup float64 `json:"sampled_sweep_speedup_vs_full,omitempty"`
	// MulticoreCores and MulticoreSpeedup record goroutine-per-core stepping
	// against the serial walk, and ReplayOverhead the ns/inst of fetching
	// from a recorded trace over live decode of the same cell (1.0 = free).
	// Both paths were deleted for not paying; the fields stay so the entries
	// that measured them keep their numbers when the report is regenerated.
	MulticoreCores   int     `json:"multicore_cores,omitempty"`
	MulticoreSpeedup float64 `json:"multicore_speedup_vs_serial,omitempty"`
	ReplayOverhead   float64 `json:"replay_overhead_vs_decode,omitempty"`
}

// PerfReport is the schema of BENCH_sim.json, the tracked performance
// baseline of the simulator substrate.
type PerfReport struct {
	Schema            string           `json:"schema"`
	GeneratedAt       string           `json:"generated_at"`
	ScenarioHash      string           `json:"scenario_hash,omitempty"`
	GoMaxProcs        int              `json:"gomaxprocs"`
	SingleCore        SingleCorePerf   `json:"single_core"`
	Golden            GoldenPerf       `json:"golden"`
	Sweep             SweepPerf        `json:"sweep"`
	SampledSweep      SampledSweepPerf `json:"sampled_sweep"`
	Baseline          PerfBaseline     `json:"baseline"`
	SingleCoreSpeedup float64          `json:"single_core_speedup_vs_baseline"`
	// History holds every measurement ever recorded, oldest first, ending
	// with this report's own headline entry.
	History []PerfHistoryEntry `json:"history"`
}

// HistoryEntry summarises this report as one trajectory point.
func (r *PerfReport) HistoryEntry(description string) PerfHistoryEntry {
	return PerfHistoryEntry{
		GeneratedAt:    r.GeneratedAt,
		Description:    description,
		ScenarioHash:   r.ScenarioHash,
		HostNsPerCycle: r.SingleCore.HostNsPerCycle,
		SimMIPS:        r.SingleCore.SimMIPS,
		SweepSpeedup:   r.Sweep.Speedup,
		SweepWorkers:   r.Sweep.Workers,
		GoMaxProcs:     r.GoMaxProcs,

		GoldenMIPS:          r.Golden.SimMIPS,
		SampledSweepSpeedup: r.SampledSweep.Speedup,
	}
}

// LoadPerfHistory reads an existing BENCH_sim.json and returns its history
// array, nil when the file does not exist, and an error for any schema but
// PerfSchema. Regeneration appends to this so the trajectory survives
// across PRs.
func LoadPerfHistory(path string) ([]PerfHistoryEntry, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var old PerfReport
	if err := json.Unmarshal(b, &old); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if old.Schema != PerfSchema {
		return nil, fmt.Errorf("%s: unsupported perf schema %q (want %q)", path, old.Schema, PerfSchema)
	}
	return old.History, nil
}

// perfWorkload is the fixed single-core measurement recipe; it matches
// internal/cpu's BenchmarkMachineStep so BENCH_sim.json and the microbench
// track the same hot loop.
const (
	perfWorkloadName  = "508.namd_r"
	perfWorkloadScale = 10
)

// Fixed recipe for the sampled-sweep leg: windowed sampling with enough
// windows to exercise the transplant seam repeatedly but a small enough
// detailed fraction that the leg demonstrates the mode's point.
const (
	perfSampleWindows     = 4
	perfSampleWindowInsts = 20_000
	perfGoldenInsts       = 20_000_000
	// The sampled-vs-full comparison runs at the single-core recipe's scale
	// (sampling exists for scale >> 1 workloads; measuring it at scale 1
	// would understate both legs) on a workload subset, because the full
	// detailed leg at this scale costs ~10x the scale-1 sweep per cell.
	perfSampledScale     = 10
	perfSampledWorkloads = 4
)

func perfMachine() (*cpu.Machine, int, error) {
	spec := workloads.ByName(perfWorkloadName)
	if spec == nil {
		return nil, 0, fmt.Errorf("workload %s missing", perfWorkloadName)
	}
	prog, err := spec.Build(false, perfWorkloadScale)
	if err != nil {
		return nil, 0, err
	}
	cfg := core.DefaultConfig()
	cfg.Cores = spec.Threads
	m, err := cpu.NewMachine(cfg, core.Unsafe, prog)
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i < spec.Threads; i++ {
		m.Core(i).SetReg(isa.X0, uint64(i))
	}
	return m, spec.Threads, nil
}

func machineCommitted(m *cpu.Machine, cores int) uint64 {
	var total uint64
	for i := 0; i < cores; i++ {
		total += m.Core(i).Committed()
	}
	return total
}

// MeasureSingleCore runs the fixed recipe for `steps` steady-state steps and
// reports host ns per simulated cycle, simulated instruction throughput, and
// allocation counts (from runtime.MemStats deltas, so the figure includes
// every allocation the step path causes, not just those in internal/cpu).
// warmup is the step count excluded up front — the same knob sampled
// simulation uses for its detailed windows (Options.WarmupCycles; pass
// DefaultWarmupCycles for the historical recipe).
func MeasureSingleCore(steps, warmup uint64) (SingleCorePerf, error) {
	m, cores, err := perfMachine()
	if err != nil {
		return SingleCorePerf{}, err
	}
	for i := uint64(0); i < warmup && !m.Done(); i++ {
		m.Step()
	}
	if m.Done() {
		return SingleCorePerf{}, fmt.Errorf("perf workload halted during warmup")
	}
	committed0 := machineCommitted(m, cores)
	cycles0 := m.Cycle()
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var done uint64
	for ; done < steps && !m.Done(); done++ {
		m.Step()
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)
	committed := machineCommitted(m, cores) - committed0
	cycles := m.Cycle() - cycles0
	if done == 0 || committed == 0 {
		return SingleCorePerf{}, fmt.Errorf("perf workload too small: %d steps, %d commits", done, committed)
	}
	allocs := float64(ms1.Mallocs - ms0.Mallocs)
	perSec := float64(committed) / wall.Seconds()
	return SingleCorePerf{
		Workload:           perfWorkloadName,
		Mitigation:         core.Unsafe.String(),
		Steps:              done,
		Cycles:             cycles,
		Committed:          committed,
		HostNsPerCycle:     float64(wall.Nanoseconds()) / float64(cycles),
		SimInstsPerSec:     perSec,
		SimMIPS:            perSec / 1e6,
		AllocsPerStep:      allocs / float64(done),
		AllocsPerCommitted: allocs / float64(committed),
	}, nil
}

// MeasureGolden measures the functional interpreter's throughput on the
// fixed recipe: fresh full walks (cold basic-block cache each time, the way
// sampling uses it) until at least `insts` instructions have retired.
func MeasureGolden(insts uint64) (GoldenPerf, error) {
	spec := workloads.ByName(perfWorkloadName)
	if spec == nil {
		return GoldenPerf{}, fmt.Errorf("workload %s missing", perfWorkloadName)
	}
	prog, err := spec.Build(false, perfWorkloadScale)
	if err != nil {
		return GoldenPerf{}, err
	}
	// One throwaway walk so the measurement sees a hot host (branch
	// predictors, page cache), matching MeasureSingleCore's warmup intent.
	golden.New(prog).Run(insts)
	var done uint64
	start := time.Now()
	for done < insts {
		res := golden.New(prog).Run(insts)
		if res.Insts == 0 {
			return GoldenPerf{}, fmt.Errorf("golden walk retired nothing (%v)", res.Reason)
		}
		done += res.Insts
	}
	wall := time.Since(start)
	return GoldenPerf{
		Workload: perfWorkloadName,
		Insts:    done,
		SimMIPS:  float64(done) / wall.Seconds() / 1e6,
	}, nil
}

// MeasureSampledSweep times the same sweep fully detailed and under windowed
// fast-forward sampling (opt's sampling knobs, or the fixed recipe when
// unset), and reports the speedup together with the worst per-cell IPC
// disagreement. The cache is disabled for both legs — this measures
// simulation, not the store.
func MeasureSampledSweep(specs []*workloads.Spec, mits []core.Mitigation, opt Options) (SampledSweepPerf, error) {
	opt.Verbose, opt.Log = false, nil
	opt.Store, opt.ResultHash = nil, ""
	if !opt.Sampling() {
		opt.SampleWindows = perfSampleWindows
		opt.SampleWindowInsts = perfSampleWindowInsts
	}

	full := opt
	full.FastForwardInsts, full.SampleWindows, full.SampleWindowInsts = 0, 0, 0
	start := time.Now()
	fs, err := RunSweep(specs, mits, full)
	if err != nil {
		return SampledSweepPerf{}, err
	}
	fullWall := time.Since(start)

	start = time.Now()
	ss, err := RunSweep(specs, mits, opt)
	if err != nil {
		return SampledSweepPerf{}, err
	}
	sampledWall := time.Since(start)

	var maxDelta float64
	for _, b := range fs.Benchmarks {
		for _, m := range fs.Mitigations {
			fr, sr := fs.Results[b][m], ss.Results[b][m]
			if fr == nil || sr == nil || fr.Cycles == 0 || sr.Cycles == 0 {
				continue
			}
			fipc := float64(fr.Committed) / float64(fr.Cycles)
			sipc := float64(sr.Committed) / float64(sr.Cycles)
			if d := (sipc - fipc) / fipc * 100; d > maxDelta {
				maxDelta = d
			} else if -d > maxDelta {
				maxDelta = -d
			}
		}
	}
	sp := SampledSweepPerf{
		Workloads:          len(specs),
		Mitigations:        len(mits),
		Cells:              len(specs) * len(mits),
		Scale:              opt.Scale,
		Windows:            opt.SampleWindows,
		WindowInsts:        opt.SampleWindowInsts,
		FullWallSeconds:    fullWall.Seconds(),
		SampledWallSeconds: sampledWall.Seconds(),
		MaxIPCDeltaPct:     maxDelta,
	}
	if sampledWall > 0 {
		sp.Speedup = fullWall.Seconds() / sampledWall.Seconds()
	}
	return sp, nil
}

// MeasureSweep times one Figure 6-style sweep twice — serial, then on the
// worker pool — and reports both wall times. Logging is disabled for the
// measurement; the determinism tests cover output equivalence separately.
func MeasureSweep(specs []*workloads.Spec, mits []core.Mitigation, opt Options) (SweepPerf, error) {
	opt.Verbose = false
	opt.Log = nil

	serialOpt := opt
	serialOpt.Workers = 1
	start := time.Now()
	if _, err := RunSweep(specs, mits, serialOpt); err != nil {
		return SweepPerf{}, err
	}
	serialWall := time.Since(start)

	start = time.Now()
	if _, err := RunSweep(specs, mits, opt); err != nil {
		return SweepPerf{}, err
	}
	wall := time.Since(start)

	sp := SweepPerf{
		Workloads:         len(specs),
		Mitigations:       len(mits),
		Cells:             len(specs) * len(mits),
		Scale:             opt.Scale,
		Workers:           par.Workers(opt.Workers, len(specs)*len(mits)),
		WallSeconds:       wall.Seconds(),
		SerialWallSeconds: serialWall.Seconds(),
	}
	if wall > 0 {
		sp.Speedup = serialWall.Seconds() / wall.Seconds()
	}
	return sp, nil
}

// MeasurePerf produces the full report: single-core steady state, golden
// interpreter throughput, the serial-vs-parallel sweep comparison and the
// sampled-vs-full sweep comparison. The sweep legs run at opt.Workers (0 =
// GOMAXPROCS, the historical pin; specasan-bench -perf passes -workers) and
// the resolved pool size is recorded in the report. Warmup for the single-core leg comes from opt's WarmupCycles
// knob (DefaultWarmupCycles when unset).
func MeasurePerf(steps uint64, specs []*workloads.Spec, mits []core.Mitigation, opt Options) (*PerfReport, error) {
	single, err := MeasureSingleCore(steps, opt.warmup())
	if err != nil {
		return nil, err
	}
	gold, err := MeasureGolden(perfGoldenInsts)
	if err != nil {
		return nil, err
	}
	sweep, err := MeasureSweep(specs, mits, opt)
	if err != nil {
		return nil, err
	}
	// The sampled comparison is pinned at scale perfSampledScale on the
	// first perfSampledWorkloads specs — the workload regime sampling is
	// for, kept to a subset so the fully-detailed reference leg stays
	// affordable.
	sopt := opt
	sopt.Scale = perfSampledScale
	sspecs := specs
	if len(sspecs) > perfSampledWorkloads {
		sspecs = sspecs[:perfSampledWorkloads]
	}
	sampled, err := MeasureSampledSweep(sspecs, mits, sopt)
	if err != nil {
		return nil, err
	}
	base := ReferenceBaseline()
	rep := &PerfReport{
		Schema:       PerfSchema,
		GeneratedAt:  time.Now().UTC().Format(time.RFC3339),
		ScenarioHash: opt.ScenarioHash,
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		SingleCore:   single,
		Golden:       gold,
		Sweep:        sweep,
		SampledSweep: sampled,
		Baseline:     base,
	}
	if single.HostNsPerCycle > 0 {
		rep.SingleCoreSpeedup = base.HostNsPerCycle / single.HostNsPerCycle
	}
	return rep, nil
}

// AppendHistory loads the trajectory from an existing report at path (if
// any) and sets r.History to it plus r's own entry. Call before WriteJSON
// when regenerating a tracked report.
func (r *PerfReport) AppendHistory(path, description string) error {
	hist, err := LoadPerfHistory(path)
	if err != nil {
		return err
	}
	r.History = append(hist, r.HistoryEntry(description))
	return nil
}

// PerfRegressFactor is the host-ns-per-cycle growth the regression gate
// tolerates between consecutive comparable history entries (matches CI's
// 25% MachineStep smoke threshold).
const PerfRegressFactor = 1.25

// RegressionVsPrevious compares the report's own history entry (the last
// one; call after AppendHistory) against the most recent prior entry. It
// returns a human-readable notice and whether the gate should fail.
//
// The comparison only holds when both entries measured the same scenario:
// when the reference entry carries a different scenario hash — including the
// empty hash of entries recorded before the scenario layer — the gate skips
// with a visible notice instead of comparing incomparable runs.
func (r *PerfReport) RegressionVsPrevious() (notice string, regressed bool) {
	n := len(r.History)
	if n < 2 {
		return "perf gate: no prior history entry; nothing to compare", false
	}
	cur, prev := r.History[n-1], r.History[n-2]
	if prev.ScenarioHash != cur.ScenarioHash {
		return fmt.Sprintf(
			"perf gate: SKIPPED — reference entry (%s) was produced under scenario %q, this run under %q; not comparable",
			prev.GeneratedAt, orUnstamped(prev.ScenarioHash), orUnstamped(cur.ScenarioHash)), false
	}
	if prev.HostNsPerCycle > 0 && cur.HostNsPerCycle > prev.HostNsPerCycle*PerfRegressFactor {
		return fmt.Sprintf(
			"perf gate: REGRESSED — %.0f ns/cycle vs %.0f reference (>%.0f%% growth)",
			cur.HostNsPerCycle, prev.HostNsPerCycle, (PerfRegressFactor-1)*100), true
	}
	return fmt.Sprintf("perf gate: ok — %.0f ns/cycle vs %.0f reference (scenario %s)",
		cur.HostNsPerCycle, prev.HostNsPerCycle, orUnstamped(cur.ScenarioHash)), false
}

func orUnstamped(hash string) string {
	if hash == "" {
		return "unstamped (pre-scenario)"
	}
	return hash
}

// WriteJSON writes the report to path, pretty-printed with a trailing
// newline so it diffs cleanly under version control.
func (r *PerfReport) WriteJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
