// Package harness runs the paper's experiments: the security matrix of
// Table 1 and the performance sweeps behind Figures 6-9, and formats each
// as the table/series the paper reports.
package harness

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"sort"
	"strings"

	"specasan/internal/attacks"
	"specasan/internal/core"
	"specasan/internal/cpu"
	"specasan/internal/isa"
	"specasan/internal/obs"
	"specasan/internal/par"
	"specasan/internal/stats"
	"specasan/internal/workloads"
)

// ErrTimedOut marks a benchmark run that exhausted its cycle budget.
// RunSweep retries these once with an escalated budget; match with
// errors.Is.
var ErrTimedOut = errors.New("cycle budget exhausted")

// Options tunes experiment cost.
type Options struct {
	// Scale multiplies every kernel's iteration count. 1.0 ≈ 100k-200k
	// committed instructions per benchmark; the tests use less.
	Scale float64
	// MaxCycles bounds each run.
	MaxCycles uint64
	// Verbose prints one line per completed run to Log.
	Verbose bool
	Log     io.Writer
	// Workers bounds sweep-cell concurrency: 0 means GOMAXPROCS, 1 forces
	// the serial path. Results and log output are deterministic and
	// byte-identical for every value (cells are independent machines; logs
	// are buffered per cell and flushed in cell order).
	Workers int
	// Metrics, when set, receives one obs JSONL record per successful run
	// (issue-to-commit / tag-check-delay / squash-depth / LFB-stall
	// histograms). Under RunSweep the stream is buffered per cell and
	// flushed in cell order, so it is byte-identical for any Workers value.
	Metrics io.Writer
	// Attach, when set, is called with each cell's machine after
	// construction and before the run — the hook the commands use to attach
	// an event tracer to a chosen cell.
	Attach func(bench string, mit core.Mitigation, m *cpu.Machine)
	// NoSkipIdle disables event-driven idle-cycle skipping (cpu.Machine
	// SkipIdle). Skipping is exactness-preserving, so this only trades
	// speed for a cycle-by-cycle walk — useful for A/B determinism checks.
	NoSkipIdle bool
	// Config, when set, is the machine configuration every run uses (its
	// Cores field is overridden per workload); nil means core.DefaultConfig.
	// Scenario-driven runs set this to the scenario's Machine.
	Config *core.Config
	// ScenarioHash, when set, is stamped into every metrics record this run
	// emits — the canonical content hash of the effective scenario.
	ScenarioHash string
	// Retry tunes the escalated-budget retry of timed-out cells. The zero
	// value reproduces the original policy (one retry at 4x the budget);
	// scenario-driven runs map the retry_budget_factor/max_retries knobs
	// here.
	Retry RetryPolicy
	// Store, when set together with ResultHash, caches successful cell
	// results: RunCell consults it before simulating and writes every cold
	// success back. Instrumented cells (Metrics or Attach set) always
	// simulate, because a cached result cannot replay their event streams.
	Store CellStore
	// ResultHash keys the store: the scenario's result-context hash
	// (scenario.ResultHash). Empty disables the cache even when Store is
	// set — results without a scenario identity are not addressable.
	ResultHash string

	// FastForwardInsts, when > 0, runs the first N instructions of every
	// single-core cell on the functional golden interpreter and places the
	// sampled windows after them (see sample.go). Without SampleWindows the
	// plan is one detailed window from N to the program's end. Multi-threaded
	// cells and programs shorter than N fall back to full detailed runs.
	FastForwardInsts uint64
	// SampleWindows, when > 1, samples that many evenly-spaced detailed
	// windows of SampleWindowInsts instructions each; whole-run cycles are
	// extrapolated from their pooled post-warmup IPC.
	SampleWindows int
	// SampleWindowInsts is the detailed length of each sampled window
	// (required when SampleWindows > 1).
	SampleWindowInsts uint64
	// WarmupCycles is the micro-architectural warmup budget after each state
	// transplant (cold caches, predictors, TSH): detailed cycles whose
	// counters are excluded from IPC estimates. 0 means DefaultWarmupCycles.
	WarmupCycles uint64
}

// Sampling reports whether the options select fast-forward sampled runs.
func (o *Options) Sampling() bool {
	return o.FastForwardInsts > 0 || o.SampleWindows > 1
}

// storeKeyed reports whether RunCell may use o.Store at all: a store and a
// result hash are set, and the run is not instrumented (a cached result
// cannot replay an event stream).
func (o *Options) storeKeyed() bool {
	return o.Store != nil && o.ResultHash != "" && o.Metrics == nil && o.Attach == nil
}

// Cacheable reports whether RunCell looks spec's cells up in o.Store and
// persists them there. Source-override specs never are: their program text
// lives outside the scenario, so (ResultHash, name) does not pin their
// identity.
func (o *Options) Cacheable(spec *workloads.Spec) bool {
	return o.storeKeyed() && spec.Source == ""
}

// DefaultWarmupCycles is the warmup budget used when WarmupCycles is 0 by
// sampled runs after a transplant; MeasureSingleCore's callers pass it for
// the steady-state measurement's warmup.
const DefaultWarmupCycles = 2000

// warmup resolves the zero-value convention.
func (o *Options) warmup() uint64 {
	if o.WarmupCycles > 0 {
		return o.WarmupCycles
	}
	return DefaultWarmupCycles
}

// config resolves the effective machine configuration.
func (o *Options) config() core.Config {
	if o.Config != nil {
		return *o.Config
	}
	return core.DefaultConfig()
}

// RetryPolicy tunes how RunCell retries cells that exhaust their cycle
// budget. The zero value means the defaults below; MaxRetries < 0 disables
// retries entirely (a scenario's max_retries: 0 maps to that).
type RetryPolicy struct {
	// BudgetFactor scales MaxCycles on each retry (0 = DefaultRetryBudgetFactor).
	BudgetFactor uint64
	// MaxRetries bounds the escalated retries (0 = DefaultMaxRetries, <0 = none).
	MaxRetries int
}

// The original hardcoded sweep-retry policy, now just the defaults.
const (
	DefaultRetryBudgetFactor = 4
	DefaultMaxRetries        = 1
)

// normalized resolves the zero-value conventions.
func (p RetryPolicy) normalized() (factor uint64, retries int) {
	factor, retries = p.BudgetFactor, p.MaxRetries
	if factor == 0 {
		factor = DefaultRetryBudgetFactor
	}
	switch {
	case retries == 0:
		retries = DefaultMaxRetries
	case retries < 0:
		retries = 0
	}
	return factor, retries
}

// DefaultOptions are suitable for the command-line tools.
func DefaultOptions() Options {
	return Options{Scale: 1.0, MaxCycles: 200_000_000}
}

func (o *Options) logf(format string, args ...interface{}) {
	if o.Verbose && o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// PerfResult is one benchmark under one mitigation.
type PerfResult struct {
	Benchmark  string
	Mitigation core.Mitigation
	Cycles     uint64
	Committed  uint64
	Restricted uint64 // committed instructions the mitigation delayed
	Output     string // core 0's console output, if the kernel printed
	Stats      *stats.Set
	// Sampled, when non-nil, marks a fast-forward sampled run: Cycles (and
	// Restricted) are extrapolated from the detailed regions it describes;
	// Committed and Output are exact.
	Sampled *obs.SampledRegions
}

// RunBenchmark executes one kernel under one mitigation and returns its
// timing. MTE-based mitigations run the tagged build. With sampling options
// set (Options.Sampling) single-core cells run in fast-forward sampled mode;
// multi-threaded cells and programs too short to sample fall back to the
// full detailed run below.
func RunBenchmark(spec *workloads.Spec, mit core.Mitigation, opt Options) (*PerfResult, error) {
	prog, err := spec.Build(mit.MTEEnabled(), opt.Scale)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	if opt.Sampling() {
		if spec.Threads == 1 {
			r, err := runSampled(spec, mit, opt, prog)
			if !errors.Is(err, errSampleTooShort) {
				return r, err
			}
			opt.logf("  %-18s %-12s too short to sample; full detailed run", spec.Name, mit)
		} else {
			opt.logf("  %-18s %-12s sampling skipped (%d threads); full detailed run",
				spec.Name, mit, spec.Threads)
		}
	}
	cfg := opt.config()
	cfg.Cores = spec.Threads
	m, err := cpu.NewMachine(cfg, mit, prog)
	if err != nil {
		return nil, err
	}
	for i := 0; i < spec.Threads; i++ {
		m.Core(i).SetReg(isa.X0, uint64(i))
	}
	met := opt.newMetrics(cfg.Cores)
	opt.instrument(spec, mit, m, met)
	res := m.Run(opt.MaxCycles)
	if err := runErr(spec, mit, m, res, true); err != nil {
		return nil, err
	}
	restricted := res.Stats.Get("restricted_commits")
	opt.logf("  %-18s %-12s cycles=%-10d ipc=%.2f restricted=%d",
		spec.Name, mit, res.Cycles, res.IPC(), restricted)
	if err := opt.emitMetrics(spec, mit, met, res.Cycles, res.Committed, nil); err != nil {
		return nil, err
	}
	return &PerfResult{
		Benchmark:  spec.Name,
		Mitigation: mit,
		Cycles:     res.Cycles,
		Committed:  res.Committed,
		Restricted: restricted,
		Output:     string(m.Core(0).Output),
		Stats:      res.Stats,
	}, nil
}

// newMetrics returns a metrics collector for a machine of cores cores when
// the run emits a metrics stream, nil otherwise.
func (o *Options) newMetrics(cores int) *obs.Metrics {
	if o.Metrics == nil {
		return nil
	}
	return obs.NewMetrics(cores)
}

// instrument applies the run options to a freshly built machine before it
// runs: idle skipping, the metrics collector (when met is non-nil) and the
// Attach hook.
func (o *Options) instrument(spec *workloads.Spec, mit core.Mitigation, m *cpu.Machine, met *obs.Metrics) {
	m.SkipIdle = !o.NoSkipIdle
	if met != nil {
		m.AttachObs(nil, met)
	}
	if o.Attach != nil {
		o.Attach(spec.Name, mit, m)
	}
}

// runErr converts a detailed run's result into the cell's error, checked in
// order: a watchdog verdict, a timeout on a final leg, a fault. A leg that is
// not final (a sampled window's warmup) is meant to run out its cycle slice.
func runErr(spec *workloads.Spec, mit core.Mitigation, m *cpu.Machine, res *cpu.RunResult, final bool) error {
	if res.Err != nil {
		// Watchdog verdict: a wedged pipeline or broken invariant. Not
		// retryable — surface the structured error with its snapshot.
		return fmt.Errorf("%s under %v: %w", spec.Name, mit, res.Err)
	}
	if final && res.TimedOut {
		return fmt.Errorf("%s under %v: %w after %d cycles (cores %v still running)",
			spec.Name, mit, ErrTimedOut, res.Cycles, res.TimedOutCores())
	}
	if res.Faulted {
		return fmt.Errorf("%s under %v faulted at %#x (core %d)",
			spec.Name, mit, m.Core(res.FaultCore).FaultPC, res.FaultCore)
	}
	return nil
}

// emitMetrics writes the cell's metrics record when met collects one.
// sampled annotates a sampled run's functional/detailed split; it is nil for
// a full run.
func (o *Options) emitMetrics(spec *workloads.Spec, mit core.Mitigation, met *obs.Metrics,
	cycles, committed uint64, sampled *obs.SampledRegions) error {
	if met == nil {
		return nil
	}
	rec := met.Record(spec.Name, mit.String(), cycles, committed)
	rec.ScenarioHash = o.ScenarioHash
	rec.Sampled = sampled
	if err := obs.WriteMetricsLine(o.Metrics, rec); err != nil {
		return fmt.Errorf("%s under %v: writing metrics: %w", spec.Name, mit, err)
	}
	return nil
}

// Sweep holds the results of one figure's parameter sweep, organised as
// benchmark x mitigation. Cells that failed to run are absent from Results
// and recorded in Errors instead; the formatters render them as "failed" and
// the aggregates skip them.
type Sweep struct {
	Benchmarks  []string
	Mitigations []core.Mitigation
	Results     map[string]map[core.Mitigation]*PerfResult
	Errors      map[string]map[core.Mitigation]error
}

// Err returns the recorded failure for (bench, mit), nil if the cell ran.
func (s *Sweep) Err(bench string, mit core.Mitigation) error {
	return s.Errors[bench][mit]
}

// FailedCells lists every failed cell as "bench/mitigation: error", in table
// order.
func (s *Sweep) FailedCells() []string {
	var out []string
	for _, b := range s.Benchmarks {
		for _, m := range s.Mitigations {
			if err := s.Errors[b][m]; err != nil {
				out = append(out, fmt.Sprintf("%s/%v: %v", b, m, err))
			}
		}
	}
	return out
}

// RunCell executes one (benchmark, mitigation) cell — the store-aware,
// retrying, panic-recovering seam that RunSweep and the serve daemon share.
// cached reports whether the result was served from opt.Store instead of
// simulated. All log output goes through opt, so a caller can hand it a
// cell-local buffer and replay it deterministically.
//
// Behaviour, in order:
//   - If the cell is cacheable (Store and ResultHash set, no Metrics/Attach
//     instrumentation) and the store holds a verified entry for
//     (ResultHash, bench, mitigation), that result is returned without
//     simulating. Corrupt entries have been quarantined by the store and
//     read as misses, so a damaged cache can cost a re-simulation but never
//     a wrong answer.
//   - Otherwise the cell simulates, with up to Retry.MaxRetries
//     escalated-budget retries for timeouts (budget scaled by
//     Retry.BudgetFactor each attempt, saturating instead of overflowing).
//   - A panic anywhere in the simulation is converted to a cell error with
//     the stack attached, so one diseased cell costs a table entry, not the
//     sweep or the serving process.
//   - A cold success is written back to the store; write failures (e.g. a
//     store in read-only mode) are deliberately non-fatal.
func RunCell(spec *workloads.Spec, mit core.Mitigation, opt Options) (r *PerfResult, cached bool, err error) {
	cacheable := opt.Cacheable(spec)
	if cacheable {
		if cr, ok := opt.Store.GetCell(opt.ResultHash, spec.Name, mit.String()); ok {
			if r, err := cr.PerfResult(); err == nil {
				opt.logf("  %-18s %-12s cached cycles=%-10d ipc=%.2f restricted=%d",
					spec.Name, mit, r.Cycles,
					float64(r.Committed)/float64(max(r.Cycles, 1)), r.Restricted)
				return r, true, nil
			}
			// An entry that decodes but cannot be rehydrated (e.g. a policy
			// name this process has not registered) is as good as a miss.
		}
	}
	factor, retries := opt.Retry.normalized()
	r, err = runBenchmarkRecover(spec, mit, opt)
	budget := opt.MaxCycles
	for attempt := 0; attempt < retries && errors.Is(err, ErrTimedOut); attempt++ {
		if budget > ^uint64(0)/factor {
			break // budget would overflow; the cell is a true hang
		}
		budget *= factor
		retry := opt
		retry.MaxCycles = budget
		opt.logf("  %-18s %-12s timed out; retrying with %d-cycle budget",
			spec.Name, mit, budget)
		r, err = runBenchmarkRecover(spec, mit, retry)
	}
	if err != nil {
		opt.logf("  %-18s %-12s FAILED: %v", spec.Name, mit, err)
		return nil, false, err
	}
	if cacheable {
		opt.Store.PutCell(opt.ResultHash, CellResultOf(r))
	} else if opt.storeKeyed() {
		// A source override: say so instead of passing silently.
		opt.logf("  %-18s %-12s uncached: source override", spec.Name, mit)
	}
	return r, false, nil
}

// runBenchmarkRecover is RunBenchmark with panics converted to errors: the
// fault-isolation boundary of every cell execution.
func runBenchmarkRecover(spec *workloads.Spec, mit core.Mitigation, opt Options) (r *PerfResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			r = nil
			err = fmt.Errorf("%s under %v: panic: %v\n%s", spec.Name, mit, p, debug.Stack())
		}
	}()
	return RunBenchmark(spec, mit, opt)
}

// RunSweep executes every benchmark under every mitigation, running up to
// opt.Workers cells concurrently (each cell is an independent simulated
// machine). It degrades gracefully: a cell that fails is recorded in
// Sweep.Errors and the sweep continues, so one wedged benchmark costs one
// table cell, not the whole figure. Timed-out cells are retried with
// escalated MaxCycles budgets under opt.Retry — by default once at 4x, so
// slow-but-finite runs recover and true hangs fail twice. The returned error
// is non-nil only when every cell failed.
//
// Determinism contract: results, errors, and every byte written to opt.Log
// and opt.Metrics are identical for any worker count. Per-cell log and
// metrics output is captured in cell-local buffers and flushed in cell order
// (benchmark-major, mitigation-minor) as the completed prefix grows.
// opt.Attach, when set, may be called from several workers at once; the
// commands' attach hooks only touch the one machine they match.
func RunSweep(specs []*workloads.Spec, mits []core.Mitigation, opt Options) (*Sweep, error) {
	sw := &Sweep{
		Mitigations: mits,
		Results:     make(map[string]map[core.Mitigation]*PerfResult),
		Errors:      make(map[string]map[core.Mitigation]error),
	}
	for _, spec := range specs {
		sw.Benchmarks = append(sw.Benchmarks, spec.Name)
		sw.Results[spec.Name] = make(map[core.Mitigation]*PerfResult)
		sw.Errors[spec.Name] = make(map[core.Mitigation]error)
	}
	type cell struct {
		spec *workloads.Spec
		mit  core.Mitigation
		res  *PerfResult
		err  error
		log  bytes.Buffer
		met  bytes.Buffer
	}
	cells := make([]cell, 0, len(specs)*len(mits))
	for _, spec := range specs {
		for _, mit := range mits {
			cells = append(cells, cell{spec: spec, mit: mit})
		}
	}
	ran := 0
	par.ForEachOrdered(len(cells), opt.Workers,
		func(i int) {
			c := &cells[i]
			cellOpt := opt
			cellOpt.Log = &c.log
			if opt.Metrics != nil {
				cellOpt.Metrics = &c.met
			}
			c.res, _, c.err = RunCell(c.spec, c.mit, cellOpt)
		},
		func(i int) {
			c := &cells[i]
			if opt.Log != nil {
				io.Copy(opt.Log, &c.log)
			}
			if opt.Metrics != nil {
				io.Copy(opt.Metrics, &c.met)
			}
			if c.err != nil {
				sw.Errors[c.spec.Name][c.mit] = c.err
				return
			}
			ran++
			sw.Results[c.spec.Name][c.mit] = c.res
		})
	if ran == 0 && len(specs) > 0 && len(mits) > 0 {
		return sw, fmt.Errorf("sweep: all %d cells failed (first: %v)",
			len(specs)*len(mits), sw.Errors[specs[0].Name][mits[0]])
	}
	return sw, nil
}

// Normalized returns execution time of (bench, mit) relative to the Unsafe
// baseline run in the same sweep.
func (s *Sweep) Normalized(bench string, mit core.Mitigation) float64 {
	base := s.Results[bench][core.Unsafe]
	r := s.Results[bench][mit]
	if base == nil || r == nil || base.Cycles == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(base.Cycles)
}

// RestrictedPct returns the percentage of committed instructions the
// mitigation restricted for (bench, mit).
func (s *Sweep) RestrictedPct(bench string, mit core.Mitigation) float64 {
	r := s.Results[bench][mit]
	if r == nil || r.Committed == 0 {
		return 0
	}
	return 100 * float64(r.Restricted) / float64(r.Committed)
}

// GeomeanNormalized returns the geometric-mean normalized execution time of
// a mitigation across the sweep's successfully-run benchmarks (failed cells
// — either the mitigation's run or its Unsafe baseline — are excluded).
func (s *Sweep) GeomeanNormalized(mit core.Mitigation) float64 {
	var xs []float64
	for _, b := range s.Benchmarks {
		if x := s.Normalized(b, mit); x > 0 {
			xs = append(xs, x)
		}
	}
	return stats.Geomean(xs)
}

// MeanRestrictedPct returns the average restricted-instruction percentage of
// a mitigation across the sweep's successfully-run benchmarks.
func (s *Sweep) MeanRestrictedPct(mit core.Mitigation) float64 {
	var xs []float64
	for _, b := range s.Benchmarks {
		if s.Results[b][mit] == nil {
			continue
		}
		xs = append(xs, s.RestrictedPct(b, mit))
	}
	return stats.Mean(xs)
}

// FormatNormalized renders the sweep as the paper's normalized-execution-
// time table (Figures 6, 7, 9): one row per benchmark, one column per
// mitigation, plus the geomean row.
func (s *Sweep) FormatNormalized(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-18s", "benchmark")
	for _, m := range s.Mitigations {
		if m == core.Unsafe {
			continue
		}
		fmt.Fprintf(&b, " %12s", m)
	}
	b.WriteByte('\n')
	for _, bench := range s.Benchmarks {
		fmt.Fprintf(&b, "%-18s", bench)
		for _, m := range s.Mitigations {
			if m == core.Unsafe {
				continue
			}
			if s.Results[bench][m] == nil || s.Results[bench][core.Unsafe] == nil {
				fmt.Fprintf(&b, " %12s", "failed")
				continue
			}
			fmt.Fprintf(&b, " %12.3f", s.Normalized(bench, m))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-18s", "geomean")
	for _, m := range s.Mitigations {
		if m == core.Unsafe {
			continue
		}
		fmt.Fprintf(&b, " %12.3f", s.GeomeanNormalized(m))
	}
	b.WriteByte('\n')
	s.appendFailures(&b)
	return b.String()
}

// appendFailures footnotes the failed cells under a formatted table.
func (s *Sweep) appendFailures(b *strings.Builder) {
	fails := s.FailedCells()
	if len(fails) == 0 {
		return
	}
	fmt.Fprintf(b, "failed cells (excluded from aggregates):\n")
	for _, f := range fails {
		fmt.Fprintf(b, "  %s\n", f)
	}
}

// FormatRestricted renders the Figure 8 restricted-instruction table.
func (s *Sweep) FormatRestricted(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-18s", "benchmark")
	for _, m := range s.Mitigations {
		if m == core.Unsafe {
			continue
		}
		fmt.Fprintf(&b, " %12s", m)
	}
	b.WriteByte('\n')
	for _, bench := range s.Benchmarks {
		fmt.Fprintf(&b, "%-18s", bench)
		for _, m := range s.Mitigations {
			if m == core.Unsafe {
				continue
			}
			if s.Results[bench][m] == nil {
				fmt.Fprintf(&b, " %12s", "failed")
				continue
			}
			fmt.Fprintf(&b, " %11.2f%%", s.RestrictedPct(bench, m))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-18s", "average")
	for _, m := range s.Mitigations {
		if m == core.Unsafe {
			continue
		}
		fmt.Fprintf(&b, " %11.2f%%", s.MeanRestrictedPct(m))
	}
	b.WriteByte('\n')
	s.appendFailures(&b)
	return b.String()
}

// SecurityMatrix runs the Table 1 evaluation and formats it.
func SecurityMatrix(w io.Writer) error {
	mits := attacks.TableMitigations()
	fmt.Fprintf(w, "Table 1: mitigation matrix (empirical; ● full  ◐ partial  ○ none)\n\n")
	fmt.Fprintf(w, "%-8s %-22s", "Class", "Attack Variant")
	for _, m := range mits {
		fmt.Fprintf(w, " %12s", m)
	}
	fmt.Fprintln(w)
	for _, a := range attacks.All() {
		fmt.Fprintf(w, "%-8s %-22s", a.Class, a.Name)
		for _, m := range mits {
			verdict, _, err := a.Evaluate(m)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %12s", verdict)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// FormatStats renders a run's counter set sorted by key (diagnostics).
func FormatStats(s *stats.Set) string {
	keys := s.Keys()
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%-28s %d\n", k, s.Get(k))
	}
	return b.String()
}
