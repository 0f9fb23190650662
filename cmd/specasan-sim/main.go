// specasan-sim runs one benchmark kernel (or an assembly file) on the
// simulated machine under a chosen mitigation and prints pipeline statistics.
//
// Usage:
//
//	specasan-sim -bench 505.mcf_r -mitigation SpecASan -scale 0.5
//	specasan-sim -file prog.s -mitigation Unsafe
//	specasan-sim -scenario examples/scenarios/dom-vs-specasan.json
//	specasan-sim -config          # print the Table 2 configuration
//
// -scenario loads a preset name or scenario file as the base configuration
// (machine, mitigation, workload, run options); typed flags override
// individual fields. Without it the base is table2 under Unsafe with a
// 500M-cycle budget. A scenario with several workloads or mitigations runs
// the first of each (sim is a single-run tool; sweeps are specasan-bench's
// job). The effective scenario's canonical hash is printed on stderr and
// stamped into -metrics-out records.
package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"specasan/internal/core"
	"specasan/internal/cpu"
	"specasan/internal/harness"
	"specasan/internal/isa"
	"specasan/internal/obs"
	"specasan/internal/prof"
	"specasan/internal/scenario"
	"specasan/internal/stats"
	"specasan/internal/store"
	"specasan/internal/workloads"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// base is the scenario specasan-sim runs without -scenario: table2 under
// the Unsafe baseline with a 500M-cycle budget.
func base() *scenario.Scenario {
	s := scenario.Default()
	s.Mitigations = []string{core.Unsafe.String()}
	s.Run.MaxCycles = 500_000_000
	return s
}

func run(args []string, stdout, stderr io.Writer) int {
	f := scenario.NewFlags("specasan-sim", base(), "scenario", "bench", "file", "mitigation",
		"scale", "max-cycles", "skip-idle", "fast-forward", "sample-windows", "sample-window-insts",
		"warmup-cycles", "store", "store-max-bytes", "metrics-out", "trace-out", "cpuprofile", "memprofile")
	f.SetOutput(stderr)
	listMits := f.Bool("mitigations", false, "list the registered mitigation policies and exit")
	showConfig := f.Bool("config", false, "print the simulated CPU configuration (Table 2) and exit")
	trace := f.Bool("trace", false, "record a cycle-accurate event trace and write it as Chrome trace-event JSON")
	traceText := f.Bool("trace-text", false, "print the event trace to stdout, one line per event")
	pipeview := f.Int("pipeview", 0, "render a timeline of core 0's last N dispatched instructions from the event trace")
	f.Parse(args)

	if *showConfig {
		printConfig(stdout)
		return 0
	}
	if *listMits {
		for _, m := range core.RegisteredMitigations() {
			d := m.Descriptor()
			fmt.Fprintf(stdout, "%-14s %s\n", d.Name, d.Class)
		}
		return 0
	}
	if err := sim(f, stdout, stderr, *trace, *traceText, *pipeview); err != nil {
		fmt.Fprintln(stderr, "specasan-sim:", err)
		return 1
	}
	return 0
}

// sim resolves the scenario and runs its first workload under its first
// mitigation.
func sim(f *scenario.Flags, stdout, stderr io.Writer, trace, traceText bool, pipeview int) (err error) {
	if f.Scenario == "" && f.Lookup("bench").Value.String() == "" && f.Lookup("file").Value.String() == "" {
		return errors.New("need -bench, -file, or -scenario (or -config)")
	}
	s, err := f.Resolve()
	if err != nil {
		return err
	}
	hash := s.Hash()
	fmt.Fprintf(stderr, "specasan-sim: scenario %s (hash %s)\n", s.Name, hash)

	mits, err := s.MitigationList()
	if err != nil {
		return err
	}
	mit := mits[0]
	spec, err := workloadSpec(s.Workloads[0])
	if err != nil {
		return err
	}
	out := f.Out

	// The result store serves plain named-kernel runs. File workloads are
	// not content-addressed (the scenario hash does not cover the file's
	// bytes), and instrumented runs must actually simulate — both run
	// uncached.
	stored := false
	if out.Store != "" {
		instrumented := trace || traceText || pipeview > 0 || out.MetricsOut != ""
		if instrumented || strings.HasPrefix(s.Workloads[0], scenario.FileWorkloadPrefix) {
			fmt.Fprintln(stderr, "specasan-sim: -store ignored (file workloads and instrumented runs always simulate, uncached)")
		} else {
			stored = true
		}
	}
	// Cycle-exact instrumentation of a sampled run is incompatible by
	// definition: most cycles are never simulated.
	if s.Run.Sampling() && (trace || traceText || pipeview > 0) {
		return errors.New("-trace/-trace-text/-pipeview need a fully detailed run; drop -fast-forward/-sample-windows")
	}

	stopProf, err := prof.Start(out.CPUProfile, out.MemProfile)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, "specasan-sim:", err)
		}
	}()
	var metrics *os.File
	if out.MetricsOut != "" {
		if metrics, err = os.Create(out.MetricsOut); err != nil {
			return err
		}
		defer func() {
			if cerr := metrics.Close(); err == nil {
				err = cerr
			}
		}()
	}

	// Sampling changes what "cycles" means (a detailed-window extrapolation)
	// and the store answers with stored results, so both route through the
	// harness instead of the plain machine loop.
	if s.Run.Sampling() || stored {
		return runCell(s, spec, mit, out, stored, metrics, stdout, stderr)
	}

	prog, err := spec.Build(mit.MTEEnabled(), s.Run.Scale)
	if err != nil {
		return err
	}
	threads := spec.Threads
	cfg := s.Machine
	cfg.Cores = threads
	m, err := cpu.NewMachine(cfg, mit, prog)
	if err != nil {
		return err
	}
	for i := 0; i < threads; i++ {
		m.Core(i).SetReg(isa.X0, uint64(i))
	}
	m.SkipIdle = s.Run.SkipIdle
	// One event ring feeds every view: the Chrome trace, the text trace and
	// the pipeline timeline.
	var tr *obs.Tracer
	if trace || traceText || pipeview > 0 {
		tr = obs.NewTracer(threads, 0)
	}
	var met *obs.Metrics
	if metrics != nil {
		met = obs.NewMetrics(threads)
	}
	if tr != nil || met != nil {
		m.AttachObs(tr, met)
	}
	res := m.Run(s.Run.MaxCycles)
	disasm := func(pc uint64) string { return prog.InstAt(pc).String() } // events carry code PCs
	if traceText {
		if err := obs.WriteText(stdout, tr, disasm); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace-text   %d events, %d dropped\n", tr.Recorded(), tr.Dropped())
	}
	if trace {
		if err := obs.WriteChromeTraceFile(out.TraceOut, tr); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace        %s (%d events, %d dropped)\n", out.TraceOut, tr.Recorded(), tr.Dropped())
	}
	if met != nil {
		rec := met.Record(spec.Name, mit.String(), res.Cycles, res.Committed)
		rec.ScenarioHash = hash
		if err := obs.WriteMetricsLine(metrics, rec); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "metrics      %s\n", metrics.Name())
	}
	status := []string{fmt.Sprintf("timed-out    %v", res.TimedOut)}
	if cores := res.TimedOutCores(); len(cores) > 0 {
		status = append(status, fmt.Sprintf("stuck-cores  %v", cores))
	}
	status = append(status, fmt.Sprintf("faulted      %v", res.Faulted))
	printResult(stdout, mit, res.Cycles, res.Committed, status, string(m.Core(0).Output), nil, res.Stats)
	if res.Err != nil {
		return fmt.Errorf("%v\npipeline snapshot:\n%s", res.Err, res.Err.Snapshot)
	}
	if pipeview > 0 {
		fmt.Fprint(stdout, obs.Pipeview(tr.Core(0), pipeview, disasm))
	}
	return nil
}

// workloadSpec resolves a scenario workload: a named kernel, or an assembly
// file run verbatim on one core.
func workloadSpec(workload string) (*workloads.Spec, error) {
	if path, isFile := strings.CutPrefix(workload, scenario.FileWorkloadPrefix); isFile {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return &workloads.Spec{Name: path, Threads: 1, Source: string(src)}, nil
	}
	if spec := workloads.ByName(workload); spec != nil {
		return spec, nil
	}
	return nil, fmt.Errorf("unknown benchmark %q (see internal/workloads)", workload)
}

// runCell runs one cell through harness.RunCell. With stored set, a
// verified store entry for (result hash, bench, mitigation) answers without
// simulating and a cold run persists its result; the printed block is the
// same either way (FormatStats sorts counters). A sampled run's committed
// count and output are exact and its cycles an IPC-extrapolated estimate,
// which its status line says.
func runCell(s *scenario.Scenario, spec *workloads.Spec, mit core.Mitigation, out scenario.Output,
	stored bool, metrics *os.File, stdout, stderr io.Writer) error {
	opt := harness.OptionsFromScenario(s)
	if stored {
		st, err := store.OpenPruned(out.Store, out.StoreMaxBytes, stderr, "specasan-sim")
		if err != nil {
			return err
		}
		opt.Store = harness.DiskCellStore{S: st}
	}
	if metrics != nil {
		opt.Metrics = metrics
	}
	r, cached, err := harness.RunCell(spec, mit, opt)
	if err != nil {
		return err
	}
	if metrics != nil {
		fmt.Fprintf(stdout, "metrics      %s\n", metrics.Name())
	}
	status := []string{"timed-out    false", "faulted      false"}
	if s.Run.Sampling() {
		status = []string{"sampled      no (run too short or multi-threaded; fully detailed)"}
		if sp := r.Sampled; sp != nil {
			status[0] = fmt.Sprintf("sampled      %d window(s): %d insts functional, %d detailed; cycles are an estimate",
				sp.Windows, sp.FunctionalInsts, sp.DetailedInsts)
		}
	}
	var tail []string
	if stored {
		tail = []string{fmt.Sprintf("cached       %v", cached)}
	}
	printResult(stdout, mit, r.Cycles, r.Committed, status, r.Output, tail, r.Stats)
	return nil
}

// printResult prints a run's result block, the same on every path: the
// headline numbers, the path's status lines, the console output, any tail
// lines, then the counters.
func printResult(w io.Writer, mit core.Mitigation, cycles, committed uint64,
	status []string, output string, tail []string, counters *stats.Set) {
	ipc := 0.0
	if cycles > 0 {
		ipc = float64(committed) / float64(cycles)
	}
	fmt.Fprintf(w, "mitigation   %s\ncycles       %d\ncommitted    %d\nipc          %.3f\n", mit, cycles, committed, ipc)
	for _, line := range status {
		fmt.Fprintln(w, line)
	}
	if output != "" {
		fmt.Fprintf(w, "output       %q\n", output)
	}
	for _, line := range tail {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintln(w, "\ncounters:")
	fmt.Fprint(w, harness.FormatStats(counters))
}

func printConfig(w io.Writer) {
	c := core.DefaultConfig()
	fmt.Fprintln(w, "Table 2: configuration of the simulated CPU")
	fmt.Fprintf(w, "  CPU                 ARM Cortex A76-class out-of-order core\n")
	fmt.Fprintf(w, "  Issue/Commit        %d-way issue, %d micro-ops/cycle commit\n", c.IssueWidth, c.CommitWidth)
	fmt.Fprintf(w, "  IQ/ROB              %d-entry Issue Queue, %d-entry Reorder Buffer\n", c.IQEntries, c.ROBEntries)
	fmt.Fprintf(w, "  LDQ/STQ             %d-entry each\n", c.LQEntries)
	fmt.Fprintf(w, "  L1 I-Cache          %d KB, %d-way, 64B line, %d cycle hit\n", c.L1ISizeKB, c.L1IWays, c.L1ILatency)
	fmt.Fprintf(w, "  L1 D-Cache          %d KB, %d-way, 64B line, %d cycle hit, tagged\n", c.L1DSizeKB, c.L1DWays, c.L1DLatency)
	fmt.Fprintf(w, "  L2 Cache            %d KB, %d-way, 64B line, %d cycle hit, tagged\n", c.L2SizeKB, c.L2Ways, c.L2Latency)
	fmt.Fprintf(w, "  Line Fill Buffer    %d-entry (cache line), 2 cycle hit, tagged\n", c.LFBEntries)
	fmt.Fprintf(w, "  DRAM                %d cycle latency, %d-cycle bursts (+%d tag)\n", c.DRAMLatency, c.DRAMBurst, c.TagBurst)
}
