// specasan-bench regenerates the paper's performance figures:
//
//	-fig 6   SPEC CPU2017 normalized execution time (Barriers/STT/GhostMinion/SpecASan)
//	-fig 7   PARSEC (4 cores) normalized execution time
//	-fig 8   restricted speculative instructions (SPEC and PARSEC)
//	-fig 9   SpecCFI vs SpecASan vs SpecASan+CFI on SPEC
//	-fig 1   defence-class timing comparison on a Spectre-v1 gadget
//	-all     everything
//
// Each figure is a preset scenario (figure6 ... figure9) with the typed
// flags applied over it, the same way -scenario runs any other scenario; its
// hash is printed on stderr and stamped into -metrics-out records. Sweeps run
// their cells on a bounded worker pool (-workers, default GOMAXPROCS);
// output is byte-identical to -workers=1. Within one machine the simulated
// cores step serially in core-ID order. -store caches -scenario sweeps only:
// the figures simulate each distinct cell once per run, sharing one
// in-process memo (with -all, every Figure 8 cell and Figure 9's Unsafe and
// SpecASan columns repeat a Figure 6 or 7 cell), and -metrics-out and
// -trace runs simulate every cell. -cpuprofile and -memprofile capture
// stdlib pprof profiles of the run. The simulator's own speed is measured by
// the repository benchmark (bench/), not by this command.
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"specasan/internal/attacks"
	"specasan/internal/core"
	"specasan/internal/cpu"
	"specasan/internal/harness"
	"specasan/internal/obs"
	"specasan/internal/prof"
	"specasan/internal/scenario"
	"specasan/internal/store"
	"specasan/internal/workloads"
)

// figure is one sweep figure: its preset and one table title per suite in
// the preset's workload order (Figure 8 prints SPEC and PARSEC separately).
type figure struct {
	preset     string
	restricted bool // restricted-instruction counts instead of normalized time
	titles     []string
}

var figures = map[int]figure{
	6: {scenario.PresetFigure6, false, []string{"Figure 6: SPEC CPU2017, normalized execution time (unsafe baseline = 1.0)"}},
	7: {scenario.PresetFigure7, false, []string{"Figure 7: PARSEC (4 cores), normalized execution time (unsafe baseline = 1.0)"}},
	8: {scenario.PresetFigure8, true, []string{"Figure 8 (top): SPEC CPU2017, restricted speculative instructions",
		"Figure 8 (bottom): PARSEC, restricted speculative instructions"}},
	9: {scenario.PresetFigure9, false, []string{"Figure 9: SPEC CPU2017, CFI combinations, normalized execution time"}},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// newFlags declares the knob-table flags specasan-bench takes.
func newFlags(stderr io.Writer) *scenario.Flags {
	f := scenario.NewFlags("specasan-bench", scenario.Default(), "scenario", "scale", "workers",
		"skip-idle", "fast-forward", "sample-windows", "sample-window-insts", "warmup-cycles",
		"store", "store-max-bytes", "metrics-out", "trace-out", "cpuprofile", "memprofile", "v")
	f.SetOutput(stderr)
	return f
}

func run(args []string, stdout, stderr io.Writer) int {
	f := newFlags(stderr)
	fig := f.Int("fig", 0, "figure to regenerate (1, 6, 7, 8, 9)")
	all := f.Bool("all", false,
		"regenerate every figure, simulating each distinct cell once (-metrics-out and -trace runs simulate every cell)")
	traceCell := f.String("trace", "", "record a Chrome trace of one sweep cell, named benchmark/mitigation (e.g. 505.mcf_r/SpecASan)")
	f.Parse(args)

	figs := []int{*fig}
	if *all {
		figs = []int{1, 6, 7, 8, 9}
	}
	_, sweepFig := figures[*fig]
	switch {
	case f.Scenario != "" && (*fig != 0 || *all):
		fmt.Fprintln(stderr, "specasan-bench: -scenario is a complete sweep description; combine overrides into the scenario instead of -fig/-all")
		return 1
	case f.Scenario == "" && !*all && *fig != 1 && !sweepFig:
		fmt.Fprintln(stderr, "specasan-bench: pick -fig 1|6|7|8|9 or -all")
		return 2
	}

	if err := bench(f, figs, *traceCell, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "specasan-bench:", err)
		return 1
	}
	return 0
}

// bench runs what the flags ask for: the -scenario sweep or the figures.
func bench(f *scenario.Flags, figs []int, traceCell string, stdout, stderr io.Writer) error {
	out := f.Out
	stopProf, err := prof.Start(out.CPUProfile, out.MemProfile)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, "specasan-bench:", err)
		}
	}()

	var metrics io.Writer
	if out.MetricsOut != "" {
		mf, err := os.Create(out.MetricsOut)
		if err != nil {
			return err
		}
		defer func() {
			if err := mf.Close(); err != nil {
				fmt.Fprintln(stderr, "specasan-bench:", err)
			}
		}()
		metrics = mf
	}
	// The trace hook fires on the first sweep cell matching bench/mitigation.
	// Sweeps run one after another, so with -all a cell appearing in several
	// figures is traced each time and the last run's trace is written.
	var attach func(bench string, mit core.Mitigation, m *cpu.Machine)
	var tr *obs.Tracer
	if traceCell != "" {
		wantBench, wantMit, ok := strings.Cut(traceCell, "/")
		if !ok {
			return fmt.Errorf("-trace wants benchmark/mitigation, got %q", traceCell)
		}
		attach = func(bench string, mit core.Mitigation, m *cpu.Machine) {
			if bench != wantBench || mit.String() != wantMit {
				return
			}
			t := obs.NewTracer(len(m.Cores), 0)
			m.AttachObs(t, nil)
			tr = t
		}
		defer func() {
			if tr == nil {
				fmt.Fprintf(stderr, "specasan-bench: -trace cell %q never ran\n", traceCell)
				return
			}
			if err := obs.WriteChromeTraceFile(out.TraceOut, tr); err != nil {
				fmt.Fprintln(stderr, "specasan-bench:", err)
				return
			}
			fmt.Fprintf(stderr, "specasan-bench: trace of %s: %s (%d events, %d dropped)\n",
				traceCell, out.TraceOut, tr.Recorded(), tr.Dropped())
		}()
	}
	// resolve prints the effective scenario's header and returns it with
	// its workloads and its options, this run's plumbing added.
	resolve := func() (*scenario.Scenario, []*workloads.Spec, harness.Options, error) {
		s, err := f.Resolve()
		if err != nil {
			return nil, nil, harness.Options{}, err
		}
		fmt.Fprintf(stderr, "specasan-bench: scenario %s (hash %s)\n", s.Name, s.Hash())
		specs, err := s.WorkloadSpecs()
		opt := harness.OptionsFromScenario(s)
		opt.Verbose, opt.Log, opt.Metrics, opt.Attach = out.Verbose, stderr, metrics, attach
		return s, specs, opt, err
	}

	if f.Scenario != "" {
		s, specs, opt, err := resolve()
		if err != nil {
			return err
		}
		if out.Store != "" {
			st, err := store.OpenPruned(out.Store, out.StoreMaxBytes, stderr, "specasan-bench")
			if err != nil {
				return err
			}
			opt.Store = harness.DiskCellStore{S: st}
		}
		sw, err := sweep(s, specs, opt, stderr)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, sw.FormatNormalized(fmt.Sprintf(
			"Scenario %s (hash %s): normalized execution time (unsafe baseline = 1.0)",
			s.Name, s.Hash())))
		return nil
	}
	if out.Store != "" {
		// -fig/-all reproduce the paper's pinned figures; serving them from
		// a disk cache would defeat the point.
		fmt.Fprintln(stderr, "specasan-bench: -store only applies to -scenario sweeps; ignored")
	}
	// The figure presets share one result hash, so a cell two figures
	// contain simulates once and logs as cached with -v the second time.
	memo := &harness.MemCellStore{}
	for _, n := range figs {
		if n == 1 {
			if err := figure1(stdout); err != nil {
				return err
			}
			continue
		}
		fg := figures[n]
		f.Scenario = fg.preset
		s, specs, opt, err := resolve()
		if err != nil {
			return err
		}
		opt.Store = memo
		for i, suite := range bySuite(specs) {
			sw, err := sweep(s, suite, opt, stderr)
			if err != nil {
				return err
			}
			if fg.restricted {
				fmt.Fprintln(stdout, sw.FormatRestricted(fg.titles[i]))
			} else {
				fmt.Fprintln(stdout, sw.FormatNormalized(fg.titles[i]))
			}
		}
	}
	return nil
}

// bySuite splits specs into runs of one suite each, in order.
func bySuite(specs []*workloads.Spec) [][]*workloads.Spec {
	var out [][]*workloads.Spec
	for i, sp := range specs {
		if i == 0 || sp.Suite != specs[i-1].Suite {
			out = append(out, nil)
		}
		out[len(out)-1] = append(out[len(out)-1], sp)
	}
	return out
}

// sweep runs specs against the scenario's mitigations and warns on stderr
// about each failed cell (the formatters footnote them too).
func sweep(s *scenario.Scenario, specs []*workloads.Spec, opt harness.Options, stderr io.Writer) (*harness.Sweep, error) {
	mits, err := s.MitigationList()
	if err != nil {
		return nil, err
	}
	sw, err := harness.RunSweep(specs, mits, opt)
	if err != nil {
		return nil, err // every cell failed: nothing to format
	}
	for _, f := range sw.FailedCells() {
		fmt.Fprintln(stderr, "specasan-bench: cell failed:", f)
	}
	return sw, nil
}

// figure1 contrasts the defence classes on the Spectre-v1 gadget: where in
// the ACCESS/USE/TRANSMIT chain each defence stops the attack, and what the
// benign-path timing cost of that choice is.
func figure1(w io.Writer) error {
	fmt.Fprintln(w, "Figure 1: defence classes on the Spectre-v1 gadget")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-13s %-18s %-14s %s\n", "defence", "class", "gadget blocked", "benign v1-shaped loop (cycles)")
	v := attacks.SpectrePHT().Variants[0]
	for _, mit := range []core.Mitigation{core.Unsafe, core.Fence, core.STT, core.GhostMinion, core.SpecASan} {
		out, err := attacks.RunVariant(v, mit)
		if err != nil {
			return err
		}
		cycles, err := benignLoop(mit)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-13s %-18s %-14v %d\n", mit, mit.Descriptor().Class, !out.Leaked, cycles)
	}
	fmt.Fprintln(w)
	return nil
}

// benignLoop measures a benign bounds-checked loop (the victim code of
// Listing 1 with in-bounds indices) under a mitigation: Figure 6's
// 500.perlbench_r cell at scale 0.1.
func benignLoop(mit core.Mitigation) (uint64, error) {
	opt := harness.DefaultOptions()
	opt.Scale = 0.1
	r, err := harness.RunBenchmark(workloads.ByName("500.perlbench_r"), mit, opt)
	if err != nil {
		return 0, err
	}
	return r.Cycles, nil
}
