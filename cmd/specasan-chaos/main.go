// specasan-chaos runs the fault-injection campaign: a grid of chaos-
// perturbed workload runs, each checked bit-for-bit against the golden
// interpreter's architectural state, followed by a Table 1 verdict-
// invariance sweep under timing-safe chaos.
//
// The default campaign is 8 seeds x 6 fault kinds (each alone, plus one
// all-kinds-combined column) x 3 workloads under two mitigations, then the
// full 11-attack x 5-mitigation verdict matrix under 2 chaos seeds. Exit
// status 1 means a divergence — a reproducible one: rerun with the printed
// seed. The campaign is the chaos-smoke preset, or the -scenario given,
// with the typed flags applied over it.
//
// Grid cells are independent (each run owns its machine and injector), so
// the campaign runs on a bounded worker pool (-workers, default GOMAXPROCS);
// output and exit status are byte-identical to -workers=1.
package main

import (
	"fmt"
	"io"
	"os"

	"specasan/internal/attacks"
	"specasan/internal/chaos"
	"specasan/internal/cpu"
	"specasan/internal/obs"
	"specasan/internal/scenario"
	"specasan/internal/store"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	smoke, _ := scenario.Preset(scenario.PresetChaosSmoke)
	f := scenario.NewFlags("specasan-chaos", smoke, "scenario", "seeds", "seed0", "kinds",
		"workloads", "mits", "rate", "maxlat", "scale", "max-cycles", "verdict-seeds", "workers",
		"trace-out", "metrics-out", "store", "store-max-bytes", "v")
	f.SetOutput(stderr)
	traceIdx := f.Int("trace", -1, "re-run one campaign cell (by index) with event tracing and write a Chrome trace")
	f.Parse(args)

	clean, err := campaign(f, *traceIdx, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "specasan-chaos:", err)
		return 1
	}
	if !clean {
		return 1
	}
	return 0
}

// campaign runs the golden sweep, the verdict sweep and the -trace re-run,
// and reports whether no divergence or verdict drift was found.
func campaign(f *scenario.Flags, traceIdx int, stdout, stderr io.Writer) (clean bool, err error) {
	s, err := f.Resolve()
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stderr, "specasan-chaos: scenario %s (hash %s)\n", s.Name, s.Hash())

	// The shared scenario expansion: same grid (and same store keys) as the
	// sweep service, workload-major, seeds innermost.
	cells, err := s.CampaignCells()
	if err != nil {
		return false, err
	}
	if traceIdx >= len(cells) {
		return false, fmt.Errorf("-trace %d out of range (campaign has %d cells)", traceIdx, len(cells))
	}
	kindSets := 0
	if n := len(s.Workloads) * len(s.Mitigations) * s.Chaos.Seeds; n > 0 {
		kindSets = len(cells) / n
	}

	out := f.Out
	copt := s.CampaignOptions()
	if out.MetricsOut != "" {
		mf, err := os.Create(out.MetricsOut)
		if err != nil {
			return false, err
		}
		defer func() {
			if err := mf.Close(); err != nil {
				fmt.Fprintln(stderr, "specasan-chaos:", err)
			}
		}()
		copt.Metrics = mf
	}
	if out.Store != "" {
		if out.MetricsOut != "" {
			fmt.Fprintln(stderr, "specasan-chaos: -store ignored (-metrics-out runs must simulate)")
		} else {
			st, err := store.OpenPruned(out.Store, out.StoreMaxBytes, stderr, "specasan-chaos")
			if err != nil {
				return false, err
			}
			copt.Store = chaos.DiskCampaignStore{S: st}
		}
	}

	reps, err := chaos.RunCampaignOpts(cells, copt)
	if err != nil {
		c := cells[len(reps)]
		return false, fmt.Errorf("%s/%v: %v", c.Spec.Name, c.Mit, err)
	}

	injected, failures := uint64(0), 0
	for i, rep := range reps {
		c := cells[i]
		injected += rep.Injected
		if out.Verbose {
			fmt.Fprintf(stdout, "  %-16s %-12s seed=%-4d %-60s cycles=%-9d %s\n",
				c.Spec.Name, c.Mit, rep.Seed, chaos.KindSetName(c.Cfg.Kinds), rep.Cycles, rep.Summary)
		}
		if rep.Failed() {
			failures++
			fmt.Fprintf(stdout, "DIVERGENCE %s under %v, seed %d, kinds %s (injected %d: %s):\n",
				c.Spec.Name, c.Mit, rep.Seed, chaos.KindSetName(c.Cfg.Kinds), rep.Injected, rep.Summary)
			for _, d := range rep.Divergence {
				fmt.Fprintf(stdout, "  %s\n", d)
			}
		}
	}
	fmt.Fprintf(stdout, "golden sweep: %d runs (%d workloads x %d mitigations x %d kind sets x %d seeds), %d faults injected, %d divergences\n",
		len(reps), len(s.Workloads), len(s.Mitigations), kindSets, s.Chaos.Seeds, injected, failures)

	drifted := 0
	if s.Chaos.VerdictSeeds > 0 {
		for i := 0; i < s.Chaos.VerdictSeeds; i++ {
			seed := s.Chaos.Seed0 + uint64(i)
			drifts, err := chaos.CheckVerdictInvariance(seed, s.Chaos.Rate,
				attacks.TableMitigations(), s.Run.Workers)
			if err != nil {
				return false, fmt.Errorf("verdict sweep: %v", err)
			}
			for _, d := range drifts {
				drifted++
				fmt.Fprintf(stdout, "VERDICT DRIFT (seed %d): %s\n", seed, d)
			}
		}
		fmt.Fprintf(stdout, "verdict sweep: %d attacks x %d mitigations x %d seeds, %d drifts\n",
			len(attacks.All()), len(attacks.TableMitigations()), s.Chaos.VerdictSeeds, drifted)
	}

	if traceIdx >= 0 {
		c := cells[traceIdx]
		// Chaos is seeded per cell, so this solo re-run reproduces the
		// campaign run exactly — the trace shows the same perturbed timeline.
		var tr *obs.Tracer
		if _, err := chaos.RunWorkload(c.Spec, c.Mit, c.Cfg, s.Run.Scale, s.Run.MaxCycles,
			func(m *cpu.Machine) {
				tr = obs.NewTracer(len(m.Cores), 0)
				m.AttachObs(tr, nil)
			}); err != nil {
			return false, fmt.Errorf("tracing cell %d: %v", traceIdx, err)
		}
		if err := obs.WriteChromeTraceFile(out.TraceOut, tr); err != nil {
			return false, err
		}
		fmt.Fprintf(stdout, "trace: cell %d (%s under %v, seed %d) -> %s (%d events, %d dropped)\n",
			traceIdx, c.Spec.Name, c.Mit, c.Cfg.Seed, out.TraceOut, tr.Recorded(), tr.Dropped())
	}
	return failures == 0 && drifted == 0, nil
}
