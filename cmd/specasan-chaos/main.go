// specasan-chaos runs the fault-injection campaign: a grid of chaos-
// perturbed workload runs, each checked bit-for-bit against the golden
// interpreter's architectural state, followed by a Table 1 verdict-
// invariance sweep under timing-safe chaos.
//
// The default campaign is 8 seeds x 6 fault kinds (each alone, plus one
// all-kinds-combined column) x 3 workloads under two mitigations, then the
// full 11-attack x 5-mitigation verdict matrix under 2 chaos seeds. Exit
// status 1 means a divergence — a reproducible one: rerun with the printed
// seed.
//
// Grid cells are independent (each run owns its machine and injector), so
// the campaign runs on a bounded worker pool (-workers, default GOMAXPROCS);
// output and exit status are byte-identical to -workers=1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"specasan/internal/attacks"
	"specasan/internal/chaos"
	"specasan/internal/cpu"
	"specasan/internal/obs"
	"specasan/internal/scenario"
	"specasan/internal/store"
)

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "specasan-chaos: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	scen := flag.String("scenario", "",
		"scenario preset name or file; explicitly-set flags override its fields (default: the chaos-smoke preset, every flag applies)")
	seeds := flag.Int("seeds", 8, "number of chaos seeds per grid cell")
	seed0 := flag.Uint64("seed0", 1, "first seed")
	kindsFlag := flag.String("kinds", "", "comma-separated fault kinds (default: every kind)")
	wlFlag := flag.String("workloads", "511.povray_r,505.mcf_r,541.leela_r",
		"comma-separated benchmark names")
	mitsFlag := flag.String("mits", "Unsafe,SpecASan", "comma-separated mitigations for the golden sweep")
	rate := flag.Float64("rate", 0.02, "per-opportunity injection probability")
	maxLat := flag.Uint64("maxlat", 200, "max injected latency (cycles)")
	scale := flag.Float64("scale", 0.02, "kernel iteration scale")
	maxCycles := flag.Uint64("maxcycles", 100_000_000, "cycle budget per run")
	verdicts := flag.Bool("verdicts", true, "also check Table 1 verdict invariance under timing-safe chaos")
	verdictSeeds := flag.Int("verdict-seeds", 2, "chaos seeds for the verdict-invariance sweep")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS, 1 = serial)")
	traceIdx := flag.Int("trace", -1, "re-run one campaign cell (by index) with event tracing and write a Chrome trace")
	traceOut := flag.String("trace-out", "trace.json", "where -trace writes its Chrome trace-event JSON")
	metricsOut := flag.String("metrics-out", "", "write per-cell metrics records (JSONL, cell order) to this file")
	storeDir := flag.String("store", "",
		"result-store directory: verified cached campaign cells (verdicts included) are served without simulating, cold cells persist (ignored with -metrics-out, which must simulate)")
	storeMaxBytes := flag.Int64("store-max-bytes", 0,
		"prune the -store directory to at most this many entry bytes on open, oldest entries first (0 = unbounded)")
	skipIdle := flag.Bool("skip-idle", true,
		"event-driven idle-cycle skipping; injected runs bypass it regardless (the per-cycle fault driver must see every cycle)")
	verbose := flag.Bool("v", false, "log each run")
	flag.Parse()

	// Scenario layering: without -scenario the base is the chaos-smoke
	// preset and every flag (defaults included) applies over it, preserving
	// the pre-scenario CLI behaviour exactly; with -scenario only the flags
	// the user actually typed override the loaded scenario.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	overrides := func(name string) bool { return *scen == "" || explicit[name] }

	s, _ := scenario.Preset(scenario.PresetChaosSmoke)
	if *scen != "" {
		var err error
		if s, err = scenario.Load(*scen); err != nil {
			fail("%v", err)
		}
		if s.Chaos == nil {
			smoke, _ := scenario.Preset(scenario.PresetChaosSmoke)
			s.Chaos = smoke.Chaos
		}
	}
	if overrides("seeds") {
		s.Chaos.Seeds = *seeds
	}
	if overrides("seed0") {
		s.Chaos.Seed0 = *seed0
	}
	if overrides("kinds") {
		s.Chaos.Kinds = splitList(*kindsFlag)
	}
	if overrides("workloads") {
		s.Workloads = splitList(*wlFlag)
	}
	if overrides("mits") {
		s.Mitigations = splitList(*mitsFlag)
	}
	if overrides("rate") {
		s.Chaos.Rate = *rate
	}
	if overrides("maxlat") {
		s.Chaos.MaxLatency = *maxLat
	}
	if overrides("scale") {
		s.Run.Scale = *scale
	}
	if overrides("maxcycles") {
		s.Run.MaxCycles = *maxCycles
	}
	if overrides("verdict-seeds") {
		s.Chaos.VerdictSeeds = *verdictSeeds
	}
	if overrides("workers") {
		s.Run.Workers = *workers
	}
	if overrides("skip-idle") {
		s.Run.SkipIdle = *skipIdle
	}
	if err := s.Validate(); err != nil {
		fail("%v", err)
	}
	hash := s.Hash()
	fmt.Fprintf(os.Stderr, "specasan-chaos: scenario %s (hash %s)\n", s.Name, hash)

	specs, err := s.WorkloadSpecs()
	if err != nil {
		fail("%v", err)
	}
	mits, err := s.MitigationList()
	if err != nil {
		fail("%v", err)
	}
	// The shared scenario expansion: same grid (and same store keys) as the
	// sweep service, workload-major, seeds innermost.
	cells, err := s.CampaignCells()
	if err != nil {
		fail("%v", err)
	}
	kindSets := 0
	if n := len(specs) * len(mits) * s.Chaos.Seeds; n > 0 {
		kindSets = len(cells) / n
	}

	copt := chaos.CampaignOptions{
		Scale: s.Run.Scale, MaxCycles: s.Run.MaxCycles, Workers: s.Run.Workers,
		ScenarioHash: hash, NoSkipIdle: !s.Run.SkipIdle,
	}
	var metricsW io.Writer
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fail("%v", err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "specasan-chaos:", err)
			}
		}()
		metricsW = f
		copt.Metrics = metricsW
	}
	if *storeDir != "" {
		if *metricsOut != "" {
			fmt.Fprintln(os.Stderr, "specasan-chaos: -store ignored (-metrics-out runs must simulate)")
		} else {
			st, err := store.Open(*storeDir)
			if err != nil {
				fail("%v", err)
			}
			if st.ReadOnly() {
				fmt.Fprintf(os.Stderr, "specasan-chaos: store %s is read-only: serving cached results, not persisting new ones\n", *storeDir)
			}
			if removed, freed, err := st.Prune(*storeMaxBytes); err != nil {
				fmt.Fprintln(os.Stderr, "specasan-chaos:", err)
			} else if removed > 0 {
				fmt.Fprintf(os.Stderr, "specasan-chaos: store pruned %d entries (%d bytes) to fit -store-max-bytes=%d\n",
					removed, freed, *storeMaxBytes)
			}
			copt.Store = chaos.DiskCampaignStore{S: st}
			copt.ResultHash = s.ResultHash()
		}
	}

	reps, err := chaos.RunCampaignOpts(cells, copt)
	if err != nil {
		c := cells[len(reps)]
		fail("%s/%v: %v", c.Spec.Name, c.Mit, err)
	}

	runs, injected, failures := 0, uint64(0), 0
	for i, rep := range reps {
		c := cells[i]
		runs++
		injected += rep.Injected
		if *verbose {
			fmt.Printf("  %-16s %-12s seed=%-4d %-60s cycles=%-9d %s\n",
				c.Spec.Name, c.Mit, rep.Seed, kindSetName(c.Cfg.Kinds), rep.Cycles, rep.Summary)
		}
		if rep.Failed() {
			failures++
			fmt.Printf("DIVERGENCE %s under %v, seed %d, kinds %s (injected %d: %s):\n",
				c.Spec.Name, c.Mit, rep.Seed, kindSetName(c.Cfg.Kinds), rep.Injected, rep.Summary)
			for _, d := range rep.Divergence {
				fmt.Printf("  %s\n", d)
			}
		}
	}
	fmt.Printf("golden sweep: %d runs (%d workloads x %d mitigations x %d kind sets x %d seeds), %d faults injected, %d divergences\n",
		runs, len(specs), len(mits), kindSets, s.Chaos.Seeds, injected, failures)

	drifted := 0
	if *verdicts && s.Chaos.VerdictSeeds > 0 {
		for i := 0; i < s.Chaos.VerdictSeeds; i++ {
			seed := s.Chaos.Seed0 + uint64(i)
			drifts, err := chaos.CheckVerdictInvarianceParallel(seed, s.Chaos.Rate,
				attacks.TableMitigations(), s.Run.Workers)
			if err != nil {
				fail("verdict sweep: %v", err)
			}
			for _, d := range drifts {
				drifted++
				fmt.Printf("VERDICT DRIFT (seed %d): %s\n", seed, d)
			}
		}
		fmt.Printf("verdict sweep: %d attacks x %d mitigations x %d seeds, %d drifts\n",
			len(attacks.All()), len(attacks.TableMitigations()), s.Chaos.VerdictSeeds, drifted)
	}

	if *traceIdx >= 0 {
		if *traceIdx >= len(cells) {
			fail("-trace %d out of range (campaign has %d cells)", *traceIdx, len(cells))
		}
		c := cells[*traceIdx]
		// Chaos is seeded per cell, so this solo re-run reproduces the
		// campaign run exactly — the trace shows the same perturbed timeline.
		var tr *obs.Tracer
		if _, err := chaos.RunWorkload(c.Spec, c.Mit, c.Cfg, s.Run.Scale, s.Run.MaxCycles,
			func(m *cpu.Machine) {
				tr = obs.NewTracer(len(m.Cores), 0)
				m.AttachObs(tr, nil)
			}); err != nil {
			fail("tracing cell %d: %v", *traceIdx, err)
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			fail("%v", err)
		}
		if err := obs.WriteChromeTrace(f, tr); err != nil {
			fail("%v", err)
		}
		if err := f.Close(); err != nil {
			fail("%v", err)
		}
		fmt.Printf("trace: cell %d (%s under %v, seed %d) -> %s (%d events, %d dropped)\n",
			*traceIdx, c.Spec.Name, c.Mit, c.Cfg.Seed, *traceOut, tr.Recorded(), tr.Dropped())
	}

	if failures > 0 || drifted > 0 {
		os.Exit(1)
	}
}

// splitList splits a comma-separated flag value, dropping empty parts (an
// empty value yields nil, which scenario fields read as "default set").
func splitList(csv string) []string {
	var out []string
	for _, p := range strings.Split(csv, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func kindSetName(ks []chaos.Kind) string {
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = k.String()
	}
	return strings.Join(names, "+")
}
