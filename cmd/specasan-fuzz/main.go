// specasan-fuzz is the attack-discovery loop: it generates three-phase
// transient-leak candidates (trigger x secret relation x transmit channel),
// evaluates each against every registered mitigation, and delta-debugs the
// flagged ones into minimal PoCs under results/pocs/.
//
// Finds come in two kinds. A "known-gap" PoC leaks through a documented
// exception in a defence's claims (the expected product of the loop: concrete
// Table-1-style evidence rows). A "counterexample" PoC leaks where the
// defence's descriptor bits claim the channel blocked — a simulator or policy
// bug. Candidates whose leak does not reproduce architecturally (golden
// cross-check divergence) are routed to results/differential for the
// differential fuzzer, not the PoC corpus.
//
// Determinism: with -n, the emitted corpus is byte-identical for a given
// -seed at any -workers. With -budget, whole candidate batches run until the
// budget expires, so the corpus is a deterministic prefix of the -n run.
//
// Exit status: 1 usage/internal error, 2 unminimisable find (a find that
// does not replay its own leak — the loop's invariant broke), 3 golden
// divergence discovered (simulator bug; see results/differential).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"specasan/internal/core"
	"specasan/internal/fuzzer"
	"specasan/internal/scenario"
	"specasan/internal/store"
)

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "specasan-fuzz: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	scen := flag.String("scenario", "",
		"scenario preset name or file; explicitly-set flags override its fields (default: the fuzz-smoke preset, every flag applies)")
	seed := flag.Uint64("seed", 1, "generator seed (candidate i is a pure function of seed and i)")
	n := flag.Int("n", 64, "candidate count (0 = unbounded, requires -budget)")
	budget := flag.Duration("budget", 0, "wall-clock bound; with -n 0, whole batches run until it expires")
	workers := flag.Int("workers", 0, "evaluation pool size (0 = GOMAXPROCS, 1 = serial)")
	out := flag.String("out", "results", "output root: PoCs under <out>/pocs, divergences under <out>/differential")
	mitsFlag := flag.String("mits", "", "comma-separated mitigation columns (default: every registered policy)")
	storeDir := flag.String("store", "", "result-store directory: cached candidate evaluations make reruns and resumes cheap")
	noMinimise := flag.Bool("no-minimise", false, "emit finds unminimised")
	verbose := flag.Bool("v", false, "log batch progress and each emitted PoC")
	flag.Parse()
	if flag.NArg() > 0 {
		fail("unexpected arguments %v", flag.Args())
	}

	// Scenario layering, same contract as the other CLIs: without -scenario
	// the fuzz-smoke preset is the base and every flag (defaults included)
	// applies; with -scenario only explicitly-typed flags override it.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	overrides := func(name string) bool { return *scen == "" || explicit[name] }

	s, _ := scenario.Preset(scenario.PresetFuzzSmoke)
	if *scen != "" {
		var err error
		if s, err = scenario.Load(*scen); err != nil {
			fail("%v", err)
		}
		if s.Fuzz == nil {
			smoke, _ := scenario.Preset(scenario.PresetFuzzSmoke)
			s.Fuzz = smoke.Fuzz
		}
	}
	if overrides("seed") {
		s.Fuzz.Seed = *seed
	}
	if overrides("n") {
		s.Fuzz.Candidates = *n
	}
	if overrides("budget") {
		s.Fuzz.BudgetSeconds = int(budget.Seconds())
	}
	if overrides("workers") {
		s.Run.Workers = *workers
	}
	if overrides("mits") && *mitsFlag != "" {
		s.Mitigations = splitList(*mitsFlag)
	}
	if err := s.Validate(); err != nil {
		fail("%v", err)
	}
	if s.Fuzz.Candidates <= 0 && s.Fuzz.BudgetSeconds <= 0 {
		fail("nothing to do: set -n or -budget")
	}

	var mits []core.Mitigation
	if *mitsFlag != "" || *scen != "" {
		var err error
		if mits, err = s.MitigationList(); err != nil {
			fail("%v", err)
		}
	} // else nil: Run defaults to the full registry

	opts := fuzzer.Options{
		Seed:         s.Fuzz.Seed,
		N:            s.Fuzz.Candidates,
		Budget:       time.Duration(s.Fuzz.BudgetSeconds) * time.Second,
		Workers:      s.Run.Workers,
		OutDir:       *out,
		Mitigations:  mits,
		SkipMinimise: *noMinimise,
	}
	if *verbose {
		opts.Log = os.Stderr
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			fail("%v", err)
		}
		if st.ReadOnly() {
			fmt.Fprintf(os.Stderr, "specasan-fuzz: store %s is read-only: serving cached evaluations, not persisting new ones\n", *storeDir)
		}
		opts.Store = st
	}

	rep, err := fuzzer.Run(opts)
	if err != nil {
		fail("%v", err)
	}
	printReport(os.Stdout, rep)

	switch {
	case len(rep.Unminimisable) > 0:
		os.Exit(2)
	case len(rep.Differential) > 0:
		os.Exit(3)
	}
}

func printReport(w io.Writer, rep *fuzzer.Report) {
	fmt.Fprintf(w, "fuzz: seed %d: %d candidates (%d valid, %d cached), %d PoCs (%d counterexamples, %d known-gap)\n",
		rep.Seed, rep.Candidates, rep.Valid, rep.CacheHits,
		len(rep.PoCs), rep.Counterexamples, rep.KnownGaps)
	for _, p := range rep.PoCs {
		fmt.Fprintf(w, "  poc %s\n", p)
	}
	for _, u := range rep.Unminimisable {
		fmt.Fprintf(w, "UNMINIMISABLE %s\n", u)
	}
	for _, d := range rep.Differential {
		fmt.Fprintf(w, "DIVERGENCE %s\n", d)
	}
}

func splitList(csv string) []string {
	var out []string
	for _, p := range strings.Split(csv, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
