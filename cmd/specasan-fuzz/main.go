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
// The run is the fuzz-smoke preset, or the -scenario given, with the typed
// flags applied over it. Determinism: with -n, the emitted corpus is
// byte-identical for a given -seed at any -workers. With -n 0, whole
// candidate batches run until -budget (whole seconds) expires, so the corpus
// is a deterministic prefix of the -n run; -budget is ignored when -n > 0.
//
// Exit status: 1 usage/internal error, 2 unminimisable find (a find that
// does not replay its own leak — the loop's invariant broke), 3 golden
// divergence discovered (simulator bug; see results/differential).
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"specasan/internal/fuzzer"
	"specasan/internal/scenario"
	"specasan/internal/store"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	smoke, _ := scenario.Preset(scenario.PresetFuzzSmoke)
	f := scenario.NewFlags("specasan-fuzz", smoke, "scenario", "seed", "n", "budget",
		"workers", "mits", "store", "v")
	f.SetOutput(stderr)
	out := f.String("out", "results", "output root: PoCs under <out>/pocs, divergences under <out>/differential")
	noMinimise := f.Bool("no-minimise", false, "emit finds unminimised")
	f.Parse(args)
	if f.NArg() > 0 {
		fmt.Fprintf(stderr, "specasan-fuzz: unexpected arguments %v\n", f.Args())
		return 1
	}

	rep, err := fuzz(f, *out, *noMinimise, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "specasan-fuzz:", err)
		return 1
	}
	printReport(stdout, rep)
	switch {
	case len(rep.Unminimisable) > 0:
		return 2
	case len(rep.Differential) > 0:
		return 3
	}
	return 0
}

// fuzz resolves the scenario and runs the discovery loop it describes.
func fuzz(f *scenario.Flags, out string, noMinimise bool, stderr io.Writer) (*fuzzer.Report, error) {
	s, err := f.Resolve()
	if err != nil {
		return nil, err
	}
	mits, err := s.MitigationList()
	if err != nil {
		return nil, err
	}
	opts := fuzzer.Options{
		Seed:         s.Fuzz.Seed,
		N:            s.Fuzz.Candidates,
		Budget:       time.Duration(s.Fuzz.BudgetSeconds) * time.Second,
		Workers:      s.Run.Workers,
		OutDir:       out,
		Mitigations:  mits,
		SkipMinimise: noMinimise,
	}
	if f.Out.Verbose {
		opts.Log = stderr
	}
	if f.Out.Store != "" {
		if opts.Store, err = store.OpenPruned(f.Out.Store, 0, stderr, "specasan-fuzz"); err != nil {
			return nil, err
		}
	}
	return fuzzer.Run(opts)
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
