// Command compare judges a change against its parent from two sets of
// benchmark result files (the JSON lines `bench/run.sh -out f` appends).
//
//	go -C bench build -o ../.bench_build/compare ./cmd/compare
//	.bench_build/compare -parent 'parent/*.jsonl' -change 'change/*.jsonl'
//
// For every (workload, end-to-end metric) it prints each side's quartiles,
// the change's wins over the run pairs, and a verdict; it exits 1 when any
// metric is worse than its BENCHMARK.json bound or a workload's fail ratio
// rose. With -change omitted it reports the parent set's own spread against
// each bound instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	benchPath := flag.String("bench", "BENCHMARK.json", "the BENCHMARK.json that fixes metrics and bounds")
	parentGlobs := flag.String("parent", "", "comma-separated globs of the parent's result files")
	changeGlobs := flag.String("change", "", "comma-separated globs of the change's result files")
	flag.Parse()
	if *parentGlobs == "" {
		fmt.Fprintln(os.Stderr, "compare: -parent is required")
		os.Exit(2)
	}
	data, err := os.ReadFile(*benchPath)
	if err != nil {
		fatal(err)
	}
	var spec struct {
		EndToEnd []endToEndDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		fatal(fmt.Errorf("%s: %w", *benchPath, err))
	}
	parent, err := loadRecords(*parentGlobs)
	if err != nil {
		fatal(err)
	}
	if *changeGlobs == "" {
		spread(parent, spec.EndToEnd)
		return
	}
	change, err := loadRecords(*changeGlobs)
	if err != nil {
		fatal(err)
	}

	bad := false
	fmt.Printf("%-14s %-12s %-32s %-32s %-6s %s\n", "workload", "metric", "parent q1/median/q3", "change q1/median/q3", "wins", "verdict")
	for _, def := range spec.EndToEnd {
		ps, cs := series(parent, def.Name), series(change, def.Name)
		for _, w := range sortedKeys(ps) {
			c := compareMetric(ps[w], cs[w], def)
			fmt.Printf("%-14s %-12s %-32s %-32s %2d/%-3d %s\n", w, def.Name,
				fmtQ(c.Parent), fmtQ(c.Change), c.Wins, c.Pairs, c.Verdict)
			bad = bad || c.Verdict == verdictWorse
		}
	}
	pf, cf := failRatio(parent), failRatio(change)
	for _, w := range sortedKeys(pf) {
		if cf[w] > pf[w] {
			fmt.Printf("%-14s fail ratio rose: %.4f -> %.4f\n", w, pf[w], cf[w])
			bad = true
		}
	}
	if bad {
		os.Exit(1)
	}
}

// spread prints one set's quartiles and its spread, (q3 - q1) / median,
// against each metric's bound.
func spread(recs []runRecord, defs []endToEndDef) {
	fmt.Printf("%-14s %-12s %4s %-32s %8s %8s\n", "workload", "metric", "runs", "q1/median/q3", "spread", "bound")
	for _, def := range defs {
		s := series(recs, def.Name)
		for _, w := range sortedKeys(s) {
			q := quartiles(s[w])
			fmt.Printf("%-14s %-12s %4d %-32s %7.2f%% %7.0f%%\n", w, def.Name, len(s[w]), fmtQ(q),
				100*(q[2]-q[0])/q[1], 100*def.Bound)
		}
	}
}

func fmtQ(q [3]float64) string { return fmt.Sprintf("%.4g/%.4g/%.4g", q[0], q[1], q[2]) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "compare:", err)
	os.Exit(2)
}
