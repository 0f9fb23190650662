package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// endToEndDef is one end_to_end row of BENCHMARK.json.
type endToEndDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runRecord is the part of a benchmark -out record the comparison reads.
type runRecord struct {
	Workload  string `json:"workload"`
	Trace     bool   `json:"trace"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// Verdicts for paired runs on a noisy host.
const (
	verdictImproved   = "improved"
	verdictWorse      = "WORSE"
	verdictUnresolved = "unresolved"
	verdictSame       = "same"
)

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the default "exclusive" method).
// A single value is its own quartiles.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 0 {
		return [3]float64{}
	}
	if ld == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q
}

// comparison is one (workload, metric) row.
type comparison struct {
	Metric         string
	Parent, Change [3]float64
	Wins, Pairs    int
	Verdict        string
}

// compareMetric judges change against parent runs of one metric. Runs pair
// up in order. Worse: the change's median is worse than the parent's by more
// than the bound. Improved: the change wins at least nine tenths of the
// pairs (ties count for neither) and its median is better by more than the
// parent's interquartile range. Unresolved: neither, and the spread of
// either side exceeds the bound.
func compareMetric(parent, change []float64, def endToEndDef) comparison {
	c := comparison{Metric: def.Name, Parent: quartiles(parent), Change: quartiles(change)}
	better := func(a, b float64) bool { // a better than b
		if def.Better == "higher" {
			return a > b
		}
		return a < b
	}
	c.Pairs = min(len(parent), len(change))
	for i := 0; i < c.Pairs; i++ {
		if better(change[i], parent[i]) {
			c.Wins++
		}
	}
	pMed, cMed := c.Parent[1], c.Change[1]
	gap := pMed - cMed
	if def.Better == "higher" {
		gap = -gap
	}
	pIQR := c.Parent[2] - c.Parent[0]
	spread := max(pIQR, c.Change[2]-c.Change[0]) / pMed
	switch {
	case -gap > def.Bound*pMed:
		c.Verdict = verdictWorse
	case c.Pairs > 0 && 10*c.Wins >= 9*c.Pairs && gap > pIQR:
		c.Verdict = verdictImproved
	case spread > def.Bound:
		c.Verdict = verdictUnresolved
	default:
		c.Verdict = verdictSame
	}
	return c
}

// loadRecords reads every untraced record from the files the comma-separated
// globs match, in file and line order.
func loadRecords(globs string) ([]runRecord, error) {
	var recs []runRecord
	for _, g := range strings.Split(globs, ",") {
		files, err := filepath.Glob(strings.TrimSpace(g))
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("no result files match %q", g)
		}
		for _, f := range files {
			rs, err := readRecords(f)
			if err != nil {
				return nil, err
			}
			recs = append(recs, rs...)
		}
	}
	return recs, nil
}

func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			recs = append(recs, r)
		}
	}
	return recs, sc.Err()
}

// series collects one metric's values per workload, in run order.
func series(recs []runRecord, metric string) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range recs {
		if m, ok := r.Metrics[metric]; ok {
			out[r.Workload] = append(out[r.Workload], m.Value)
		}
	}
	return out
}

// failRatio is failed over attempted operations per workload.
func failRatio(recs []runRecord) map[string]float64 {
	att, fail := map[string]int{}, map[string]int{}
	for _, r := range recs {
		att[r.Workload] += r.Attempted
		fail[r.Workload] += r.Failed
	}
	out := map[string]float64{}
	for w, a := range att {
		out[w] = float64(fail[w]) / float64(max(a, 1))
	}
	return out
}
