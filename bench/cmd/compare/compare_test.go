package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	want := [3]float64{2.75, 5.5, 8.25}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("quartiles = %v, want %v", got, want)
		}
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q := quartiles([]float64{3, 1, 2}); q != [3]float64{1, 2, 3} {
		t.Fatalf("quartiles of three = %v", q)
	}
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	lower := endToEndDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := endToEndDef{Name: "ops", Better: "higher", Bound: 0.10}
	steady := []float64{10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.03, 9.97, 10.0}
	noisy := []float64{8, 12, 9, 11, 10, 13, 7, 10, 12, 8}
	cases := []struct {
		name           string
		parent, change []float64
		def            endToEndDef
		want           string
	}{
		{"identical", steady, steady, lower, verdictSame},
		{"faster everywhere", steady, scaled(steady, 0.9), lower, verdictImproved},
		{"slower past the bound", steady, scaled(steady, 1.2), lower, verdictWorse},
		{"slower within the bound", steady, scaled(steady, 1.05), lower, verdictSame},
		{"higher is better", steady, scaled(steady, 1.1), higher, verdictImproved},
		{"lower past the bound when higher is better", steady, scaled(steady, 0.8), higher, verdictWorse},
		{"too noisy to tell", noisy, scaled(noisy, 0.99), lower, verdictUnresolved},
		// Wins every pair but by less than the parent's own spread.
		{"gap inside the spread", noisy, scaled(noisy, 0.97), lower, verdictUnresolved},
	}
	for _, c := range cases {
		if got := compareMetric(c.parent, c.change, c.def); got.Verdict != c.want {
			t.Errorf("%s: verdict %s, want %s (%+v)", c.name, got.Verdict, c.want, got)
		}
	}
}

func TestLoadRecordsSkipsTracedRuns(t *testing.T) {
	dir := t.TempDir()
	data := `{"workload":"a","trace":false,"attempted":10,"failed":1,"metrics":{"wall_s":{"value":2}}}
{"workload":"a","trace":true,"attempted":10,"failed":0,"metrics":{"op_p99_ms":{"value":3}}}
`
	path := filepath.Join(dir, "r.jsonl")
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := loadRecords(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || series(recs, "wall_s")["a"][0] != 2 {
		t.Fatalf("records = %+v", recs)
	}
	if r := failRatio(recs)["a"]; r != 0.1 {
		t.Fatalf("fail ratio = %v, want 0.1", r)
	}
}
