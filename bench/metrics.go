package main

import (
	"math"
	"sort"
)

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer table.
// Bound is the share of the parent's median by which an end-to-end metric
// may worsen before a change counts as a regression (0 for per-layer rows,
// which have none). TestMetricTablesMatchBenchmarkJSON keeps the two in
// step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd is what a user of the simulator sees, measured with tracing off.
// Every workload reports every metric; "op" is the workload's unit of work
// (a sweep cell, a fuzz candidate, a cached serve job — see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p90_ms", "ms", "lower", 0.25},
}

// layerModules are the modules a CPU-profile sample is attributed to: the
// repository's internal packages the workloads run, the benchmark itself,
// the Go runtime (GC and scheduler), the rest of the standard library, and
// "other" for anything else (a package added later), so the shares always
// sum to 100 %.
var layerModules = []string{
	"asm", "attacks", "branch", "cache", "core", "cpu", "fuzzer", "golden",
	"harness", "isa", "mem", "mte", "obs", "par", "scenario", "serve",
	"stats", "store", "trace", "workloads",
	"bench", "runtime", "stdlib", "other",
}

// perLayer is reported by traced runs only. The replay microbenches
// (layers.go) cost each layer's operations; the profile shares say how much
// of this workload's host time each module took.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"cpu.ns_per_cycle", "ns", "lower", 0},
		{"cache.access_ns", "ns", "lower", 0},
		{"cache.fetch_ns", "ns", "lower", 0},
		{"cache.l1d_hit_ratio", "ratio", "higher", 0},
		{"mem.read_ns", "ns", "lower", 0},
		{"mem.write_ns", "ns", "lower", 0},
		{"mte.check_ns", "ns", "lower", 0},
		{"mem.clone_ms", "ms", "lower", 0},
		{"branch.cond_ns", "ns", "lower", 0},
		{"branch.mispredict_ratio", "ratio", "lower", 0},
		{"core.tsh_ns", "ns", "lower", 0},
		{"golden.ns_per_inst", "ns", "lower", 0},
		{"asm.us_per_kinst", "us", "lower", 0},
		{"attacks.table1_ms", "ms", "lower", 0},
		{"fuzzer.evaluate_ms_p50", "ms", "lower", 0},
		{"store.get_us", "us", "lower", 0},
		{"store.put_us", "us", "lower", 0},
		{"scenario.parse_hash_us", "us", "lower", 0},
		{"runtime.gc_cpu_pct", "%", "lower", 0},
		{"par.idle_pct", "%", "lower", 0},
		{"op_p99_ms", "ms", "lower", 0},
		{"trace_overhead_pct", "%", "lower", 0},
	}
	for _, m := range layerModules {
		defs = append(defs, metricDef{m + ".self_pct", "%", "lower", 0})
	}
	return defs
}()

// metric is one measured value as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is everything one workload run produced. The result line on
// standard output carries its correct, attempted, failed and metrics
// fields; the whole record goes to -out files for cmd/compare and to the
// human-readable summary.
type record struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Problems lists every failed correctness check.
	Problems []string `json:"problems,omitempty"`
	// Digests are the deterministic fingerprints of the simulated results
	// (sim_digest, fuzz_report): not gated, but a speed-only change must
	// leave them unchanged.
	Digests map[string]string `json:"digests,omitempty"`
	// Info holds the workload-specific numbers that are not metrics of
	// every workload: sampling accuracy, simulated MIPS, cold-job latency,
	// span self times.
	Info map[string]float64 `json:"info,omitempty"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(0, min(rank(p, len(s))-1, len(s)-1))]
}

// rank is the nearest-rank position of the p-th percentile among n samples,
// with a tolerance for percentiles like 99.9 that binary floats round up.
func rank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailPercentile is the highest of the reported tail percentiles that still
// has at least ten of n samples beyond it, or 0 when even p90 has fewer.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 90} {
		if n-rank(p, n) >= 10 {
			return p
		}
	}
	return 0
}

// median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
