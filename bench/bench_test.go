package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNamesCharset(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q outside [A-Za-z0-9_.-]", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q used twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, w := range allWorkloads {
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q outside [A-Za-z0-9_.-]", w.name)
		}
	}
}

// benchmarkJSON mirrors the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%+v\ncode:\n%+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json:\n%+v\ncode:\n%+v", b.PerLayer, perLayer)
	}
	if len(b.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, code has %d", len(b.Workloads), len(allWorkloads))
	}
	for i, w := range b.Workloads {
		if w.Name != allWorkloads[i].name || w.Why != allWorkloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), code %q (%q)", i, w.Name, w.Why, allWorkloads[i].name, allWorkloads[i].why)
		}
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if p := percentile(xs, 50); p != 50 {
		t.Errorf("p50 = %v, want 50", p)
	}
	if p := percentile(xs, 90); p != 90 {
		t.Errorf("p90 = %v, want 90", p)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {99, 0}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestServePlan(t *testing.T) {
	a := makeServePlan(7)
	if b := makeServePlan(7); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different plans")
	}
	if c := makeServePlan(8); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds, same plan")
	}
	if len(a.Cold) != serveClients || len(a.Cached) != serveClients {
		t.Fatalf("plan has %d cold and %d cached clients", len(a.Cold), len(a.Cached))
	}
	// Each scenario belongs to one client, which sends it once in the cold
	// phase and serveRepeats times in the cached phase.
	owner := map[int]int{}
	for c := range a.Cold {
		cold, cached := map[int]int{}, map[int]int{}
		for _, id := range a.Cold[c] {
			if o, ok := owner[id]; ok && o != c {
				t.Errorf("scenario %d sent by clients %d and %d", id, o, c)
			}
			owner[id] = c
			cold[id]++
		}
		for _, id := range a.Cached[c] {
			cached[id]++
		}
		for id, n := range cold {
			if n != 1 || cached[id] != serveRepeats {
				t.Errorf("client %d sends scenario %d %d times cold and %d cached, want 1 and %d", c, id, n, cached[id], serveRepeats)
			}
		}
		if len(cached) != len(cold) {
			t.Errorf("client %d repeats %d scenarios, sends %d cold", c, len(cached), len(cold))
		}
	}
	if len(owner) != len(a.Docs) {
		t.Errorf("%d of %d scenarios are sent", len(owner), len(a.Docs))
	}
	// Every seed simulates the same work: a kernel's scales sum to
	// serveScaleSum, and all scenarios are distinct.
	for _, seed := range []uint64{1, 2, 3} {
		perKernel := map[string]float64{}
		seen := map[string]bool{}
		for _, d := range makeServePlan(seed).Docs {
			var doc struct {
				Workloads []string
				Run       struct{ Scale float64 }
			}
			if err := json.Unmarshal(d, &doc); err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprint(doc.Workloads, doc.Run.Scale)
			if seen[key] {
				t.Errorf("seed %d: scenario %s twice", seed, key)
			}
			seen[key] = true
			perKernel[doc.Workloads[0]] += doc.Run.Scale
		}
		for k, sum := range perKernel {
			if math.Abs(sum-serveScaleSum) > 1e-9 {
				t.Errorf("seed %d: %s scales sum to %v, want %v", seed, k, sum, serveScaleSum)
			}
		}
	}
}

func TestProfileAttribution(t *testing.T) {
	data, err := os.ReadFile("testdata/pprof-top.txt")
	if err != nil {
		t.Fatal(err)
	}
	shares, err := attributeTop(string(data))
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %v, want 100", sum)
	}
	for _, mod := range []string{"cpu", "runtime", "stdlib"} {
		if shares[mod] <= 0 {
			t.Errorf("%s share is %v, want > 0", mod, shares[mod])
		}
	}
	for fn, want := range map[string]string{
		"specasan/internal/cpu.(*Core).issue":              "cpu",
		"specasan/internal/golden.(*Interp).exec (inline)": "golden",
		"runtime.mallocgc":                                 "runtime",
		"internal/runtime/maps.ctrlGroup.matchH2 (inline)": "runtime",
		"net/http.(*conn).serve":                           "stdlib",
		"slices.SortFunc[go.shape.*uint8,specasan/x.T]":    "stdlib",
		"main.(*sweepRunner).round.func1":                  "bench",
		"specasan/internal/newpkg.F":                       "other",
		"specasan.NewMachine":                              "other",
		"[unknown]":                                        "other",
		"aeshashbody":                                      "runtime",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestCalibrationPipes runs the calibration protocol the parent and the
// workload process speak, over the same kind of pipes.
func TestCalibrationPipes(t *testing.T) {
	reqR, reqW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	respR, respW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() {
		served <- serveCalibration(reqR, respW)
		respW.Close()
	}()
	c := calibClient{req: reqW, resp: respR}
	for i := 0; i < 2; i++ {
		d, err := c.measure()
		if err != nil {
			t.Fatal(err)
		}
		if d <= 0 {
			t.Errorf("calibration %d took %v", i, d)
		}
	}
	// The workload process exiting closes its request end: the server
	// returns without an error.
	reqW.Close()
	if err := <-served; err != nil {
		t.Errorf("serveCalibration: %v", err)
	}
	reqR.Close()
	respR.Close()
}
