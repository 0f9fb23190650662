package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"specasan/internal/core"
	"specasan/internal/obs"
	"specasan/internal/workloads"
)

// TestRunCampaignParallelDeterminism checks the chaos-campaign half of the
// parallel-harness contract: the same cell grid must produce identical
// reports (seeds, injection counts, cycles, divergences) for any worker
// count, because chaos randomness is seeded per cell and every cell owns its
// machine and injector.
func TestRunCampaignParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec := workloads.ByName("505.mcf_r")
	if spec == nil {
		t.Fatal("workload 505.mcf_r missing")
	}
	var cells []CampaignCell
	for _, mit := range []core.Mitigation{core.Unsafe, core.SpecASan} {
		for _, ks := range [][]Kind{{LatencyJitter}, AllKinds()} {
			for seed := uint64(1); seed <= 3; seed++ {
				cells = append(cells, CampaignCell{
					Spec: spec, Mit: mit,
					Cfg: Config{Seed: seed, Kinds: ks, Rate: 0.02, MaxLatency: 200},
				})
			}
		}
	}

	run := func(workers int) string {
		reps, err := RunCampaignOpts(cells, CampaignOptions{Scale: 0.02, MaxCycles: 50_000_000, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var b strings.Builder
		for i, rep := range reps {
			fmt.Fprintf(&b, "cell %d: seed=%d injected=%d cycles=%d summary=%q div=%v\n",
				i, rep.Seed, rep.Injected, rep.Cycles, rep.Summary, rep.Divergence)
		}
		return b.String()
	}

	serial := run(1)
	for _, workers := range []int{2, 4} {
		if got := run(workers); got != serial {
			t.Errorf("workers=%d diverges from serial:\n-- serial --\n%s\n-- workers=%d --\n%s",
				workers, serial, workers, got)
		}
	}
	if len(serial) == 0 {
		t.Fatal("campaign produced no reports")
	}
}

// TestRunCampaignMetricsDeterminism checks the campaign's JSONL metrics
// stream: one record per cell in cell order, byte-identical for any worker
// count, and attaching metrics must not perturb the reports themselves.
func TestRunCampaignMetricsDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec := workloads.ByName("505.mcf_r")
	if spec == nil {
		t.Fatal("workload 505.mcf_r missing")
	}
	var cells []CampaignCell
	for _, mit := range []core.Mitigation{core.Unsafe, core.SpecASan} {
		for seed := uint64(1); seed <= 2; seed++ {
			cells = append(cells, CampaignCell{
				Spec: spec, Mit: mit,
				Cfg: Config{Seed: seed, Kinds: []Kind{LatencyJitter}, Rate: 0.02, MaxLatency: 200},
			})
		}
	}

	run := func(workers int) (string, string) {
		var metrics bytes.Buffer
		reps, err := RunCampaignOpts(cells, CampaignOptions{
			Scale: 0.02, MaxCycles: 50_000_000, Workers: workers, Metrics: &metrics,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var b strings.Builder
		for i, rep := range reps {
			fmt.Fprintf(&b, "cell %d: seed=%d injected=%d cycles=%d div=%v\n",
				i, rep.Seed, rep.Injected, rep.Cycles, rep.Divergence)
		}
		return metrics.String(), b.String()
	}

	serialMetrics, serialReps := run(1)
	lines := strings.Split(strings.TrimRight(serialMetrics, "\n"), "\n")
	if len(lines) != len(cells) {
		t.Fatalf("%d metrics lines, want %d", len(lines), len(cells))
	}
	for i, line := range lines {
		var rec obs.MetricsRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if rec.Bench != cells[i].Spec.Name || rec.Mitigation != cells[i].Mit.String() {
			t.Fatalf("line %d labels %s/%s, want cell %s/%v",
				i, rec.Bench, rec.Mitigation, cells[i].Spec.Name, cells[i].Mit)
		}
	}
	// Metrics must be an observer: the plain campaign sees the same reports.
	plain, err := RunCampaignOpts(cells, CampaignOptions{Scale: 0.02, MaxCycles: 50_000_000, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for i, rep := range plain {
		fmt.Fprintf(&b, "cell %d: seed=%d injected=%d cycles=%d div=%v\n",
			i, rep.Seed, rep.Injected, rep.Cycles, rep.Divergence)
	}
	if b.String() != serialReps {
		t.Error("attaching metrics changed the campaign reports")
	}
	for _, workers := range []int{2, 4} {
		gotMetrics, gotReps := run(workers)
		if gotMetrics != serialMetrics {
			t.Errorf("workers=%d: metrics stream diverges from serial", workers)
		}
		if gotReps != serialReps {
			t.Errorf("workers=%d: reports diverge from serial", workers)
		}
	}
}
