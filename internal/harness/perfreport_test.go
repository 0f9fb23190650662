package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestPerfReportRoundTrip pins the BENCH_sim.json schema: a report must
// survive marshal → unmarshal → re-marshal byte-identically, so the tracked
// baseline file stays stable under version control.
func TestPerfReportRoundTrip(t *testing.T) {
	rep := &PerfReport{
		Schema:      PerfSchema,
		GeneratedAt: "2026-08-05T00:00:00Z",
		GoMaxProcs:  8,
		SingleCore: SingleCorePerf{
			Workload: "508.namd_r", Mitigation: "Unsafe",
			Steps: 500000, Committed: 700000,
			HostNsPerCycle: 1184.886268, SimInstsPerSec: 1.2e6, SimMIPS: 1.2,
			AllocsPerStep: 0.0001, AllocsPerCommitted: 0.00007,
		},
		Sweep: SweepPerf{
			Workloads: 10, Mitigations: 5, Cells: 50, Scale: 1,
			Workers: 8, WallSeconds: 12.5, SerialWallSeconds: 80.1, Speedup: 6.4,
		},
		Baseline:          ReferenceBaseline(),
		SingleCoreSpeedup: 3.52,
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_sim.json")
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if data[len(data)-1] != '\n' {
		t.Fatal("report must end in a newline")
	}
	var back PerfReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*rep, back) {
		t.Fatalf("report did not survive a JSON round trip:\n%+v\n%+v", rep, back)
	}
	if err := back.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data2, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("re-marshal is not byte-identical")
	}
}

// TestLoadPerfHistoryCurrentSchemaOnly pins the history loader: a
// current-schema report's history loads verbatim, so the cross-PR trajectory
// — and the hash-keyed regression gate comparing its last two entries —
// survives regeneration, while a report in an older layout is a named
// error rather than a silently reinterpreted history.
func TestLoadPerfHistoryCurrentSchemaOnly(t *testing.T) {
	history := []PerfHistoryEntry{
		{GeneratedAt: "2026-07-01T00:00:00Z", HostNsPerCycle: 200, SimMIPS: 5, ScenarioHash: "abc123"},
		{GeneratedAt: "2026-08-01T00:00:00Z", HostNsPerCycle: 180, SimMIPS: 6, ScenarioHash: "abc123",
			MulticoreCores: 4, MulticoreSpeedup: 0.48, ReplayOverhead: 1.03},
	}
	write := func(schema string) string {
		old := &PerfReport{Schema: schema, GeneratedAt: "2026-08-01T00:00:00Z", History: history}
		path := filepath.Join(t.TempDir(), "BENCH_sim.json")
		if err := old.WriteJSON(path); err != nil {
			t.Fatal(err)
		}
		return path
	}

	path := write(PerfSchema)
	hist, err := LoadPerfHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hist, history) {
		t.Fatalf("history did not load verbatim:\n%+v\n%+v", hist, history)
	}
	cur := &PerfReport{Schema: PerfSchema, GeneratedAt: "2026-08-08T00:00:00Z",
		ScenarioHash: "abc123",
		SingleCore:   SingleCorePerf{HostNsPerCycle: 170, SimMIPS: 6.4}}
	if err := cur.AppendHistory(path, "new entry"); err != nil {
		t.Fatal(err)
	}
	if n := len(cur.History); n != 3 {
		t.Fatalf("history length = %d, want 3", n)
	}
	if notice, regressed := cur.RegressionVsPrevious(); regressed {
		t.Fatalf("faster run flagged as regression: %s", notice)
	}

	old := "specasan-bench/perf/v5"
	if _, err := LoadPerfHistory(write(old)); err == nil || !strings.Contains(err.Error(), old) {
		t.Fatalf("loading a %s report: err = %v, want an error naming the schema", old, err)
	}
}

// TestBenchSimJSONParses validates the tracked baseline file itself against
// the schema: it must parse as a PerfReport with the current schema tag and
// carry a plausible single-core measurement.
func TestBenchSimJSONParses(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_sim.json"))
	if err != nil {
		t.Skipf("no tracked baseline: %v", err)
	}
	var rep PerfReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("BENCH_sim.json does not parse: %v", err)
	}
	if rep.Schema != PerfSchema {
		t.Fatalf("schema = %q, want %q", rep.Schema, PerfSchema)
	}
	if rep.SingleCore.HostNsPerCycle <= 0 || rep.SingleCore.Committed == 0 {
		t.Fatalf("implausible single-core measurement: %+v", rep.SingleCore)
	}
	if rep.Baseline.HostNsPerCycle <= 0 {
		t.Fatalf("missing baseline: %+v", rep.Baseline)
	}
}
