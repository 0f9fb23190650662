package harness

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"specasan/internal/core"
	"specasan/internal/scenario"
	"specasan/internal/workloads"
)

func smallOpts() Options {
	opt := DefaultOptions()
	opt.Scale = 0.02
	return opt
}

func TestRunBenchmarkProducesStats(t *testing.T) {
	r, err := RunBenchmark(workloads.ByName("508.namd_r"), core.Unsafe, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles == 0 || r.Committed == 0 {
		t.Fatalf("empty result: %+v", r)
	}
	if r.Stats.Get("commits") != r.Committed {
		t.Fatal("stats inconsistent")
	}
}

func TestSweepNormalization(t *testing.T) {
	specs := []*workloads.Spec{workloads.ByName("511.povray_r")}
	sw, err := RunSweep(specs, []core.Mitigation{core.Unsafe, core.Fence}, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if n := sw.Normalized("511.povray_r", core.Unsafe); n != 1.0 {
		t.Fatalf("baseline normalizes to %v", n)
	}
	if n := sw.Normalized("511.povray_r", core.Fence); n < 1.0 {
		t.Fatalf("fences cannot be faster than baseline: %v", n)
	}
	if g := sw.GeomeanNormalized(core.Fence); g < 1.0 {
		t.Fatalf("geomean %v", g)
	}
	out := sw.FormatNormalized("title")
	if !strings.Contains(out, "geomean") || !strings.Contains(out, "511.povray_r") {
		t.Fatalf("format missing rows:\n%s", out)
	}
	out = sw.FormatRestricted("title")
	if !strings.Contains(out, "%") {
		t.Fatal("restricted format missing percentages")
	}
}

// presetMitigations returns a figure preset's mitigation columns.
func presetMitigations(t *testing.T, name string) []core.Mitigation {
	t.Helper()
	s, ok := scenario.Preset(name)
	if !ok {
		t.Fatalf("no preset %q", name)
	}
	mits, err := s.MitigationList()
	if err != nil {
		t.Fatal(err)
	}
	return mits
}

func TestMitigationColumnSets(t *testing.T) {
	if f6 := presetMitigations(t, scenario.PresetFigure6); len(f6) != 5 || f6[0] != core.Unsafe {
		t.Error("Figure 6 columns wrong")
	}
	if len(presetMitigations(t, scenario.PresetFigure8)) != 4 {
		t.Error("Figure 8 columns wrong")
	}
	if len(presetMitigations(t, scenario.PresetFigure9)) != 4 {
		t.Error("Figure 9 columns wrong")
	}
}

func TestSecurityMatrixOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full attack suite")
	}
	var buf bytes.Buffer
	if err := SecurityMatrix(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"PHT (Spectre v1)", "RIDL", "SpectreRewind",
		"SpecASan", "●", "○"} {
		if !strings.Contains(out, want) {
			t.Errorf("matrix missing %q", want)
		}
	}
	// 11 attacks x 5 mitigation columns = 55 verdict cells (the header
	// legend contributes 3 extra symbols).
	cells := strings.Count(out, "●") + strings.Count(out, "◐") + strings.Count(out, "○") - 3
	if cells != 55 {
		t.Errorf("matrix has %d cells, want 55", cells)
	}
}

func TestPARSECSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("4-core sweep")
	}
	specs := []*workloads.Spec{workloads.ByName("swaptions")}
	sw, err := RunSweep(specs, []core.Mitigation{core.Unsafe, core.SpecASan}, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	n := sw.Normalized("swaptions", core.SpecASan)
	if n < 0.9 || n > 1.5 {
		t.Fatalf("PARSEC SpecASan normalized = %v, outside sanity range", n)
	}
}

func TestRunBenchmarkRejectsUnknownTimeout(t *testing.T) {
	opt := smallOpts()
	opt.MaxCycles = 10 // absurdly small: must report a timeout error
	_, err := RunBenchmark(workloads.ByName("508.namd_r"), core.Unsafe, opt)
	if err == nil {
		t.Fatal("expected timeout error")
	}
	if !errors.Is(err, ErrTimedOut) {
		t.Fatalf("timeout not marked ErrTimedOut: %v", err)
	}
}

// spinSpec never halts: it times out under any finite budget, including the
// sweep's escalated retry.
func spinSpec() *workloads.Spec {
	return &workloads.Spec{Name: "spin", Suite: "test", Threads: 1, Source: `
_start:
spin:
    B spin
`}
}

// faultSpec commits an MTE tag-check fault under tag-enforcing mitigations:
// it locks a granule with key 3 and then loads it through an untagged
// pointer.
func faultSpec() *workloads.Spec {
	return &workloads.Spec{Name: "fault", Suite: "test", Threads: 1, Source: `
_start:
    MOV  X1, #2097152
    ADDG X1, X1, #0, #3
    STG  X1, [X1]
    MOV  X3, #2097152
    LDR  X4, [X3]
    SVC  #0
`}
}

func TestRunBenchmarkReportsTimedOutCores(t *testing.T) {
	opt := smallOpts()
	opt.MaxCycles = 20_000
	_, err := RunBenchmark(spinSpec(), core.Unsafe, opt)
	if err == nil || !errors.Is(err, ErrTimedOut) {
		t.Fatalf("want ErrTimedOut, got %v", err)
	}
	if !strings.Contains(err.Error(), "cores [0]") {
		t.Fatalf("timeout error does not name the stuck cores: %v", err)
	}
}

func TestRunBenchmarkReportsFault(t *testing.T) {
	_, err := RunBenchmark(faultSpec(), core.SpecASan, smallOpts())
	if err == nil || !strings.Contains(err.Error(), "faulted") {
		t.Fatalf("want fault error, got %v", err)
	}
	// The same kernel is clean when MTE is off: the sweep test below relies
	// on the fault being mitigation-dependent.
	if _, err := RunBenchmark(faultSpec(), core.Unsafe, smallOpts()); err != nil {
		t.Fatalf("untagged run should pass: %v", err)
	}
}

// One failing benchmark must cost its own cells, not the sweep: the sweep
// completes, healthy cells carry results, failed cells carry errors, and the
// formatted tables render the partial data with a failure footnote.
func TestSweepSurvivesFailingBenchmarks(t *testing.T) {
	specs := []*workloads.Spec{
		workloads.ByName("511.povray_r"),
		spinSpec(),
		faultSpec(),
	}
	opt := smallOpts()
	opt.MaxCycles = 50_000 // povray at Scale .02 fits; spin cannot
	mits := []core.Mitigation{core.Unsafe, core.SpecASan}
	sw, err := RunSweep(specs, mits, opt)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Results["511.povray_r"][core.SpecASan] == nil {
		t.Fatalf("healthy cell missing: %v", sw.FailedCells())
	}
	if sw.Err("spin", core.Unsafe) == nil || !errors.Is(sw.Err("spin", core.SpecASan), ErrTimedOut) {
		t.Fatalf("spin cells not recorded as timeouts: %v", sw.FailedCells())
	}
	if sw.Err("fault", core.SpecASan) == nil {
		t.Fatal("fault/SpecASan cell not recorded as failed")
	}
	if sw.Err("fault", core.Unsafe) != nil {
		t.Fatalf("fault kernel is clean without MTE: %v", sw.Err("fault", core.Unsafe))
	}
	if g := sw.GeomeanNormalized(core.SpecASan); g <= 0 {
		t.Fatalf("geomean over surviving cells = %v", g)
	}
	out := sw.FormatNormalized("partial")
	if !strings.Contains(out, "failed") || !strings.Contains(out, "511.povray_r") {
		t.Fatalf("partial table not rendered:\n%s", out)
	}
	if !strings.Contains(out, "failed cells (excluded from aggregates):") {
		t.Fatalf("missing failure footnote:\n%s", out)
	}
	if !strings.Contains(sw.FormatRestricted("partial"), "failed") {
		t.Fatal("restricted table missing failed markers")
	}
}

// A timed-out cell gets exactly one retry with an escalated budget; a
// slow-but-finite benchmark must recover on it.
func TestSweepRetryRecoversSlowRun(t *testing.T) {
	spec := workloads.ByName("511.povray_r")
	opt := smallOpts()
	// Find a budget the kernel misses but 4x recovers: run once to size it.
	r, err := RunBenchmark(spec, core.Unsafe, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.MaxCycles = r.Cycles/2 + 1 // too small once, ample at 4x
	sw, err := RunSweep([]*workloads.Spec{spec}, []core.Mitigation{core.Unsafe}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Err(spec.Name, core.Unsafe) != nil {
		t.Fatalf("retry did not recover: %v", sw.Err(spec.Name, core.Unsafe))
	}
	if sw.Results[spec.Name][core.Unsafe] == nil {
		t.Fatal("recovered cell missing result")
	}
}

// RunSweep returns an error only when nothing ran at all.
func TestSweepAllCellsFailed(t *testing.T) {
	opt := smallOpts()
	opt.MaxCycles = 1000
	sw, err := RunSweep([]*workloads.Spec{spinSpec()}, []core.Mitigation{core.Unsafe}, opt)
	if err == nil {
		t.Fatal("all-failed sweep should return an error")
	}
	if sw == nil || sw.Err("spin", core.Unsafe) == nil {
		t.Fatal("partial sweep state should still be returned")
	}
}

// TestFigure6MitigationSet pins the figure6 preset's columns to the copy
// spelled out in internal/cpu's differential tests (which cannot import the
// scenario package).
func TestFigure6MitigationSet(t *testing.T) {
	want := []core.Mitigation{core.Unsafe, core.Fence, core.STT,
		core.GhostMinion, core.SpecASan}
	got := presetMitigations(t, scenario.PresetFigure6)
	if len(got) != len(want) {
		t.Fatalf("figure6 preset columns = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("figure6 preset column %d = %v, want %v", i, got[i], want[i])
		}
	}
}
