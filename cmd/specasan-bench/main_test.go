package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specasan/internal/clitest"
	"specasan/internal/scenario"
)

// figureScenario is the scenario -fig resolves: the figure's preset with the typed
// run flags applied.
func figureScenario(preset string, scale float64, workers int) *scenario.Scenario {
	s, _ := scenario.Preset(preset)
	s.Run.Scale, s.Run.Workers = scale, workers
	return s
}

func header(s *scenario.Scenario) string {
	return fmt.Sprintf("specasan-bench: scenario %s (hash %s)", s.Name, s.Hash())
}

// The transcripts under testdata were recorded from the binaries of the
// commit before the knob table. -fig then printed no scenario header and
// stamped no scenario_hash into metrics records; both are the only
// differences the cases allow.
func TestTranscripts(t *testing.T) {
	fig9 := figureScenario(scenario.PresetFigure9, 0.001, 0)
	sameMetrics := func(t *testing.T, tmp string) {
		got, err := os.ReadFile(filepath.Join(tmp, "m.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "fig9-metrics.m.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		stamp := fmt.Sprintf(`"scenario_hash":%q,`, fig9.Hash())
		if n := strings.Count(string(got), stamp); n != strings.Count(string(want), "\n") {
			t.Fatalf("%d records stamped %s, want every one", n, stamp)
		}
		if strings.ReplaceAll(string(got), stamp, "") != string(want) {
			t.Fatalf("metrics records differ beyond the scenario hash")
		}
	}
	clitest.Run(t, run, []clitest.Case{
		{Name: "fig9", Args: []string{"-fig", "9", "-scale", "0.01"},
			Header: header(figureScenario(scenario.PresetFigure9, 0.01, 0))},
		{Name: "fig8", Args: []string{"-fig", "8", "-scale", "0.001"},
			Header: header(figureScenario(scenario.PresetFigure8, 0.001, 0))},
		{Name: "fig9-metrics", Args: []string{"-fig", "9", "-scale", "0.001", "-metrics-out", "$TMP/m.jsonl"},
			Header: header(fig9), Check: sameMetrics},
		{Name: "scenario", Args: []string{"-scenario", "../../examples/scenarios/dom-vs-specasan.json",
			"-scale", "0.02"}},
		{Name: "scenario-override", Args: []string{"-scenario", "figure9", "-scale", "0.001",
			"-workers", "1", "-skip-idle=false"}},
		{Name: "scale-inf", Args: []string{"-fig", "9", "-scale", "Inf"},
			Fails: "scale must be finite and > 0 (got +Inf)"},
	})
}

// `specasan-bench -scenario figure6` with every other flag at its default
// resolves to the figure6 preset unchanged: hash 08e5082201dd68c5, the one
// EXPERIMENTS.md's substrate performance rows quote.
func TestPerfScenarioHash(t *testing.T) {
	f := newFlags(io.Discard)
	f.Parse([]string{"-scenario", scenario.PresetFigure6})
	s, err := f.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if h := s.Hash(); h != "08e5082201dd68c5" {
		t.Fatalf("-scenario figure6 hash %s, want 08e5082201dd68c5", h)
	}
}

// -all prints exactly what -fig 1, 6, 7, 8 and 9 print one after another,
// though its figures share one in-process cell memo: each of the 140
// distinct cells simulates once, and the 118 repeats log as cached.
func TestAllEqualsFigures(t *testing.T) {
	var all, allLog strings.Builder
	if code := run([]string{"-all", "-scale", "0.001", "-v"}, &all, &allLog); code != 0 {
		t.Fatalf("-all exit %d:\n%s", code, &allLog)
	}
	var figs strings.Builder
	for _, n := range []string{"1", "6", "7", "8", "9"} {
		var log strings.Builder
		if code := run([]string{"-fig", n, "-scale", "0.001"}, &figs, &log); code != 0 {
			t.Fatalf("-fig %s exit %d:\n%s", n, code, &log)
		}
	}
	if all.String() != figs.String() {
		t.Fatalf("-all stdout differs from -fig 1/6/7/8/9:\n%s\nwant:\n%s", &all, &figs)
	}
	if n := strings.Count(allLog.String(), " cached cycles="); n != 118 {
		t.Fatalf("-all served %d cells from its memo, want 118", n)
	}
}
