package main

import (
	"os"
	"path/filepath"
	"testing"

	"specasan/internal/clitest"
)

// The transcripts under testdata were recorded from the binaries of the
// commit before the knob table, so each case pins that the table leaves
// stdout and the printed scenario hash unchanged.
func TestTranscripts(t *testing.T) {
	sameMetrics := func(name string) func(*testing.T, string) {
		return func(t *testing.T, tmp string) {
			got, err := os.ReadFile(filepath.Join(tmp, "m.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", name+".m.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("metrics record differs:\n%s\nwant:\n%s", got, want)
			}
		}
	}
	clitest.Run(t, run, []clitest.Case{
		{Name: "mcf", Args: []string{"-bench", "505.mcf_r", "-scale", "0.02"}},
		{Name: "figure6", Args: []string{"-scenario", "figure6", "-scale", "0.02"}},
		{Name: "sampled", Args: []string{"-bench", "505.mcf_r", "-scale", "0.02",
			"-sample-windows", "2", "-sample-window-insts", "2000"}},
		{Name: "canneal-stt", Args: []string{"-bench", "canneal", "-scale", "0.02", "-mitigation", "STT"}},
		{Name: "noskip", Args: []string{"-bench", "505.mcf_r", "-scale", "0.02",
			"-mitigation", "SpecASan", "-skip-idle=false"}},
		{Name: "fast-forward", Args: []string{"-bench", "505.mcf_r", "-scale", "0.02",
			"-fast-forward", "5000", "-warmup-cycles", "500"}},
		{Name: "file", Args: []string{"-file", "testdata/sum.s", "-max-cycles", "20000"}},
		{Name: "scenario-override", Args: []string{"-scenario", "figure9", "-mitigation", "SpecCFI", "-scale", "0.01"}},
		{Name: "metrics", Args: []string{"-bench", "505.mcf_r", "-scale", "0.02", "-metrics-out", "$TMP/m.jsonl"},
			Check: sameMetrics("metrics")},
		{Name: "sampled-metrics", Args: []string{"-bench", "505.mcf_r", "-scale", "0.02",
			"-sample-windows", "2", "-sample-window-insts", "2000", "-metrics-out", "$TMP/m.jsonl"},
			Check: sameMetrics("sampled-metrics")},
		{Name: "store-cold", Args: []string{"-bench", "505.mcf_r", "-scale", "0.02", "-store", "$TMP/store"}},
		{Name: "store-warm", Args: []string{"-bench", "505.mcf_r", "-scale", "0.02", "-store", "$TMP/store"}},
		{Name: "store-sampled-cold", Args: []string{"-bench", "505.mcf_r", "-scale", "0.02",
			"-sample-windows", "2", "-sample-window-insts", "2000", "-store", "$TMP/store"}},
		{Name: "store-sampled-warm", Args: []string{"-bench", "505.mcf_r", "-scale", "0.02",
			"-sample-windows", "2", "-sample-window-insts", "2000", "-store", "$TMP/store"}},
		// Both views read the event ring: pipeview's transcript predates
		// the ring (the timeline is unchanged), trace-text pins the
		// one-line-per-event listing.
		{Name: "pipeview", Args: []string{"-bench", "505.mcf_r", "-scale", "0.02", "-pipeview", "16"}},
		{Name: "trace-text", Args: []string{"-file", "testdata/countdown.s", "-max-cycles", "20000", "-trace-text"}},
		{Name: "no-workload", Args: nil, Fails: "need -bench, -file, or -scenario"},
		{Name: "scale-inf", Args: []string{"-bench", "505.mcf_r", "-scale", "Inf"},
			Fails: "scale must be finite and > 0 (got +Inf)"},
	})
}
