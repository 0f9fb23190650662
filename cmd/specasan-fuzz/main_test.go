package main

import (
	"testing"

	"specasan/internal/clitest"
)

// The transcripts under testdata were recorded from the binaries of the
// commit before the knob table, so each case pins that the table leaves
// the report unchanged.
func TestTranscripts(t *testing.T) {
	clitest.Run(t, run, []clitest.Case{
		{Name: "n8", Args: []string{"-n", "8", "-out", "$TMP/out"}},
		{Name: "mits", Args: []string{"-n", "8", "-mits", "SpecASan,STT", "-seed", "3", "-out", "$TMP/out"}},
		{Name: "scenario", Args: []string{"-scenario", "fuzz-smoke", "-n", "8", "-out", "$TMP/out"}},
		{Name: "knobs", Args: []string{"-seed", "2", "-n", "4", "-workers", "1", "-no-minimise", "-out", "$TMP/out"}},
		{Name: "store-cold", Args: []string{"-n", "8", "-out", "$TMP/out", "-store", "$TMP/store"}},
		{Name: "store-warm", Args: []string{"-n", "8", "-out", "$TMP/out", "-store", "$TMP/store"}},
		// A budget that is not whole seconds is refused, not truncated.
		{Name: "budget-500ms", Args: []string{"-n", "0", "-budget", "500ms", "-out", "$TMP/out"},
			Fails: "-budget 500ms is not a whole number of seconds"},
		{Name: "budget-1500ms", Args: []string{"-n", "0", "-budget", "1500ms", "-out", "$TMP/out"},
			Fails: "-budget 1.5s is not a whole number of seconds"},
	})
}
