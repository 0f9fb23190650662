package main

import (
	"bytes"
	"os"
	"testing"
)

// TestResultsTable pins results/table3.txt byte for byte: the recorded
// Table 3 is what the command prints.
func TestResultsTable(t *testing.T) {
	want, err := os.ReadFile("../../results/table3.txt")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, &stderr)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("stdout differs from results/table3.txt:\n%s", &stdout)
	}
}
