package main

import (
	"bytes"
	"os"
	"testing"
)

// TestResultsTables pins the recorded Table 1 files in results/ byte for
// byte: the matrix and its per-variant detail are what the command prints.
func TestResultsTables(t *testing.T) {
	for _, c := range []struct {
		file string
		args []string
	}{
		{"table1.txt", nil},
		{"table1_detail.txt", []string{"-detail"}},
	} {
		want, err := os.ReadFile("../../results/" + c.file)
		if err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", c.args, code, &stderr)
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("%v: stdout differs from results/%s:\n%s", c.args, c.file, &stdout)
		}
	}
}
