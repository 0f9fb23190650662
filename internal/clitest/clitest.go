// Package clitest drives a command's run(args, stdout, stderr) entry point
// in-process and compares each invocation with a recorded transcript.
package clitest

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Case is one invocation. Unless Fails is set, its transcript is
// testdata/<Name>.golden: the exit status, the scenario header lines the
// command printed on stderr, and its stdout.
//
//	exit 0
//	specasan-sim: scenario table2 (hash b9418b477a2dde00)
//	---
//	<stdout>
//
// "$TMP" in Args and in the transcript stands for one temporary directory
// that the cases of a Run share, in order.
type Case struct {
	Name string
	Args []string
	// Header, when set, is a header line the transcript predates: it must
	// be the first header printed and is left out of the comparison.
	Header string
	// Fails, when set, replaces the transcript: the invocation must exit 1
	// with nothing on stdout and an error containing Fails on stderr.
	Fails string
	// Check, when set, runs after the comparison.
	Check func(t *testing.T, tmp string)
}

var header = regexp.MustCompile(`^specasan-[a-z]+: scenario .* \(hash [0-9a-f]+\)$`)

// Run runs cases in order against run.
func Run(t *testing.T, run func(args []string, stdout, stderr io.Writer) int, cases []Case) {
	tmp := t.TempDir()
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			args := make([]string, len(c.Args))
			for i, a := range c.Args {
				args[i] = strings.ReplaceAll(a, "$TMP", tmp)
			}
			var stdout, stderr bytes.Buffer
			code := run(args, &stdout, &stderr)
			if c.Fails != "" {
				if code != 1 || stdout.Len() > 0 || !strings.Contains(stderr.String(), c.Fails) {
					t.Fatalf("want exit 1, no stdout and %q on stderr; got exit %d\nstdout:\n%s\nstderr:\n%s",
						c.Fails, code, &stdout, &stderr)
				}
				return
			}
			got := fmt.Sprintf("exit %d\n", code)
			first := true
			for _, line := range strings.Split(stderr.String(), "\n") {
				if !header.MatchString(line) {
					continue
				}
				if first && c.Header != "" {
					if line != c.Header {
						t.Errorf("header %q, want %q", line, c.Header)
					}
				} else {
					got += line + "\n"
				}
				first = false
			}
			if first && c.Header != "" {
				t.Errorf("no header, want %q", c.Header)
			}
			got += "---\n" + strings.ReplaceAll(stdout.String(), tmp, "$TMP")
			want, err := os.ReadFile(filepath.Join("testdata", c.Name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("transcript differs from testdata/%s.golden\n--- got\n%s--- want\n%s--- stderr\n%s",
					c.Name, got, want, &stderr)
			}
			if c.Check != nil {
				c.Check(t, tmp)
			}
		})
	}
}
