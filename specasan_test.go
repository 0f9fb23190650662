package specasan

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	prog := MustAssemble(`
_start:
    MOV X0, #6
    MOV X1, #7
    MUL X2, X0, X1
    MOV X0, X2
    SVC #1
    SVC #0
`)
	m, err := NewMachine(DefaultConfig(), SpecASan, prog)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run(100_000)
	if res.Faulted || res.TimedOut {
		t.Fatalf("run failed: %v", res)
	}
	if got := string(m.Core(0).Output); got != "42\n" {
		t.Fatalf("output = %q", got)
	}
	// The reference interpreter agrees.
	g := Interpret(prog, true, 100_000)
	if string(g.Output) != "42\n" {
		t.Fatalf("golden output = %q", g.Output)
	}
}

func TestPublicAttackRegistry(t *testing.T) {
	as := Attacks()
	if len(as) != 11 {
		t.Fatalf("attacks = %d, want the 11 Table 1 rows", len(as))
	}
	v, err := EvaluateAttack(as[0], SpecASan) // PHT
	if err != nil {
		t.Fatal(err)
	}
	if v.Word() != "full" {
		t.Fatalf("SpecASan on PHT = %s", v.Word())
	}
}

func TestPublicKernelRegistries(t *testing.T) {
	if len(SPECKernels()) != 15 || len(PARSECKernels()) != 7 {
		t.Fatal("kernel registries wrong")
	}
	r, err := RunBenchmark(SPECKernels()[3], Unsafe, 0.02) // namd
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles == 0 {
		t.Fatal("empty result")
	}
}

func TestPublicSecurityMatrixWriter(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix")
	}
	var buf bytes.Buffer
	if err := SecurityMatrix(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "SpecASan") {
		t.Fatal("matrix output incomplete")
	}
}

func TestHardwareCostTableRenders(t *testing.T) {
	out := HardwareCostTable()
	if !strings.Contains(out, "Total Core") {
		t.Fatal("table incomplete")
	}
}

// Example of the public API, compiled as part of the test suite.
func Example() {
	prog := MustAssemble(`
_start:
    MOV X0, #41
    ADD X0, X0, #1
    SVC #1
    SVC #0
`)
	m, err := NewMachine(DefaultConfig(), SpecASan, prog)
	if err != nil {
		panic(err)
	}
	m.Run(100_000)
	fmt.Printf("%s", m.Core(0).Output)
	// Output: 42
}
