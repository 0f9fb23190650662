package fuzzer

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"specasan/internal/asm"
	"specasan/internal/attacks"
	"specasan/internal/core"
	"specasan/internal/cpu"
	"specasan/internal/golden"
	"specasan/internal/isa"
	"specasan/internal/par"
	"specasan/internal/scenario"
)

// printer fills a table, sums it back and prints the sum, so a run leaves
// console output on the machine and on the golden interpreter alike.
const printer = `
_start:
    ADR  X1, table
    MOV  X2, #0
    MOV  X0, #0
loop:
    STR  X2, [X1]
    LDR  X3, [X1]
    ADD  X0, X0, X3
    ADD  X1, X1, #8
    ADD  X2, X2, #1
    CMP  X2, #64
    B.LT loop
    SVC  #1
    SVC  #0
    .org 0x200000
table:
    .space 512
`

// TestReleasedResultsStayPut pins that no result aliases recycled storage:
// everything a released run returned — a PoC's Outcome, a RunResult with
// its Stats, each core's registers and Output, the oracle's events, a
// golden Result's Output and a candidate Evaluation — must read the same
// after later runs have reused the released machines' and images' arrays.
func TestReleasedResultsStayPut(t *testing.T) {
	_ = scenario.DelayOnMiss // the registry's ninth policy
	mits := core.RegisteredMitigations()
	pht := attacks.SpectrePHT().Variants[0]
	sc, err := pht.Build()
	if err != nil {
		t.Fatal(err)
	}
	out, leaky, leakyRes, err := attacks.RunScenario(pht.Name, sc, core.Unsafe, nil)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(printer)
	if err != nil {
		t.Fatal(err)
	}
	talky, err := cpu.NewMachine(core.DefaultConfig(), core.SpecASan, prog)
	if err != nil {
		t.Fatal(err)
	}
	talkyRes := talky.Run(1_000_000)
	ip := golden.New(prog)
	gold := ip.Run(goldenBudget)
	poc, err := attacks.RunVariant(pht, core.Unsafe)
	if err != nil {
		t.Fatal(err)
	}
	ev := EvaluateCandidate(Generate(1, 8), mits)
	if !out.Leaked || len(leaky.Oracle.Events()) == 0 || len(talky.Core(0).Output) == 0 ||
		len(gold.Output) == 0 || !ev.Flagged() {
		t.Fatal("the runs must leak, print and flag for this test to mean anything")
	}

	render := func() string {
		var b strings.Builder
		fmt.Fprintf(&b, "outcome %+v\nreleased outcome %+v\n", *out, *poc)
		for _, r := range []*cpu.RunResult{leakyRes, talkyRes} {
			fmt.Fprintf(&b, "run %v err=%v statuses=%+v stats=%s keys=%v\n",
				r, r.Err, r.CoreStatuses, r.Stats, r.Stats.Keys())
		}
		for _, m := range []*cpu.Machine{leaky, talky} {
			for _, c := range m.Cores {
				fmt.Fprintf(&b, "core %d exit=%d output=%q stats=%s regs=", c.ID, c.ExitCode, c.Output, c.Stats)
				for r := isa.Reg(0); r < isa.NumRegs; r++ {
					fmt.Fprintf(&b, "%x ", c.Reg(r))
				}
				b.WriteByte('\n')
			}
			fmt.Fprintf(&b, "events=%v secret_reads=%d\n", m.Oracle.Events(), m.Oracle.SecretReads)
		}
		fmt.Fprintf(&b, "golden %+v\nevaluation %+v\n", *gold, *ev)
		return b.String()
	}
	before := render()
	leaky.Release()
	talky.Release()
	ip.Mem.Release()

	// A later round reuses the released arrays: PoCs, candidate
	// evaluations, and the printer again under every policy.
	for _, mit := range mits {
		if _, err := attacks.RunVariant(pht, mit); err != nil {
			t.Fatal(err)
		}
		m, err := cpu.NewMachine(core.DefaultConfig(), mit, prog)
		if err != nil {
			t.Fatal(err)
		}
		m.Run(1_000_000)
		m.Release()
		g := golden.New(prog)
		g.Run(goldenBudget)
		g.Mem.Release()
	}
	for i := 0; i < 4; i++ {
		EvaluateCandidate(Generate(1, i), mits)
	}
	if after := render(); after != before {
		t.Fatalf("released results changed after their storage was reused:\n--- before ---\n%s\n--- after ---\n%s", before, after)
	}
}

// TestConcurrentRecycling evaluates the seed-1 batch from several goroutines
// at once, as Run's pool does, so released arrays pass between goroutines
// through the pools: every Evaluation must equal its serial result. CI runs
// it under the race detector with -count=10.
func TestConcurrentRecycling(t *testing.T) {
	_ = scenario.DelayOnMiss // the registry's ninth policy
	mits := core.RegisteredMitigations()
	n := 128
	if testing.Short() {
		n = 16
	}
	cands := make([]*Candidate, n)
	serial := make([]*Evaluation, n)
	for i := range cands {
		cands[i] = Generate(1, i)
		serial[i] = EvaluateCandidate(cands[i], mits)
	}
	concurrent := make([]*Evaluation, n)
	par.ForEachOrdered(n, 4, func(i int) {
		concurrent[i] = EvaluateCandidate(cands[i], mits)
	}, nil)
	for i := range cands {
		if !reflect.DeepEqual(concurrent[i], serial[i]) {
			t.Errorf("%s: concurrent evaluation %+v, serial %+v", cands[i].Name(), *concurrent[i], *serial[i])
		}
	}
}
