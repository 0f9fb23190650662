package fuzzer

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"specasan/internal/asm"
	"specasan/internal/attacks"
	"specasan/internal/core"
	"specasan/internal/cpu"
	"specasan/internal/isa"
	"specasan/internal/scenario"
)

// skipRunFingerprint runs sc under mit with idle skipping on or off and
// flattens everything the security tools read or could read: cycle count,
// run flags, the merged counter set with its key order, every oracle event
// with its cycle, and each core's registers, exit code and output.
func skipRunFingerprint(t *testing.T, name string, sc *attacks.Scenario, mit core.Mitigation, skip bool) string {
	t.Helper()
	_, m, res, err := attacks.RunScenario(name, sc, mit, func(m *cpu.Machine) { m.SkipIdle = skip })
	if err != nil {
		t.Fatalf("%s under %v: %v", name, mit, err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%v err=%v\n", res, res.Err)
	fmt.Fprintf(&b, "stats=%s keys=%v\n", res.Stats, res.Stats.Keys())
	fmt.Fprintf(&b, "events=%v secret_reads=%d\n", m.Oracle.Events(), m.Oracle.SecretReads)
	for _, c := range m.Cores {
		fmt.Fprintf(&b, "core %d exit=%d output=%q regs=", c.ID, c.ExitCode, c.Output)
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			fmt.Fprintf(&b, "%x ", c.Reg(r))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestSkipIdleSecurityReferee is the referee for idle skipping on the
// security workload's programs: every Table 1 variant, every checked-in PoC
// and the seed-1 batch of fuzz candidates, each under every registered
// mitigation, must run identically with skipping on and off. These programs
// flush with DC CIVAC and fence with DSB, so most of their cycles have
// entries retrying in the ready queue: the shapes the skip jumps over.
func TestSkipIdleSecurityReferee(t *testing.T) {
	_ = scenario.DelayOnMiss // ensure the registry includes the ninth policy
	type program struct {
		name string
		sc   *attacks.Scenario
	}
	var progs []program
	for _, a := range attacks.All() {
		for _, v := range a.Variants {
			sc, err := v.Build()
			if err != nil {
				t.Fatalf("%s/%s: %v", a.Name, v.Name, err)
			}
			progs = append(progs, program{a.Name + "/" + v.Name, sc})
		}
	}
	paths, err := filepath.Glob(filepath.Join("testdata", "pocs", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no checked-in PoCs under testdata/pocs (%v)", err)
	}
	for _, path := range paths {
		p, err := ReadPoC(path)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := p.Variant().Build()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		progs = append(progs, program{p.Name, sc})
	}
	for i := 0; i < 128; i++ {
		c := Generate(1, i)
		prog, err := asm.Assemble(c.Source)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		progs = append(progs, program{c.Name(), c.Setup.Scenario(prog, evalMaxCycles)})
	}

	mits := core.RegisteredMitigations()
	for _, p := range progs {
		for _, mit := range mits {
			on := skipRunFingerprint(t, p.name, p.sc, mit, true)
			off := skipRunFingerprint(t, p.name, p.sc, mit, false)
			if on != off {
				t.Errorf("%s under %v diverges:\n-- skip on --\n%s-- skip off --\n%s", p.name, mit, on, off)
			}
		}
	}
	t.Logf("%d programs × %d mitigations, each run with skipping on and off", len(progs), len(mits))
}
