package fuzzer

import (
	"fmt"
	"strings"
	"testing"

	"specasan/internal/asm"
	"specasan/internal/attacks"
	"specasan/internal/core"
	"specasan/internal/cpu"
	"specasan/internal/isa"
)

// finishedRun assembles c, runs it under mit with prep and a cycle bound,
// and returns the finished run with a golden walk of the same program.
func finishedRun(t *testing.T, c *Candidate, mit core.Mitigation, maxCycles uint64, prep func(*cpu.Machine)) (*cpu.Machine, *cpu.RunResult, *asm.Program, *goldenState) {
	t.Helper()
	prog, err := asm.Assemble(c.Source)
	if err != nil {
		t.Fatal(err)
	}
	_, m, res, err := attacks.RunScenario(c.Name(), c.Setup.Scenario(prog, maxCycles), mit, prep)
	if err != nil {
		t.Fatal(err)
	}
	return m, res, prog, runGolden(c, prog, mit.MTEEnabled())
}

func clean(res *cpu.RunResult) bool { return res.Err == nil && !res.TimedOut && !res.Faulted }

func TestCrossCheckFinishedRun(t *testing.T) {
	gen := Generate(1, 0)
	// A committed tag-mismatching load faults under MTE.
	faulting := &Candidate{
		Source: fmt.Sprintf("_start:\n    MOV X1, #%d\n    LDR X2, [X1]\n    SVC #0\n", attacks.SecretAddr),
		Setup:  attacks.SetupSpec{Common: true},
	}
	probeByte := uint64(attacks.FuzzProbeAddr + 0x1234) // past the probe's first page
	secretByte := uint64(attacks.SecretAddr + 3)

	cases := []struct {
		name      string
		cand      *Candidate
		mit       core.Mitigation // zero is Unsafe
		maxCycles uint64
		prep      func(*cpu.Machine)
		ran       func(*cpu.RunResult) bool // what the run must have been
		edit      func(*cpu.Machine, *goldenState)
		want      string // "" = cross-checks clean
	}{
		{name: "clean", ran: clean},
		{
			// The Outcome carries no watchdog error, only the RunResult does.
			name: "watchdog", prep: func(m *cpu.Machine) { m.Core(0).InjectWedge() },
			ran:  func(r *cpu.RunResult) bool { return r.Err != nil && !r.TimedOut && !r.Faulted },
			want: "machine inconclusive",
		},
		{
			name: "timeout", maxCycles: 100,
			ran:  func(r *cpu.RunResult) bool { return r.TimedOut },
			want: "machine inconclusive",
		},
		{
			name: "fault", cand: faulting, mit: core.MTE,
			ran:  func(r *cpu.RunResult) bool { return r.Faulted },
			want: "machine faulted",
		},
		{
			name: "register", ran: clean,
			edit: func(_ *cpu.Machine, g *goldenState) { g.res.Regs[isa.Reg(5)] ^= 1 },
			want: fmt.Sprintf("%v = ", isa.Reg(5)),
		},
		{
			name: "data byte", ran: clean,
			edit: func(m *cpu.Machine, g *goldenState) {
				g.ip.Mem.SetByte(probeByte+9, m.Img.ByteAt(probeByte+9)^2)
				g.ip.Mem.SetByte(probeByte, m.Img.ByteAt(probeByte)^1)
			},
			want: "mem[0x201234] = ", // the first differing byte
		},
		{
			name: "secret byte", ran: clean,
			edit: func(m *cpu.Machine, g *goldenState) { g.ip.Mem.SetByte(secretByte, m.Img.ByteAt(secretByte)^1) },
			want: "secret[0x100083] = ",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.cand == nil {
				tc.cand = gen
			}
			if tc.maxCycles == 0 {
				tc.maxCycles = evalMaxCycles
			}
			m, res, prog, g := finishedRun(t, tc.cand, tc.mit, tc.maxCycles, tc.prep)
			if !tc.ran(res) {
				t.Fatalf("run ended err=%v timedout=%v faulted=%v", res.Err, res.TimedOut, res.Faulted)
			}
			if tc.edit != nil {
				tc.edit(m, g)
			}
			err := crossCheck(m, res, prog, g)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("crossCheck = %v, want nil", err)
			case tc.want != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.want)):
				t.Fatalf("crossCheck = %v, want an error starting %q", err, tc.want)
			}
		})
	}
}
