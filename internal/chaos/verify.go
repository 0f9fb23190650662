package chaos

import (
	"fmt"

	"specasan/internal/asm"
	"specasan/internal/attacks"
	"specasan/internal/core"
	"specasan/internal/cpu"
	"specasan/internal/golden"
	"specasan/internal/isa"
	"specasan/internal/workloads"
)

// goldenInstBudget bounds the reference-interpreter replay of a chaos run.
const goldenInstBudget = 50_000_000

// VerifyGolden replays m's program on each core's golden twin
// (cpu.NewGolden) and lists every divergence cpu.Machine.GoldenDiff finds
// in the committed state: end condition, registers, flags, SVC output, exit
// code and every memory byte and MTE tag granule, which on multi-core runs
// the twins judge together (cpu.Machine.GoldenMemoryDiff). A replay that
// exhausts its instruction budget is inconclusive and listed as such.
// Empty means the chaos run was architecturally invisible, as required.
func VerifyGolden(m *cpu.Machine, prog *asm.Program) []string {
	var divs []string
	twins := make([]*golden.Interp, 0, len(m.Cores))
	for i := range m.Cores {
		ip := cpu.NewGolden(prog, m.Mit.MTEEnabled(), i)
		g := ip.Run(goldenInstBudget)
		if g.Reason == golden.StopMaxInsts {
			divs = append(divs, fmt.Sprintf("core %d: golden replay exhausted %d-inst budget (reference run inconclusive)", i, uint64(goldenInstBudget)))
		} else {
			divs = append(divs, m.GoldenDiff(i, ip, g)...)
			twins = append(twins, ip)
		}
	}
	if len(m.Cores) > 1 && len(twins) == len(m.Cores) {
		d, _ := m.GoldenMemoryDiff(prog, twins)
		divs = append(divs, d...)
	}
	return divs
}

// RunReport is the outcome of one chaos-perturbed workload run.
type RunReport struct {
	Workload   string
	Mitigation core.Mitigation
	Seed       uint64
	Injected   uint64 // total faults that fired
	Summary    string // per-kind injection counts
	Cycles     uint64
	Committed  uint64   // committed instructions across cores
	Divergence []string // empty = architectural state matched golden
}

// Failed reports whether the run diverged from the golden model.
func (r *RunReport) Failed() bool { return len(r.Divergence) > 0 }

// RunWorkload executes one benchmark kernel under one mitigation with chaos
// injection attached, then verifies the committed state against the golden
// interpreter. A watchdog verdict, a timeout, or any architectural
// divergence is reported in the result (not as an error — errors are
// reserved for being unable to run at all). Optional attach hooks run on the
// machine after construction and before the run (observability wiring).
func RunWorkload(spec *workloads.Spec, mit core.Mitigation, chaosCfg Config,
	scale float64, maxCycles uint64, attach ...func(*cpu.Machine)) (*RunReport, error) {

	prog, err := spec.Build(mit.MTEEnabled(), scale)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	cfg := core.DefaultConfig()
	if chaosCfg.Machine != nil {
		cfg = *chaosCfg.Machine
	}
	cfg.Cores = spec.Threads
	m, err := cpu.NewMachine(cfg, mit, prog)
	if err != nil {
		return nil, err
	}
	for i := 0; i < spec.Threads; i++ {
		m.Core(i).SetReg(isa.X0, uint64(i))
	}
	inj, err := New(chaosCfg)
	if err != nil {
		return nil, err
	}
	inj.Attach(m)
	for _, fn := range attach {
		fn(m)
	}
	res := m.Run(maxCycles)

	rep := &RunReport{
		Workload:   spec.Name,
		Mitigation: mit,
		Seed:       chaosCfg.Seed,
		Injected:   inj.Total(),
		Summary:    inj.Summary(),
		Cycles:     res.Cycles,
		Committed:  res.Committed,
	}
	switch {
	case res.Err != nil:
		rep.Divergence = append(rep.Divergence,
			fmt.Sprintf("watchdog: %v", res.Err))
	case res.TimedOut:
		rep.Divergence = append(rep.Divergence,
			fmt.Sprintf("timed out after %d cycles (cores %v)", res.Cycles, res.TimedOutCores()))
	default:
		rep.Divergence = VerifyGolden(m, prog)
	}
	return rep, nil
}

// VerdictDrift is one Table 1 cell whose verdict changed under chaos.
type VerdictDrift struct {
	Attack     string
	Mitigation core.Mitigation
	Baseline   attacks.Verdict
	Chaotic    attacks.Verdict
}

// String renders the drift.
func (d VerdictDrift) String() string {
	return fmt.Sprintf("%s under %v: %s -> %s",
		d.Attack, d.Mitigation, d.Baseline.Word(), d.Chaotic.Word())
}
