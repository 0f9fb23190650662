package chaos

import (
	"fmt"
	"sort"

	"specasan/internal/asm"
	"specasan/internal/attacks"
	"specasan/internal/core"
	"specasan/internal/cpu"
	"specasan/internal/golden"
	"specasan/internal/isa"
	"specasan/internal/mem"
	"specasan/internal/mte"
	"specasan/internal/workloads"
)

// goldenInstBudget bounds the reference-interpreter replay of a chaos run.
const goldenInstBudget = 50_000_000

// VerifyGolden replays m's program on the golden interpreter (one replay per
// core, with the core's tag seed and thread id) and compares the committed
// architectural state: end condition, registers, SVC output, exit code, and
// — on single-core runs, where the machine's memory image has exactly one
// writer — every allocated memory byte and every MTE tag granule. Multi-core
// golden replays each own a private image, so cross-core memory is only
// checked implicitly through each core's loaded values.
//
// The returned slice describes every divergence found; empty means the chaos
// run was architecturally invisible, as required.
func VerifyGolden(m *cpu.Machine, prog *asm.Program) []string {
	var divs []string
	for i, c := range m.Cores {
		ip := golden.New(prog)
		ip.MTEOn = m.Mit.MTEEnabled()
		ip.TagSeed = cpu.TagSeedBase + uint64(i)
		ip.SetReg(isa.X0, uint64(i))
		g := ip.Run(goldenInstBudget)

		if g.Reason == golden.StopMaxInsts {
			divs = append(divs, fmt.Sprintf("core %d: golden replay exhausted %d-inst budget (reference run inconclusive)", i, uint64(goldenInstBudget)))
			continue
		}
		if g.Reason == golden.StopTagFault || g.Reason == golden.StopBadPC {
			if !c.Faulted {
				divs = append(divs, fmt.Sprintf("core %d: golden stopped with %v at %#x, machine did not fault", i, g.Reason, g.FaultPC))
			}
			continue // faulting runs stop mid-program; no further state to compare
		}
		if c.Faulted {
			divs = append(divs, fmt.Sprintf("core %d: machine faulted at %#x, golden exited cleanly", i, c.FaultPC))
			continue
		}
		if !c.Halted {
			divs = append(divs, fmt.Sprintf("core %d: still running (golden exited after %d insts)", i, g.Insts))
			continue
		}
		if c.ExitCode != g.ExitCode {
			divs = append(divs, fmt.Sprintf("core %d: exit code %#x, golden %#x", i, c.ExitCode, g.ExitCode))
		}
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if r == isa.XZR {
				continue
			}
			if got, want := c.Reg(r), g.Regs[r]; got != want {
				divs = append(divs, fmt.Sprintf("core %d: %v = %#x, golden %#x", i, r, got, want))
			}
		}
		if string(c.Output) != string(g.Output) {
			divs = append(divs, fmt.Sprintf("core %d: output %q, golden %q", i, c.Output, g.Output))
		}
		if len(m.Cores) == 1 {
			divs = append(divs, diffMemory(m.Img, ip.Mem)...)
			for _, gr := range m.Img.Tags.DiffGranules(ip.Mem.Tags) {
				divs = append(divs, fmt.Sprintf("tag granule %#x: machine lock %d, golden %d",
					gr*mte.GranuleBytes, m.Img.Tags.LockAtGranule(gr), ip.Mem.Tags.LockAtGranule(gr)))
				if len(divs) > 32 {
					return divs
				}
			}
		}
		if len(divs) > 32 {
			return divs
		}
	}
	return divs
}

// diffMemory byte-compares two images over the union of their allocated
// pages (unallocated reads as zero on either side).
func diffMemory(a, b *mem.Image) []string {
	seen := map[uint64]bool{}
	var pages []uint64
	for _, p := range append(a.PageAddrs(), b.PageAddrs()...) {
		if !seen[p] {
			seen[p] = true
			pages = append(pages, p)
		}
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	var divs []string
	for _, page := range pages {
		for off := uint64(0); off < mem.PageBytes; off++ {
			addr := page + off
			if av, bv := a.ByteAt(addr), b.ByteAt(addr); av != bv {
				divs = append(divs, fmt.Sprintf("mem[%#x] = %#x, golden %#x", addr, av, bv))
				if len(divs) >= 16 {
					return divs
				}
			}
		}
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
