// Package attacks contains proof-of-concept implementations of the eleven
// transient-execution attack variants in Table 1 of the paper (five Spectre
// variants, three MDS variants, three speculative-contention-channel
// variants), plus the harness that runs each PoC under each mitigation and
// derives the full/partial/no-mitigation verdicts.
//
// Methodology (§4.3 of the paper): end-to-end timing extraction is not
// meaningful inside a simulator, so an attack "succeeds" when the leak
// oracle observes a secret-derived change to microarchitectural state during
// transient execution — the same detection-log approach the paper uses.
// Attacks that the paper rates "partial" against SpecASan ship two gadget
// variants: one whose secret access violates MTE tags (blocked) and one that
// reaches the secret through a tag-valid pointer (not blocked).
package attacks

import (
	"fmt"

	"specasan/internal/asm"
	"specasan/internal/core"
	"specasan/internal/cpu"
)

// Standard PoC memory layout. Every PoC uses (a subset of) these regions so
// the setup code can be shared.
const (
	Array1Addr = 0x100000 // victim array, tagged TagVictim
	Array1Size = 128
	SecretAddr = 0x100080 // the secret, tagged TagSecret, right past array1
	SecretSize = 16
	ProbeAddr  = 0x110000 // attacker probe array (untagged)
	ProbeSize  = 4096
	KernelAddr = 0xf00000 // "kernel" page: assist (permission-faulting) region
	KernelSize = 0x1000
)

// Tags used by the PoCs.
const (
	TagVictim = 0xa
	TagSecret = 0xb
)

// SecretValue is the 64-bit secret planted at SecretAddr.
const SecretValue = 0x5ec4e7_c0ffee

// Scenario is one runnable attack instance.
type Scenario struct {
	Prog      *asm.Program
	Setup     func(m *cpu.Machine) // tags, secrets, predictor poisoning, assists
	MaxCycles uint64
}

// Variant is one gadget flavour of an attack.
type Variant struct {
	Name  string
	Build func() (*Scenario, error)
	// Gadget is the recipe a rendered variant is built from; nil on a
	// hand-written one.
	Gadget *Gadget
}

// Attack is one Table 1 row.
type Attack struct {
	Name     string // display name, e.g. "PHT (Spectre v1)"
	Class    string // "Spectre", "MDS", "SCC"
	Variants []Variant
}

// Outcome is the result of one variant under one mitigation.
type Outcome struct {
	Variant     string
	Leaked      bool
	SecretReads uint64
	Events      map[core.LeakChannel]int
	Faulted     bool
	TimedOut    bool
	Cycles      uint64
}

// Verdict is a Table 1 cell.
type Verdict uint8

// Verdicts: full mitigation (●), partial (◐), none (○).
const (
	VerdictNone Verdict = iota
	VerdictPartial
	VerdictFull
)

// String renders the verdict as the paper's symbol.
func (v Verdict) String() string {
	switch v {
	case VerdictFull:
		return "●"
	case VerdictPartial:
		return "◐"
	default:
		return "○"
	}
}

// Word renders the verdict as text.
func (v Verdict) Word() string {
	switch v {
	case VerdictFull:
		return "full"
	case VerdictPartial:
		return "partial"
	default:
		return "none"
	}
}

// RunVariant executes one variant under the given mitigation.
func RunVariant(v Variant, mit core.Mitigation) (*Outcome, error) {
	return RunVariantWith(v, mit, nil)
}

// RunVariantWith builds one variant and runs it with a machine-preparation
// hook applied after the scenario's own setup — the entry point the chaos
// injector uses to perturb attack runs for verdict-invariance checking.
// The machine's life ends here: once the Outcome is built it is released
// for the next run to reuse, so prep may attach hooks, tracers and metrics
// to it but must not keep the machine itself.
func RunVariantWith(v Variant, mit core.Mitigation, prep func(*cpu.Machine)) (*Outcome, error) {
	sc, err := v.Build()
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", v.Name, err)
	}
	out, m, _, err := RunScenario(v.Name, sc, mit, prep)
	if err != nil {
		return nil, err
	}
	m.Release()
	return out, nil
}

// RunScenario runs a built scenario under mit on a fresh machine, applying
// prep after the scenario's setup, and derives the oracle outcome. It also
// returns the finished machine and its run result, so a caller can inspect
// the final state without simulating the same deterministic run again. A
// scenario can be run any number of times: each run builds its own machine.
func RunScenario(name string, sc *Scenario, mit core.Mitigation, prep func(*cpu.Machine)) (*Outcome, *cpu.Machine, *cpu.RunResult, error) {
	m, err := cpu.NewMachine(core.DefaultConfig(), mit, sc.Prog)
	if err != nil {
		return nil, nil, nil, err
	}
	if sc.Setup != nil {
		sc.Setup(m)
	}
	if prep != nil {
		prep(m)
	}
	maxC := sc.MaxCycles
	if maxC == 0 {
		maxC = 2_000_000
	}
	res := m.Run(maxC)
	out := &Outcome{
		Variant:     name,
		Leaked:      m.Oracle.Leaked(),
		SecretReads: m.Oracle.SecretReads,
		Events:      map[core.LeakChannel]int{},
		Faulted:     res.Faulted,
		TimedOut:    res.TimedOut,
		Cycles:      res.Cycles,
	}
	for _, ev := range m.Oracle.Events() {
		out.Events[ev.Channel]++
	}
	return out, m, res, nil
}

// Evaluate runs every variant of the attack under a mitigation and derives
// the Table 1 verdict: full when no variant leaked, none when all leaked,
// partial otherwise.
func (a *Attack) Evaluate(mit core.Mitigation) (Verdict, []*Outcome, error) {
	return a.EvaluateWith(mit, nil)
}

// EvaluateWith derives the verdict with a machine-preparation hook applied
// to every variant run (chaos perturbation).
func (a *Attack) EvaluateWith(mit core.Mitigation, prep func(*cpu.Machine)) (Verdict, []*Outcome, error) {
	outs := make([]*Outcome, 0, len(a.Variants))
	for _, v := range a.Variants {
		out, err := RunVariantWith(v, mit, prep)
		if err != nil {
			return VerdictNone, nil, fmt.Errorf("%s/%s: %w", a.Name, v.Name, err)
		}
		outs = append(outs, out)
	}
	return AggregateVerdict(outs), outs, nil
}

// AggregateVerdict folds per-variant outcomes into the Table 1 cell: full
// mitigation when no variant leaked, none when every variant leaked, partial
// otherwise. An empty outcome list is vacuously full — no variant leaked.
func AggregateVerdict(outs []*Outcome) Verdict {
	leaked, blocked := 0, 0
	for _, out := range outs {
		if out.Leaked {
			leaked++
		} else {
			blocked++
		}
	}
	switch {
	case leaked == 0:
		return VerdictFull
	case blocked == 0:
		return VerdictNone
	default:
		return VerdictPartial
	}
}

// setupCommon plants the secret, tags the victim regions, fills array1
// with benign indices and marks the oracle: the Common setup alone, which
// every PoC setup starts with.
func setupCommon(m *cpu.Machine) {
	common := SetupSpec{Common: true}
	common.ApplyImage(m.Img)
	m.Oracle.MarkSecret(SecretAddr, SecretSize)
}

// All returns the Table 1 attack rows in presentation order.
func All() []*Attack {
	return []*Attack{
		SpectrePHT(),
		SpectreBTB(),
		SpectreRSB(),
		SpectreSTL(),
		SpectreBHB(),
		Fallout(),
		RIDL(),
		ZombieLoad(),
		SMoTHERSpectre(),
		SpeculativeInterference(),
		SpectreRewind(),
	}
}

// TableMitigations returns the defence columns of Table 1.
func TableMitigations() []core.Mitigation {
	return []core.Mitigation{core.STT, core.GhostMinion, core.SpecCFI,
		core.SpecASan, core.SpecASanCFI}
}
