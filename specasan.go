// Package specasan is the public API of the SpecASan reproduction: a
// cycle-level out-of-order CPU simulator with an ARM-MTE model, the
// Speculative Address Sanitization mechanism from the ISCA 2025 paper, the
// baseline mitigations it is compared against (speculative barriers, STT,
// GhostMinion, SpecCFI), the Table 1 attack suite, and the benchmark kernels
// behind Figures 6-9.
//
// Quick start:
//
//	prog := specasan.MustAssemble(`
//	_start:
//	    MOV X0, #41
//	    ADD X0, X0, #1
//	    SVC #0
//	`)
//	m, err := specasan.NewMachine(specasan.DefaultConfig(), specasan.SpecASan, prog)
//	if err != nil { ... }
//	res := m.Run(1_000_000)
//
// The deeper layers are exposed for power users: internal/cpu (pipeline),
// internal/cache (hierarchy), internal/attacks (PoCs), internal/workloads
// (kernels), internal/harness (experiment sweeps).
package specasan

import (
	"io"

	"specasan/internal/asm"
	"specasan/internal/attacks"
	"specasan/internal/core"
	"specasan/internal/cpu"
	"specasan/internal/golden"
	"specasan/internal/harness"
	"specasan/internal/hwcost"
	"specasan/internal/isa"
	"specasan/internal/scenario"
	"specasan/internal/workloads"
)

// Re-exported core types. Machine is a complete simulated system; Config is
// the Table 2 microarchitecture; Mitigation selects the defence.
type (
	// Machine is a simulated multi-core system.
	Machine = cpu.Machine
	// RunResult summarises a completed simulation.
	RunResult = cpu.RunResult
	// Config is the simulated CPU configuration (Table 2 defaults).
	Config = core.Config
	// Mitigation selects the transient-execution defence.
	Mitigation = core.Mitigation
	// Program is an assembled program.
	Program = asm.Program
	// Reg is an architectural register (X0..X30, XZR, SP).
	Reg = isa.Reg
	// PolicyDescriptor describes a mitigation as registry data: name,
	// defence class, the behaviour bits the pipeline reads, numeric knobs.
	PolicyDescriptor = core.PolicyDescriptor
	// Scenario is a declarative, hashable experiment description.
	Scenario = scenario.Scenario
)

// Mitigation configurations (see core.Mitigation).
const (
	Unsafe      = core.Unsafe      // no protection: the normalisation baseline
	MTE         = core.MTE         // committed-path tag checks only
	Fence       = core.Fence       // speculative barriers (delay-ACCESS)
	STT         = core.STT         // speculative taint tracking (delay-USE)
	GhostMinion = core.GhostMinion // shadow fill structure (delay-TRANSMIT)
	SpecCFI     = core.SpecCFI     // speculative control-flow integrity
	SpecASan    = core.SpecASan    // this paper: speculative MTE enforcement
	SpecASanCFI = core.SpecASanCFI // SpecASan + SpecCFI
)

// DefaultConfig returns the paper's Table 2 configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// RegisterPolicy registers a new mitigation described purely by descriptor
// data; the pipeline reads its behaviour bits, never its identity.
func RegisterPolicy(d PolicyDescriptor) (Mitigation, error) { return core.RegisterPolicy(d) }

// ParseMitigation resolves a registered mitigation by name
// (case-insensitive).
func ParseMitigation(name string) (Mitigation, error) { return core.ParseMitigation(name) }

// LoadScenario resolves a preset name or scenario file into a validated
// Scenario (see internal/scenario for presets and layering semantics).
func LoadScenario(nameOrPath string) (*Scenario, error) { return scenario.Load(nameOrPath) }

// NewMachine builds a simulated machine running prog under the mitigation.
func NewMachine(cfg Config, mit Mitigation, prog *Program) (*Machine, error) {
	return cpu.NewMachine(cfg, mit, prog)
}

// Assemble translates assembly text into a Program.
func Assemble(src string) (*Program, error) { return asm.Assemble(src) }

// MustAssemble is Assemble, panicking on error.
func MustAssemble(src string) *Program { return asm.MustAssemble(src) }

// Interpret runs a program on the functional reference interpreter (no
// speculation, no timing) and returns its final state. mteOn enforces
// committed-path tag checks.
func Interpret(prog *Program, mteOn bool, maxInsts uint64) *golden.Result {
	return cpu.NewGolden(prog, mteOn, 0).Run(maxInsts)
}

// Attacks returns the Table 1 attack suite (11 transient-execution attack
// variants, each with one or more gadget flavours).
func Attacks() []*attacks.Attack { return attacks.All() }

// EvaluateAttack runs every variant of an attack under a mitigation and
// returns the Table 1 verdict.
func EvaluateAttack(a *attacks.Attack, mit Mitigation) (attacks.Verdict, error) {
	v, _, err := a.Evaluate(mit)
	return v, err
}

// SecurityMatrix writes the full empirical Table 1 to w.
func SecurityMatrix(w io.Writer) error { return harness.SecurityMatrix(w) }

// SPECKernels returns the fifteen SPEC CPU2017-like benchmark kernels.
func SPECKernels() []*workloads.Spec { return workloads.SPEC() }

// PARSECKernels returns the seven PARSEC-like multi-threaded kernels.
func PARSECKernels() []*workloads.Spec { return workloads.PARSEC() }

// RunBenchmark executes one kernel under one mitigation.
func RunBenchmark(spec *workloads.Spec, mit Mitigation, scale float64) (*harness.PerfResult, error) {
	opt := harness.DefaultOptions()
	opt.Scale = scale
	return harness.RunBenchmark(spec, mit, opt)
}

// HardwareCostTable returns the Table 3 hardware-cost model output.
func HardwareCostTable() string { return hwcost.Format(hwcost.Model()) }

// Version identifies this reproduction.
const Version = "1.0.0"
