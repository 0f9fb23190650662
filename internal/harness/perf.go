package harness

import (
	"fmt"
	"runtime"
	"time"

	"specasan/internal/core"
	"specasan/internal/cpu"
	"specasan/internal/isa"
	"specasan/internal/workloads"
)

// SingleCorePerf is the steady-state Machine.Step measurement.
type SingleCorePerf struct {
	// HostNsPerCycle is how many host nanoseconds one simulated cycle costs.
	// With idle-cycle skipping one Step can advance many cycles, so the
	// timed loop's wall time is divided by the cycles it covered, not by its
	// Steps.
	HostNsPerCycle float64
}

// perfWorkload is the fixed single-core measurement recipe; it matches
// internal/cpu's BenchmarkMachineStep so bench/'s cpu.ns_per_cycle and the
// microbench track the same hot loop.
const (
	perfWorkloadName  = "508.namd_r"
	perfWorkloadScale = 10
)

// MeasureSingleCore runs the fixed recipe (no mitigation, default config)
// for `steps` steady-state steps and reports host ns per simulated cycle.
// warmup is the step count excluded up front — the same knob sampled
// simulation uses for its detailed windows (Options.WarmupCycles; pass
// DefaultWarmupCycles for the historical recipe).
func MeasureSingleCore(steps, warmup uint64) (SingleCorePerf, error) {
	spec := workloads.ByName(perfWorkloadName)
	if spec == nil {
		return SingleCorePerf{}, fmt.Errorf("workload %s missing", perfWorkloadName)
	}
	prog, err := spec.Build(false, perfWorkloadScale)
	if err != nil {
		return SingleCorePerf{}, err
	}
	cfg := core.DefaultConfig()
	cfg.Cores = spec.Threads
	m, err := cpu.NewMachine(cfg, core.Unsafe, prog)
	if err != nil {
		return SingleCorePerf{}, err
	}
	for i := 0; i < spec.Threads; i++ {
		m.Core(i).SetReg(isa.X0, uint64(i))
	}
	for i := uint64(0); i < warmup && !m.Done(); i++ {
		m.Step()
	}
	if m.Done() {
		return SingleCorePerf{}, fmt.Errorf("perf workload halted during warmup")
	}
	cycles0 := m.Cycle()
	runtime.GC()
	start := time.Now()
	for i := uint64(0); i < steps && !m.Done(); i++ {
		m.Step()
	}
	wall := time.Since(start)
	cycles := m.Cycle() - cycles0
	if cycles == 0 {
		return SingleCorePerf{}, fmt.Errorf("perf workload too small: no cycles in %d steps", steps)
	}
	return SingleCorePerf{HostNsPerCycle: float64(wall.Nanoseconds()) / float64(cycles)}, nil
}
