package cpu

import (
	"testing"

	"specasan/internal/core"
	"specasan/internal/obs"
	"specasan/internal/workloads"
)

// perfMachine builds the standard perf-measurement machine: 508.namd_r at
// scale 10 (long enough that warmup reaches steady state), default config,
// no mitigation. harness.MeasureSingleCore uses the same recipe, so the
// microbench here and the repository benchmark's cpu.ns_per_cycle measure
// the same hot loop.
func perfMachine(tb testing.TB) *Machine {
	return kernelMachine(tb, "508.namd_r", 10)
}

// kernelMachine builds an unmitigated machine running a registry kernel at
// the given scale, one core per kernel thread, each core's X0 set to its
// thread id as the harness does.
func kernelMachine(tb testing.TB, name string, scale float64) *Machine {
	tb.Helper()
	spec := workloads.ByName(name)
	if spec == nil {
		tb.Fatalf("workload %s missing", name)
	}
	prog, err := spec.Build(false, scale)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Cores = spec.Threads
	m, err := NewMachine(cfg, core.Unsafe, prog)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < spec.Threads; i++ {
		m.Core(i).SetReg(0, uint64(i))
	}
	return m
}

// TestMachineStepAllocs guards the steady-state allocation elimination: once
// the pipeline is warm, Machine.Step must not allocate. The small tolerance
// absorbs rare amortised growth (stats map resize, predictor tables) without
// letting per-instruction allocations back in.
func TestMachineStepAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	m := perfMachine(t)
	for i := 0; i < 2000 && !m.Done(); i++ {
		m.Step()
	}
	if m.Done() {
		t.Fatal("machine halted during warmup; enlarge the workload scale")
	}
	allocs := testing.AllocsPerRun(2000, func() {
		if !m.Done() {
			m.Step()
		}
	})
	if allocs > 0.01 {
		t.Errorf("Machine.Step allocates %.3f objects/step in steady state, want ~0", allocs)
	}
}

// TestMachineStepAllocsTraced is the tracing-on variant: with a tracer and
// metrics bundle attached, recording is ring stores and histogram increments,
// so steady-state Step must still not allocate — on the single-core recipe
// and on a 4-core PARSEC machine, whose cores share the hierarchy and tracer.
func TestMachineStepAllocsTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, tc := range []struct {
		name  string
		build func(testing.TB) *Machine
	}{
		{"508.namd_r", perfMachine},
		{"blackscholes", func(tb testing.TB) *Machine { return kernelMachine(tb, "blackscholes", 0.05) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.build(t)
			m.AttachObs(obs.NewTracer(len(m.Cores), 0), obs.NewMetrics(len(m.Cores)))
			for i := 0; i < 2000 && !m.Done(); i++ {
				m.Step()
			}
			if m.Done() {
				t.Fatal("machine halted during warmup; enlarge the workload scale")
			}
			allocs := testing.AllocsPerRun(2000, func() {
				if !m.Done() {
					m.Step()
				}
			})
			if allocs > 0.01 {
				t.Errorf("traced Machine.Step on %d core(s) allocates %.3f objects/step in steady state, want ~0",
					len(m.Cores), allocs)
			}
		})
	}
}

// BenchmarkMachineStep measures host ns per simulated cycle in steady state —
// the single-core throughput number CI gates against
// testdata/machinestep_ns_ref.txt.
func BenchmarkMachineStep(b *testing.B) {
	m := perfMachine(b)
	for i := 0; i < 2000 && !m.Done(); i++ {
		m.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Done() {
			b.StopTimer()
			m = perfMachine(b)
			for j := 0; j < 2000 && !m.Done(); j++ {
				m.Step()
			}
			b.StartTimer()
		}
		m.Step()
	}
}
