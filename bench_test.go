package specasan

// One benchmark per figure of the paper, plus the ablation benches
// DESIGN.md calls out. The benches run reduced-scale versions of each
// experiment and report the paper's metric (normalized execution time,
// restriction percentage) through b.ReportMetric, so `go test -bench` gives
// a quick-look reproduction; cmd/specasan-bench regenerates the full-size
// figures. Tables 1 and 3 have no bench: TestTable1Matrix and the
// specasan-sec and specasan-hw tests assert them.

import (
	"fmt"
	"testing"

	"specasan/internal/asm"
	"specasan/internal/attacks"
	"specasan/internal/core"
	"specasan/internal/cpu"
	"specasan/internal/harness"
	"specasan/internal/isa"
	"specasan/internal/scenario"
	"specasan/internal/workloads"
)

const benchScale = 0.1

func benchOpts() harness.Options {
	opt := harness.DefaultOptions()
	opt.Scale = benchScale
	return opt
}

// runKernel executes one kernel under one mitigation and returns cycles.
func runKernel(b *testing.B, name string, mit core.Mitigation) uint64 {
	b.Helper()
	spec := workloads.ByName(name)
	if spec == nil {
		b.Fatalf("unknown kernel %s", name)
	}
	r, err := harness.RunBenchmark(spec, mit, benchOpts())
	if err != nil {
		b.Fatal(err)
	}
	return r.Cycles
}

// BenchmarkFigure1DefenseClasses contrasts the defence classes of Figure 1
// on a Spectre-v1-shaped benign loop: the reported metrics are the
// normalized execution times of delay-ACCESS (barriers), delay-USE (STT),
// delay-TRANSMIT (GhostMinion) and SpecASan's selective delay.
func BenchmarkFigure1DefenseClasses(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := runKernel(b, "500.perlbench_r", core.Unsafe)
		b.ReportMetric(float64(runKernel(b, "500.perlbench_r", core.Fence))/float64(base), "xAccessDelay")
		b.ReportMetric(float64(runKernel(b, "500.perlbench_r", core.STT))/float64(base), "xUseDelay")
		b.ReportMetric(float64(runKernel(b, "500.perlbench_r", core.GhostMinion))/float64(base), "xTransmitDelay")
		b.ReportMetric(float64(runKernel(b, "500.perlbench_r", core.SpecASan))/float64(base), "xSpecASan")
	}
}

// presetMitigations returns a figure preset's mitigation columns.
func presetMitigations(b *testing.B, name string) []core.Mitigation {
	b.Helper()
	s, ok := scenario.Preset(name)
	if !ok {
		b.Fatalf("no preset %q", name)
	}
	mits, err := s.MitigationList()
	if err != nil {
		b.Fatal(err)
	}
	return mits
}

// figureGeomean sweeps the given kernels/mitigations at bench scale and
// reports each mitigation's geomean normalized execution time.
func figureGeomean(b *testing.B, specs []*workloads.Spec, mits []core.Mitigation) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		sw, err := harness.RunSweep(specs, mits, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range mits {
			if m == core.Unsafe {
				continue
			}
			b.ReportMetric(sw.GeomeanNormalized(m), "x"+m.String())
		}
	}
}

// BenchmarkFigure6SPEC reproduces Figure 6: SPEC CPU2017 normalized
// execution time under barriers, STT, GhostMinion and SpecASan. Four
// representative kernels at bench scale; specasan-bench -fig 6 runs all 15.
func BenchmarkFigure6SPEC(b *testing.B) {
	specs := []*workloads.Spec{
		workloads.ByName("500.perlbench_r"), workloads.ByName("505.mcf_r"),
		workloads.ByName("508.namd_r"), workloads.ByName("523.xalancbmk_r"),
	}
	figureGeomean(b, specs, presetMitigations(b, scenario.PresetFigure6))
}

// BenchmarkFigure7PARSEC reproduces Figure 7: PARSEC (4 cores) normalized
// execution time. Two representative kernels at bench scale.
func BenchmarkFigure7PARSEC(b *testing.B) {
	specs := []*workloads.Spec{
		workloads.ByName("blackscholes"), workloads.ByName("canneal"),
	}
	figureGeomean(b, specs, presetMitigations(b, scenario.PresetFigure7))
}

// BenchmarkFigure8Restricted reproduces Figure 8: the percentage of
// committed instructions each mitigation delayed.
func BenchmarkFigure8Restricted(b *testing.B) {
	specs := []*workloads.Spec{
		workloads.ByName("500.perlbench_r"), workloads.ByName("505.mcf_r"),
		workloads.ByName("541.leela_r"),
	}
	for i := 0; i < b.N; i++ {
		sw, err := harness.RunSweep(specs, presetMitigations(b, scenario.PresetFigure8), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sw.MeanRestrictedPct(core.Fence), "%barrier")
		b.ReportMetric(sw.MeanRestrictedPct(core.STT), "%stt")
		b.ReportMetric(sw.MeanRestrictedPct(core.SpecASan), "%specasan")
	}
}

// BenchmarkFigure9CFI reproduces Figure 9: SpecCFI, SpecASan, and their
// combination, normalized to the unsafe baseline.
func BenchmarkFigure9CFI(b *testing.B) {
	specs := []*workloads.Spec{
		workloads.ByName("500.perlbench_r"), workloads.ByName("525.x264_r"),
		workloads.ByName("511.povray_r"),
	}
	figureGeomean(b, specs, presetMitigations(b, scenario.PresetFigure9))
}

// --- Ablations (design choices DESIGN.md calls out) -----------------------

// ablationCycles runs one kernel under SpecASan with a tweaked config.
func ablationCycles(b *testing.B, name string, tweak func(*core.Config)) uint64 {
	b.Helper()
	spec := workloads.ByName(name)
	prog, err := spec.Build(true, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Cores = spec.Threads
	if tweak != nil {
		tweak(&cfg)
	}
	m, err := cpu.NewMachine(cfg, core.SpecASan, prog)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < spec.Threads; i++ {
		m.Core(i).SetReg(isa.X0, uint64(i))
	}
	res := m.Run(500_000_000)
	if res.TimedOut || res.Faulted {
		b.Fatalf("ablation run failed: %v", res)
	}
	return res.Cycles
}

// BenchmarkAblationSelectiveDelay compares SpecASan's selective delay (only
// tag-mismatching speculative accesses wait) against delaying every tagged
// speculative load — quantifying the value of §3.4's design choice.
func BenchmarkAblationSelectiveDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sel := ablationCycles(b, "505.mcf_r", nil)
		all := ablationCycles(b, "505.mcf_r", func(c *core.Config) { c.SelectiveDelay = false })
		b.ReportMetric(float64(all)/float64(sel), "xDelayAll")
	}
}

// BenchmarkAblationBroadcastLatency varies the ROB dependent-marking
// broadcast latency (§3.4: one cycle in a small ROB, multiple in a large
// one). Benign code exercises the broadcast only on rare unsafe accesses,
// so a ratio of ~1.0 is itself the finding: the marking latency is off the
// critical path, as the paper argues for small ROBs.
func BenchmarkAblationBroadcastLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fast := ablationCycles(b, "523.xalancbmk_r", nil)
		slow := ablationCycles(b, "523.xalancbmk_r", func(c *core.Config) { c.BroadcastLatency = 8 })
		b.ReportMetric(float64(slow)/float64(fast), "xBroadcast8")
	}
}

// BenchmarkAblationLFBTags measures the security value of the LFB tagging
// extension: with it the RIDL stale forward is refused, without it the
// attack leaks even under SpecASan.
func BenchmarkAblationLFBTags(b *testing.B) {
	for i := 0; i < b.N; i++ {
		leaksWith, leaksWithout := 0, 0
		for _, on := range []bool{true, false} {
			v := attacks.RIDL().Variants[0]
			sc, err := v.Build()
			if err != nil {
				b.Fatal(err)
			}
			cfg := core.DefaultConfig()
			cfg.LFBTagging = on
			m, err := cpu.NewMachine(cfg, core.SpecASan, sc.Prog)
			if err != nil {
				b.Fatal(err)
			}
			sc.Setup(m)
			m.Run(2_000_000)
			if m.Oracle.Leaked() {
				if on {
					leaksWith++
				} else {
					leaksWithout++
				}
			}
		}
		b.ReportMetric(float64(leaksWith), "leaksWithLFBTags")
		b.ReportMetric(float64(leaksWithout), "leaksWithoutLFBTags")
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

// BenchmarkAblationPrefetcher quantifies the §6 prefetcher extension: the
// speedup of next-line prefetching on a streaming kernel, and that the
// checked variant (which refuses to cross allocation-tag boundaries) keeps
// almost all of it.
func BenchmarkAblationPrefetcher(b *testing.B) {
	run := func(on, checked bool) uint64 {
		// A unit-stride streaming kernel: the next-line prefetcher's home turf.
		src := workloads.Generate(workloads.Params{
			WorkingSetKB: 256, Iterations: 2000, Stride: 1, ComputeOps: 4,
		}, 1, true)
		prog, err := asm.Assemble(src)
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.PrefetcherOn = on
		cfg.PrefetchChecked = checked
		m, err := cpu.NewMachine(cfg, core.SpecASan, prog)
		if err != nil {
			b.Fatal(err)
		}
		res := m.Run(500_000_000)
		if res.TimedOut || res.Faulted {
			b.Fatalf("prefetch ablation run failed: %v", res)
		}
		return res.Cycles
	}
	for i := 0; i < b.N; i++ {
		off := run(false, false)
		plain := run(true, false)
		checked := run(true, true)
		b.ReportMetric(float64(off)/float64(plain), "xSpeedupUnchecked")
		b.ReportMetric(float64(off)/float64(checked), "xSpeedupChecked")
		leakPlain, err := attacks.RunPrefetchLeak(core.SpecASan, false)
		if err != nil {
			b.Fatal(err)
		}
		leakChecked, err := attacks.RunPrefetchLeak(core.SpecASan, true)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(b2f(leakPlain), "leaksUnchecked")
		b.ReportMetric(b2f(leakChecked), "leaksChecked")
	}
}

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// BenchmarkAblationEarlyTagCheck quantifies §3.3.1's early tag-check
// propagation (dedicated L1 signal, MSHR flag): without it, every checked
// load's data release waits for a core-side re-check.
func BenchmarkAblationEarlyTagCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		early := ablationCycles(b, "544.nab_r", nil)
		late := ablationCycles(b, "544.nab_r", func(c *core.Config) { c.EarlyTagCheck = false })
		b.ReportMetric(float64(late)/float64(early), "xLateCheck")
	}
}
