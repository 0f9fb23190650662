package specasan

import (
	"math"
	"testing"

	"specasan/internal/core"
	"specasan/internal/harness"
	"specasan/internal/scenario"
	"specasan/internal/workloads"
)

// claimsScale is the kernel scale TestPaperClaims runs at, the scale of the
// benchmark's fig6-detailed check. At 0.05 two claims fail: whole-run
// numbers at a quick scale are mostly the kernels' set-up (EXPERIMENTS.md,
// Known discrepancies).
const claimsScale = 0.1

// TestPaperClaims asserts the shape of the paper's performance figures and
// the direction of each design ablation DESIGN.md calls out, as far as
// EXPERIMENTS.md says they reproduce, and logs every number it judges:
// `go test -v -run TestPaperClaims .` is the quick look, and
// `specasan-bench -all` regenerates the full-size figures. Each bound's
// comment names its source. Some margins are thin (Figure 6's SpecASan
// geomean sits just under 1.02, Figure 7's STT about 0.01 above
// GhostMinion): a change that moves a claim past its bound names the claim
// rather than loosening the bound.
func TestPaperClaims(t *testing.T) {
	if raceEnabled {
		// The referee adds no concurrency of its own; harness.RunSweep's
		// worker pool is raced by TestRunSweepParallelDeterminism.
		t.Skip("takes over a minute under the race detector")
	}
	claim := func(ok bool, format string, args ...interface{}) {
		t.Helper()
		if ok {
			t.Logf(format, args...)
		} else {
			t.Errorf("claim fails: "+format, args...)
		}
	}

	// figure runs a figure preset the way specasan-bench -fig does, one
	// sweep per suite. One memo serves every preset, as in -all, so each
	// distinct cell simulates once.
	memo := &harness.MemCellStore{}
	figure := func(preset string) []*harness.Sweep {
		t.Helper()
		s, _ := scenario.Preset(preset)
		s.Run.Scale = claimsScale
		specs, err := s.WorkloadSpecs()
		if err != nil {
			t.Fatal(err)
		}
		mits, err := s.MitigationList()
		if err != nil {
			t.Fatal(err)
		}
		opt := harness.OptionsFromScenario(s)
		opt.Store = memo
		var sweeps []*harness.Sweep
		for len(specs) > 0 {
			n := 1
			for n < len(specs) && specs[n].Suite == specs[0].Suite {
				n++
			}
			sw, err := harness.RunSweep(specs[:n], mits, opt)
			if err != nil {
				t.Fatal(err)
			}
			if failed := sw.FailedCells(); len(failed) > 0 {
				t.Fatalf("%s: cells failed: %v", preset, failed)
			}
			sweeps, specs = append(sweeps, sw), specs[n:]
		}
		return sweeps
	}
	// ranking asserts Figure 1's order of the defence classes (ROADMAP item
	// 3): delay-ACCESS ≫ delay-USE > delay-TRANSMIT > SpecASan, "≫" read
	// as at least twice STT's overhead (DESIGN.md: barriers are several-x
	// slower).
	ranking := func(what string, v func(core.Mitigation) float64) {
		t.Helper()
		b, s, g, a := v(core.Fence), v(core.STT), v(core.GhostMinion), v(core.SpecASan)
		claim(b-1 >= 2*(s-1) && s > g && g > a,
			"%s: SpecBarrier %.5f ≫ STT %.5f > GhostMinion %.5f > SpecASan %.5f", what, b, s, g, a)
	}

	fig6 := figure(scenario.PresetFigure6)[0]
	// specasan-bench -fig 1's benign column is Figure 6's 500.perlbench_r
	// cell at this scale. SpecASan stays within the paper's ~2 % headline
	// overhead of the baseline there.
	perl := func(m core.Mitigation) float64 { return fig6.Normalized("500.perlbench_r", m) }
	ranking("Figure 1 (500.perlbench_r)", perl)
	claim(math.Abs(perl(core.SpecASan)-1) < 0.02,
		"Figure 1 (500.perlbench_r): SpecASan %.5f within 2 %% of Unsafe", perl(core.SpecASan))

	ranking("Figure 6 geomean", fig6.GeomeanNormalized)
	// The fig6-detailed check's bound: the paper's 1.018, rounded up.
	claim(fig6.GeomeanNormalized(core.SpecASan) < 1.02,
		"Figure 6: SpecASan geomean %.5f < 1.02", fig6.GeomeanNormalized(core.SpecASan))

	ranking("Figure 7 geomean", figure(scenario.PresetFigure7)[0].GeomeanNormalized)

	// Figure 8, per suite as the figure prints it: STT restricts at least
	// 10x more instructions than SpecASan (ROADMAP item 3; the paper reads
	// ~23x).
	for _, sw := range figure(scenario.PresetFigure8) {
		b, s, a := sw.MeanRestrictedPct(core.Fence), sw.MeanRestrictedPct(core.STT), sw.MeanRestrictedPct(core.SpecASan)
		claim(b > s && s > a && s >= 10*a,
			"Figure 8 %s: SpecBarrier %.3f %% > STT %.3f %% > SpecASan %.3f %% (STT %.1fx SpecASan)",
			workloads.ByName(sw.Benchmarks[0]).Suite, b, s, a, s/a)
	}

	// Figure 9: SpecASan+CFI costs about the sum of its parts. The paper
	// reads 1.040 against 1.026 and 1.019, 11 % under the sum; the bound
	// allows a quarter of the sum either way.
	fig9 := figure(scenario.PresetFigure9)[0]
	over := func(m core.Mitigation) float64 { return fig9.GeomeanNormalized(m) - 1 }
	cfi, asan, both := over(core.SpecCFI), over(core.SpecASan), over(core.SpecASanCFI)
	claim(math.Abs(both-(cfi+asan)) <= (cfi+asan)/4,
		"Figure 9: SpecASan+CFI overhead %.5f ≈ SpecCFI's %.5f + SpecASan's %.5f = %.5f", both, cfi, asan, cfi+asan)

	// Ablations: one kernel under SpecASan with the machine config turned
	// away from its default. Each claim is a direction (ROADMAP item 3);
	// EXPERIMENTS.md records the magnitudes.
	ablation := func(spec *workloads.Spec, tweak func(*core.Config)) uint64 {
		t.Helper()
		cfg := core.DefaultConfig()
		if tweak != nil {
			tweak(&cfg)
		}
		opt := harness.DefaultOptions()
		opt.Scale, opt.Config = claimsScale, &cfg
		r, err := harness.RunBenchmark(spec, core.SpecASan, opt)
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles
	}
	ratio := func(a, b uint64) float64 { return float64(a) / float64(b) }

	mcf := workloads.ByName("505.mcf_r")
	sel, all := ablation(mcf, nil), ablation(mcf, func(c *core.Config) { c.SelectiveDelay = false })
	claim(all > sel, "selective delay (505.mcf_r): delaying every tagged load costs %.5f (%d / %d cycles)",
		ratio(all, sel), all, sel)

	nab := workloads.ByName("544.nab_r")
	early, late := ablation(nab, nil), ablation(nab, func(c *core.Config) { c.EarlyTagCheck = false })
	claim(late > early, "early tag check (544.nab_r): the late re-check costs %.5f (%d / %d cycles)",
		ratio(late, early), late, early)

	// EXPERIMENTS.md: neutral on benign code, within the ±1 % that
	// perturbed branch timing moves a kernel (Known discrepancies).
	xalan := workloads.ByName("523.xalancbmk_r")
	fast, slow := ablation(xalan, nil), ablation(xalan, func(c *core.Config) { c.BroadcastLatency = 8 })
	claim(math.Abs(ratio(slow, fast)-1) <= 0.01, "broadcast latency 8 vs 1 (523.xalancbmk_r): %.5f (%d / %d cycles)",
		ratio(slow, fast), slow, fast)

	// DESIGN.md: the checked prefetcher keeps the full next-line speedup
	// on a unit-stride stream, its home turf.
	stream := &workloads.Spec{Name: "unit-stride stream", Threads: 1, Source: workloads.Generate(workloads.Params{
		WorkingSetKB: 256, Iterations: 2000, Stride: 1, ComputeOps: 4,
	}, 1, true)}
	off := ablation(stream, nil)
	plain := ablation(stream, func(c *core.Config) { c.PrefetcherOn = true })
	checked := ablation(stream, func(c *core.Config) { c.PrefetcherOn, c.PrefetchChecked = true, true })
	claim(plain < off && checked <= plain,
		"prefetcher (unit-stride stream): speedup %.5f unchecked, %.5f checked (%d → %d / %d cycles)",
		ratio(off, plain), ratio(off, checked), off, plain, checked)
}
