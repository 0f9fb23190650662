package chaos

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"specasan/internal/core"
	"specasan/internal/cpu"
	"specasan/internal/isa"
	"specasan/internal/workloads"
)

// testSpec is a small kernel exercising every pipeline feature the chaos
// kinds perturb: branches, loads/stores, pointer chasing, mul/div, and (when
// built tagged) the MTE tagging loop.
func testSpec(threads int) *workloads.Spec {
	return &workloads.Spec{Name: "chaos-kernel", Suite: "test", Threads: threads,
		Params: workloads.Params{
			WorkingSetKB: 16, Iterations: 300, PointerChase: 1, DataBranches: 2,
			BoundsChecks: 1, ComputeOps: 3, MulDivOps: 1, StoreEvery: 2,
			ExtraLoads: 1,
		}}
}

// runOnce executes the test kernel under chaos and fingerprints the complete
// end state: cycle count, injection schedule, merged stats, and core 0's
// register file.
func runOnce(t *testing.T, cfg Config, mit core.Mitigation) string {
	t.Helper()
	spec := testSpec(1)
	prog, err := spec.Build(mit.MTEEnabled(), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := core.DefaultConfig()
	m, err := cpu.NewMachine(ccfg, mit, prog)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inj.Attach(m)
	res := m.Run(100_000_000)
	if res.TimedOut || res.Err != nil {
		t.Fatalf("run failed: %v", res)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d committed=%d inj=%s\n", res.Cycles, res.Committed, inj.Summary())
	keys := res.Stats.Keys()
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d\n", k, res.Stats.Get(k))
	}
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		fmt.Fprintf(&b, "%v=%#x\n", r, m.Core(0).Reg(r))
	}
	return b.String()
}

// The injector must be fully deterministic: the same seed must reproduce the
// identical fault schedule, cycle count, stats, and architectural state.
func TestChaosDeterminism(t *testing.T) {
	cfg := DefaultConfig(42)
	a := runOnce(t, cfg, core.SpecASan)
	b := runOnce(t, cfg, core.SpecASan)
	if a != b {
		t.Fatalf("same seed, different run:\n--- first\n%s--- second\n%s", a, b)
	}
	cfg.Seed = 43
	if c := runOnce(t, cfg, core.SpecASan); c == a {
		t.Fatal("different seed produced the identical run (injector not firing?)")
	}
}

// Every fault kind, alone and combined, must leave committed architectural
// state bit-identical to the golden interpreter — with and without MTE.
func TestChaosGoldenEquivalence(t *testing.T) {
	for _, mit := range []core.Mitigation{core.Unsafe, core.SpecASan} {
		for _, kinds := range append(oneOfEach(), AllKinds()) {
			mit, kinds := mit, kinds
			t.Run(fmt.Sprintf("%v/%v", mit, kindNamesOf(kinds)), func(t *testing.T) {
				cfg := Config{Seed: 7, Kinds: kinds, Rate: 0.05, MaxLatency: 300}
				rep, err := RunWorkload(testSpec(1), mit, cfg, 1.0, 100_000_000)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Failed() {
					t.Fatalf("diverged (injected %d: %s):\n  %s",
						rep.Injected, rep.Summary, strings.Join(rep.Divergence, "\n  "))
				}
				if rep.Injected == 0 {
					t.Fatalf("no faults fired for kinds %v — vacuous pass", kinds)
				}
			})
		}
	}
}

// Multi-core SPMD runs must also converge per core.
func TestChaosGoldenEquivalenceMultiCore(t *testing.T) {
	rep, err := RunWorkload(testSpec(2), core.SpecASan,
		DefaultConfig(11), 1.0, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("diverged:\n  %s", strings.Join(rep.Divergence, "\n  "))
	}
	if rep.Injected == 0 {
		t.Fatal("no faults fired")
	}
}

func oneOfEach() [][]Kind {
	var out [][]Kind
	for _, k := range AllKinds() {
		out = append(out, []Kind{k})
	}
	return out
}

func kindNamesOf(ks []Kind) string {
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = k.String()
	}
	return strings.Join(names, "+")
}

func TestKindParseRoundTrip(t *testing.T) {
	for _, k := range AllKinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Fatal("ParseKind accepted garbage")
	}
}

// A small slice of the verdict-invariance sweep (the full matrix is the
// specasan-chaos command's job): timing-safe chaos must not move Table 1
// verdicts for the canonical Spectre v1 row.
func TestVerdictInvarianceSample(t *testing.T) {
	drifts, err := CheckVerdictInvariance(5, 0.01,
		[]core.Mitigation{core.SpecASan}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range drifts {
		t.Errorf("verdict drift: %s", d)
	}
}
