package workloads

import (
	"testing"

	"specasan/internal/core"
	"specasan/internal/cpu"
	"specasan/internal/golden"
	"specasan/internal/isa"
)

func TestAllKernelsAssemble(t *testing.T) {
	for _, s := range append(SPEC(), PARSEC()...) {
		for _, tagged := range []bool{false, true} {
			if _, err := s.Build(tagged, 0.1); err != nil {
				t.Errorf("%s (tagged=%v): %v", s.Name, tagged, err)
			}
		}
	}
}

func TestSuitesComplete(t *testing.T) {
	if n := len(SPEC()); n != 15 {
		t.Errorf("SPEC kernels = %d, want 15 (Figure 9 set)", n)
	}
	if n := len(PARSEC()); n != 7 {
		t.Errorf("PARSEC kernels = %d, want 7 (Figure 7 set)", n)
	}
	for _, s := range SPEC() {
		if s.Threads != 1 {
			t.Errorf("%s: SPEC kernels are single-threaded", s.Name)
		}
	}
	for _, s := range PARSEC() {
		if s.Threads != 4 {
			t.Errorf("%s: PARSEC kernels run 4 threads", s.Name)
		}
	}
	if ByName("505.mcf_r") == nil || ByName("canneal") == nil {
		t.Error("ByName lookup failed")
	}
	if ByName("nonexistent") != nil {
		t.Error("ByName should return nil for unknown names")
	}
}

// TestKernelsMatchGolden: every SPEC kernel must produce identical
// architectural state on the OoO core and the reference interpreter (small
// scale), in both builds: untagged under Unsafe, tagged under SpecASan.
func TestKernelsMatchGolden(t *testing.T) {
	for _, s := range SPEC() {
		t.Run(s.Name, func(t *testing.T) {
			for _, mit := range []core.Mitigation{core.Unsafe, core.SpecASan} {
				t.Run(mit.String(), func(t *testing.T) {
					prog, err := s.Build(mit.MTEEnabled(), 0.05)
					if err != nil {
						t.Fatal(err)
					}
					m, err := cpu.NewMachine(core.DefaultConfig(), mit, prog)
					if err != nil {
						t.Fatal(err)
					}
					mres := m.Run(20_000_000)
					if mres.TimedOut {
						t.Fatalf("timed out: %v", mres)
					}
					ip := cpu.NewGolden(prog, mit.MTEEnabled(), 0)
					gres := ip.Run(20_000_000)
					if gres.Reason != golden.StopExit {
						t.Fatalf("golden: %v", gres.Reason)
					}
					for _, d := range m.GoldenDiff(0, ip, gres) {
						t.Error(d)
					}
				})
			}
		})
	}
}

// TestMultiCoreKernelsMatchGoldenMemory: every multi-core kernel, the
// PARSEC set and the 4-core scaled variants, leaves each core in its golden
// twin's state and memory where the twins, merged by writer, say it must
// be, under each Figure 7 column. Every byte and tag granule these kernels
// write has one writer, so the merge judges all of them.
func TestMultiCoreKernelsMatchGoldenMemory(t *testing.T) {
	var specs []*Spec
	for _, s := range append(PARSEC(), Scaled()...) {
		if s.Threads > 1 {
			specs = append(specs, s)
		}
	}
	if len(specs) != 10 {
		t.Fatalf("%d multi-core kernels, want 10", len(specs))
	}
	for _, s := range specs {
		for _, mit := range []core.Mitigation{core.Unsafe, core.Fence, core.STT, core.GhostMinion, core.SpecASan} {
			prog, err := s.Build(mit.MTEEnabled(), 0.05)
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.DefaultConfig()
			cfg.Cores = s.Threads
			m, err := cpu.NewMachine(cfg, mit, prog)
			if err != nil {
				t.Fatal(err)
			}
			for i := range m.Cores {
				m.Core(i).SetReg(isa.X0, uint64(i))
			}
			if res := m.Run(50_000_000); res.TimedOut || res.Faulted {
				t.Fatalf("%s/%v: %v", s.Name, mit, res)
			}
			var twins []*golden.Interp
			for i := range m.Cores {
				ip := cpu.NewGolden(prog, mit.MTEEnabled(), i)
				g := ip.Run(50_000_000)
				if g.Reason != golden.StopExit {
					t.Fatalf("%s/%v: golden core %d: %v", s.Name, mit, i, g.Reason)
				}
				for _, d := range m.GoldenDiff(i, ip, g) {
					t.Errorf("%s/%v: %s", s.Name, mit, d)
				}
				twins = append(twins, ip)
			}
			diffs, unjudged := m.GoldenMemoryDiff(prog, twins)
			for _, d := range diffs {
				t.Errorf("%s/%v: %s", s.Name, mit, d)
			}
			if unjudged != 0 {
				t.Errorf("%s/%v: %d bytes and granules with disagreeing writers", s.Name, mit, unjudged)
			}
		}
	}
}

// TestTaggedKernelRunsUnderMTE: the tagged build must complete without tag
// faults under MTE and SpecASan (benign code never violates its own tags).
func TestTaggedKernelRunsUnderMTE(t *testing.T) {
	for _, mit := range []core.Mitigation{core.MTE, core.SpecASan} {
		s := ByName("511.povray_r")
		prog, err := s.Build(true, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		m, err := cpu.NewMachine(core.DefaultConfig(), mit, prog)
		if err != nil {
			t.Fatal(err)
		}
		res := m.Run(20_000_000)
		if res.TimedOut || res.Faulted {
			t.Fatalf("%v: %v (faultPC=%#x)", mit, res, m.Core(0).FaultPC)
		}
	}
}

// TestMultiThreadedKernelRuns: a PARSEC kernel on 4 cores completes and all
// cores commit work.
func TestMultiThreadedKernelRuns(t *testing.T) {
	s := ByName("swaptions")
	prog, err := s.Build(false, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Cores = 4
	m, err := cpu.NewMachine(cfg, core.Unsafe, prog)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		m.Core(i).SetReg(isa.X0, uint64(i))
	}
	res := m.Run(20_000_000)
	if res.TimedOut {
		t.Fatalf("timed out: %v", res)
	}
	for i := 0; i < 4; i++ {
		if m.Core(i).Committed() == 0 {
			t.Errorf("core %d committed nothing", i)
		}
	}
}

func TestIndirectCallsPredictable(t *testing.T) {
	// Kernels with indirect calls must keep mispredict rates modest: the
	// target pattern switches only every 16 iterations.
	s := ByName("511.povray_r")
	prog, err := s.Build(false, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cpu.NewMachine(core.DefaultConfig(), core.Unsafe, prog)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run(100_000_000)
	if res.TimedOut {
		t.Fatal("timed out")
	}
	mispred := float64(res.Stats.Get("branches_mispredicted"))
	perKilo := 1000 * mispred / float64(res.Committed)
	if perKilo > 40 {
		t.Fatalf("mispredicts per kilo-instruction = %.1f: kernel too chaotic", perKilo)
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	p := Params{WorkingSetKB: 64, Iterations: 100, DataBranches: 2,
		PointerChase: 2, ExtraLoads: 1, ComputeOps: 3, IndirectCalls: 1,
		ColdStream: true, StoreEvery: 2, MulDivOps: 1, BoundsChecks: 1}
	if Generate(p, 1, true) != Generate(p, 1, true) {
		t.Fatal("Generate must be deterministic")
	}
	if Generate(p, 1, true) == Generate(p, 1, false) {
		t.Fatal("tagged and untagged builds must differ")
	}
	if Generate(p, 4, false) == Generate(p, 1, false) {
		t.Fatal("thread partitioning must change the program")
	}
}
