package cpu

// Wider differential fuzzing: random programs across configuration corners
// (tiny ROB, single-wide pipeline, prefetcher on, multi-core) must still
// match the reference interpreter.

import (
	"fmt"
	"math/rand"
	"testing"

	"specasan/internal/asm"
	"specasan/internal/core"
	"specasan/internal/golden"
	"specasan/internal/isa"
)

// TestDifferentialConfigCorners runs random programs on stressed pipeline
// geometries: back-pressure paths (tiny ROB/IQ/LSQ), a scalar pipe, and the
// prefetcher.
func TestDifferentialConfigCorners(t *testing.T) {
	corners := []struct {
		name  string
		tweak func(*core.Config)
	}{
		{"tinyROB", func(c *core.Config) { c.ROBEntries = 8; c.IQEntries = 4 }},
		{"tinyLSQ", func(c *core.Config) { c.LQEntries = 2; c.SQEntries = 2 }},
		{"scalar", func(c *core.Config) {
			c.FetchWidth, c.IssueWidth, c.CommitWidth = 1, 1, 1
			c.ALUs, c.LoadPorts = 1, 1
		}},
		{"prefetcher", func(c *core.Config) { c.PrefetcherOn = true }},
		{"checkedPrefetch", func(c *core.Config) { c.PrefetcherOn = true; c.PrefetchChecked = true }},
		{"slowBroadcast", func(c *core.Config) { c.BroadcastLatency = 6 }},
		{"deepBranch", func(c *core.Config) { c.BranchLat = 14 }},
	}
	for seed := int64(100); seed < 104; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := genRandomProgram(rng, seed%2 == 0)
		for _, c := range corners {
			c := c
			t.Run(fmt.Sprintf("%s/seed%d", c.name, seed), func(t *testing.T) {
				cfg := core.DefaultConfig()
				c.tweak(&cfg)
				for _, mit := range []core.Mitigation{core.Unsafe, core.SpecASan} {
					diffGolden(t, cfg, mit, src)
				}
			})
		}
	}
}

// TestDifferentialMultiCore runs an SPMD random program on 4 cores against
// 4 independent golden interpreters (the partitions are disjoint, so the
// per-core architectural state must match exactly, and so must memory with
// the twins' images merged by writer).
func TestDifferentialMultiCore(t *testing.T) {
	for seed := int64(200); seed < 203; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Partitioned buffers: each thread uses buf + X0*0x10000.
		src := fmt.Sprintf(`
_start:
    MOV X10, #0x40000
    MOV X1, #0x10000
    MUL X1, X0, X1
    ADD X10, X10, X1
    MOV X12, #%d
loop:
    MUL X6, X6, X7
    ADD X6, X6, #13
    LSR X2, X6, #40
    AND X2, X2, #4088
    ADD X3, X10, X2
    STR X6, [X3]
    LDR X4, [X3]
    EOR X5, X5, X4
    SUB X12, X12, #1
    CBNZ X12, loop
    SVC #0
`, 50+rng.Intn(100))
		prog := asm.MustAssemble(src)
		cfg := core.DefaultConfig()
		cfg.Cores = 4
		m, err := NewMachine(cfg, core.Unsafe, prog)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			m.Core(i).SetReg(isa.X0, uint64(i))
			m.Core(i).SetReg(isa.X7, 6364136223846793005)
		}
		res := m.Run(50_000_000)
		if res.TimedOut {
			t.Fatalf("timed out: %v", res)
		}
		var twins []*golden.Interp
		for i := 0; i < 4; i++ {
			ip := NewGolden(prog, false, i)
			ip.SetReg(isa.X7, 6364136223846793005)
			g := ip.Run(50_000_000)
			if g.Reason != golden.StopExit {
				t.Fatalf("golden core %d: %v", i, g.Reason)
			}
			for _, d := range m.GoldenDiff(i, ip, g) {
				t.Error(d)
			}
			twins = append(twins, ip)
		}
		diffs, unjudged := m.GoldenMemoryDiff(prog, twins)
		for _, d := range diffs {
			t.Error(d)
		}
		if unjudged != 0 {
			t.Errorf("%d bytes and granules with disagreeing writers in disjoint partitions", unjudged)
		}
	}
}

// TestROBNeverOverflows is a structural invariant under random programs.
func TestROBNeverOverflows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := genRandomProgram(rng, false)
	prog := asm.MustAssemble(src)
	cfg := core.DefaultConfig()
	cfg.ROBEntries = 12
	m, err := NewMachine(cfg, core.Unsafe, prog)
	if err != nil {
		t.Fatal(err)
	}
	for !m.Done() && m.Cycle() < 5_000_000 {
		m.Step()
		if n := m.Core(0).robCount(); n > cfg.ROBEntries {
			t.Fatalf("ROB occupancy %d > capacity %d", n, cfg.ROBEntries)
		}
	}
	if !m.Done() {
		t.Fatal("timed out")
	}
}
