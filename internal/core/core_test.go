package core

import (
	"strings"
	"testing"
	"testing/quick"
)

// fakeROB records SSA signals.
type fakeROB struct {
	signals map[uint64]bool
}

func (f *fakeROB) SignalSSA(seq uint64, safe bool) {
	if f.signals == nil {
		f.signals = map[uint64]bool{}
	}
	f.signals[seq] = safe
}

func TestTCSStateMachine(t *testing.T) {
	rob := &fakeROB{}
	tsh := NewTSH(rob)

	tsh.Allocate(1)
	if tsh.Status(1) != TCSInit {
		t.Fatalf("after allocate: %v", tsh.Status(1))
	}
	tsh.OnIssue(1)
	if tsh.Status(1) != TCSWait {
		t.Fatalf("after issue: %v", tsh.Status(1))
	}
	if got := tsh.OnResult(1, true); got != TCSSafe {
		t.Fatalf("safe result: %v", got)
	}
	if safe, ok := rob.signals[1]; !ok || !safe {
		t.Fatal("ROB must receive SSA=1")
	}

	tsh.Allocate(2)
	tsh.OnIssue(2)
	if got := tsh.OnResult(2, false); got != TCSUnsafe {
		t.Fatalf("unsafe result: %v", got)
	}
	if safe, ok := rob.signals[2]; !ok || safe {
		t.Fatal("ROB must receive SSA=0")
	}

	// Replay transitions back to init; a repeated mismatch on the correct
	// path raises a fault.
	tsh.OnReplay(2)
	if tsh.Status(2) != TCSInit {
		t.Fatalf("after replay: %v", tsh.Status(2))
	}
	tsh.OnFault(2)
	if tsh.Stats.Faults != 1 {
		t.Fatal("fault not counted")
	}
}

func TestTSHForwarding(t *testing.T) {
	rob := &fakeROB{}
	tsh := NewTSH(rob)
	tsh.Allocate(5)
	if !tsh.OnForward(5, true) {
		t.Fatal("matching keys must forward")
	}
	if tsh.Status(5) != TCSSafe {
		t.Fatal("forwarded load must be safe")
	}
	tsh.Allocate(6)
	if tsh.OnForward(6, false) {
		t.Fatal("mismatching keys must not forward")
	}
	if tsh.Status(6) != TCSUnsafe {
		t.Fatal("denied forward must be unsafe")
	}
	if tsh.Stats.Forwarded != 1 || tsh.Stats.ForwardDenied != 1 {
		t.Fatalf("stats: %+v", tsh.Stats)
	}
}

func TestTSHMarkUnsafeAndRelease(t *testing.T) {
	tsh := NewTSH(&fakeROB{})
	tsh.Allocate(9)
	tsh.MarkUnsafe(9)
	if tsh.Status(9) != TCSUnsafe {
		t.Fatal("mark-unsafe failed")
	}
	// Marking an already unsafe entry must not double count.
	tsh.MarkUnsafe(9)
	if tsh.Stats.DepMarked != 1 {
		t.Fatalf("DepMarked = %d", tsh.Stats.DepMarked)
	}
	tsh.Release(9)
	if tsh.Pending() != 0 {
		t.Fatal("release must free the entry")
	}
}

func TestTSHPendingNeverNegative(t *testing.T) {
	f := func(ops []uint8) bool {
		tsh := NewTSH(&fakeROB{})
		for i, op := range ops {
			seq := uint64(i%7) + 1
			switch op % 5 {
			case 0:
				tsh.Allocate(seq)
			case 1:
				tsh.OnIssue(seq)
			case 2:
				tsh.OnResult(seq, op%2 == 0)
			case 3:
				tsh.Release(seq)
			case 4:
				tsh.MarkUnsafe(seq)
			}
			if tsh.Pending() < 0 || tsh.Pending() > 7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMitigationProperties(t *testing.T) {
	cases := []struct {
		m                                   Mitigation
		mte, spec, fence, taint, ghost, cfi bool
	}{
		{Unsafe, false, false, false, false, false, false},
		{MTE, true, false, false, false, false, false},
		{Fence, false, false, true, false, false, false},
		{STT, false, false, false, true, false, false},
		{GhostMinion, false, false, false, false, true, false},
		{SpecCFI, false, false, false, false, false, true},
		{SpecASan, true, true, false, false, false, false},
		{SpecASanCFI, true, true, false, false, false, true},
	}
	for _, c := range cases {
		if c.m.MTEEnabled() != c.mte || c.m.SpecTagChecks() != c.spec ||
			c.m.FencesSpeculativeLoads() != c.fence || c.m.TaintTracking() != c.taint ||
			c.m.GhostFills() != c.ghost || c.m.CFIEnabled() != c.cfi {
			t.Errorf("%v properties wrong", c.m)
		}
	}
}

func TestParseMitigationRoundTrip(t *testing.T) {
	for _, m := range AllMitigations() {
		got, err := ParseMitigation(m.String())
		if err != nil || got != m {
			t.Errorf("round trip failed for %v: %v %v", m, got, err)
		}
	}
	if _, err := ParseMitigation("nonsense"); err == nil {
		t.Error("unknown name must error")
	}
}

func TestDefaultConfigMatchesTable2(t *testing.T) {
	c := DefaultConfig()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.IssueWidth != 8 || c.CommitWidth != 8 {
		t.Error("Table 2: 8-way issue, 8 micro-ops/cycle commit")
	}
	if c.IQEntries != 32 || c.ROBEntries != 40 {
		t.Error("Table 2: 32-entry IQ, 40-entry ROB")
	}
	if c.LQEntries != 16 || c.SQEntries != 16 {
		t.Error("Table 2: 16-entry LDQ/STQ")
	}
	if c.L1DSizeKB != 32 || c.L1DWays != 2 || c.L1DLatency != 2 {
		t.Error("Table 2: 32 KB 2-way L1D, 2-cycle hit")
	}
	if c.L2SizeKB != 1024 || c.L2Ways != 16 || c.L2Latency != 12 {
		t.Error("Table 2: 1 MB 16-way L2, 12-cycle hit")
	}
	if c.LFBEntries != 16 {
		t.Error("Table 2: 16-entry LFB")
	}
}

// TestConfigValidation drives Validate through every rejection, one table
// row per field it guards, and checks the error names what broke.
func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"zero cores", func(c *Config) { c.Cores = 0 }, "Cores"},
		{"zero fetch width", func(c *Config) { c.FetchWidth = 0 }, "widths"},
		{"zero issue width", func(c *Config) { c.IssueWidth = 0 }, "widths"},
		{"zero commit width", func(c *Config) { c.CommitWidth = 0 }, "widths"},
		{"tiny ROB", func(c *Config) { c.ROBEntries = 1 }, "ROBEntries"},
		{"zero IQ", func(c *Config) { c.IQEntries = 0 }, "queue"},
		{"zero LQ", func(c *Config) { c.LQEntries = 0 }, "queue"},
		{"zero SQ", func(c *Config) { c.SQEntries = 0 }, "queue"},
		{"zero ALUs", func(c *Config) { c.ALUs = 0 }, "unit"},
		{"zero load ports", func(c *Config) { c.LoadPorts = 0 }, "unit"},
		{"zero store ports", func(c *Config) { c.StorePort = 0 }, "unit"},
		{"zero BHB", func(c *Config) { c.BHBLen = 0 }, "BHBLen"},
		{"zero LFB", func(c *Config) { c.LFBEntries = 0 }, "LFBEntries"},
		{"zero MSHRs", func(c *Config) { c.MSHRs = 0 }, "MSHRs"},
		{"zero ghost buffer", func(c *Config) { c.GhostSize = 0 }, "GhostSize"},
		{"zero L1I latency", func(c *Config) { c.L1ILatency = 0 }, "latencies"},
		{"zero L1D latency", func(c *Config) { c.L1DLatency = 0 }, "latencies"},
		{"zero L2 latency", func(c *Config) { c.L2Latency = 0 }, "latencies"},
		{"zero DRAM latency", func(c *Config) { c.DRAMLatency = 0 }, "DRAMLatency"},
		{"non-64B lines", func(c *Config) { c.LineBytes = 32 }, "LineBytes"},
		{"ragged L1D geometry", func(c *Config) { c.L1DWays = 3 }, "L1D geometry"},
		{"ragged L2 geometry", func(c *Config) { c.L2Ways = 7 }, "L2 geometry"},
		{"zero L1D ways", func(c *Config) { c.L1DWays = 0 }, "L1D geometry"},
		{"negative L1D size", func(c *Config) { c.L1DSizeKB = -64 }, "L1D geometry"},
		{"L2 ways overflowing the line count", func(c *Config) { c.L2Ways = 1 << 58 }, "L2 geometry"},
		{"L2 size overflowing bytes", func(c *Config) { c.L2SizeKB = 1 << 62 }, "L2 geometry"},
	}
	for _, tc := range cases {
		c := DefaultConfig()
		tc.mutate(&c)
		err := c.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
	if c := DefaultConfig(); c.Validate() != nil {
		t.Error("default config must validate")
	}
}

// ParseMitigation is case-insensitive and its error lists the registered
// names.
func TestParseMitigationCaseInsensitive(t *testing.T) {
	for _, in := range []string{"specasan", "SPECASAN", "SpecASan", "sPeCaSaN"} {
		m, err := ParseMitigation(in)
		if err != nil || m != SpecASan {
			t.Errorf("ParseMitigation(%q) = %v, %v", in, m, err)
		}
	}
	if m, err := ParseMitigation("specasan+cfi"); err != nil || m != SpecASanCFI {
		t.Errorf("ParseMitigation(specasan+cfi) = %v, %v", m, err)
	}
	_, err := ParseMitigation("bogus")
	if err == nil || !strings.Contains(err.Error(), "SpecASan") {
		t.Errorf("unknown-name error should list registered names, got %v", err)
	}
}

// The registry: new policies resolve by name, carry their descriptor bits
// and knobs, and cannot collide with registered names.
func TestPolicyRegistry(t *testing.T) {
	m, err := RegisterPolicy(PolicyDescriptor{
		Name:  "TestPolicy",
		Class: "test",
		Taint: true,
		Knobs: map[string]uint64{"k": 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.String() != "TestPolicy" {
		t.Errorf("String() = %q", m)
	}
	got, err := ParseMitigation("testpolicy")
	if err != nil || got != m {
		t.Fatalf("registered policy does not resolve: %v, %v", got, err)
	}
	d := m.Descriptor()
	if !d.Taint || d.MTE || d.Knob("k", 0) != 7 || d.Knob("missing", 42) != 42 {
		t.Errorf("descriptor wrong: %+v", d)
	}
	if !m.TaintTracking() || m.MTEEnabled() {
		t.Error("property methods must delegate to the descriptor")
	}
	if _, err := RegisterPolicy(PolicyDescriptor{Name: "testpolicy"}); err == nil {
		t.Error("duplicate name (case-insensitive) accepted")
	}
	if _, err := RegisterPolicy(PolicyDescriptor{Name: ""}); err == nil {
		t.Error("empty name accepted")
	}
	found := false
	for _, r := range RegisteredMitigations() {
		if r == m {
			found = true
		}
	}
	if !found {
		t.Error("RegisteredMitigations misses the new policy")
	}
	for i, want := range []Mitigation{Unsafe, MTE, Fence, STT, GhostMinion, SpecCFI, SpecASan, SpecASanCFI} {
		if AllMitigations()[i] != want {
			t.Errorf("AllMitigations()[%d] = %v, want %v (paper set must stay fixed)", i, AllMitigations()[i], want)
		}
	}
}

func TestOracle(t *testing.T) {
	o := NewOracle()
	if o.HasSecrets() || o.Leaked() {
		t.Fatal("fresh oracle must be empty")
	}
	o.MarkSecret(0x1000, 16)
	if !o.IsSecret(0x1000, 1) || !o.IsSecret(0x100f, 1) || o.IsSecret(0x1010, 1) {
		t.Fatal("region bounds wrong")
	}
	if !o.IsSecret(0xff8, 16) {
		t.Fatal("overlapping range must count")
	}
	o.Record(LeakEvent{Channel: ChanCache})
	o.Record(LeakEvent{Channel: ChanPort})
	o.Record(LeakEvent{Channel: ChanCache})
	if !o.Leaked() || o.EventsOn(ChanCache) != 2 || o.EventsOn(ChanPort) != 1 {
		t.Fatal("event accounting wrong")
	}
	o.Reset()
	if o.Leaked() || !o.HasSecrets() {
		t.Fatal("reset must clear events but keep regions")
	}
}

func TestNilOracleHasNoSecrets(t *testing.T) {
	var o *Oracle
	if o.HasSecrets() {
		t.Fatal("nil oracle must report no secrets")
	}
}

func TestVerdictSymbolsAndChannelNames(t *testing.T) {
	for c := LeakChannel(0); c < NumChannels; c++ {
		if c.String() == "" {
			t.Errorf("channel %d has no name", c)
		}
	}
	for tcs := TCS(0); tcs <= TCSWait; tcs++ {
		if tcs.String() == "" {
			t.Errorf("tcs %d has no name", tcs)
		}
	}
}
