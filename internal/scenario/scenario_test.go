package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specasan/internal/core"
)

// Every preset must validate and hash deterministically, and repeated
// Preset calls must return independent copies.
func TestPresetsValidateAndHashStable(t *testing.T) {
	for _, name := range PresetNames() {
		s, ok := Preset(name)
		if !ok {
			t.Fatalf("preset %q missing", name)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", name, err)
		}
		h1 := s.Hash()
		s2, _ := Preset(name)
		if h2 := s2.Hash(); h1 != h2 {
			t.Errorf("preset %q hash unstable: %s vs %s", name, h1, h2)
		}
		s.Mitigations[0] = "clobbered"
		if s3, _ := Preset(name); s3.Mitigations[0] == "clobbered" {
			t.Errorf("preset %q shares slices across calls", name)
		}
	}
	if _, ok := Preset("TABLE2"); !ok {
		t.Error("preset lookup should be case-insensitive")
	}
	if _, ok := Preset("no-such-preset"); ok {
		t.Error("unknown preset resolved")
	}
}

// Marshal -> unmarshal must round-trip to an equal scenario with the same
// hash.
func TestScenarioRoundTrip(t *testing.T) {
	s := Default()
	s.Name = "round-trip"
	b, err := s.MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}
	var got Scenario
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("round-tripped scenario invalid: %v", err)
	}
	if got.Hash() != s.Hash() {
		t.Fatalf("hash changed across round trip: %s vs %s", got.Hash(), s.Hash())
	}
}

// The hash is content identity: provenance fields (Name, Extends) must not
// move it, every behaviour-determining field must.
func TestHashSemantics(t *testing.T) {
	a := Default()
	b := Default()
	b.Name, b.Extends = "renamed", "figure6"
	if a.Hash() != b.Hash() {
		t.Error("Name/Extends changed the hash; they are provenance, not content")
	}
	c := Default()
	c.Machine.L1DSizeKB *= 2
	if c.Hash() == a.Hash() {
		t.Error("machine change did not move the hash")
	}
	d := Default()
	d.Mitigations = d.Mitigations[:1]
	if d.Hash() == a.Hash() {
		t.Error("mitigation-list change did not move the hash")
	}
	e := Default()
	e.Run.Scale = 0.5
	if e.Hash() == a.Hash() {
		t.Error("run-option change did not move the hash")
	}
	// Sampling knobs produce estimated cycle counts, so they are
	// result-relevant: a sampled run must never collide with a full run in
	// the result store.
	f := Default()
	f.Run.FastForwardInsts = 1_000_000
	if f.ResultHash() == a.ResultHash() {
		t.Error("fast_forward_insts did not move the result hash")
	}
	g := Default()
	g.Run.SampleWindows = 4
	g.Run.SampleWindowInsts = 10_000
	if g.ResultHash() == a.ResultHash() || g.ResultHash() == f.ResultHash() {
		t.Error("window knobs did not move the result hash")
	}
	if len(a.Hash()) != 16 {
		t.Errorf("hash should be 16 hex chars, got %q", a.Hash())
	}
}

func writeScenarioFile(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scen.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// A file layers over its extends-preset: fields it names override, fields it
// omits keep preset values — including nested machine fields.
func TestLoadFileLayering(t *testing.T) {
	path := writeScenarioFile(t, `{
		"extends": "figure6",
		"machine": {"L1DSizeKB": 128},
		"run": {"scale": 0.25, "max_cycles": 200000000, "workers": 0, "skip_idle": true}
	}`)
	s, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := Preset(PresetFigure6)
	if s.Machine.L1DSizeKB != 128 {
		t.Errorf("file override lost: L1DSizeKB = %d", s.Machine.L1DSizeKB)
	}
	if s.Machine.L2SizeKB != base.Machine.L2SizeKB {
		t.Errorf("unnamed machine field did not inherit: L2SizeKB = %d", s.Machine.L2SizeKB)
	}
	if len(s.Mitigations) != len(base.Mitigations) {
		t.Errorf("mitigations should inherit from figure6, got %v", s.Mitigations)
	}
	if s.Run.Scale != 0.25 {
		t.Errorf("run override lost: scale = %v", s.Run.Scale)
	}
	if s.Name != "scen" {
		t.Errorf("name should default to file basename, got %q", s.Name)
	}
	if s.Extends != PresetFigure6 {
		t.Errorf("extends not recorded, got %q", s.Extends)
	}
}

// Strict decode: a typo'd field must fail loudly, not silently run the base.
// A file with an unknown field is a strict-decode error naming the field:
// a typo, or a run knob the simulator no longer has. The removed-knob files
// under testdata are named after the field each one sets, so an old scenario
// file fails loudly instead of silently running without the knob.
func TestLoadFileRejectsUnknownFields(t *testing.T) {
	type row struct{ name, path, field string }
	cases := []row{
		{"typo", writeScenarioFile(t, `{"extends": "table2", "machin": {"Cores": 2}}`), "machin"},
	}
	removed, err := filepath.Glob(filepath.Join("testdata", "removed-knobs", "*.json"))
	if err != nil || len(removed) == 0 {
		t.Fatalf("no removed-knob scenario files (err=%v)", err)
	}
	for _, path := range removed {
		field := strings.TrimSuffix(filepath.Base(path), ".json")
		cases = append(cases, row{field, path, field})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := LoadFile(tc.path); err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("unknown field %q accepted (err=%v)", tc.field, err)
			}
		})
	}
}

func TestLoadFileRejectsUnknownExtends(t *testing.T) {
	path := writeScenarioFile(t, `{"extends": "tabel2"}`)
	if _, err := LoadFile(path); err == nil || !strings.Contains(err.Error(), "tabel2") {
		t.Fatalf("unknown extends accepted (err=%v)", err)
	}
}

// Load resolves presets first, then files, and names the alternatives when
// neither matches.
func TestLoadResolution(t *testing.T) {
	if s, err := Load("figure6"); err != nil || s.Name != PresetFigure6 {
		t.Fatalf("preset load: %v, %v", s, err)
	}
	if _, err := Load("not-a-preset-or-file"); err == nil {
		t.Fatal("bogus argument accepted")
	}
}

// Validate must name the first offending field for each rejection class.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Scenario)
		want   string
	}{
		{"version", func(s *Scenario) { s.Version = 2 }, "version"},
		{"machine", func(s *Scenario) { s.Machine.LFBEntries = 0 }, "LFBEntries"},
		{"no mitigations", func(s *Scenario) { s.Mitigations = nil }, "no mitigations"},
		{"bad mitigation", func(s *Scenario) { s.Mitigations = []string{"Nope"} }, "Nope"},
		{"no workloads", func(s *Scenario) { s.Workloads = nil }, "no workloads"},
		{"bad workload", func(s *Scenario) { s.Workloads = []string{"999.bogus"} }, "999.bogus"},
		{"empty file workload", func(s *Scenario) { s.Workloads = []string{"file:"} }, "workload path"},
		{"scale", func(s *Scenario) { s.Run.Scale = 0 }, "scale"},
		{"max_cycles", func(s *Scenario) { s.Run.MaxCycles = 0 }, "max_cycles"},
		{"workers", func(s *Scenario) { s.Run.Workers = -1 }, "workers"},
		{"chaos seeds", func(s *Scenario) { s.Chaos = &ChaosOptions{Seeds: 0, Rate: 0.1, MaxLatency: 10} }, "seeds"},
		{"chaos rate", func(s *Scenario) { s.Chaos = &ChaosOptions{Seeds: 1, Rate: 1.5, MaxLatency: 10} }, "rate"},
		{"chaos kind", func(s *Scenario) {
			s.Chaos = &ChaosOptions{Seeds: 1, Rate: 0.1, MaxLatency: 10, Kinds: []string{"gremlin"}}
		}, "gremlin"},
		{"negative windows", func(s *Scenario) { s.Run.SampleWindows = -1 }, "sample_windows"},
		{"windows without length", func(s *Scenario) { s.Run.SampleWindows = 4 }, "sample_window_insts"},
		{"length without windows", func(s *Scenario) { s.Run.SampleWindowInsts = 1000 }, "sample_windows > 1"},
		{"sampling with chaos", func(s *Scenario) {
			s.Run.FastForwardInsts = 1000
			s.Chaos = &ChaosOptions{Seeds: 1, Rate: 0.1, MaxLatency: 10}
		}, "incompatible"},
		{"fuzz negative candidates", func(s *Scenario) {
			s.Fuzz = &FuzzOptions{Seed: 1, Candidates: -1}
		}, "candidates"},
		{"fuzz negative budget", func(s *Scenario) {
			s.Fuzz = &FuzzOptions{Seed: 1, BudgetSeconds: -1}
		}, "budget_seconds"},
		{"fuzz no stopping rule", func(s *Scenario) {
			s.Fuzz = &FuzzOptions{Seed: 1}
		}, "candidates or budget_seconds"},
	}
	for _, tc := range cases {
		s := Default()
		tc.mutate(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
	if err := Default().Validate(); err != nil {
		t.Errorf("default scenario invalid: %v", err)
	}
}

// The list knobs (-mits, -workloads): case-insensitive mitigation names,
// trimmed CSV, real errors for unknowns.
func TestParseLists(t *testing.T) {
	resolve := func(args ...string) (*Scenario, error) {
		f := NewFlags("test", Default(), "mits", "workloads")
		f.Parse(args)
		return f.Resolve()
	}
	s, err := resolve("-mits", " unsafe, SPECASAN ,SpecASan+CFI", "-workloads", "505.mcf_r, 541.leela_r")
	if err != nil {
		t.Fatal(err)
	}
	mits, err := s.MitigationList()
	if err != nil {
		t.Fatal(err)
	}
	want := []core.Mitigation{core.Unsafe, core.SpecASan, core.SpecASanCFI}
	for i, m := range want {
		if mits[i] != m {
			t.Errorf("mits[%d] = %v, want %v", i, mits[i], m)
		}
	}
	if specs, err := s.WorkloadSpecs(); err != nil || len(specs) != 2 {
		t.Fatalf("workload list: %v, %d specs", err, len(specs))
	}
	if _, err := resolve("-mits", "Unsafe,Bogus"); err == nil {
		t.Error("unknown mitigation accepted")
	}
	if _, err := resolve("-workloads", "505.mcf_r,nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

// The DoM policy exists purely as registry data and resolves by name.
func TestDelayOnMissRegistered(t *testing.T) {
	m, err := core.ParseMitigation("delayonmiss")
	if err != nil {
		t.Fatal(err)
	}
	if m != DelayOnMiss {
		t.Fatalf("parsed %v, want %v", m, DelayOnMiss)
	}
	d := m.Descriptor()
	if !d.DelayOnMiss || d.MTE || d.SpecTagChecks || d.FenceLoads || d.Taint || d.GhostFills || d.CFI {
		t.Fatalf("DelayOnMiss descriptor has wrong bits: %+v", d)
	}
	if d.Knob("lfb_hit_ok", 0) != 1 {
		t.Fatal("lfb_hit_ok knob missing")
	}
}
