package scenario

import (
	"sort"
	"strings"
	"testing"
)

// knobBase is a base every knob can register against: one mitigation (the
// -mitigation default) plus chaos and fuzz sections.
func knobBase() *Scenario {
	s, _ := Preset(PresetChaosSmoke)
	fz, _ := Preset(PresetFuzzSmoke)
	s.Fuzz = fz.Fuzz
	s.Mitigations = s.Mitigations[:1]
	return s
}

func knobNames() []string {
	var names []string
	for name := range knobs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Typing any knob at its default leaves the base unchanged: the defaults are
// read from the base, so "apply only typed flags" and "apply every flag"
// resolve to the same scenario and the same hash.
func TestKnobDefaultsResolveToBase(t *testing.T) {
	want := knobBase().Hash()
	for _, name := range knobNames() {
		if name == "scenario" {
			continue
		}
		f := NewFlags("test", knobBase(), knobNames()...)
		def := f.Lookup(name).DefValue
		if err := f.Parse([]string{"-" + name + "=" + def}); err != nil {
			t.Fatalf("-%s=%s: %v", name, def, err)
		}
		s, err := f.Resolve()
		if err != nil {
			t.Fatalf("-%s=%s: %v", name, def, err)
		}
		if got := s.Hash(); got != want {
			t.Errorf("-%s=%s moved the hash: %s, want %s", name, def, got, want)
		}
	}
}

// With -scenario the loaded scenario is the base: untyped flags keep its
// values, typed ones override them, and missing chaos and fuzz sections come
// from the command's own base.
func TestResolveAppliesOnlyTypedFlags(t *testing.T) {
	f := NewFlags("test", knobBase(), "scenario", "scale", "workloads", "seeds", "store")
	if err := f.Parse([]string{"-scenario", "figure6", "-scale", "0.5", "-seeds", "3", "-store", "dir"}); err != nil {
		t.Fatal(err)
	}
	s, err := f.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Preset(PresetFigure6)
	want.Run.Scale = 0.5
	want.Chaos, want.Fuzz = knobBase().Chaos, knobBase().Fuzz
	want.Chaos.Seeds = 3
	if s.Hash() != want.Hash() {
		t.Fatalf("resolved %+v, want %+v", s, want)
	}
	if f.Out.Store != "dir" {
		t.Fatalf("-store = %q, want dir", f.Out.Store)
	}
}

func TestBudgetWholeSeconds(t *testing.T) {
	for _, tc := range []struct {
		arg  string
		want int
		err  string
	}{
		{"2s", 2, ""},
		{"1m", 60, ""},
		{"500ms", 0, "-budget 500ms is not a whole number of seconds"},
		{"1500ms", 0, "-budget 1.5s is not a whole number of seconds"},
	} {
		f := NewFlags("test", knobBase(), "n", "budget")
		if err := f.Parse([]string{"-n", "0", "-budget", tc.arg}); err != nil {
			t.Fatal(err)
		}
		s, err := f.Resolve()
		switch {
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("-budget %s: error %v, want %q", tc.arg, err, tc.err)
		case tc.err == "" && err != nil:
			t.Errorf("-budget %s: %v", tc.arg, err)
		case tc.err == "" && s.Fuzz.BudgetSeconds != tc.want:
			t.Errorf("-budget %s: budget_seconds %d, want %d", tc.arg, s.Fuzz.BudgetSeconds, tc.want)
		}
	}
}

// A non-finite float knob is a named resolve error, never a scenario whose
// hash cannot be computed.
func TestNonFiniteFloatKnobsRejected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		err  string
	}{
		{[]string{"-scale", "Inf"}, "scale must be finite and > 0 (got +Inf)"},
		{[]string{"-scale", "-Inf"}, "scale must be finite and > 0 (got -Inf)"},
		{[]string{"-scale", "NaN"}, "scale must be finite and > 0 (got NaN)"},
		{[]string{"-rate", "NaN"}, "rate must be in [0,1] (got NaN)"},
		{[]string{"-rate", "Inf"}, "rate must be in [0,1] (got +Inf)"},
	} {
		f := NewFlags("test", knobBase(), "scale", "rate")
		if err := f.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Resolve(); err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%v: error %v, want %q", tc.args, err, tc.err)
		}
	}
}

func TestUnknownKnobPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFlags accepted a knob the table does not declare")
		}
	}()
	NewFlags("test", knobBase(), "no-such-knob")
}
