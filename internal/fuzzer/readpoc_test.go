package fuzzer

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specasan/internal/attacks"
	"specasan/internal/core"
	"specasan/internal/cpu"
)

// stlDoc is a corpus document with a retag range in its setup.
var stlDoc = filepath.Join("testdata", "pocs", "stl-stale-cache-e0f46aad732b.json")

// TestReadPoCRejectsInvalidDocuments mutates a corpus document into each
// shape the decoder must refuse before a replay runs it.
func TestReadPoCRejectsInvalidDocuments(t *testing.T) {
	base, err := os.ReadFile(stlDoc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParsePoC(base); err != nil {
		t.Fatalf("corpus document rejected: %v", err)
	}
	mutate := func(f func(doc, setup, scen map[string]any)) []byte {
		dec := json.NewDecoder(bytes.NewReader(base))
		dec.UseNumber()
		var doc map[string]any
		if err := dec.Decode(&doc); err != nil {
			t.Fatal(err)
		}
		f(doc, doc["setup"].(map[string]any), doc["scenario"].(map[string]any))
		out, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	retag0 := func(setup map[string]any) map[string]any {
		return setup["retag"].([]any)[0].(map[string]any)
	}
	for _, c := range []struct {
		name string
		doc  []byte
		is   error  // the named error, when there is one
		want string // otherwise a fragment of the message
	}{
		{name: "unknown field", doc: mutate(func(d, _, _ map[string]any) { d["verdict"] = "leaks" }),
			want: `unknown field "verdict"`},
		{name: "scenario unknown field", doc: mutate(func(_, _, s map[string]any) { s["knob"] = 1 }),
			want: `unknown field "knob"`},
		{name: "scenario max_retries", doc: mutate(func(_, _, s map[string]any) {
			s["run"].(map[string]any)["max_retries"] = 99
		}), want: "max_retries must be in [0,8]"},
		{name: "retag tag", doc: mutate(func(_, st, _ map[string]any) { retag0(st)["tag"] = 200 }),
			is: attacks.ErrRetagTag},
		{name: "retag size", doc: mutate(func(_, st, _ map[string]any) { retag0(st)["size"] = uint64(1) << 40 }),
			is: attacks.ErrRetagSize},
		{name: "rsb entries", doc: mutate(func(_, st, _ map[string]any) { st["poison_rsb_entries"] = 1 << 30 }),
			is: attacks.ErrPoisonRSBEntries},
		{name: "rsb label", doc: mutate(func(_, st, _ map[string]any) { st["poison_rsb_label"] = "nowhere" }),
			want: `unknown label "nowhere"`},
		{name: "source", doc: mutate(func(d, _, _ map[string]any) { d["source"] = "_start:\n    FROB X1\n" }),
			want: "source:"},
		{name: "trailing data", doc: append(append([]byte{}, base...), "{}"...),
			want: "trailing data"},
	} {
		_, err := ParsePoC(c.doc)
		switch {
		case err == nil:
			t.Errorf("%s: accepted", c.name)
		case c.is != nil && !errors.Is(err, c.is):
			t.Errorf("%s: %v, want %v", c.name, err, c.is)
		case c.is == nil && !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: %v, want %q", c.name, err, c.want)
		}
	}
}

// FuzzReadPoC feeds arbitrary bytes to the PoC decoder behind ReadPoC. It
// must never panic, and a document it accepts must build its variant and
// apply its setup to a fresh machine.
func FuzzReadPoC(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePoC(data)
		if err != nil {
			return
		}
		sc, err := p.Variant().Build()
		if err != nil {
			t.Fatalf("accepted document does not build: %v", err)
		}
		m, err := cpu.NewMachine(core.DefaultConfig(), core.Unsafe, sc.Prog)
		if err != nil {
			return // a program the machine cannot load is the loader's call
		}
		sc.Setup(m)
		m.Release()
	})
}
