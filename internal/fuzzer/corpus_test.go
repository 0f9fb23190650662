package fuzzer

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"specasan/internal/attacks"
	"specasan/internal/core"
	"specasan/internal/scenario"
)

// TestPoCCorpusVerdicts replays every checked-in PoC (testdata/pocs, the
// seed-1 corpus) and pins its per-mitigation verdict rows: each flagged
// mitigation must still leak, each blocked row must still block, and the
// claims model must still judge the shape the way the document records. A
// failure here means a defence implementation, the oracle, or the claims
// model changed behaviour — exactly the regression the corpus exists to
// catch. Regenerate with: specasan-fuzz -seed 1 -n 64 -out <tmp> and copy
// <tmp>/pocs over testdata/pocs.
func TestPoCCorpusVerdicts(t *testing.T) {
	_ = scenario.DelayOnMiss // ensure the registry includes the ninth policy
	paths, err := filepath.Glob(filepath.Join("testdata", "pocs", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no checked-in PoCs under testdata/pocs")
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			p, err := ReadPoC(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(p.Flagged) == 0 {
				t.Fatal("PoC flags no mitigation")
			}
			flagged := map[string]bool{}
			for _, f := range p.Flagged {
				flagged[f.Mitigation] = true
			}
			cand := &Candidate{Trigger: p.Trigger, Relation: p.Relation, Channel: p.Channel}
			for _, row := range p.Rows {
				mit, err := core.ParseMitigation(row.Mitigation)
				if err != nil {
					t.Fatalf("row names unknown mitigation: %v", err)
				}
				// The claims model still judges this shape as recorded.
				if tier, _ := Claim(mit, cand); tier.String() != row.Claim {
					t.Errorf("%v claim drifted: %s, corpus says %s", mit, tier, row.Claim)
				}
				out, err := attacks.RunVariantWith(p.Variant(), mit, nil)
				if err != nil {
					t.Fatalf("replay under %v: %v", mit, err)
				}
				if out.Leaked != row.Leaked {
					t.Errorf("%v: leaked=%v, corpus pinned %v", mit, out.Leaked, row.Leaked)
				}
				if out.Faulted || out.TimedOut {
					t.Errorf("%v: replay faulted=%v timedout=%v", mit, out.Faulted, out.TimedOut)
				}
				if flagged[row.Mitigation] && !out.Leaked {
					t.Errorf("%v is flagged but no longer leaks", mit)
				}
			}
		})
	}
}

// TestPoCCorpusRegenerates runs the seed-1 fuzz batch that produced
// testdata/pocs and requires exactly its file set, byte for byte: the
// generator, the evaluation, the minimiser (and its probe memo) and the
// document format together still emit the checked-in corpus.
func TestPoCCorpusRegenerates(t *testing.T) {
	_ = scenario.DelayOnMiss // ensure the registry includes the ninth policy
	got, _ := runCorpus(t, Options{Seed: 1, N: 64})
	entries, err := os.ReadDir(filepath.Join("testdata", "pocs"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join("testdata", "pocs", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		want["pocs/"+e.Name()] = string(data)
	}
	if !reflect.DeepEqual(keys(got), keys(want)) {
		t.Fatalf("file sets differ:\n  regenerated %v\n  checked in  %v", keys(got), keys(want))
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s differs from the checked-in corpus", name)
		}
	}
}
