package scenario_test

import (
	"os"
	"path/filepath"
	"testing"

	"specasan/internal/scenario"
)

// FuzzScenarioParse feeds arbitrary documents to scenario.Parse, the path
// files and specasan-serve request bodies both take. It must never panic;
// an accepted document must hash; and the document MarshalJSONIndent
// writes for it must parse back to the same Hash. The seed corpus is every
// example scenario and every removed-knob document.
func FuzzScenarioParse(f *testing.F) {
	for _, glob := range []string{"../../examples/scenarios/*.json", "testdata/removed-knobs/*.json"} {
		files, err := filepath.Glob(glob)
		if err != nil {
			f.Fatal(err)
		}
		for _, path := range files {
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Add([]byte(`null`))
	f.Add([]byte(`{"extends": "fuzz-smoke", "fuzz": null}`))
	f.Add([]byte(`{"extends": "fuzz-smoke", "fuzz": {"candidates": 0, "budget_seconds": 5}}`))
	f.Add([]byte(`{"extends": "chaos-smoke", "chaos": {"kinds": []}}`))

	f.Fuzz(func(t *testing.T, doc []byte) {
		s, err := scenario.Parse(doc, "fuzz", "fuzz")
		if err != nil {
			return
		}
		hash := s.Hash()
		out, err := s.MarshalJSONIndent()
		if err != nil {
			t.Fatalf("accepted scenario does not marshal: %v", err)
		}
		back, err := scenario.Parse(out, "round trip", "fuzz")
		if err != nil {
			t.Fatalf("written scenario does not parse back: %v\n%s", err, out)
		}
		if got := back.Hash(); got != hash {
			t.Fatalf("round trip changed the hash %s -> %s\n%s", hash, got, out)
		}
	})
}
