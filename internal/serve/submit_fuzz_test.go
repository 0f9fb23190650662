package serve

import (
	"io"
	"net/http"
	"testing"
)

// FuzzSubmit feeds arbitrary request bodies to Submit on a drained server
// with a store: parsing, cell expansion and the admission-time store lookups
// all run, and nothing simulates. Submit must never panic, and must refuse
// every body with a structured error: 400 for a bad document, 503 for the
// drain. The seeds under testdata/fuzz/FuzzSubmit are the tests' perf and
// chaos documents, two example scenarios and a removed-knob document.
func FuzzSubmit(f *testing.F) {
	s, err := New(Config{StoreDir: f.TempDir(), Workers: 1, Log: io.Discard})
	if err != nil {
		f.Fatal(err)
	}
	s.Drain()
	f.Fuzz(func(t *testing.T, body []byte) {
		j, herr := s.Submit(body, "fuzz")
		if herr == nil {
			t.Fatalf("drained server admitted job %s", j.id)
		}
		if herr.Status != http.StatusBadRequest && herr.Status != http.StatusServiceUnavailable {
			t.Fatalf("status %d (%s), want 400 or 503", herr.Status, herr.Msg)
		}
		if herr.Msg == "" {
			t.Fatalf("status %d without a message", herr.Status)
		}
		if n := s.Store().Stats().Puts; n != 0 {
			t.Fatalf("drained server stored %d cells", n)
		}
	})
}
