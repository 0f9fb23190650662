package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"specasan/internal/chaos"
	"specasan/internal/harness"
	"specasan/internal/scenario"
)

// plainDoc is ResultDoc without its MarshalJSON: encoding/json's own
// encoding of the document, which scans and compacts every perf payload.
type plainDoc ResultDoc

// encoderBytes is what json.NewEncoder writes for v.
func encoderBytes(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// oddText holds the characters encoding/json escapes for HTML safety.
const oddText = "a <b> & c \u2028 d"

// The bodies handleSweep and handleJob answer with are byte for byte what
// json.NewEncoder writes for the same result document, for perf, chaos and
// error cells, cold and cached, with escaped characters in a scenario name
// and in an error string.
func TestResultBodyMatchesEncoder(t *testing.T) {
	s, ts := newTestServer(t, Config{StoreDir: t.TempDir(), Workers: 2})
	// sameAsEncoder checks j's handleSweep body and its handleJob body.
	sameAsEncoder := func(what string, j *job, sweepBody []byte) {
		t.Helper()
		d := plainDoc(*j.result())
		want := encoderBytes(t, &d)
		if !bytes.Equal(sweepBody, want) {
			t.Errorf("%s: handleSweep body\n%s\nencoder\n%s", what, sweepBody, want)
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + j.id)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		cached, failed := j.cacheSummary()
		want = encoderBytes(t, map[string]interface{}{
			"id": j.id, "state": "done",
			"cached_cells": cached, "failed_cells": failed,
			"result": &d,
		})
		if !bytes.Equal(body, want) {
			t.Errorf("%s: handleJob body\n%s\nencoder\n%s", what, body, want)
		}
	}
	named, err := json.Marshal(oddText)
	if err != nil {
		t.Fatal(err)
	}
	odd := strings.Replace(quickDoc, `"serve-test"`, string(named), 1)
	failing := strings.Replace(odd, `"max_cycles": 50000000`, `"max_cycles": 1000`, 1)
	for _, c := range []struct {
		what, doc string
		hits      string
	}{
		{"cold perf", odd, "0/2"},
		{"cached perf", odd, "2/2"},
		{"cold chaos", chaosDoc, "0/2"},
		{"cached chaos", chaosDoc, "2/2"},
		{"failing perf", failing, "0/2"},
	} {
		resp, body := submitWait(t, ts, c.doc)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache-Hits") != c.hits {
			t.Fatalf("%s: %d X-Cache-Hits %q, want 200 %s: %s", c.what, resp.StatusCode, resp.Header.Get("X-Cache-Hits"), c.hits, body)
		}
		s.mu.Lock()
		j := s.jobs[resp.Header.Get("X-Job-Id")]
		s.mu.Unlock()
		if c.what == "failing perf" && resp.Header.Get("X-Failed-Cells") != "2" {
			t.Fatalf("%s: X-Failed-Cells %q, want 2", c.what, resp.Header.Get("X-Failed-Cells"))
		}
		sameAsEncoder(c.what, j, body)
	}

	// One document with every kind of cell, an error string that needs
	// escaping, and a perf payload that holds escaped characters.
	perf, err := json.Marshal(&harness.CellResult{Schema: harness.CellSchema, Bench: "511.povray_r",
		Mitigation: "SpecASan", Cycles: 7, Output: oddText, Counters: map[string]uint64{"b": 2, "a": 1}})
	if err != nil {
		t.Fatal(err)
	}
	j := &job{
		id: "job-mixed", scn: &scenario.Scenario{Name: oddText}, kind: "perf",
		hash: "0123456789abcdef", resHash: "fedcba9876543210",
		cells: []CellOutcome{
			{Bench: "511.povray_r", Mitigation: "SpecASan", Perf: perf},
			{Bench: "505.mcf_r", Mitigation: "SpecASan", Kinds: "latency", Seed: 3,
				Chaos: &chaos.CellRecord{Schema: chaos.CellSchema, Workload: "505.mcf_r", Mitigation: "SpecASan",
					Seed: 3, Summary: oddText, Cycles: 9, Divergence: []string{oddText}}},
			{Bench: "505.mcf_r", Mitigation: "Unsafe", Error: "panic: " + oddText + "\n\tgoroutine 1"},
			{Bench: "505.mcf_r", Mitigation: "STT", Kinds: "all", Seed: 4, Error: oddText},
		},
		done: make(chan struct{}),
	}
	close(j.done)
	s.mu.Lock()
	s.jobs[j.id] = j
	s.mu.Unlock()
	body, err := j.resultBody()
	if err != nil {
		t.Fatal(err)
	}
	sameAsEncoder("every kind of cell", j, body)

	for _, d := range []ResultDoc{{}, {Schema: ResultSchema, Cells: []CellOutcome{}}} {
		got, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := json.Marshal(plainDoc(d)); !bytes.Equal(got, want) {
			t.Errorf("document %+v encodes as %s, want %s", d, got, want)
		}
	}
}
