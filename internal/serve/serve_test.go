package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"specasan/internal/harness"
)

// quickDoc is a small two-cell perf scenario the tests submit: one workload,
// two mitigations, tiny scale.
const quickDoc = `{
	"name": "serve-test",
	"extends": "figure6",
	"workloads": ["511.povray_r"],
	"mitigations": ["Unsafe", "SpecASan"],
	"run": {"scale": 0.02, "max_cycles": 50000000, "workers": 1, "skip_idle": true}
}`

// chaosDoc is a two-cell chaos scenario (1 workload x 1 mitigation x 1 kind
// x 2 seeds).
const chaosDoc = `{
	"name": "serve-chaos-test",
	"extends": "chaos-smoke",
	"workloads": ["505.mcf_r"],
	"mitigations": ["SpecASan"],
	"run": {"scale": 0.02, "max_cycles": 50000000, "workers": 1, "skip_idle": true},
	"chaos": {"seeds": 2, "seed0": 1, "kinds": ["latency"], "rate": 0.02, "max_latency": 100, "verdict_seeds": 0}
}`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
	})
	return s, ts
}

func submitWait(t *testing.T, ts *httptest.Server, doc string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweep?wait=1", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestSweepColdThenCachedByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{StoreDir: t.TempDir(), Workers: 2})

	cold, coldBody := submitWait(t, ts, quickDoc)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold submit: %d %s", cold.StatusCode, coldBody)
	}
	if h := cold.Header.Get("X-Cache-Hits"); h != "0/2" {
		t.Fatalf("cold X-Cache-Hits = %q, want 0/2", h)
	}
	var doc ResultDoc
	if err := json.Unmarshal(coldBody, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != ResultSchema || doc.Kind != "perf" || len(doc.Cells) != 2 {
		t.Fatalf("unexpected result doc: %+v", doc)
	}
	for _, c := range doc.Cells {
		var perf harness.CellResult
		if c.Error != "" || json.Unmarshal(c.Perf, &perf) != nil || perf.Cycles == 0 {
			t.Fatalf("bad cell: %+v", c)
		}
	}

	warm, warmBody := submitWait(t, ts, quickDoc)
	if warm.StatusCode != http.StatusOK {
		t.Fatalf("warm submit: %d %s", warm.StatusCode, warmBody)
	}
	if h := warm.Header.Get("X-Cache-Hits"); h != "2/2" {
		t.Fatalf("warm X-Cache-Hits = %q, want 2/2", h)
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Fatalf("cached response differs from cold:\n--- cold\n%s--- warm\n%s", coldBody, warmBody)
	}
	if id1, id2 := cold.Header.Get("X-Job-Id"), warm.Header.Get("X-Job-Id"); id1 == id2 {
		t.Fatalf("both responses claim job %q", id1)
	}
}

func TestChaosScenarioRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{StoreDir: t.TempDir(), Workers: 2})
	cold, coldBody := submitWait(t, ts, chaosDoc)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold submit: %d %s", cold.StatusCode, coldBody)
	}
	var doc ResultDoc
	if err := json.Unmarshal(coldBody, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Kind != "chaos" || len(doc.Cells) != 2 {
		t.Fatalf("unexpected chaos doc: kind=%s cells=%d", doc.Kind, len(doc.Cells))
	}
	for _, c := range doc.Cells {
		if c.Error != "" || c.Chaos == nil || c.Chaos.Cycles == 0 || c.Seed == 0 {
			t.Fatalf("bad chaos cell: %+v", c)
		}
		if len(c.Chaos.Divergence) != 0 {
			t.Fatalf("chaos cell diverged: %+v", c.Chaos.Divergence)
		}
	}
	warm, warmBody := submitWait(t, ts, chaosDoc)
	if h := warm.Header.Get("X-Cache-Hits"); h != "2/2" {
		t.Fatalf("warm chaos X-Cache-Hits = %q, want 2/2", h)
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Fatal("cached chaos response differs from cold")
	}
}

func TestCorruptStoreEntryResimulatedNotServed(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{StoreDir: dir, Workers: 2})
	_, coldBody := submitWait(t, ts, quickDoc)

	// Corrupt every stored entry.
	n := 0
	filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err == nil && strings.HasSuffix(p, ".entry") {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)/2] ^= 0x40
			if err := os.WriteFile(p, b, 0o644); err != nil {
				t.Fatal(err)
			}
			n++
		}
		return nil
	})
	if n != 2 {
		t.Fatalf("expected 2 stored entries, corrupted %d", n)
	}

	warm, warmBody := submitWait(t, ts, quickDoc)
	if h := warm.Header.Get("X-Cache-Hits"); h != "0/2" {
		t.Fatalf("corrupt entries served as hits: X-Cache-Hits = %q", h)
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Fatal("re-simulated response differs from cold run")
	}
	if q := s.Store().Stats().Quarantined; q != 2 {
		t.Fatalf("quarantined %d entries, want 2", q)
	}
	// Third submission hits the healed cache.
	healed, _ := submitWait(t, ts, quickDoc)
	if h := healed.Header.Get("X-Cache-Hits"); h != "2/2" {
		t.Fatalf("store not healed: X-Cache-Hits = %q", h)
	}
}

func TestQueueOverflowShedsWith429(t *testing.T) {
	// Queue budget of 2 with a paused... simplest: budget 2 and a 4-cell
	// scenario can never be admitted.
	_, ts := newTestServer(t, Config{QueueDepth: 2, Workers: 1})
	big := strings.Replace(quickDoc, `"workloads": ["511.povray_r"]`,
		`"workloads": ["511.povray_r", "505.mcf_r"]`, 1)
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("oversized job got %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
}

func TestInvalidScenarioRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{StoreDir: t.TempDir()})
	docs := []string{
		"{not json",
		`{"extends": "no-such-preset"}`,
		`{"run": {"scalle": 1}}`,            // unknown field: strict decode
		`{"workloads": ["no-such-kernel"]}`, // fails cell expansion
		`{"run": {"max_retries": 99}}`,      // fails validation
	}
	// Scenarios setting a run knob the simulator no longer has: strict
	// decode, never a silent run without the knob. The server has a store,
	// so no storeless-server rule can be what rejects them.
	removed, err := filepath.Glob(filepath.Join("..", "scenario", "testdata", "removed-knobs", "*.json"))
	if err != nil || len(removed) == 0 {
		t.Fatalf("no removed-knob scenario files (err=%v)", err)
	}
	for _, path := range removed {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, string(b))
	}
	for _, doc := range docs {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("doc %q got %d, want 400", doc, resp.StatusCode)
		}
	}
}

func TestAsyncSubmitAndPoll(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(quickDoc))
	if err != nil {
		t.Fatal(err)
	}
	var acc struct {
		ID    string `json:"id"`
		Cells int    `json:"cells"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || acc.ID == "" || acc.Cells != 2 {
		t.Fatalf("submit: %d %+v", resp.StatusCode, acc)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/jobs/" + acc.ID)
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			State  string     `json:"state"`
			Result *ResultDoc `json:"result"`
		}
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if st.State == "done" {
			if st.Result == nil || len(st.Result.Cells) != 2 {
				t.Fatalf("done without result: %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
		time.Sleep(20 * time.Millisecond)
	}
	r, err := http.Get(ts.URL + "/v1/jobs/no-such-job")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job got %d, want 404", r.StatusCode)
	}
}

func TestHealthzAndStats(t *testing.T) {
	s, ts := newTestServer(t, Config{StoreDir: t.TempDir()})
	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h map[string]string
	json.NewDecoder(r.Body).Decode(&h)
	r.Body.Close()
	if r.StatusCode != http.StatusOK || h["status"] != "ok" || h["store"] != "rw" {
		t.Fatalf("healthz: %d %v", r.StatusCode, h)
	}

	submitWait(t, ts, quickDoc)
	r, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var d statsDoc
	if err := json.NewDecoder(r.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if d.Schema != StatsSchema {
		t.Fatalf("stats schema %q", d.Schema)
	}
	if d.Counters.JobsAccepted != 1 || d.Counters.JobsCompleted != 1 || d.Counters.CellsRun != 2 {
		t.Fatalf("stats counters: %+v", d.Counters)
	}
	if len(d.Latency) != 1 || d.Latency[0].Name != "cell_latency_ms" || d.Latency[0].N != 2 {
		t.Fatalf("stats latency: %+v", d.Latency)
	}
	if d.Store == nil || d.Store.Puts != 2 {
		t.Fatalf("stats store: %+v", d.Store)
	}
	_ = s
}

func TestJobDeadlineCancelsQueuedCells(t *testing.T) {
	// One worker, a deadline that expires immediately: the first cell may
	// start (dequeued before expiry check is racy either way), the rest
	// must be shed with a deadline error, and the job must still complete.
	s, err := New(Config{Workers: 1, JobTimeout: time.Nanosecond, Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	j, herr := s.Submit([]byte(quickDoc), "test")
	if herr != nil {
		t.Fatal(herr)
	}
	select {
	case <-j.done:
	case <-time.After(30 * time.Second):
		t.Fatal("job with expired deadline never completed")
	}
	shed := 0
	for _, c := range j.cells {
		if strings.Contains(c.Error, "job deadline") {
			shed++
		}
	}
	if shed == 0 {
		t.Fatalf("no cell shed by the expired deadline: %+v", j.cells)
	}
}

func TestCellDeadlineAbandonsRun(t *testing.T) {
	// A runner that outlives the cell wall deadline: the worker must record
	// the deadline error and move on instead of blocking the pool.
	s, err := New(Config{Workers: 1, CellTimeout: 10 * time.Millisecond, Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	release := make(chan struct{})
	j := &job{
		cells: []CellOutcome{{Bench: "slow", Mitigation: "Unsafe"}},
		run: []func() CellOutcome{func() CellOutcome {
			<-release
			return CellOutcome{Bench: "slow", Mitigation: "Unsafe"}
		}},
		done: make(chan struct{}),
	}
	out := s.runWithTimeout(j, 0)
	close(release)
	if !strings.Contains(out.Error, "wall deadline") {
		t.Fatalf("cell not abandoned: %+v", out)
	}
	if out.Bench != "slow" || out.Mitigation != "Unsafe" {
		t.Fatalf("abandoned outcome lost its identity: %+v", out)
	}
}

func TestRunnerPanicBecomesCellError(t *testing.T) {
	s, err := New(Config{Workers: 1, Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	j := &job{
		cells: []CellOutcome{{Bench: "boom", Mitigation: "Unsafe"}},
		run: []func() CellOutcome{func() CellOutcome {
			panic("runner exploded")
		}},
		done: make(chan struct{}),
	}
	out := s.runWithTimeout(j, 0)
	if !strings.Contains(out.Error, "runner exploded") ||
		!strings.Contains(out.Error, "goroutine") {
		t.Fatalf("panic not captured with stack: %+v", out)
	}
}

func TestSubmitAfterDrainRejected(t *testing.T) {
	s, err := New(Config{Workers: 1, Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	s.Drain()
	if _, herr := s.Submit([]byte(quickDoc), "test"); herr == nil ||
		herr.Status != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain: %+v", herr)
	}
}

func TestRetryAfterEstimate(t *testing.T) {
	s, err := New(Config{Workers: 2, Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	s.mu.Lock()
	s.pending = 100
	if got := s.retryAfterLocked(); got < 1 {
		t.Errorf("retryAfterLocked() = %d, want >= 1", got)
	}
	s.latency.Observe(2000) // one 2s cell observed
	if got := s.retryAfterLocked(); got < 50 {
		t.Errorf("retryAfterLocked() with 2s mean = %d, want ~100s", got)
	}
	s.pending = 0
	s.mu.Unlock()
}

func TestReadOnlyStoreDegradesGracefully(t *testing.T) {
	if os.Getuid() == 0 {
		t.Skip("running as root: cannot make a directory unwritable")
	}
	dir := t.TempDir()
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	_, ts := newTestServer(t, Config{StoreDir: dir})
	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h map[string]string
	json.NewDecoder(r.Body).Decode(&h)
	r.Body.Close()
	if h["store"] != "ro" {
		t.Fatalf("healthz store = %q, want ro", h["store"])
	}
	// Sweeps still run; nothing persists.
	resp, body := submitWait(t, ts, quickDoc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep on ro store: %d %s", resp.StatusCode, body)
	}
}

func TestOversizedBodyRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json",
		strings.NewReader(fmt.Sprintf(`{"name": %q}`, strings.Repeat("x", 2<<20))))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body got %d, want 400", resp.StatusCode)
	}
}
