package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"specasan/internal/scenario"
	"specasan/internal/store"
)

// fiveDoc is a one-kernel Figure 6 scenario: five cells, one per defence
// column.
const fiveDoc = `{
	"name": "serve-five",
	"extends": "figure6",
	"workloads": ["511.povray_r"],
	"run": {"scale": 0.02, "max_cycles": 50000000, "workers": 1, "skip_idle": true}
}`

// occupy admits n cells that each run until the test ends, the way Submit
// admits a job's misses: they take queue budget and workers. The returned
// channel receives once for each of them a worker starts.
func occupy(t *testing.T, s *Server, n int) <-chan struct{} {
	t.Helper()
	gate, started := make(chan struct{}), make(chan struct{}, n)
	t.Cleanup(func() { close(gate) }) // runs before newTestServer's Drain
	j := &job{deadline: time.Now().Add(time.Hour), done: make(chan struct{})}
	for i := 0; i < n; i++ {
		j.cells = append(j.cells, CellOutcome{Bench: "slow", Mitigation: "Unsafe"})
		j.run = append(j.run, func() CellOutcome {
			started <- struct{}{}
			<-gate
			return CellOutcome{Bench: "slow", Mitigation: "Unsafe"}
		})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending+n > s.cfg.QueueDepth {
		t.Fatalf("occupy(%d): only %d of %d budget free", n, s.cfg.QueueDepth-s.pending, s.cfg.QueueDepth)
	}
	s.pending += n
	for i := range j.cells {
		s.queue <- task{j: j, idx: i}
	}
	return started
}

// post submits doc and fails the test if no answer comes within 10 s: an
// answer that needs the busy worker would never come.
func post(t *testing.T, ts string, query, doc string) (*http.Response, []byte) {
	t.Helper()
	c := &http.Client{Timeout: 10 * time.Second}
	resp, err := c.Post(ts+"/v1/sweep"+query, "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// A fully stored job is answered at admission: it neither waits for the only
// worker, busy with another cell, nor needs queue budget.
func TestCachedJobNeverWaits(t *testing.T) {
	s, ts := newTestServer(t, Config{StoreDir: t.TempDir(), Workers: 1, QueueDepth: 5})
	cold, coldBody := submitWait(t, ts, fiveDoc)
	if cold.StatusCode != http.StatusOK || cold.Header.Get("X-Cache-Hits") != "0/5" {
		t.Fatalf("cold submit: %d X-Cache-Hits %q: %s", cold.StatusCode, cold.Header.Get("X-Cache-Hits"), coldBody)
	}
	cached := func(when string) {
		t.Helper()
		resp, body := post(t, ts.URL, "?wait=1", fiveDoc)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache-Hits") != "5/5" {
			t.Fatalf("%s: cached submit got %d X-Cache-Hits %q: %s", when, resp.StatusCode, resp.Header.Get("X-Cache-Hits"), body)
		}
		if !bytes.Equal(body, coldBody) {
			t.Fatalf("%s: cached body differs from the cold one", when)
		}
	}

	<-occupy(t, s, 1)
	cached("worker busy")

	occupy(t, s, 4)
	other := strings.Replace(fiveDoc, `"scale": 0.02`, `"scale": 0.03`, 1)
	if resp, body := post(t, ts.URL, "", other); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("cold job with the budget exhausted got %d, want 429: %s", resp.StatusCode, body)
	}
	cached("budget exhausted")

	resp, body := post(t, ts.URL, "", fiveDoc)
	if resp.StatusCode != http.StatusAccepted || !strings.Contains(string(body), `"state":"done"`) {
		t.Fatalf("async cached submit: %d %s, want 202 with state done", resp.StatusCode, body)
	}
}

// Retry-After is the backlog of cells that must simulate times their mean
// latency, per worker. Cells answered at admission are in neither: they
// take no budget, and the latency histogram holds simulated cells only.
func TestRetryAfterFromSimulatedCells(t *testing.T) {
	s, ts := newTestServer(t, Config{StoreDir: t.TempDir(), Workers: 1, QueueDepth: 5})
	submitWait(t, ts, fiveDoc)
	s.mu.Lock()
	s.latency.Observe(60_000) // a one-minute cell lifts the estimate clear of its 1 s floor
	mean := s.latency.MeanValue()
	s.mu.Unlock()
	for i := 0; i < 20; i++ {
		if resp, body := submitWait(t, ts, fiveDoc); resp.Header.Get("X-Cache-Hits") != "5/5" {
			t.Fatalf("cached submit %d: X-Cache-Hits %q: %s", i, resp.Header.Get("X-Cache-Hits"), body)
		}
	}
	occupy(t, s, 5)
	other := strings.Replace(fiveDoc, `"scale": 0.02`, `"scale": 0.03`, 1)
	resp, body := post(t, ts.URL, "", other)
	want := fmt.Sprint(int(5 * mean / 1000))
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != want {
		t.Fatalf("got %d Retry-After %q, want 429 with %s s (5 pending cells x %.0f ms, 1 worker): %s",
			resp.StatusCode, resp.Header.Get("Retry-After"), want, mean, body)
	}
}

// Each cell is looked up in the store once, at admission, whether it hits
// or misses; only the misses reach the queue and simulate.
func TestOneLookupPerCell(t *testing.T) {
	s, ts := newTestServer(t, Config{StoreDir: t.TempDir(), Workers: 2})
	// The mitigation list is not part of the result hash: the third
	// mitigation is a new cell beside the two stored ones.
	partial := strings.Replace(quickDoc, `["Unsafe", "SpecASan"]`, `["Unsafe", "SpecASan", "STT"]`, 1)
	for _, step := range []struct {
		name, doc, hits string
		hit, miss       uint64
	}{
		{"cold", quickDoc, "0/2", 0, 2},
		{"warm", quickDoc, "2/2", 2, 0},
		{"partial", partial, "2/3", 2, 1},
	} {
		st0 := s.Store().Stats()
		s.mu.Lock()
		n0 := s.n
		s.mu.Unlock()
		resp, body := submitWait(t, ts, step.doc)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache-Hits") != step.hits {
			t.Fatalf("%s: %d X-Cache-Hits %q, want %q: %s", step.name, resp.StatusCode, resp.Header.Get("X-Cache-Hits"), step.hits, body)
		}
		st := s.Store().Stats()
		if hit, miss := st.Hits-st0.Hits, st.Misses-st0.Misses; hit != step.hit || miss != step.miss {
			t.Fatalf("%s: store hits +%d misses +%d, want +%d +%d", step.name, hit, miss, step.hit, step.miss)
		}
		if puts := st.Puts - st0.Puts; puts != step.miss {
			t.Fatalf("%s: %d cells stored, want %d", step.name, puts, step.miss)
		}
		s.mu.Lock()
		n := s.n
		s.mu.Unlock()
		if queued, cached := n.CellsRun+n.CellsFailed+n.CellsShed-n0.CellsRun-n0.CellsFailed-n0.CellsShed, n.CellsCached-n0.CellsCached; queued != step.miss || cached != step.hit {
			t.Fatalf("%s: %d cells queued and %d answered at admission, want %d and %d", step.name, queued, cached, step.miss, step.hit)
		}
	}
}

// A stored cell whose entry passes the checksum and begins with the cell's
// identity, but whose body is not JSON, is quarantined and simulated again:
// it is never served, and the next request is answered from the healed
// store.
func TestBrokenJSONEntryResimulated(t *testing.T) {
	s, ts := newTestServer(t, Config{StoreDir: t.TempDir(), Workers: 2})
	_, coldBody := submitWait(t, ts, quickDoc)
	var doc ResultDoc
	if err := json.Unmarshal(coldBody, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range doc.Cells {
		k := store.Key{Space: doc.ResultHash, Name: scenario.CellKey(c.Bench, c.Mitigation)}
		if err := s.Store().Put(k, c.Perf[:len(c.Perf)-1]); err != nil { // no closing brace
			t.Fatal(err)
		}
	}
	resp, body := submitWait(t, ts, quickDoc)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache-Hits") != "0/2" {
		t.Fatalf("broken entries: %d X-Cache-Hits %q, want 200 0/2: %s", resp.StatusCode, resp.Header.Get("X-Cache-Hits"), body)
	}
	if !bytes.Equal(body, coldBody) {
		t.Fatal("re-simulated response differs from the cold one")
	}
	if q := s.Store().Stats().Quarantined; q != 2 {
		t.Fatalf("quarantined %d entries, want 2", q)
	}
	if healed, _ := submitWait(t, ts, quickDoc); healed.Header.Get("X-Cache-Hits") != "2/2" {
		t.Fatalf("store not healed: X-Cache-Hits = %q", healed.Header.Get("X-Cache-Hits"))
	}
}

// Identical documents submitted at once, cold and then warm, all answer the
// same bytes.
func TestConcurrentIdenticalSubmissionsByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{StoreDir: t.TempDir(), Workers: 2})
	const clients, rounds = 4, 3
	bodies := make([][]byte, clients*rounds)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				resp, err := http.Post(ts.URL+"/v1/sweep?wait=1", "application/json", strings.NewReader(quickDoc))
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("client %d round %d: %d %v %s", c, r, resp.StatusCode, err, body)
					return
				}
				bodies[c*rounds+r] = body
			}
		}(c)
	}
	wg.Wait()
	for i, b := range bodies {
		if !bytes.Equal(b, bodies[0]) {
			t.Fatalf("response %d differs from response 0:\n%s\n%s", i, b, bodies[0])
		}
	}
}

// The job table keeps the most recent maxFinishedJobs finished jobs and
// every unfinished one.
func TestJobTableKeepsRecentFinishedJobs(t *testing.T) {
	s, ts := newTestServer(t, Config{StoreDir: t.TempDir(), Workers: 1})
	submitWait(t, ts, quickDoc) // job-1 stores both cells
	<-occupy(t, s, 1)
	slow := strings.Replace(quickDoc, `"scale": 0.02`, `"scale": 0.03`, 1)
	if _, herr := s.Submit([]byte(slow), "test"); herr != nil { // job-2 waits behind the held worker
		t.Fatal(herr)
	}
	const extra = 3
	var last *job
	for i := 0; i < maxFinishedJobs+extra; i++ {
		j, herr := s.Submit([]byte(quickDoc), "test")
		if herr != nil {
			t.Fatal(herr)
		}
		select {
		case <-j.done:
		default:
			t.Fatalf("cached job %s not done at admission", j.id)
		}
		last = j
	}
	s.mu.Lock()
	n, run := len(s.jobs), last.run
	s.mu.Unlock()
	if n != maxFinishedJobs+1 {
		t.Fatalf("job table holds %d jobs, want %d finished + 1 unfinished", n, maxFinishedJobs)
	}
	if run != nil {
		t.Fatal("finished job kept its runners")
	}
	for _, c := range []struct {
		id, state string
		status    int
	}{
		{"job-1", "", http.StatusNotFound},
		{fmt.Sprintf("job-%d", extra+2), "", http.StatusNotFound},
		{"job-2", `"state":"running"`, http.StatusOK},
		{fmt.Sprintf("job-%d", extra+3), `"state":"done"`, http.StatusOK},
		{last.id, `"state":"done"`, http.StatusOK},
	} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + c.id)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status || !strings.Contains(string(body), c.state) {
			t.Fatalf("GET %s: %d %s, want %d %s", c.id, resp.StatusCode, body, c.status, c.state)
		}
	}
}

// A document that would expand past maxJobCells is refused with 400 before
// any cell is built, whatever its lists or chaos seeds multiply to.
func TestOversizedExpansionRefused(t *testing.T) {
	s, err := New(Config{StoreDir: t.TempDir(), Workers: 1, Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	list := func(name string, n int) string {
		return strings.TrimSuffix(strings.Repeat(`"`+name+`",`, n), ",")
	}
	for name, doc := range map[string]string{
		"chaos seeds": `{"extends": "chaos-smoke", "chaos": {"seeds": 1000000000, "seed0": 1, "rate": 0.02, "max_latency": 200}}`,
		"perf lists":  fmt.Sprintf(`{"extends": "figure6", "workloads": [%s], "mitigations": [%s]}`, list("505.mcf_r", 70), list("Unsafe", 70)),
	} {
		want := fmt.Sprintf("more than %d cells", maxJobCells)
		if _, herr := s.Submit([]byte(doc), name); herr == nil || herr.Status != http.StatusBadRequest || !strings.Contains(herr.Msg, want) {
			t.Errorf("%s: got %+v, want 400 %q", name, herr, want)
		}
	}
	if n := s.Store().Stats(); n.Hits+n.Misses != 0 {
		t.Fatalf("refused documents were looked up: %+v", n)
	}
}

// A chaos cell counts as cached only when its own lookup hit: perf jobs
// answered from the store while it simulates do not make it cached.
func TestChaosCellCachedOnlyOnItsOwnHit(t *testing.T) {
	s, err := New(Config{StoreDir: t.TempDir(), Workers: 2, Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	warm, herr := s.Submit([]byte(quickDoc), "perf")
	if herr != nil {
		t.Fatal(herr)
	}
	<-warm.done
	cj, herr := s.Submit([]byte(chaosDoc), "chaos")
	if herr != nil {
		t.Fatal(herr)
	}
	for done := false; !done; {
		select {
		case <-cj.done:
			done = true
		default: // a perf job answered from the store while the chaos cells run
			if _, herr := s.Submit([]byte(quickDoc), "perf"); herr != nil {
				t.Fatal(herr)
			}
		}
	}
	if cached, _ := cj.cacheSummary(); cached != 0 {
		t.Fatalf("cold chaos job reports %d of %d cells cached", cached, len(cj.cells))
	}
	again, herr := s.Submit([]byte(chaosDoc), "chaos")
	if herr != nil {
		t.Fatal(herr)
	}
	<-again.done
	if cached, _ := again.cacheSummary(); cached != len(again.cells) {
		t.Fatalf("warm chaos job reports %d of %d cells cached", cached, len(again.cells))
	}
}

// With the budget held full, a job of five stored cells and one new cell is
// shed before any entry is read: the stored cells cost a stat each and no
// store lookup. With one slot free, the same job fits once its stored cells
// are counted, and is read and admitted.
func TestShedBeforeReadingCells(t *testing.T) {
	six := strings.Replace(fiveDoc, `"workloads"`, `"mitigations": ["Unsafe", "SpecBarrier", "STT", "GhostMinion", "SpecASan", "MTE"], "workloads"`, 1)
	for _, held := range []int{5, 4} {
		s, ts := newTestServer(t, Config{StoreDir: t.TempDir(), Workers: 1, QueueDepth: 5})
		submitWait(t, ts, fiveDoc) // stores the five cells
		occupy(t, s, held)
		st0 := s.Store().Stats()
		j, herr := s.Submit([]byte(six), "six")
		st := s.Store().Stats()
		hits, misses := st.Hits-st0.Hits, st.Misses-st0.Misses
		if held == 5 {
			if herr == nil || herr.Status != http.StatusTooManyRequests {
				t.Fatalf("six-cell job with the budget full: %+v, want 429", herr)
			}
			if hits != 0 || misses != 0 {
				t.Fatalf("shed job looked cells up: hits +%d misses +%d", hits, misses)
			}
			continue
		}
		if herr != nil {
			t.Fatalf("six-cell job with one slot free: %v", herr)
		}
		if cached, _ := j.cacheSummary(); cached != 5 || hits != 5 || misses != 1 {
			t.Fatalf("admitted job: %d cells answered at admission, hits +%d misses +%d, want 5, +5, +1", cached, hits, misses)
		}
	}
}
