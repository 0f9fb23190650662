// Package serve implements specasan-serve's sweep service: an HTTP/JSON
// daemon that accepts scenario documents (the same documents the CLIs load
// from disk), expands them into sweep or chaos-campaign cells, and runs the
// cells on a bounded worker pool backed by the crash-safe result store.
//
// The service is built around three robustness rules:
//
//   - Admission control, not queueing collapse: a job is admitted only if
//     every one of its cells that must simulate fits in the queue budget;
//     otherwise the request is shed immediately with 429 and a Retry-After
//     estimate. An admitted job never waits behind an unbounded backlog, and
//     a stored cell is answered at admission, so a cache hit never waits at
//     all.
//   - Every failure is a cell-sized failure: panics, watchdog verdicts,
//     timeouts, and deadline expiries are captured per cell. One poisoned
//     cell cannot take down the job, let alone the daemon.
//   - Results are only ever served from verified bytes: the store checksums
//     every entry, quarantines anything doubtful, and the daemon
//     re-simulates — the cache can cost time, never correctness.
//
// Determinism is what makes the whole design sound: a cell's result is a
// pure function of its scenario's result-context hash and its coordinates,
// so a stored result is interchangeable with a fresh simulation. A perf
// cell's wire form is its stored encoding, so cold and cached responses are
// byte-identical by construction.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"sync"
	"syscall"
	"time"

	"specasan/internal/chaos"
	"specasan/internal/harness"
	"specasan/internal/obs"
	"specasan/internal/par"
	"specasan/internal/scenario"
	"specasan/internal/stats"
	"specasan/internal/store"
)

// Schema identifiers for the service's JSON payloads.
const (
	ResultSchema = "specasan-serve/result/v1"
	StatsSchema  = "specasan-serve/stats/v1"
)

// maxJobCells bounds how many cells one job may expand to, unless the queue
// budget is larger. A stored cell costs no budget, so the budget alone no
// longer bounds a job, and a document's lists could otherwise expand to
// billions of cells before admission saw them.
const maxJobCells = 4096

// maxFinishedJobs bounds the job table: the most recent finished jobs stay
// pollable, and older ones are forgotten (their ids answer 404). Unfinished
// jobs are never evicted.
const maxFinishedJobs = 1024

// Config shapes a Server.
type Config struct {
	// StoreDir is the result-store root; empty runs without a store (every
	// cell simulates). A store that turns out to be unwritable degrades to
	// read-only: cached results are still served, new ones are not
	// persisted, and /healthz reports the degradation.
	StoreDir string
	// StoreMaxBytes prunes the store to at most this many entry bytes when
	// the server opens it, oldest entries first (0 = unbounded).
	StoreMaxBytes int64
	// QueueDepth bounds the number of admitted cells that must simulate and
	// have not finished; a stored cell is answered at admission and takes
	// none. A job whose such cells do not all fit is shed with 429. Default
	// 256.
	QueueDepth int
	// Workers is the cell worker pool width (0 = GOMAXPROCS).
	Workers int
	// JobTimeout is the per-job wall deadline, measured from admission.
	// When it expires, cells not yet started fail with a deadline error;
	// in-flight cells are left to finish. Default 10 minutes.
	JobTimeout time.Duration
	// CellTimeout is the per-cell wall deadline. A cell that exceeds it is
	// recorded as failed and its worker moves on (the abandoned simulation
	// still terminates on its own cycle budget, and if it completes it may
	// still heal the store). Default 5 minutes.
	CellTimeout time.Duration
	// Log receives one line per service event (default: discard).
	Log io.Writer
}

func (c *Config) fillDefaults() {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.Workers <= 0 {
		c.Workers = par.Workers(0, c.QueueDepth)
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 10 * time.Minute
	}
	if c.CellTimeout <= 0 {
		c.CellTimeout = 5 * time.Minute
	}
	if c.Log == nil {
		c.Log = io.Discard
	}
}

// CellOutcome is one cell of a job's result document. Exactly one of Perf,
// Chaos, or Error is populated. The document deliberately carries no
// timestamps, job ids, or cache markers: resubmitting a scenario must
// produce byte-identical result documents whether cells simulated or came
// from the store (cache information travels in headers and /stats).
type CellOutcome struct {
	Bench      string `json:"bench"`
	Mitigation string `json:"mitigation"`
	Kinds      string `json:"kinds,omitempty"`
	Seed       uint64 `json:"seed,omitempty"`
	Error      string `json:"error,omitempty"`
	// Perf is the cell's encoded harness.CellResult: a stored cell's
	// verified store payload, or a cold cell's json.Marshal(CellResultOf(r)),
	// the bytes PutCell stores. Either is canonical JSON, which the
	// document's encoding splices in as it is. Perf and Chaos must stay the
	// last two serialized fields, in this order (appendJSON relies on it).
	Perf   json.RawMessage   `json:"perf,omitempty"`
	Chaos  *chaos.CellRecord `json:"chaos,omitempty"`
	cached bool              // not serialized; aggregated into headers/stats
}

// cellJSON is CellOutcome without appendJSON: encoding/json's encoding of
// the cell, which compacts Perf again.
type cellJSON CellOutcome

// appendJSON appends the cell's JSON encoding, byte for byte what
// encoding/json writes for it, but with a perf payload appended as it is
// instead of being scanned and compacted again: a cell's Perf is canonical
// JSON, so compacting it would change nothing.
func (c *CellOutcome) appendJSON(b []byte) ([]byte, error) {
	p := cellJSON(*c)
	if len(p.Perf) == 0 || p.Chaos != nil {
		cb, err := json.Marshal(&p)
		return append(b, cb...), err
	}
	perf := p.Perf
	p.Perf = nil
	cb, err := json.Marshal(&p)
	if err != nil {
		return b, err
	}
	// Perf is the last field this cell has: reopen the object for it.
	b = append(b, cb[:len(cb)-1]...)
	b = append(b, `,"perf":`...)
	b = append(b, perf...)
	return append(b, '}'), nil
}

// ResultDoc is a completed job's deterministic result document.
type ResultDoc struct {
	Schema       string        `json:"schema"`
	Scenario     string        `json:"scenario"`
	ScenarioHash string        `json:"scenario_hash"`
	ResultHash   string        `json:"result_hash"`
	Kind         string        `json:"kind"` // "perf" or "chaos"
	Cells        []CellOutcome `json:"cells"`
}

// MarshalJSON encodes the document byte for byte as encoding/json would
// without this method, but splices each cell's perf payload in as it is
// (see CellOutcome.appendJSON). Cells must stay the last field.
func (d ResultDoc) MarshalJSON() ([]byte, error) {
	type plain ResultDoc
	head := plain(d)
	head.Cells = nil
	b, err := json.Marshal(&head)
	if err != nil || d.Cells == nil {
		return b, err
	}
	b = append(bytes.TrimSuffix(b, []byte("null}")), '[')
	for i := range d.Cells {
		if i > 0 {
			b = append(b, ',')
		}
		if b, err = d.Cells[i].appendJSON(b); err != nil {
			return nil, err
		}
	}
	return append(b, "]}"...), nil
}

// job tracks one admitted scenario through its cells.
type job struct {
	id       string
	scn      *scenario.Scenario
	kind     string
	hash     string // scn.Hash(), computed once
	resHash  string // scn.ResultHash(), computed once
	deadline time.Time
	finished int // cells with a final outcome
	cells    []CellOutcome
	// run is index-aligned with cells: the runner of each cell that must
	// simulate, nil for a cell answered at admission. Dropped once the job
	// is done.
	run []func() CellOutcome
	// stored is index-aligned with cells: whether admission looks the cell
	// up in the store (a cacheable perf cell on a server with a store).
	stored []bool
	done   chan struct{}
}

type counters struct {
	JobsAccepted  uint64 `json:"jobs_accepted"`
	JobsRejected  uint64 `json:"jobs_rejected"`
	JobsCompleted uint64 `json:"jobs_completed"`
	CellsRun      uint64 `json:"cells_run"`
	CellsCached   uint64 `json:"cells_cached"`
	CellsFailed   uint64 `json:"cells_failed"`
	CellsShed     uint64 `json:"cells_shed"` // cancelled by deadline or drain
}

// Server is the sweep service.
type Server struct {
	cfg   Config
	store *store.Store // nil when running storeless

	mu       sync.Mutex
	jobs     map[string]*job
	doneIDs  []string // finished jobs still in jobs, oldest first
	seq      int
	pending  int // admitted cells that must simulate and have not finished
	draining bool
	n        counters
	reg      *obs.Registry
	latency  *stats.Histogram // wall latency of the cells workers ran, ms

	queue chan task
	wg    sync.WaitGroup
}

// task is one queued cell: the job it belongs to and its index.
type task struct {
	j   *job
	idx int
}

// New builds a Server and starts its worker pool. A store directory that
// cannot be created or written degrades to read-only or storeless operation
// rather than failing — the service's job is to keep simulating.
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	s := &Server{
		cfg:  cfg,
		jobs: make(map[string]*job),
		reg:  obs.NewRegistry(),
	}
	// One bucket per 25ms, top bucket absorbing the tail.
	s.latency = s.reg.Histogram("serve", "cell_latency_ms", 25, 64)
	if cfg.StoreDir != "" {
		st, err := store.OpenPruned(cfg.StoreDir, cfg.StoreMaxBytes, cfg.Log, "specasan-serve")
		if err != nil {
			return nil, fmt.Errorf("serve: store: %w", err)
		}
		s.store = st
	}
	s.queue = make(chan task, cfg.QueueDepth)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

func (s *Server) logf(format string, args ...interface{}) {
	fmt.Fprintf(s.cfg.Log, "specasan-serve: "+format+"\n", args...)
}

// Store exposes the server's store (nil when storeless); tests and /stats
// use it.
func (s *Server) Store() *store.Store { return s.store }

// ---------------------------------------------------------------------------
// Job admission and execution

// Submit validates and admits a scenario document. It returns the job, or an
// *HTTPError carrying the status the HTTP layer should answer with (429 with
// retry hint, 400, 503). label names the document in errors.
//
// Stored cells are answered here, from the store's verified bytes; only the
// cells that must simulate count against the queue budget and go to the
// workers. A job whose every cell is stored is done before Submit returns.
// A job that cannot fit the budget even if every cell with an entry file
// hits is shed before any entry is read.
func (s *Server) Submit(doc []byte, label string) (*job, *HTTPError) {
	scn, err := scenario.Parse(doc, label, "submitted")
	if err != nil {
		return nil, &HTTPError{Status: http.StatusBadRequest, Msg: err.Error()}
	}
	j, err := s.buildJob(scn)
	if err != nil {
		return nil, &HTTPError{Status: http.StatusBadRequest, Msg: err.Error()}
	}
	if herr := s.shedUnstored(j); herr != nil {
		return nil, herr
	}
	disk := harness.DiskCellStore{S: s.store}
	var misses []int
	for i := range j.cells {
		c := &j.cells[i]
		if j.stored[i] {
			c.Perf, c.cached = disk.GetCellBytes(j.resHash, c.Bench, c.Mitigation)
		}
		if c.cached {
			j.run[i] = nil
		} else {
			misses = append(misses, i)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if herr := s.refuseLocked(len(misses)); herr != nil {
		return nil, herr
	}
	s.seq++
	j.id = fmt.Sprintf("job-%d", s.seq)
	j.deadline = time.Now().Add(s.cfg.JobTimeout)
	s.jobs[j.id] = j
	s.pending += len(misses)
	s.n.JobsAccepted++
	j.finished = len(j.cells) - len(misses)
	s.n.CellsCached += uint64(j.finished)
	if j.finished == len(j.cells) {
		s.completeLocked(j)
	}
	for _, i := range misses {
		s.queue <- task{j: j, idx: i} // admission guarantees capacity
	}
	s.logf("job %s: scenario %q (%s), %d cells admitted, %d from the store", j.id, j.scn.Name, j.kind, len(j.cells), j.finished)
	return j, nil
}

// shedUnstored refuses j before any of its cells is read when the whole job
// would not fit the queue budget and its cells without an entry file (a
// stat each, counted as no lookup) do not fit either. An entry file can
// still fail verification, so Submit's check after the reads stays.
func (s *Server) shedUnstored(j *job) *HTTPError {
	s.mu.Lock()
	fits := s.pending+len(j.cells) <= s.cfg.QueueDepth
	s.mu.Unlock()
	if fits {
		return nil
	}
	disk := harness.DiskCellStore{S: s.store}
	unstored := 0
	for i, c := range j.cells {
		if !j.stored[i] || !disk.HasCell(j.resHash, c.Bench, c.Mitigation) {
			unstored++
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refuseLocked(unstored)
}

// refuseLocked answers a job whose cells need queue slots: 503 while
// draining, 429 when they do not fit the budget, else nil.
func (s *Server) refuseLocked(need int) *HTTPError {
	if s.draining {
		return &HTTPError{Status: http.StatusServiceUnavailable, Msg: "server is draining"}
	}
	if s.pending+need > s.cfg.QueueDepth {
		s.n.JobsRejected++
		return &HTTPError{
			Status:     http.StatusTooManyRequests,
			Msg:        fmt.Sprintf("queue full: %d cells pending, job needs %d, budget %d", s.pending, need, s.cfg.QueueDepth),
			RetryAfter: s.retryAfterLocked(),
		}
	}
	return nil
}

// completeLocked marks j done once its last cell is final: its runners are
// dropped, and it joins the finished-job window, which forgets the oldest
// finished job beyond maxFinishedJobs.
func (s *Server) completeLocked(j *job) {
	j.run = nil
	s.n.JobsCompleted++
	close(j.done)
	s.doneIDs = append(s.doneIDs, j.id)
	if len(s.doneIDs) > maxFinishedJobs {
		delete(s.jobs, s.doneIDs[0])
		s.doneIDs = s.doneIDs[1:]
	}
}

// retryAfterLocked estimates seconds until enough of the backlog clears to
// retry, from the measured mean latency of the cells workers ran (1s floor
// when unknown): pending counts only such cells, so hits answered at
// admission must stay out of the mean too.
func (s *Server) retryAfterLocked() int {
	meanMS := s.latency.MeanValue()
	if meanMS <= 0 {
		meanMS = 1000
	}
	secs := int(float64(s.pending) * meanMS / float64(s.cfg.Workers) / 1000)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// buildJob expands the scenario into cells, binds a runner to every cell,
// and marks the perf cells admission looks up in the store.
func (s *Server) buildJob(scn *scenario.Scenario) (*job, error) {
	if limit := max(s.cfg.QueueDepth, maxJobCells); cellCount(scn, limit) > limit {
		return nil, fmt.Errorf("scenario %q expands to more than %d cells, the most one job may hold", scn.Name, limit)
	}
	j := &job{scn: scn, done: make(chan struct{})}
	if scn.Chaos != nil {
		j.kind = "chaos"
		cells, err := scn.CampaignCells()
		if err != nil {
			return nil, err
		}
		if len(cells) == 0 {
			return nil, fmt.Errorf("scenario %q expands to no cells", scn.Name)
		}
		opt := scn.CampaignOptions()
		j.hash, j.resHash = opt.ScenarioHash, opt.ResultHash
		opt.Workers = 1 // the server's pool runs the cells
		if s.store != nil {
			opt.Store = chaos.DiskCampaignStore{S: s.store}
		}
		j.cells = make([]CellOutcome, len(cells))
		j.run = make([]func() CellOutcome, len(cells))
		j.stored = make([]bool, len(cells))
		for i, c := range cells {
			cell := CellOutcome{
				Bench: c.Spec.Name, Mitigation: c.Mit.String(),
				Kinds: chaos.KindSetName(c.Cfg.Kinds), Seed: c.Cfg.Seed,
			}
			j.cells[i] = cell
			j.run[i] = func() CellOutcome {
				out := cell
				o, flag := opt, &hitFlag{CampaignStore: opt.Store}
				if opt.Store != nil {
					o.Store = flag
				}
				reps, err := chaos.RunCampaignOpts([]chaos.CampaignCell{c}, o)
				if err != nil {
					out.Error = err.Error()
					return out
				}
				out.Chaos = chaos.CellRecordOf(reps[0])
				out.cached = flag.hit
				return out
			}
		}
		return j, nil
	}

	j.kind = "perf"
	specs, err := scn.WorkloadSpecs()
	if err != nil {
		return nil, err
	}
	mits, err := scn.MitigationList()
	if err != nil {
		return nil, err
	}
	if len(specs) == 0 || len(mits) == 0 {
		return nil, fmt.Errorf("scenario %q expands to no cells", scn.Name)
	}
	opt := harness.OptionsFromScenario(scn)
	j.hash, j.resHash = opt.ScenarioHash, opt.ResultHash
	if s.store != nil {
		opt.Store = putOnly{harness.DiskCellStore{S: s.store}}
	}
	n := len(specs) * len(mits)
	j.cells = make([]CellOutcome, 0, n)
	j.run = make([]func() CellOutcome, 0, n)
	j.stored = make([]bool, 0, n)
	for _, spec := range specs {
		for _, mit := range mits {
			cell := CellOutcome{Bench: spec.Name, Mitigation: mit.String()}
			j.cells = append(j.cells, cell)
			j.run = append(j.run, func() CellOutcome {
				out := cell
				r, _, err := harness.RunCell(spec, mit, opt)
				if err == nil {
					out.Perf, err = json.Marshal(harness.CellResultOf(r))
				}
				if err != nil {
					out.Error = err.Error()
				}
				return out
			})
			// The cell's one store lookup, at admission, under RunCell's rule.
			j.stored = append(j.stored, opt.Cacheable(spec))
		}
	}
	return j, nil
}

// cellCount is how many cells scn expands to, counted without expanding
// them; any count above limit reads as limit+1.
func cellCount(scn *scenario.Scenario, limit int) int {
	factors := []int{len(scn.Workloads), len(scn.Mitigations)}
	if c := scn.Chaos; c != nil {
		kinds := len(c.Kinds)
		if kinds == 0 {
			kinds = len(chaos.AllKinds())
		}
		if kinds > 1 {
			kinds++ // CampaignCells adds every kind combined
		}
		factors = append(factors, kinds, c.Seeds)
	}
	n := 1
	for _, f := range factors {
		if f > 0 && n > limit/f {
			return limit + 1
		}
		n *= f
	}
	return n
}

// hitFlag is one chaos cell's store: it notes whether the cell's own lookup
// hit, which the store-wide counters cannot tell while other cells and
// admissions look cells up at the same time.
type hitFlag struct {
	chaos.CampaignStore
	hit bool
}

func (h *hitFlag) GetCell(resultHash, cellKey string) (*chaos.CellRecord, bool) {
	rec, ok := h.CampaignStore.GetCell(resultHash, cellKey)
	h.hit = ok
	return rec, ok
}

// putOnly is the store a worker's RunCell sees. Admission has already looked
// the cell up, so lookups here never answer (and never touch the store's
// counters); cold results still persist.
type putOnly struct{ harness.DiskCellStore }

func (putOnly) GetCell(string, string, string) (*harness.CellResult, bool) { return nil, false }

// worker drains the cell queue until it closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for t := range s.queue {
		s.runTask(t)
	}
}

// runTask executes one queued cell, or sheds it if the server is draining or
// the job's deadline has passed, then records the outcome.
func (s *Server) runTask(t task) {
	j := t.j
	var out CellOutcome
	shed := ""
	s.mu.Lock()
	if s.draining {
		shed = "cancelled: server shutting down"
	} else if time.Now().After(j.deadline) {
		shed = fmt.Sprintf("cancelled: job deadline (%s) exceeded before the cell started", s.cfg.JobTimeout)
	}
	s.mu.Unlock()

	if shed != "" {
		out = j.cells[t.idx]
		out.Error = shed
	} else {
		start := time.Now()
		out = s.runWithTimeout(j, t.idx)
		ms := uint64(time.Since(start).Milliseconds())
		s.mu.Lock()
		s.latency.Observe(ms)
		s.mu.Unlock()
	}

	s.mu.Lock()
	j.cells[t.idx] = out
	switch {
	case shed != "":
		s.n.CellsShed++
	case out.Error != "":
		s.n.CellsFailed++
	case out.cached:
		s.n.CellsCached++
	default:
		s.n.CellsRun++
	}
	s.pending--
	j.finished++
	if j.finished == len(j.cells) {
		s.completeLocked(j)
	}
	s.mu.Unlock()
}

// runWithTimeout runs cell idx of j under the per-cell wall deadline. The
// runner executes on its own goroutine with a panic fence; on timeout the
// worker abandons it (the simulation's cycle budget still bounds it). The
// goroutine touches neither j.cells nor j.run, which the worker may rewrite
// or drop once it has given up on the cell.
func (s *Server) runWithTimeout(j *job, idx int) CellOutcome {
	ident, run := j.cells[idx], j.run[idx]
	ch := make(chan CellOutcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				out := ident
				out.Error = fmt.Sprintf("panic: %v\n%s", p, debug.Stack())
				ch <- out
			}
		}()
		ch <- run()
	}()
	timer := time.NewTimer(s.cfg.CellTimeout)
	defer timer.Stop()
	select {
	case out := <-ch:
		return out
	case <-timer.C:
		out := ident
		out.Error = fmt.Sprintf("cell wall deadline (%s) exceeded; abandoned (cycle budget still bounds the stray run)", s.cfg.CellTimeout)
		return out
	}
}

// result assembles the deterministic result document of a finished job.
func (j *job) result() *ResultDoc {
	return &ResultDoc{
		Schema:       ResultSchema,
		Scenario:     j.scn.Name,
		ScenarioHash: j.hash,
		ResultHash:   j.resHash,
		Kind:         j.kind,
		Cells:        j.cells,
	}
}

// resultBody is what handleSweep answers a finished job with: the result
// document's own encoding and the newline json.Encoder ends a value with.
// The document goes to no encoder, which would scan and compact it again.
func (j *job) resultBody() ([]byte, error) {
	b, err := j.result().MarshalJSON()
	return append(b, '\n'), err
}

// cacheSummary counts cached and failed cells (for headers and job status).
func (j *job) cacheSummary() (cached, failed int) {
	for _, c := range j.cells {
		if c.cached {
			cached++
		}
		if c.Error != "" {
			failed++
		}
	}
	return
}

// ---------------------------------------------------------------------------
// HTTP layer

// HTTPError is a request failure with its HTTP status.
type HTTPError struct {
	Status     int
	Msg        string
	RetryAfter int // seconds; 0 = no header
}

func (e *HTTPError) Error() string { return e.Msg }

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, e *HTTPError) {
	if e.RetryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", e.RetryAfter))
	}
	writeJSON(w, e.Status, map[string]string{"error": e.Msg})
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/sweep", s.handleSweep)
	mux.HandleFunc("/v1/jobs/", s.handleJob)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/stats", s.handleStats)
	return mux
}

// handleSweep admits a scenario document. With ?wait=1 the response is the
// finished job's deterministic result document (byte-identical across
// resubmissions; job id and cache counts travel in X-Job-Id / X-Cache-Hits
// headers). Without it, 202 with the job id for later
// polling and the job's state: "done" once every cell is final (a job the
// store answers whole is done at admission), else "queued".
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, &HTTPError{Status: http.StatusMethodNotAllowed, Msg: "POST a scenario document"})
		return
	}
	doc, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeError(w, &HTTPError{Status: http.StatusBadRequest, Msg: err.Error()})
		return
	}
	j, herr := s.Submit(doc, "request")
	if herr != nil {
		writeError(w, herr)
		return
	}
	if r.URL.Query().Get("wait") == "" {
		state := "queued"
		select {
		case <-j.done:
			state = "done"
		default:
		}
		writeJSON(w, http.StatusAccepted, map[string]interface{}{
			"id": j.id, "cells": len(j.cells), "state": state,
		})
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		// Client went away; the job keeps running and stays pollable.
		return
	}
	body, err := j.resultBody()
	if err != nil {
		writeError(w, &HTTPError{Status: http.StatusInternalServerError, Msg: err.Error()})
		return
	}
	cached, failed := j.cacheSummary()
	w.Header().Set("X-Job-Id", j.id)
	w.Header().Set("X-Cache-Hits", fmt.Sprintf("%d/%d", cached, len(j.cells)))
	if failed > 0 {
		w.Header().Set("X-Failed-Cells", fmt.Sprintf("%d", failed))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// handleJob reports one job's state, with the result document once done.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	s.mu.Lock()
	j, ok := s.jobs[id]
	var remaining int
	if ok {
		remaining = len(j.cells) - j.finished
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, &HTTPError{Status: http.StatusNotFound, Msg: fmt.Sprintf("unknown job %q", id)})
		return
	}
	select {
	case <-j.done:
		cached, failed := j.cacheSummary()
		writeJSON(w, http.StatusOK, map[string]interface{}{
			"id": j.id, "state": "done",
			"cached_cells": cached, "failed_cells": failed,
			"result": j.result(),
		})
	default:
		writeJSON(w, http.StatusOK, map[string]interface{}{
			"id": j.id, "state": "running", "cells_pending": remaining,
		})
	}
}

// handleHealthz reports liveness and store health. Draining answers 503 so
// load balancers stop routing while in-flight work completes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	storeState := "none"
	if s.store != nil {
		storeState = "rw"
		if s.store.ReadOnly() {
			storeState = "ro"
		}
	}
	status, state := http.StatusOK, "ok"
	if draining {
		status, state = http.StatusServiceUnavailable, "draining"
	}
	writeJSON(w, status, map[string]string{"status": state, "store": storeState})
}

// statsDoc is the /stats payload.
type statsDoc struct {
	Schema string `json:"schema"`
	Queue  struct {
		Pending  int `json:"pending_cells"`
		Capacity int `json:"capacity"`
		Workers  int `json:"workers"`
	} `json:"queue"`
	Counters counters          `json:"counters"`
	Latency  []obs.HistSummary `json:"cell_latency"`
	Store    *store.Counters   `json:"store,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var d statsDoc
	d.Schema = StatsSchema
	s.mu.Lock()
	d.Queue.Pending = s.pending
	d.Queue.Capacity = s.cfg.QueueDepth
	d.Queue.Workers = s.cfg.Workers
	d.Counters = s.n
	d.Latency = s.reg.Summaries()
	s.mu.Unlock()
	if s.store != nil {
		c := s.store.Stats()
		d.Store = &c
	}
	writeJSON(w, http.StatusOK, &d)
}

// ---------------------------------------------------------------------------
// Lifecycle

// Drain stops admissions, cancels queued cells, waits for in-flight cells to
// finish (their results persist through the normal path), and returns.
// Idempotent.
func (s *Server) Drain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining = true
	close(s.queue)
	s.mu.Unlock()
	s.logf("draining: no new jobs; finishing in-flight cells")
	s.wg.Wait()
	s.logf("drained")
}

// ListenAndServe serves on addr until SIGTERM/SIGINT, then drains and shuts
// the listener down cleanly. Signal handling lives here — not in the cmd —
// so the in-process integration test exercises the exact production path.
// ready, when non-nil, receives the bound address once the listener is up.
func (s *Server) ListenAndServe(addr string, ready chan<- net.Addr) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	s.logf("listening on %s (workers=%d queue=%d)", ln.Addr(), s.cfg.Workers, s.cfg.QueueDepth)
	if ready != nil {
		ready <- ln.Addr()
	}
	select {
	case got := <-sig:
		s.logf("%v: shutting down", got)
		s.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		<-errc // http.ErrServerClosed
		return nil
	case err := <-errc:
		return err
	}
}
