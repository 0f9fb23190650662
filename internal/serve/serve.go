// Package serve implements specasan-serve's sweep service: an HTTP/JSON
// daemon that accepts scenario documents (the same documents the CLIs load
// from disk), expands them into sweep or chaos-campaign cells, and runs the
// cells on a bounded worker pool backed by the crash-safe result store.
//
// The service is built around three robustness rules:
//
//   - Admission control, not queueing collapse: a job is admitted only if
//     every one of its cells fits in the queue budget; otherwise the request
//     is shed immediately with 429 and a Retry-After estimate. An admitted
//     job never waits behind an unbounded backlog.
//   - Every failure is a cell-sized failure: panics, watchdog verdicts,
//     timeouts, and deadline expiries are captured per cell. One poisoned
//     cell cannot take down the job, let alone the daemon.
//   - Results are only ever served from verified bytes: the store checksums
//     every entry, quarantines anything doubtful, and the daemon
//     re-simulates — the cache can cost time, never correctness.
//
// Determinism is what makes the whole design sound: a cell's result is a
// pure function of its scenario's result-context hash and its coordinates,
// so a stored result is interchangeable with a fresh simulation, and cold
// and cached responses are byte-identical.
package serve

import (
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
	// QueueDepth bounds the number of cells admitted and not yet finished.
	// A job whose cells do not all fit is shed with 429. Default 256.
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
	Bench      string              `json:"bench"`
	Mitigation string              `json:"mitigation"`
	Kinds      string              `json:"kinds,omitempty"`
	Seed       uint64              `json:"seed,omitempty"`
	Error      string              `json:"error,omitempty"`
	Perf       *harness.CellResult `json:"perf,omitempty"`
	Chaos      *chaos.CellRecord   `json:"chaos,omitempty"`
	cached     bool                // not serialized; aggregated into headers/stats
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

// job tracks one admitted scenario through its cells.
type job struct {
	id        string
	scn       *scenario.Scenario
	kind      string
	deadline  time.Time
	remaining int
	cells     []CellOutcome
	run       []func() CellOutcome // one runner per cell, index-aligned
	done      chan struct{}
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
	seq      int
	pending  int // admitted, unfinished cells
	draining bool
	n        counters
	reg      *obs.Registry
	latency  *stats.Histogram // cell wall latency, ms

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
func (s *Server) Submit(doc []byte, label string) (*job, *HTTPError) {
	scn, err := scenario.Parse(doc, label, "submitted")
	if err != nil {
		return nil, &HTTPError{Status: http.StatusBadRequest, Msg: err.Error()}
	}
	j, err := s.buildJob(scn)
	if err != nil {
		return nil, &HTTPError{Status: http.StatusBadRequest, Msg: err.Error()}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, &HTTPError{Status: http.StatusServiceUnavailable, Msg: "server is draining"}
	}
	if s.pending+len(j.cells) > s.cfg.QueueDepth {
		s.n.JobsRejected++
		return nil, &HTTPError{
			Status:     http.StatusTooManyRequests,
			Msg:        fmt.Sprintf("queue full: %d cells pending, job needs %d, budget %d", s.pending, len(j.cells), s.cfg.QueueDepth),
			RetryAfter: s.retryAfterLocked(),
		}
	}
	s.seq++
	j.id = fmt.Sprintf("job-%d", s.seq)
	j.deadline = time.Now().Add(s.cfg.JobTimeout)
	s.jobs[j.id] = j
	s.pending += len(j.cells)
	s.n.JobsAccepted++
	for i := range j.cells {
		s.queue <- task{j: j, idx: i} // admission guarantees capacity
	}
	s.logf("job %s: scenario %q (%s), %d cells admitted", j.id, j.scn.Name, j.kind, len(j.cells))
	return j, nil
}

// retryAfterLocked estimates seconds until enough of the backlog clears to
// retry, from the measured mean cell latency (1s floor when unknown).
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

// buildJob expands the scenario into cells and binds each cell's runner.
func (s *Server) buildJob(scn *scenario.Scenario) (*job, error) {
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
		opt.Workers = 1 // the server's pool runs the cells
		if s.store != nil {
			opt.Store = chaos.DiskCampaignStore{S: s.store}
		}
		j.cells = make([]CellOutcome, len(cells))
		j.run = make([]func() CellOutcome, len(cells))
		for i, c := range cells {
			i, c := i, c
			j.cells[i] = CellOutcome{
				Bench: c.Spec.Name, Mitigation: c.Mit.String(),
				Kinds: chaos.KindSetName(c.Cfg.Kinds), Seed: c.Cfg.Seed,
			}
			j.run[i] = func() CellOutcome {
				out := j.cells[i]
				before := uint64(0)
				if s.store != nil {
					before = s.store.Stats().Hits
				}
				reps, err := chaos.RunCampaignOpts([]chaos.CampaignCell{c}, opt)
				if err != nil {
					out.Error = err.Error()
					return out
				}
				out.Chaos = chaos.CellRecordOf(reps[0])
				if s.store != nil && s.store.Stats().Hits > before {
					out.cached = true
				}
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
	if s.store != nil {
		opt.Store = harness.DiskCellStore{S: s.store}
	}
	j.cells = make([]CellOutcome, 0, len(specs)*len(mits))
	for _, spec := range specs {
		for _, mit := range mits {
			spec, mit := spec, mit
			j.cells = append(j.cells, CellOutcome{Bench: spec.Name, Mitigation: mit.String()})
			idx := len(j.cells) - 1
			j.run = append(j.run, func() CellOutcome {
				out := j.cells[idx]
				r, cached, err := harness.RunCell(spec, mit, opt)
				if err != nil {
					out.Error = err.Error()
					return out
				}
				out.Perf = harness.CellResultOf(r)
				out.cached = cached
				return out
			})
		}
	}
	return j, nil
}

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
	j.remaining++
	finished := j.remaining == len(j.cells)
	if finished {
		s.n.JobsCompleted++
	}
	s.mu.Unlock()
	if finished {
		close(j.done)
	}
}

// runWithTimeout runs cell idx of j under the per-cell wall deadline. The
// runner executes on its own goroutine with a panic fence; on timeout the
// worker abandons it (the simulation's cycle budget still bounds it).
func (s *Server) runWithTimeout(j *job, idx int) CellOutcome {
	ch := make(chan CellOutcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				out := j.cells[idx]
				out.Error = fmt.Sprintf("panic: %v\n%s", p, debug.Stack())
				ch <- out
			}
		}()
		ch <- j.run[idx]()
	}()
	timer := time.NewTimer(s.cfg.CellTimeout)
	defer timer.Stop()
	select {
	case out := <-ch:
		return out
	case <-timer.C:
		out := j.cells[idx]
		out.Error = fmt.Sprintf("cell wall deadline (%s) exceeded; abandoned (cycle budget still bounds the stray run)", s.cfg.CellTimeout)
		return out
	}
}

// result assembles the deterministic result document of a finished job.
func (j *job) result() *ResultDoc {
	return &ResultDoc{
		Schema:       ResultSchema,
		Scenario:     j.scn.Name,
		ScenarioHash: j.scn.Hash(),
		ResultHash:   j.scn.ResultHash(),
		Kind:         j.kind,
		Cells:        j.cells,
	}
}

// cacheSummary counts cached/failed/uncacheable cells (for headers and job
// status). uncached counts cells that simulated but could not be cached —
// their CellResult carries a Note explaining why (e.g. a source override).
func (j *job) cacheSummary() (cached, failed, uncached int) {
	for _, c := range j.cells {
		if c.cached {
			cached++
		}
		if c.Error != "" {
			failed++
		}
		if c.Perf != nil && c.Perf.Note != "" {
			uncached++
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
// resubmissions; job id and cache counts travel in X-Job-Id / X-Cache-Hits /
// X-Uncached-Cells headers). Without it, 202 with the job id for later
// polling.
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
		writeJSON(w, http.StatusAccepted, map[string]interface{}{
			"id": j.id, "cells": len(j.cells), "state": "queued",
		})
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		// Client went away; the job keeps running and stays pollable.
		return
	}
	cached, failed, uncached := j.cacheSummary()
	w.Header().Set("X-Job-Id", j.id)
	w.Header().Set("X-Cache-Hits", fmt.Sprintf("%d/%d", cached, len(j.cells)))
	status := http.StatusOK
	if failed > 0 {
		w.Header().Set("X-Failed-Cells", fmt.Sprintf("%d", failed))
	}
	if uncached > 0 {
		// Cells that simulated but could not be cached (each carries a
		// per-cell note in its result, e.g. "uncached: source override").
		w.Header().Set("X-Uncached-Cells", fmt.Sprintf("%d", uncached))
	}
	writeJSON(w, status, j.result())
}

// handleJob reports one job's state, with the result document once done.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	s.mu.Lock()
	j, ok := s.jobs[id]
	var remaining int
	if ok {
		remaining = len(j.cells) - j.remaining
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, &HTTPError{Status: http.StatusNotFound, Msg: fmt.Sprintf("unknown job %q", id)})
		return
	}
	select {
	case <-j.done:
		cached, failed, _ := j.cacheSummary()
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
