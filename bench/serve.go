package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"specasan/internal/scenario"
	"specasan/internal/serve"
	"specasan/internal/workloads"
)

// The serve-mixed traffic: two closed-loop clients, each owning one
// one-kernel Figure 6 scenario of every SPEC kernel (30 distinct scenarios).
// A kernel's two scenarios run at scales a and serveScaleSum-a, so every
// seed simulates the same amount of work; the seed picks each kernel's a in
// [serveScaleMin, serveScaleSum/2), which client gets the smaller scale, and
// the order each client sends its requests in. One round is one fresh
// service on a fresh store, in two phases: both clients send each of their
// scenarios once, cold, then each scenario serveRepeats more times. Cached
// jobs wait for nothing but the service's own work, so their latency is
// that of the parse, hash, store-read and HTTP path; a cached job queued
// behind the other client's simulation would time the simulation instead,
// at a share of the jobs that depends on the host's timing.
const (
	serveClients  = 2
	serveRepeats  = 10
	serveScaleSum = 0.1
	serveScaleMin = 0.02
)

// servePlan is the seeded traffic of one serve-mixed run: each client's
// scenario indices in the cold phase and in the cached phase.
type servePlan struct {
	Docs         [][]byte
	Cold, Cached [][]int
}

func makeServePlan(seed uint64) servePlan {
	rng := rand.New(rand.NewSource(int64(seed)))
	specs := workloads.SPEC()
	offsets := rng.Perm(len(specs))
	p := servePlan{Cold: make([][]int, serveClients), Cached: make([][]int, serveClients)}
	for k, spec := range specs {
		a := serveScaleMin + (serveScaleSum/2-serveScaleMin)*float64(offsets[k])/float64(len(specs))
		small := rng.Intn(serveClients)
		for c, scale := range []float64{a, serveScaleSum - a} {
			owner := (small + c) % serveClients
			p.Cold[owner] = append(p.Cold[owner], len(p.Docs))
			for r := 0; r < serveRepeats; r++ {
				p.Cached[owner] = append(p.Cached[owner], len(p.Docs))
			}
			doc, _ := json.Marshal(map[string]any{
				"version":   scenario.Version,
				"extends":   scenario.PresetFigure6,
				"name":      fmt.Sprintf("serve-mixed-%d", len(p.Docs)),
				"workloads": []string{spec.Name},
				"run":       map[string]any{"scale": scale},
			})
			p.Docs = append(p.Docs, doc)
		}
	}
	for c := range p.Cold {
		for _, ids := range [][]int{p.Cold[c], p.Cached[c]} {
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		}
	}
	return p
}

// service is one running serve.Server behind a loopback listener.
type service struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	dir  string
	done chan error
}

// startService boots the service with its default configuration on a fresh
// store under tmp.
func startService(tmp string) (*service, error) {
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "serve-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{StoreDir: filepath.Join(dir, "store")})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		os.RemoveAll(dir)
		return nil, err
	}
	s := &service{srv: srv, hs: &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(), dir: dir, done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the listener, drains the workers, and removes the store.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.srv.Drain()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

type serveRunner struct {
	plan   servePlan
	tmp    string
	client *http.Client

	problems []string
	coldMs   []float64
	hits     float64
	lookups  float64
	cellP50  []float64
}

// newServeRunner validates the seeded scenario documents and boots and
// stops the service once, so set-up pays what starting the daemon costs.
func newServeRunner(seed uint64, tmp string) (*serveRunner, error) {
	r := &serveRunner{
		plan: makeServePlan(seed),
		tmp:  tmp,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: serveClients,
		}},
	}
	for i, doc := range r.plan.Docs {
		if _, err := scenario.Parse(doc, fmt.Sprintf("serve scenario %d", i), "serve"); err != nil {
			return nil, err
		}
	}
	s, err := startService(tmp)
	if err != nil {
		return nil, err
	}
	return r, s.stop()
}

// jobResult is one client request as the client saw it.
type jobResult struct {
	scenario int
	cold     bool
	status   int
	hits     string
	body     []byte
	err      error
	start    time.Time
	end      time.Time
}

func (r *serveRunner) round(tr *tracer) (roundStats, error) {
	s, err := startService(r.tmp)
	if err != nil {
		return roundStats{}, err
	}
	roundSpan := tr.begin("round", 0)
	start := time.Now()
	results := make([][]jobResult, serveClients)
	for _, phase := range []struct {
		reqs [][]int
		cold bool
	}{{r.plan.Cold, true}, {r.plan.Cached, false}} {
		var wg sync.WaitGroup
		for c, ids := range phase.reqs {
			wg.Add(1)
			go func(c int, ids []int) {
				defer wg.Done()
				for _, id := range ids {
					results[c] = append(results[c], r.post(s.base, id, phase.cold))
				}
			}(c, ids)
		}
		wg.Wait()
	}
	st := roundStats{wall: time.Since(start)}
	roundSpan.end()

	stats, err := r.stats(s.base)
	if serr := s.stop(); err == nil {
		err = serr
	}
	r.client.CloseIdleConnections()
	if err != nil {
		return st, err
	}
	st.workers = stats.Queue.Workers
	for _, h := range stats.Latency {
		if h.Component == "serve" && h.Name == "cell_latency_ms" {
			st.busy = time.Duration(h.Mean * float64(h.N) * float64(time.Millisecond))
			r.cellP50 = append(r.cellP50, float64(h.P50))
		}
	}
	if stats.Store != nil {
		r.hits += float64(stats.Store.Hits)
		r.lookups += float64(stats.Store.Hits + stats.Store.Misses)
	}

	// Each client's cold jobs come before its cached ones, and a scenario
	// has one client, so every cold body is known before its repeats.
	cold := map[int][]byte{}
	for c, rs := range results {
		for _, jr := range rs {
			st.attempted++
			name, want := "serve.cached_job", "5/5"
			if jr.cold {
				name, want = "serve.cold_job", "0/5"
			}
			tr.record(name, roundSpan.id, jr.start, jr.end)
			switch {
			case jr.err != nil:
				r.problem("client %d scenario %d: %v", c, jr.scenario, jr.err)
			case jr.status != http.StatusOK:
				r.problem("client %d scenario %d: status %d", c, jr.scenario, jr.status)
			case jr.hits != want:
				r.problem("client %d scenario %d (cold=%v): X-Cache-Hits %q, want %q", c, jr.scenario, jr.cold, jr.hits, want)
			case jr.cold:
				cold[jr.scenario] = jr.body
				r.coldMs = append(r.coldMs, ms(jr.end.Sub(jr.start)))
				continue
			case !bytes.Equal(jr.body, cold[jr.scenario]):
				r.problem("client %d scenario %d: cached body differs from the cold one", c, jr.scenario)
			default:
				st.opMs = append(st.opMs, ms(jr.end.Sub(jr.start)))
				continue
			}
			st.failed++
		}
	}
	return st, nil
}

func (r *serveRunner) post(base string, id int, cold bool) jobResult {
	jr := jobResult{scenario: id, cold: cold, start: time.Now()}
	resp, err := r.client.Post(base+"/v1/sweep?wait=1", "application/json", bytes.NewReader(r.plan.Docs[id]))
	if err == nil {
		jr.status = resp.StatusCode
		jr.hits = resp.Header.Get("X-Cache-Hits")
		jr.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	jr.err, jr.end = err, time.Now()
	return jr
}

// serveStats is the part of the /stats document the benchmark reads.
type serveStats struct {
	Queue struct {
		Workers int `json:"workers"`
	} `json:"queue"`
	Latency []struct {
		Component string  `json:"component"`
		Name      string  `json:"name"`
		N         uint64  `json:"n"`
		Mean      float64 `json:"mean"`
		P50       uint64  `json:"p50"`
	} `json:"cell_latency"`
	Store *struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"store"`
}

func (r *serveRunner) stats(base string) (*serveStats, error) {
	resp, err := r.client.Get(base + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st serveStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("/stats: %w", err)
	}
	return &st, nil
}

func (r *serveRunner) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *serveRunner) finish(rec *record) {
	rec.Problems = append(rec.Problems, dedupe(r.problems)...)
	rec.Info["cold_job_p50_ms"] = percentile(r.coldMs, 50)
	rec.Info["cold_job_p90_ms"] = percentile(r.coldMs, 90)
	rec.Info["cold_jobs"] = float64(len(r.coldMs))
	rec.Info["serve.cell_latency_p50_ms"] = median(r.cellP50)
	if r.lookups > 0 {
		rec.Info["store.hit_ratio"] = r.hits / r.lookups
	}
}
