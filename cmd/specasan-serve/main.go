// specasan-serve is the sweep service: an HTTP/JSON daemon that accepts
// scenario documents (the same documents the CLIs take via -scenario),
// expands them into sweep or chaos-campaign cells, runs them on a bounded
// worker pool, and persists every completed cell in the crash-safe
// content-addressed result store. Resubmitting a scenario whose results are
// already stored answers from the store with a byte-identical result
// document.
//
//	specasan-serve -addr :8077 -store /var/lib/specasan/results
//
// Endpoints:
//
//	POST /v1/sweep        submit a scenario document; 202 with a job id
//	POST /v1/sweep?wait=1 submit and wait; the body is the result document
//	GET  /v1/jobs/<id>    job state, with the result document once done
//	GET  /healthz         liveness + store health (rw / ro / none)
//	GET  /stats           queue, job/cell counters, latency, store counters
//
// A full queue sheds load with 429 and a Retry-After estimate instead of
// building unbounded backlog. SIGTERM/SIGINT drain: no new jobs, queued
// cells cancel, in-flight cells finish and persist, then the process exits.
package main

import (
	"fmt"
	"os"
	"time"

	"specasan/internal/scenario"
	"specasan/internal/serve"
)

func main() {
	f := scenario.NewFlags("specasan-serve", nil, "store", "store-max-bytes")
	addr := f.String("addr", "127.0.0.1:8077", "listen address")
	queue := f.Int("queue", 256, "cell queue budget: a job is admitted only if all its cells fit")
	workers := f.Int("workers", 0, "cell worker pool size (0 = GOMAXPROCS)")
	jobTimeout := f.Duration("job-timeout", 10*time.Minute, "per-job wall deadline (queued cells cancel when it expires)")
	cellTimeout := f.Duration("cell-timeout", 5*time.Minute, "per-cell wall deadline")
	f.Parse(os.Args[1:])

	s, err := serve.New(serve.Config{
		StoreDir:      f.Out.Store,
		StoreMaxBytes: f.Out.StoreMaxBytes,
		QueueDepth:    *queue,
		Workers:       *workers,
		JobTimeout:    *jobTimeout,
		CellTimeout:   *cellTimeout,
		Log:           os.Stderr,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "specasan-serve: %v\n", err)
		os.Exit(1)
	}
	if err := s.ListenAndServe(*addr, nil); err != nil {
		fmt.Fprintf(os.Stderr, "specasan-serve: %v\n", err)
		os.Exit(1)
	}
}
