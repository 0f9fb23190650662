// Command bench is the repository benchmark: four workloads that each run
// one of the paper's deliverables end to end through the simulator's
// public packages, check the outputs against the paper's claims, and report
// end-to-end metrics (or, with -trace 1, per-layer ones).
//
//	bash bench/run.sh [-workload a,b] [-seed N] [-seconds S] [-trace 0|1] [-out f]
//	bash bench/run.sh -regen-ref
//
// The parent process runs each workload in a fresh child process of its
// own, so every workload pays its own set-up and has its own peak RSS, and
// times the host-speed calibrations the child asks for (calib.go). The
// last line of standard output is one JSON object: correct, attempted,
// failed and metrics. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 21

// minRounds is the fewest rounds a run times after its warm-up round,
// whatever -seconds says, so medians and tail percentiles have samples.
const minRounds = 3

// roundStats is what one round of a workload measured.
type roundStats struct {
	wall      time.Duration
	opMs      []float64 // latency of each op
	attempted int
	failed    int
	busy      time.Duration // worker time spent in ops
	workers   int
}

// runner is one workload set up for a run.
type runner interface {
	// round runs one round, recording spans when tr is not nil.
	round(tr *tracer) (roundStats, error)
	// finish adds the cross-round checks, digests and info to rec.
	finish(rec *record)
}

type workload struct {
	name  string
	why   string
	setup func(seed uint64, tmp string) (runner, error)
}

var allWorkloads = []workload{
	{"fig6-detailed", "Figure 6 grid fully detailed: the single-core out-of-order pipeline does the work while golden, store and serve sit idle",
		func(uint64, string) (runner, error) {
			r, err := newSweepRunner("figure6", fig6Scale, false)
			if err == nil {
				r.claims = fig6Claims
			}
			return r, err
		}},
	{"sampled-fig6", "Figure 6 grid under windowed sampling: the golden interpreter, state transplant and cache warming do the work, the mirror of fig6-detailed",
		func(uint64, string) (runner, error) {
			ref, err := loadSampledRef()
			if err != nil {
				return nil, err
			}
			r, err := newSweepRunner("figure6", sampledScale, true)
			if err == nil {
				r.ref = ref
			}
			return r, err
		}},
	{"security", "Table 1 matrix and a seeded fuzz batch: thousands of tiny short-lived machines, where assembly, machine set-up and the golden gate dominate",
		func(seed uint64, _ string) (runner, error) { return newSecurityRunner(seed) }},
	{"serve-mixed", "the sweep service under two closed-loop clients: cold jobs simulate and write the store, repeats are answered from it",
		func(seed uint64, tmp string) (runner, error) { return newServeRunner(seed, tmp) }},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type options struct {
	seed     uint64
	seconds  int
	trace    bool
	buildDir string
}

func main() {
	var names []string
	for _, w := range allWorkloads {
		names = append(names, w.name)
	}
	workloadList := flag.String("workload", strings.Join(names, ","), "comma-separated workloads to run")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 28, "measurement window of each workload, in seconds")
	traceMode := flag.Int("trace", 0, "1 = traced run: per-layer metrics, CPU profile and spans instead of end-to-end metrics")
	out := flag.String("out", "", "append every workload's full record as a JSON line to this file")
	buildDir := flag.String("build-dir", ".bench_build", "directory for scratch stores, spans and profiles")
	regen := flag.Bool("regen-ref", false, "simulate the sampled-fig6 grid fully detailed and rewrite the reference, then exit")
	child := flag.Bool("child", false, "run one workload in this process (the parent starts these)")
	flag.Parse()

	if *regen {
		// Run from the repository root, as run.sh is.
		const path = "bench/testdata/sampled-fig6-full.json"
		if err := regenSampledRef(path); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", path)
		return
	}
	if *traceMode != 0 && *traceMode != 1 {
		fatal(fmt.Errorf("-trace wants 0 or 1, got %d", *traceMode))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds wants a positive count, got %d", *seconds))
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *traceMode == 1, buildDir: *buildDir}
	var ws []workload
	for _, n := range strings.Split(*workloadList, ",") {
		w, ok := findWorkload(strings.TrimSpace(n))
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (have %s)", n, strings.Join(names, ", ")))
		}
		ws = append(ws, w)
	}

	if *child {
		if len(ws) != 1 {
			fatal(errors.New("-child runs exactly one workload"))
		}
		rec, err := runWorkload(ws[0], opts)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(rec)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !rec.Correct {
			os.Exit(1)
		}
		return
	}

	var recs []*record
	for _, w := range ws {
		rec, err := runChild(w, opts)
		if err != nil {
			fatal(err)
		}
		recs = append(recs, rec)
		printSummary(rec)
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fatal(err)
			}
		}
	}
	line := resultLine{Correct: true, Metrics: map[string]metric{}}
	for _, rec := range recs {
		line.Correct = line.Correct && rec.Correct
		line.Attempted += rec.Attempted
		line.Failed += rec.Failed
		for k, v := range rec.Metrics {
			if len(recs) > 1 {
				k = rec.Workload + "." + k
			}
			line.Metrics[k] = v
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
	if !line.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runChild runs one workload in a fresh process, serving it calibrations
// while it runs, and adds the peak RSS the kernel recorded for it to the
// record's info.
func runChild(w workload, o options) (*record, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if o.trace {
		traceArg = "1"
	}
	cmd := exec.Command(exe, "-child", "-workload", w.name,
		"-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", traceArg, "-build-dir", o.buildDir)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	reqR, reqW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	defer reqR.Close()
	respR, respW, err := os.Pipe()
	if err != nil {
		reqW.Close()
		return nil, err
	}
	defer respW.Close()
	cmd.ExtraFiles = []*os.File{reqW, respR} // fds 3 and 4, see parentCalibration
	// The first slices fault the parent's heap in: run them untimed.
	calibrate()
	startErr := cmd.Start()
	reqW.Close()
	respR.Close()
	if startErr != nil {
		return nil, startErr
	}
	served := make(chan error, 1)
	go func() { served <- serveCalibration(reqR, respW) }()
	runErr := cmd.Wait()
	if err := <-served; err != nil && runErr == nil {
		runErr = fmt.Errorf("serving calibrations: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rec record
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("workload %s: %w", w.name, runErr)
		}
		return nil, fmt.Errorf("workload %s: no result: %w", w.name, err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, errors.New("no rusage for the workload process")
	}
	if rec.Info == nil {
		rec.Info = map[string]float64{}
	}
	rec.Info["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Maxrss is in KiB
	return &rec, nil
}

// runWorkload is the child: set up, measure rounds, check, report.
func runWorkload(w workload, o options) (*record, error) {
	rec := &record{Workload: w.name, Seed: o.seed, Trace: o.trace,
		Metrics: map[string]metric{}, Digests: map[string]string{}, Info: map[string]float64{}}
	tmp := filepath.Join(o.buildDir, "tmp")
	// Every time is measured between two calibrations and reported scaled
	// to the reference host speed (calib.go).
	cal := parentCalibration()
	lastCal, err := cal.measure()
	if err != nil {
		return nil, fmt.Errorf("calibration: %w", err)
	}
	var cals []float64
	scaleSince := func() (float64, error) {
		c, err := cal.measure()
		if err != nil {
			return 0, fmt.Errorf("calibration: %w", err)
		}
		s := calibRef.Seconds() / ((lastCal + c).Seconds() / 2)
		lastCal = c
		cals = append(cals, ms(c))
		return s, nil
	}

	var run runner
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		r, err := w.setup(o.seed, tmp)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		run = r
	}
	rawSetup := median(setups)
	s, err := scaleSince()
	if err != nil {
		return nil, err
	}
	setup := rawSetup * s

	traceDir := filepath.Join(o.buildDir, "trace")
	var tr *tracer
	if o.trace {
		tr = newTracer()
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return nil, err
		}
	}
	var walls, tracedWalls, plainWalls, opMs, rawWalls, rawOpMs []float64
	var busy, capacity time.Duration
	var profiles []string
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for round := 0; ; round++ {
		// Round 0 warms caches and the heap up: it is checked like every
		// round, but its times are left out. Traced runs then alternate
		// traced and plain rounds.
		profile := ""
		if o.trace && round%2 == 1 {
			profile = filepath.Join(traceDir, fmt.Sprintf("%s-round%d.pprof", w.name, round))
			profiles = append(profiles, profile)
		}
		st, err := measureRound(run, tr, profile)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", w.name, round, err)
		}
		rec.Attempted += st.attempted
		rec.Failed += st.failed
		s, err := scaleSince()
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "bench: %s round %d (traced=%v): %.3f s, %.3f s at reference speed\n", w.name, round, profile != "", st.wall.Seconds(), st.wall.Seconds()*s)
		if round > 0 {
			wall := st.wall.Seconds() * s
			if profile != "" {
				tracedWalls = append(tracedWalls, wall)
			} else {
				plainWalls = append(plainWalls, wall)
			}
			walls = append(walls, wall)
			rawWalls = append(rawWalls, st.wall.Seconds())
			for _, x := range st.opMs {
				opMs = append(opMs, x*s)
			}
			rawOpMs = append(rawOpMs, st.opMs...)
			busy += st.busy
			capacity += time.Duration(st.workers) * st.wall
		}
		if round >= minRounds && time.Now().Add(st.wall).After(deadline) {
			break
		}
	}
	run.finish(rec)
	if rec.Failed > 0 {
		rec.Problems = append(rec.Problems, fmt.Sprintf("%d of %d operations failed", rec.Failed, rec.Attempted))
	}
	rec.Correct = len(rec.Problems) == 0
	rec.Info["rounds"] = float64(len(walls))
	rec.Info["ops"] = float64(len(opMs))
	rec.Info["calib_ms"] = median(cals)
	rec.Info["raw.setup_s"] = rawSetup
	rec.Info["raw.wall_s"] = median(rawWalls)
	rec.Info["raw.op_p50_ms"] = percentile(rawOpMs, 50)
	rec.Info["raw.op_p90_ms"] = percentile(rawOpMs, 90)

	if !o.trace {
		rec.Metrics["setup_s"] = metric{setup, "s"}
		rec.Metrics["wall_s"] = metric{median(walls), "s"}
		rec.Metrics["op_p50_ms"] = metric{percentile(opMs, 50), "ms"}
		rec.Metrics["op_p90_ms"] = metric{percentile(opMs, 90), "ms"}
		return rec, nil
	}

	if err := tr.write(filepath.Join(traceDir, w.name+"-spans.jsonl")); err != nil {
		return nil, err
	}
	for name, v := range selfMs(tr.spans) {
		rec.Info["self_ms."+name] = v
	}
	shares, err := profileShares(profiles)
	if err != nil {
		return nil, err
	}
	for mod, v := range shares {
		rec.Metrics[mod+".self_pct"] = metric{v, "%"}
	}
	var mstats runtime.MemStats
	runtime.ReadMemStats(&mstats)
	rec.Metrics["runtime.gc_cpu_pct"] = metric{100 * mstats.GCCPUFraction, "%"}
	rec.Metrics["par.idle_pct"] = metric{100 * (1 - busy.Seconds()/capacity.Seconds()), "%"}
	rec.Metrics["op_p99_ms"] = metric{percentile(opMs, 99), "ms"}
	rec.Metrics["trace_overhead_pct"] = metric{100 * (median(tracedWalls)/median(plainWalls) - 1), "%"}

	var docs [][]byte
	if sr, ok := run.(*serveRunner); ok {
		docs = sr.plan.Docs
	} else {
		docs = makeServePlan(o.seed).Docs
	}
	layers, err := measureLayers(tmp, docs)
	if err != nil {
		return nil, fmt.Errorf("layer microbenches: %w", err)
	}
	for name, v := range layers {
		rec.Metrics[name] = metric{v, unitOf(name)}
	}
	return rec, nil
}

// measureRound runs one round. With a profile path it records the round's
// spans into tr and its CPU profile into that file.
func measureRound(run runner, tr *tracer, profile string) (roundStats, error) {
	if profile == "" {
		return run.round(nil)
	}
	f, err := os.Create(profile)
	if err != nil {
		return roundStats{}, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return roundStats{}, err
	}
	st, err := run.round(tr)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return st, err
}

func unitOf(name string) string {
	for _, d := range perLayer {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

func appendRecord(path string, rec *record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// printSummary writes the human-readable block of one workload.
func printSummary(rec *record) {
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	mode := "end to end"
	if rec.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (seed %d, %s, %.0f rounds, %.0f ops)\n", rec.Workload, rec.Seed, mode, rec.Info["rounds"], rec.Info["ops"])
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		m, ok := rec.Metrics[d.Name]
		if !ok {
			continue
		}
		note := ""
		if d.Name == "op_p90_ms" {
			n := int(rec.Info["ops"])
			note = fmt.Sprintf("  (n=%d; highest percentile with >= 10 samples beyond: p%g)", n, tailPercentile(n))
		}
		fmt.Fprintf(w, "  %-26s %14.4f %s%s\n", d.Name, m.Value, m.Unit, note)
	}
	keys := make([]string, 0, len(rec.Info))
	for k := range rec.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  info %-36s %14.4f\n", k, rec.Info[k])
	}
	for _, k := range []string{"sim_digest", "fuzz_report"} {
		if d, ok := rec.Digests[k]; ok {
			fmt.Fprintf(w, "  %s %s\n", k, d)
		}
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed\n", rec.Attempted, rec.Failed)
	if rec.Correct {
		fmt.Fprintln(w, "  checks: all passed")
	}
	for _, p := range rec.Problems {
		fmt.Fprintln(w, "  CHECK FAILED:", p)
	}
}
