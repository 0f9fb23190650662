package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"specasan/internal/core"
	"specasan/internal/cpu"
	"specasan/internal/golden"
	"specasan/internal/harness"
	"specasan/internal/par"
	"specasan/internal/scenario"
	"specasan/internal/workloads"
)

// Grid sizes. Each round simulates one whole figure grid; the scales keep a
// round near two seconds on a 2-thread host, so a run measures about ten
// rounds and its medians ride out the host's short slow spells.
const (
	fig6Scale    = 0.1
	sampledScale = 2
	// The sampling plan: four windows of 20 000 detailed instructions,
	// default warmup.
	sampleWindows     = 4
	sampleWindowInsts = 20_000
)

// sweepRunner runs one figure grid per round through harness.RunCell on
// an ordered pool of the library's default width — the loop RunSweep runs,
// opened up so each cell can be timed.
type sweepRunner struct {
	specs []*workloads.Spec
	mits  []core.Mitigation
	opt   harness.Options
	// golden holds each cell's architectural instruction count from a
	// golden walk.
	golden map[string]uint64
	// ref is the sampled workload's full-walk reference, which stands in
	// for the golden walks: at the sampled scale they would cost a second.
	ref *sampledRef
	// claims checks one round's sweep against the paper.
	claims func(sw *harness.Sweep) []string

	problems  []string
	digests   []string
	last      *harness.Sweep
	committed uint64
	wall      time.Duration
}

func cellKey(bench string, mit core.Mitigation) string { return bench + "/" + mit.String() }

// newSweepRunner resolves a preset at a scale, with the library's default
// run options, and assembles every (kernel, build) program once to validate
// the inputs. Unless sampling, it also walks each program on the golden
// interpreter for the committed-count check.
func newSweepRunner(preset string, scale float64, sampling bool) (*sweepRunner, error) {
	s, ok := scenario.Preset(preset)
	if !ok {
		return nil, fmt.Errorf("no preset %q", preset)
	}
	s.Run.Scale = scale
	if sampling {
		s.Run.SampleWindows = sampleWindows
		s.Run.SampleWindowInsts = sampleWindowInsts
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	specs, err := s.WorkloadSpecs()
	if err != nil {
		return nil, err
	}
	mits, err := s.MitigationList()
	if err != nil {
		return nil, err
	}
	r := &sweepRunner{specs: specs, mits: mits, opt: harness.OptionsFromScenario(s), golden: map[string]uint64{}}
	for _, spec := range specs {
		for _, tagged := range []bool{false, true} {
			prog, err := spec.Build(tagged, scale)
			if err != nil {
				return nil, err
			}
			if sampling {
				continue
			}
			ip := golden.New(prog)
			ip.MTEOn = tagged
			ip.TagSeed = cpu.TagSeedBase
			res := ip.Run(r.opt.MaxCycles)
			if res.Reason != golden.StopExit {
				return nil, fmt.Errorf("%s (tagged=%v): golden walk stopped with %v", spec.Name, tagged, res.Reason)
			}
			for _, mit := range mits {
				if mit.MTEEnabled() == tagged {
					r.golden[cellKey(spec.Name, mit)] = res.Insts
				}
			}
		}
	}
	return r, nil
}

func (r *sweepRunner) round(tr *tracer) (roundStats, error) {
	type cell struct {
		spec                 *workloads.Spec
		mit                  core.Mitigation
		res                  *harness.PerfResult
		err                  error
		start, machine, done time.Time
	}
	cells := make([]cell, 0, len(r.specs)*len(r.mits))
	for _, spec := range r.specs {
		for _, mit := range r.mits {
			cells = append(cells, cell{spec: spec, mit: mit})
		}
	}
	opt := r.opt
	if tr != nil {
		// Attach runs on the cell's own goroutine when its (first) machine
		// is built, splitting the cell into set-up and simulation.
		byKey := make(map[string]*cell, len(cells))
		for i := range cells {
			byKey[cellKey(cells[i].spec.Name, cells[i].mit)] = &cells[i]
		}
		opt.Attach = func(bench string, mit core.Mitigation, _ *cpu.Machine) {
			if c := byKey[cellKey(bench, mit)]; c.machine.IsZero() {
				c.machine = time.Now()
			}
		}
	}
	sw := &harness.Sweep{
		Mitigations: r.mits,
		Results:     map[string]map[core.Mitigation]*harness.PerfResult{},
		Errors:      map[string]map[core.Mitigation]error{},
	}
	for _, spec := range r.specs {
		sw.Benchmarks = append(sw.Benchmarks, spec.Name)
		sw.Results[spec.Name] = map[core.Mitigation]*harness.PerfResult{}
		sw.Errors[spec.Name] = map[core.Mitigation]error{}
	}

	roundSpan := tr.begin("round", 0)
	start := time.Now()
	par.ForEachOrdered(len(cells), opt.Workers, func(i int) {
		c := &cells[i]
		c.start = time.Now()
		c.res, _, c.err = harness.RunCell(c.spec, c.mit, opt)
		c.done = time.Now()
	}, func(i int) {
		c := &cells[i]
		if c.err != nil {
			sw.Errors[c.spec.Name][c.mit] = c.err
		} else {
			sw.Results[c.spec.Name][c.mit] = c.res
		}
	})
	st := roundStats{wall: time.Since(start), workers: par.Workers(opt.Workers, len(cells))}
	roundSpan.end()

	h := sha256.New()
	for _, c := range cells {
		st.attempted++
		st.opMs = append(st.opMs, ms(c.done.Sub(c.start)))
		st.busy += c.done.Sub(c.start)
		if tr != nil {
			cs := tr.begin("harness.RunCell", roundSpan.id)
			cs.start = c.start
			if !c.machine.IsZero() {
				tr.record("cell.setup", cs.id, c.start, c.machine)
				tr.record("cell.run", cs.id, c.machine, c.done)
			}
			cs.endAt(c.done)
		}
		if c.err != nil {
			st.failed++
			fmt.Fprintf(h, "%s %v error\n", c.spec.Name, c.mit)
			continue
		}
		fmt.Fprintf(h, "%s %v %d %d %d\n", c.spec.Name, c.mit, c.res.Cycles, c.res.Committed, c.res.Restricted)
		r.committed += c.res.Committed
		r.checkCommitted(c.spec.Name, c.mit, c.res.Committed)
	}
	for _, f := range sw.FailedCells() {
		r.problem("cell failed: %s", f)
	}
	if r.claims != nil {
		r.problems = append(r.problems, r.claims(sw)...)
	}
	r.digests = append(r.digests, hex.EncodeToString(h.Sum(nil)))
	r.last = sw
	r.wall += st.wall
	return st, nil
}

// checkCommitted compares a cell's committed count with its architectural
// reference: the full-walk reference file or the golden walk.
func (r *sweepRunner) checkCommitted(bench string, mit core.Mitigation, got uint64) {
	key := cellKey(bench, mit)
	if r.ref != nil {
		if c, ok := r.ref.cell(bench, mit); !ok || c.Committed != got {
			r.problem("%s committed %d, full-walk reference %d (regenerate it with -regen-ref if the kernels changed)", key, got, c.Committed)
		}
	} else if want, ok := r.golden[key]; ok && got != want {
		r.problem("%s committed %d, golden walk %d", key, got, want)
	}
}

func (r *sweepRunner) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *sweepRunner) finish(rec *record) {
	rec.Problems = append(rec.Problems, dedupe(r.problems)...)
	for _, d := range r.digests[1:] {
		if d != r.digests[0] {
			rec.Problems = append(rec.Problems, "sim_digest differs between rounds")
			break
		}
	}
	rec.Digests["sim_digest"] = r.digests[0]
	rec.Info["sim_mips"] = float64(r.committed) / r.wall.Seconds() / 1e6
	for _, m := range r.mits {
		if m != core.Unsafe {
			rec.Info["geomean."+m.String()] = r.last.GeomeanNormalized(m)
		}
	}
	if r.ref != nil {
		ipcErr, geoErr, err := r.ref.errors(r.last)
		if err != nil {
			rec.Problems = append(rec.Problems, err.Error())
			return
		}
		rec.Info["sampled_ipc_err_max_pct"] = ipcErr
		rec.Info["sampled_geomean_err_pct"] = geoErr
	}
}

// The paper's claims each sweep is checked against.

func fig6Claims(sw *harness.Sweep) []string {
	g := func(m core.Mitigation) float64 { return sw.GeomeanNormalized(m) }
	var p []string
	if !(g(core.Fence) > g(core.STT) && g(core.STT) > g(core.GhostMinion) && g(core.GhostMinion) > g(core.SpecASan)) {
		p = append(p, fmt.Sprintf("figure 6 geomean order: SpecBarrier %.3f, STT %.3f, GhostMinion %.3f, SpecASan %.3f; want decreasing",
			g(core.Fence), g(core.STT), g(core.GhostMinion), g(core.SpecASan)))
	}
	if g(core.SpecASan) >= 1.02 {
		p = append(p, fmt.Sprintf("figure 6 SpecASan geomean %.3f, want < 1.02", g(core.SpecASan)))
	}
	return p
}

func dedupe(xs []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
