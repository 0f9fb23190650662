package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"

	"specasan/internal/core"
	"specasan/internal/harness"
)

// sampledRefJSON is the full-walk (unsampled) result of every cell of the
// sampled-fig6 grid, written by -regen-ref.
//
//go:embed testdata/sampled-fig6-full.json
var sampledRefJSON []byte

type sampledRef struct {
	Command string    `json:"command"`
	Commit  string    `json:"commit"`
	Scale   float64   `json:"scale"`
	Cells   []refCell `json:"cells"`
}

type refCell struct {
	Bench      string `json:"bench"`
	Mitigation string `json:"mitigation"`
	Cycles     uint64 `json:"cycles"`
	Committed  uint64 `json:"committed"`
}

func loadSampledRef() (*sampledRef, error) {
	var ref sampledRef
	if err := json.Unmarshal(sampledRefJSON, &ref); err != nil {
		return nil, fmt.Errorf("sampled reference: %w", err)
	}
	if ref.Scale != sampledScale {
		return nil, fmt.Errorf("sampled reference is at scale %g, the workload runs at %d: run -regen-ref", ref.Scale, sampledScale)
	}
	return &ref, nil
}

func (r *sampledRef) cell(bench string, mit core.Mitigation) (refCell, bool) {
	for _, c := range r.Cells {
		if c.Bench == bench && c.Mitigation == mit.String() {
			return c, true
		}
	}
	return refCell{}, false
}

// errors compares a sampled sweep with the reference: the worst cell's IPC
// error and the worst defence's normalized-geomean error, both in percent.
// Committed counts are equal, so the IPC ratio is the inverse cycle ratio.
func (r *sampledRef) errors(sw *harness.Sweep) (ipcErr, geoErr float64, err error) {
	full := &harness.Sweep{Benchmarks: sw.Benchmarks, Mitigations: sw.Mitigations,
		Results: map[string]map[core.Mitigation]*harness.PerfResult{}}
	for _, b := range sw.Benchmarks {
		full.Results[b] = map[core.Mitigation]*harness.PerfResult{}
		for _, m := range sw.Mitigations {
			c, ok := r.cell(b, m)
			s := sw.Results[b][m]
			if !ok || s == nil || s.Cycles == 0 {
				return 0, 0, fmt.Errorf("sampled accuracy: cell %s missing", cellKey(b, m))
			}
			full.Results[b][m] = &harness.PerfResult{Cycles: c.Cycles, Committed: c.Committed}
			ipcErr = math.Max(ipcErr, 100*math.Abs(float64(c.Cycles)/float64(s.Cycles)-1))
		}
	}
	for _, m := range sw.Mitigations {
		if m != core.Unsafe {
			geoErr = math.Max(geoErr, 100*math.Abs(sw.GeomeanNormalized(m)/full.GeomeanNormalized(m)-1))
		}
	}
	return ipcErr, geoErr, nil
}

// regenSampledRef simulates the sampled-fig6 grid fully detailed with the
// library defaults and writes the reference file.
func regenSampledRef(path string) error {
	r, err := newSweepRunner("figure6", sampledScale, false)
	if err != nil {
		return err
	}
	sw, err := harness.RunSweep(r.specs, r.mits, r.opt)
	if err != nil {
		return err
	}
	if f := sw.FailedCells(); len(f) > 0 {
		return fmt.Errorf("full walk: %d cells failed (first: %s)", len(f), f[0])
	}
	ref := sampledRef{
		Command: "bash bench/run.sh -regen-ref",
		Commit:  "unknown",
		Scale:   sampledScale,
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		ref.Commit = strings.TrimSpace(string(out))
	}
	for _, b := range sw.Benchmarks {
		for _, m := range sw.Mitigations {
			res := sw.Results[b][m]
			ref.Cells = append(ref.Cells, refCell{Bench: b, Mitigation: m.String(),
				Cycles: res.Cycles, Committed: res.Committed})
		}
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
