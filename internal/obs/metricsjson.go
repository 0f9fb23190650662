package obs

import (
	"encoding/json"
	"io"
)

// MetricsSchema versions the JSONL metrics stream. Each line is one
// MetricsRecord — the harness emits one per sweep cell, specasan-sim one per
// run.
const MetricsSchema = "specasan-obs/metrics/v1"

// HistSummary is the exported form of one labelled histogram: identity,
// moments, bucket percentile bounds, and the raw buckets (trailing zero
// buckets trimmed) so downstream tooling can re-derive anything else.
type HistSummary struct {
	Component   string   `json:"component"`
	Name        string   `json:"name"`
	N           uint64   `json:"n"`
	Mean        float64  `json:"mean"`
	P50         uint64   `json:"p50"`
	P90         uint64   `json:"p90"`
	P99         uint64   `json:"p99"`
	Max         uint64   `json:"max"`
	BucketWidth uint64   `json:"bucket_width"`
	Counts      []uint64 `json:"counts,omitempty"`
}

// SampledRegions annotates a fast-forward sampled run: how much of it ran
// functionally (no histograms, no cycle cost) versus in detailed windows
// (where every histogram sample comes from). Consumers must read a record
// carrying this as "histograms cover the detailed regions only, cycle/inst
// totals are extrapolated".
type SampledRegions struct {
	// FunctionalInsts is the instruction count executed on the golden
	// interpreter (fast-forward), contributing nothing to the histograms.
	FunctionalInsts uint64 `json:"functional_insts"`
	// DetailedInsts / DetailedCycles are the cycle-accurate region's totals,
	// warmup included.
	DetailedInsts  uint64 `json:"detailed_insts"`
	DetailedCycles uint64 `json:"detailed_cycles"`
	// WarmupCycles is the detailed prefix (per window) excluded from the IPC
	// estimate the extrapolated totals are built on.
	WarmupCycles uint64 `json:"warmup_cycles"`
	// Windows is the detailed-window count (1 for -fast-forward alone, whose
	// one window runs from the fast-forward point to the end).
	Windows int `json:"windows"`
}

// MetricsRecord is one JSONL line: which cell produced it plus every
// registered histogram in registration order.
type MetricsRecord struct {
	Schema     string `json:"schema"`
	Bench      string `json:"bench"`
	Mitigation string `json:"mitigation"`
	// ScenarioHash is the canonical content hash of the scenario that
	// produced this record (internal/scenario), empty for ad-hoc runs.
	// omitempty keeps pre-scenario streams byte-identical.
	ScenarioHash string `json:"scenario_hash,omitempty"`
	Cycles       uint64 `json:"cycles,omitempty"`
	Insts        uint64 `json:"insts,omitempty"`
	// Sampled marks a fast-forward sampled run; nil (omitted) for full
	// detailed runs, keeping pre-sampling streams byte-identical.
	Sampled    *SampledRegions `json:"sampled,omitempty"`
	Histograms []HistSummary   `json:"histograms"`
}

// Summaries exports every registered histogram in registration order.
func (r *Registry) Summaries() []HistSummary {
	out := make([]HistSummary, 0, len(r.hists))
	for _, h := range r.hists {
		s := HistSummary{
			Component:   h.Component,
			Name:        h.Name,
			N:           h.H.N,
			Mean:        h.H.MeanValue(),
			P50:         h.H.Percentile(50),
			P90:         h.H.Percentile(90),
			P99:         h.H.Percentile(99),
			Max:         h.H.Max,
			BucketWidth: h.H.BucketWidth,
		}
		last := -1
		for i, c := range h.H.Counts {
			if c != 0 {
				last = i
			}
		}
		if last >= 0 {
			s.Counts = append([]uint64(nil), h.H.Counts[:last+1]...)
		}
		out = append(out, s)
	}
	return out
}

// Record builds the JSONL record for this metrics bundle.
func (m *Metrics) Record(bench, mitigation string, cycles, insts uint64) MetricsRecord {
	return MetricsRecord{
		Schema:     MetricsSchema,
		Bench:      bench,
		Mitigation: mitigation,
		Cycles:     cycles,
		Insts:      insts,
		Histograms: m.reg.Summaries(),
	}
}

// WriteMetricsLine appends rec to w as one JSON line. Output is
// deterministic: MetricsRecord is all structs and ordered slices.
func WriteMetricsLine(w io.Writer, rec MetricsRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
