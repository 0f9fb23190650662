package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"specasan/internal/core"
	"specasan/internal/obs"
	"specasan/internal/scenario"
	"specasan/internal/stats"
	"specasan/internal/store"
)

// CellSchema versions the cached cell-result payload. Bump it when
// CellResult changes shape; older entries then read as misses.
const CellSchema = "specasan-cell/v1"

// CellResult is the cacheable outcome of one successful sweep cell: enough
// to reconstruct the PerfResult (and every table derived from it)
// byte-for-byte without re-simulating. Counters marshal as a JSON object
// with sorted keys, so the encoded payload is canonical — two runs of the
// same cell produce identical bytes, which is what the store's byte-identity
// contract serves back.
type CellResult struct {
	Schema     string `json:"schema"`
	Bench      string `json:"bench"`
	Mitigation string `json:"mitigation"`
	Cycles     uint64 `json:"cycles"`
	Committed  uint64 `json:"committed"`
	Restricted uint64 `json:"restricted"`
	Output     string `json:"output,omitempty"`
	// Sampled marks a fast-forward sampled result; nil (omitted) for full
	// detailed runs, so pre-sampling entries stay valid under the same
	// schema. Sampled and full runs never share a key: the sampling knobs
	// are part of the scenario's result-context hash.
	Sampled  *obs.SampledRegions `json:"sampled,omitempty"`
	Counters map[string]uint64   `json:"counters,omitempty"`
}

// CellResultOf converts a cold run's PerfResult into its cacheable form.
func CellResultOf(r *PerfResult) *CellResult {
	c := &CellResult{
		Schema:     CellSchema,
		Bench:      r.Benchmark,
		Mitigation: r.Mitigation.String(),
		Cycles:     r.Cycles,
		Committed:  r.Committed,
		Restricted: r.Restricted,
		Output:     r.Output,
		Sampled:    r.Sampled,
	}
	if r.Stats != nil {
		c.Counters = make(map[string]uint64, len(r.Stats.Keys()))
		for _, k := range r.Stats.Keys() {
			c.Counters[k] = r.Stats.Get(k)
		}
	}
	return c
}

// PerfResult rehydrates the cached cell. The counter set is rebuilt in
// sorted-key order — every consumer (FormatStats, the sweep formatters)
// either sorts or looks up by key, so cached and cold results render
// identically. Fails if the payload is from another schema generation or
// names a mitigation this process has not registered.
func (c *CellResult) PerfResult() (*PerfResult, error) {
	if c.Schema != CellSchema {
		return nil, fmt.Errorf("cell result schema %q (want %q)", c.Schema, CellSchema)
	}
	mit, err := core.ParseMitigation(c.Mitigation)
	if err != nil {
		return nil, err
	}
	set := stats.NewSet("run")
	keys := make([]string, 0, len(c.Counters))
	for k := range c.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		set.Set(k, c.Counters[k])
	}
	return &PerfResult{
		Benchmark:  c.Bench,
		Mitigation: mit,
		Cycles:     c.Cycles,
		Committed:  c.Committed,
		Restricted: c.Restricted,
		Output:     c.Output,
		Stats:      set,
		Sampled:    c.Sampled,
	}, nil
}

// CellStore is the cache RunCell consults: keyed by the scenario's
// result-context hash plus the cell's coordinates. Implementations must be
// safe for concurrent use (sweep cells run on a worker pool) and must never
// return a result they cannot vouch for — a doubtful entry is a miss.
type CellStore interface {
	// GetCell returns the cached result for the cell, or ok=false.
	GetCell(resultHash, bench, mitigation string) (c *CellResult, ok bool)
	// PutCell records a successful cell result. Failures are the
	// implementation's to absorb (log, count, drop): caching is an
	// optimisation and must never fail the run that produced the result.
	PutCell(resultHash string, c *CellResult)
}

// DiskCellStore adapts the crash-safe on-disk store (internal/store) to the
// CellStore seam. The zero value is not usable; wrap a store.Open result.
type DiskCellStore struct {
	S *store.Store
}

// key derives the on-disk key of a cell.
func (DiskCellStore) key(resultHash, bench, mitigation string) store.Key {
	return store.Key{Space: resultHash, Name: scenario.CellKey(bench, mitigation)}
}

// GetCell fetches and validates a cached cell: GetCellBytes, decoded.
func (d DiskCellStore) GetCell(resultHash, bench, mitigation string) (*CellResult, bool) {
	payload, ok := d.GetCellBytes(resultHash, bench, mitigation)
	if !ok {
		return nil, false
	}
	var c CellResult
	if err := json.Unmarshal(payload, &c); err != nil {
		return nil, false
	}
	return &c, true
}

// GetCellBytes returns a cached cell's encoded CellResult, the bytes PutCell
// stored and the store's checksum verified, without decoding them into a
// CellResult. The payload must be valid JSON (GetJSON quarantines one that
// is not), and it must name the requested cell: it must begin with
// cellPrefix. An entry from another schema generation, or one filed under
// the wrong key (or a key collision, however unlikely), reads as a miss,
// not as someone else's result.
func (d DiskCellStore) GetCellBytes(resultHash, bench, mitigation string) ([]byte, bool) {
	var payload json.RawMessage
	ok, err := d.S.GetJSON(d.key(resultHash, bench, mitigation), &payload)
	if err != nil || !ok || !bytes.HasPrefix(payload, cellPrefix(bench, mitigation)) {
		return nil, false
	}
	return payload, true
}

// cellPrefix is how json.Marshal begins every CellResult of the cell: the
// struct's first three fields, under the same tags, in the same order.
func cellPrefix(bench, mitigation string) []byte {
	// Marshalling three strings cannot fail.
	b, _ := json.Marshal(struct {
		Schema     string `json:"schema"`
		Bench      string `json:"bench"`
		Mitigation string `json:"mitigation"`
	}{CellSchema, bench, mitigation})
	b[len(b)-1] = ','
	return b
}

// PutCell persists a cell result; errors (read-only store, full disk) are
// absorbed — the store's counters record them, and the run proceeds.
func (d DiskCellStore) PutCell(resultHash string, c *CellResult) {
	_ = d.S.PutJSON(d.key(resultHash, c.Bench, c.Mitigation), c)
}

// MemCellStore is an in-process CellStore: a mutex-guarded map that lives as
// long as the value, so each distinct cell of one run simulates once. The
// zero value is ready to use. Entries are the cold runs' own results, never
// decoded from bytes, so there is nothing to verify on the way out.
type MemCellStore struct {
	mu    sync.Mutex
	cells map[memCellKey]*CellResult
}

type memCellKey struct{ resultHash, bench, mitigation string }

// GetCell returns the result PutCell recorded for the cell, if any.
func (s *MemCellStore) GetCell(resultHash, bench, mitigation string) (*CellResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.cells[memCellKey{resultHash, bench, mitigation}]
	return c, ok
}

// PutCell records a cell result.
func (s *MemCellStore) PutCell(resultHash string, c *CellResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cells == nil {
		s.cells = make(map[memCellKey]*CellResult)
	}
	s.cells[memCellKey{resultHash, c.Bench, c.Mitigation}] = c
}
