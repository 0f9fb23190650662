package scenario

// Result-store addressing. The store (internal/store) keys every cached
// result by (result-context hash, cell key):
//
//   - ResultHash identifies the *shared* result-determining context of a
//     run: the machine configuration, the result-relevant run options, and
//     the chaos physics. Scheduling knobs (workers) and failure-handling
//     knobs (retry policy) are normalized out, because the deterministic
//     sweep contract makes results byte-identical across worker counts and a
//     cached entry only ever holds a *successful* run, which is the same
//     however many retries it took to get there. The per-cell coordinates
//     (which workload, which mitigation, which chaos seed) are likewise
//     normalized out — they live in the cell key — so extending a scenario
//     with another sweep column or row reuses every already-cached cell.
//   - CellKey / ChaosCellKey name the cell inside that context. They are
//     filesystem-safe: readable slug plus a short hash of the exact raw
//     coordinates, so sanitization can never alias two distinct cells.
//
// Together: same (ResultHash, cell key) ⇒ byte-identical result, which is
// what lets the serve daemon and the CLIs answer repeated queries from the
// store instead of re-simulating.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
)

// ResultHash returns the canonical hash of the scenario's shared
// result-determining context (see the package comment above for what is
// normalized out and why). Two scenarios with equal ResultHash produce
// byte-identical results for any cell they have in common.
func (s *Scenario) ResultHash() string {
	c := s.canonical()
	// Cell coordinates: carried by the cell key, not the context.
	c.Mitigations = nil
	c.Workloads = nil
	// Scheduling and failure handling: result-neutral by contract (the
	// determinism tests pin workers-independence; retries only decide
	// whether a success exists, never what it contains).
	c.Run.Workers = 0
	c.Run.RetryBudgetFactor = 0
	c.Run.MaxRetries = 0
	if c.Chaos != nil {
		cc := *c.Chaos
		// Seed0/Seeds/Kinds enumerate chaos cells (cell-key coordinates);
		// VerdictSeeds drives a separate uncached sweep. Rate and MaxLatency
		// stay: they shape every injected fault schedule.
		cc.Seeds, cc.Seed0, cc.Kinds, cc.VerdictSeeds = 0, 0, nil, 0
		c.Chaos = &cc
	}
	b, err := json.Marshal(&c)
	if err != nil {
		panic(fmt.Sprintf("scenario: result-canonical marshal: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// CellKey derives the store name of one sweep cell: a human-readable
// benchmark__mitigation slug plus a short hash of the exact raw names, so
// two cells whose names differ only in sanitized characters cannot collide.
func CellKey(bench, mitigation string) string {
	return cellKey(bench + "__" + mitigation)
}

// ChaosCellKey derives the store name of one chaos-campaign cell: workload
// and mitigation plus the chaos grid coordinates (fault-kind set and seed)
// that complete the cell's identity.
func ChaosCellKey(bench, mitigation string, kinds []string, seed uint64) string {
	return cellKey(fmt.Sprintf("%s__%s__%s__s%d",
		bench, mitigation, strings.Join(kinds, "+"), seed))
}

// cellKey sanitizes raw into a filesystem-safe slug and appends an 8-hex
// collision guard over the unsanitized bytes.
func cellKey(raw string) string {
	slug := sanitize(raw)
	sum := sha256.Sum256([]byte(raw))
	const maxSlug = 100 // keep names comfortably under filesystem limits
	if len(slug) > maxSlug {
		slug = slug[:maxSlug]
	}
	return slug + "-" + hex.EncodeToString(sum[:4])
}

// sanitize maps raw onto the store's safe-name alphabet ([A-Za-z0-9._-],
// not starting with a dot or dash).
func sanitize(raw string) string {
	var b strings.Builder
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
			if b.Len() == 0 && (c == '.' || c == '-') {
				b.WriteByte('_')
			} else {
				b.WriteByte(c)
			}
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}
