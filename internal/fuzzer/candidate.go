// Package fuzzer is the attack-discovery loop: a deterministic, seed-driven
// generator assembles three-phase attack programs (transient trigger →
// secret transmit → oracle receive) from the trigger templates in
// internal/attacks, an evaluation engine runs each candidate across every
// registered mitigation policy, a claims model flags programs that leak
// under a mitigation whose behaviour bits claim coverage, and a
// delta-debugging minimiser shrinks each find into a Table-1-style PoC row.
//
// Everything is deterministic in (seed, index): the same seed produces a
// byte-identical PoC corpus at any worker count, and candidates are
// content-hashed through internal/store so interrupted runs resume as cache
// hits.
package fuzzer

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"specasan/internal/attacks"
)

// Candidate is one generated attack program: the structured recipe (trigger,
// relation, channel, body lines) plus the rendered source. The body is kept
// as lines because that is the minimiser's unit of deletion.
type Candidate struct {
	Seed     uint64 `json:"seed"`
	Index    int    `json:"index"`
	Trigger  string `json:"trigger"`
	Relation string `json:"relation"`
	Channel  string `json:"channel"`
	// Train is the trigger's training-iteration count (0 where the trigger
	// has none).
	Train int `json:"train,omitempty"`
	// Body is the gadget placed in the transient window: access phase (for
	// pointer triggers) plus the transmit encoding.
	Body []string `json:"body"`

	Source string            `json:"source"`
	Setup  attacks.SetupSpec `json:"setup"`
}

// Render fills Source and Setup from the structured fields. Candidates
// edited by the minimiser call this to re-materialise the program.
func (c *Candidate) Render() error {
	src, setup, err := attacks.RenderGadget(c.Trigger, c.Relation, c.Train, strings.Join(c.Body, "\n"))
	if err != nil {
		return err
	}
	c.Source, c.Setup = src, setup
	return nil
}

// Hash content-addresses the candidate: everything that determines its
// behaviour (source text and setup), nothing that doesn't (seed, index).
// Used as the store key name and in emitted PoC file names.
func (c *Candidate) Hash() string {
	h := sha256.New()
	h.Write([]byte(c.Source))
	setup, _ := json.Marshal(c.Setup)
	h.Write(setup)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// FeatureSig is the dedup signature for corpus emission: candidates with
// the same trigger/relation/channel shape tell the same story, so only the
// first (lowest index) of each shape is minimised and emitted.
func (c *Candidate) FeatureSig() string {
	return c.Trigger + "-" + c.Relation + "-" + c.Channel
}

// Name labels the candidate for logs and variant names.
func (c *Candidate) Name() string {
	return fmt.Sprintf("fuzz-%d-%d-%s", c.Seed, c.Index, c.FeatureSig())
}

// evalMaxCycles bounds one candidate run. Generated programs finish in a
// few thousand cycles; a candidate that spins this long is inconclusive.
const evalMaxCycles = 400_000
