package fuzzer

import (
	"strings"
	"testing"

	"specasan/internal/attacks"
	"specasan/internal/core"
)

// table1Channels gives the transmit channel of each rendered Table 1
// variant's body, keyed by attack and variant name: the one Candidate field
// a Gadget recipe does not carry.
var table1Channels = map[string]string{
	"PHT (Spectre v1)/bounds-check-bypass":       ChanCache,
	"BTB (Spectre v2)/foreign-key-gadget":        ChanCache,
	"BTB (Spectre v2)/matching-key-gadget":       ChanCache,
	"RSB (Spectre v5)/foreign-key-gadget":        ChanCache,
	"RSB (Spectre v5)/matching-key-gadget":       ChanCache,
	"STL (Spectre v4)/store-bypass-stale-read":   ChanCache,
	"SMoTHERSpectre/branch-port/foreign-key":     ChanBranch,
	"SMoTHERSpectre/branch-port/matching-key":    ChanBranch,
	"SMoTHERSpectre/div-timing/matching-key":     ChanDiv,
	"SMoTHERSpectre/cache-transmit/matching-key": ChanCache,
	"Spec. Interference/mshr-pressure":           ChanMSHR,
	"Spec. Interference/port-burst":              ChanPort,
	"SpectreRewind/div-contention":               ChanDiv,
	"SpectreRewind/branch-port":                  ChanBranch,
	"SpectreRewind/cache-transmit":               ChanCache,
}

// TestTable1ThroughTheClaimsModel reads Table 1 a second time, through the
// fuzzer's own judge: each rendered variant's recipe becomes a Candidate,
// and EvaluateCandidate runs it under every registered policy. Every
// candidate must pass the golden gate (a clean exit in both MTE modes),
// cross-check clean and contradict no claim, and each row must report the
// leak and the secret reads of the variant's own RunVariant. On the eight
// built-in policies a cell leaks exactly when its claim is not blocked.
//
// DelayOnMiss is held to the one-way rule alone (a blocked claim never
// leaks). Its claim is known-gap on all nine cache-shaped rows, but in eight
// of them the probe line misses L1, so DoM holds the transmit load and
// nothing leaks: PHT, both BTB and both RSB variants, SMoTHERSpectre
// cache-transmit/matching-key, Spec. Interference mshr-pressure and
// SpectreRewind cache-transmit. Only STL leaks there.
func TestTable1ThroughTheClaimsModel(t *testing.T) {
	mits := core.RegisteredMitigations()
	rendered, judged := 0, 0
	for _, a := range attacks.All() {
		for _, v := range a.Variants {
			g := v.Gadget
			if g == nil {
				continue
			}
			rendered++
			name := a.Name + "/" + v.Name
			ch, ok := table1Channels[name]
			if !ok {
				t.Errorf("%s: no channel", name)
				continue
			}
			c := &Candidate{Trigger: g.Trigger, Relation: g.Relation, Channel: ch,
				Train: g.Train, Body: strings.Split(g.Body, "\n")}
			if err := c.Render(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			ev := EvaluateCandidate(c, mits)
			if !ev.Valid {
				t.Errorf("%s: invalid candidate: %s", name, ev.InvalidReason)
				continue
			}
			if len(ev.Diverged) > 0 || len(ev.Counterexamples) > 0 {
				t.Errorf("%s: diverged under %v, counterexamples under %v", name, ev.Diverged, ev.Counterexamples)
			}
			for i, row := range ev.Rows {
				mit := mits[i]
				out, err := attacks.RunVariant(v, mit)
				if err != nil {
					t.Fatalf("%s/%v: %v", name, mit, err)
				}
				if row.Leaked != out.Leaked || row.SecretReads != out.SecretReads {
					t.Errorf("%s/%v: candidate leaked=%v reads=%d, variant leaked=%v reads=%d",
						name, mit, row.Leaked, row.SecretReads, out.Leaked, out.SecretReads)
				}
				blocked := row.Claim == ClaimBlocked.String()
				switch {
				case blocked && row.Leaked:
					t.Errorf("%s/%v: leaks under a blocked claim (%s)", name, mit, row.Reason)
				case mit < core.NumMitigations && !blocked && !row.Leaked:
					t.Errorf("%s/%v: claim %s, but no leak", name, mit, row.Claim)
				}
				if mit < core.NumMitigations {
					judged++
				}
			}
		}
	}
	if rendered != len(table1Channels) || judged != len(table1Channels)*int(core.NumMitigations) {
		t.Fatalf("%d rendered variants and %d built-in cells, want %d and %d",
			rendered, judged, len(table1Channels), len(table1Channels)*int(core.NumMitigations))
	}
}
