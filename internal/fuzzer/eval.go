package fuzzer

import (
	"errors"
	"fmt"
	"strings"

	"specasan/internal/asm"
	"specasan/internal/attacks"
	"specasan/internal/core"
	"specasan/internal/cpu"
	"specasan/internal/golden"
)

// goldenBudget bounds the reference walk of one candidate, in instructions.
// Generated programs retire a few hundred; anything near this bound is not a
// usable PoC.
const goldenBudget = 200_000

// MitRow is one (candidate, mitigation) cell: the oracle outcome next to the
// claims-model judgment.
type MitRow struct {
	Mitigation string `json:"mitigation"`
	Claim      string `json:"claim"`
	Reason     string `json:"reason,omitempty"`

	Leaked      bool           `json:"leaked"`
	Faulted     bool           `json:"faulted,omitempty"`
	TimedOut    bool           `json:"timed_out,omitempty"`
	SecretReads uint64         `json:"secret_reads,omitempty"`
	Channels    map[string]int `json:"channels,omitempty"`
}

// Evaluation is the full judgment of one candidate: per-mitigation rows plus
// the triage lists the loop acts on. It is the store-cached unit — re-runs
// of the same candidate under the same claims model are cache hits.
type Evaluation struct {
	Hash          string `json:"hash"`
	Valid         bool   `json:"valid"`
	InvalidReason string `json:"invalid_reason,omitempty"`

	Rows []MitRow `json:"rows,omitempty"`

	// Counterexamples: mitigations whose bits claim this shape blocked, yet
	// the oracle saw a leak and the run cross-checked clean against golden.
	Counterexamples []string `json:"counterexamples,omitempty"`
	// KnownGapLeaks: mitigations whose documented exception this candidate
	// exercises — the expected, Table-1-◐-style finds.
	KnownGapLeaks []string `json:"known_gap_leaks,omitempty"`
	// Diverged: mitigations under which the machine's architectural state
	// disagreed with the golden interpreter. A "leak" on top of divergence
	// is a simulator bug, not an attack; these route to the differential
	// corpus.
	Diverged []string `json:"diverged,omitempty"`
}

// Flagged reports whether the evaluation produced anything worth minimising.
func (e *Evaluation) Flagged() bool {
	return len(e.Counterexamples) > 0 || len(e.KnownGapLeaks) > 0
}

// goldenState is one reference walk: the interpreter (for memory
// comparisons) and its result.
type goldenState struct {
	ip  *golden.Interp
	res *golden.Result
}

func runGolden(c *Candidate, prog *asm.Program, mteOn bool) *goldenState {
	ip := cpu.NewGolden(prog, mteOn, 0)
	c.Setup.ApplyImage(ip.Mem)
	return &goldenState{ip: ip, res: ip.Run(goldenBudget)}
}

// EvaluateCandidate runs c under every mitigation in mits, judges each
// outcome against the claims model, and architecturally cross-checks every
// flagged leak against the golden interpreter. Every machine it builds, and
// both golden images, end their life here: each is released for the next
// run to reuse as soon as it has been judged.
func EvaluateCandidate(c *Candidate, mits []core.Mitigation) *Evaluation {
	ev := &Evaluation{Hash: c.Hash()}
	prog, err := asm.Assemble(c.Source)
	if err != nil {
		ev.InvalidReason = fmt.Sprintf("assemble: %v", err)
		return ev
	}

	// The reference walks: a candidate must terminate cleanly (no fault, no
	// budget exhaustion) in both MTE modes to be a usable PoC — committed-
	// path behaviour is the victim's own program and must be benign.
	gold := map[bool]*goldenState{
		false: runGolden(c, prog, false),
		true:  runGolden(c, prog, true),
	}
	defer gold[false].ip.Mem.Release()
	defer gold[true].ip.Mem.Release()
	for _, mode := range []bool{false, true} {
		if r := gold[mode].res.Reason; r != golden.StopExit {
			ev.InvalidReason = fmt.Sprintf("golden (mte=%v) stopped with %v at pc %#x", mode, r, gold[mode].res.PC)
			return ev
		}
	}
	ev.Valid = true

	// One scenario over the program assembled above serves every
	// mitigation; each run builds its own machine.
	sc := c.Setup.Scenario(prog, evalMaxCycles)
	for _, mit := range mits {
		tier, reason := Claim(mit, c)
		out, m, res, err := attacks.RunScenario(c.Name(), sc, mit, nil)
		if err != nil {
			// The source assembled above; a per-mitigation machine error is
			// structural and poisons the whole candidate.
			ev.Valid = false
			ev.InvalidReason = fmt.Sprintf("%v: %v", mit, err)
			return ev
		}
		row := MitRow{
			Mitigation: mit.String(), Claim: tier.String(), Reason: reason,
			Leaked: out.Leaked, Faulted: out.Faulted, TimedOut: out.TimedOut,
			SecretReads: out.SecretReads,
		}
		if len(out.Events) > 0 {
			row.Channels = make(map[string]int, len(out.Events))
			for ch, n := range out.Events {
				row.Channels[ch.String()] += n
			}
		}
		ev.Rows = append(ev.Rows, row)

		switch {
		case out.Faulted || out.TimedOut:
			// Golden exits cleanly under both MTE modes, so a fault or a
			// wedge under any mitigation is an architectural divergence.
			ev.Diverged = append(ev.Diverged, mit.String())
		case out.Leaked && tier >= ClaimKnownGap:
			// Every flagged leak is cross-checked: a leak riding on wrong
			// architectural state is a simulator bug, not an attack.
			if crossCheck(m, res, gold[mit.MTEEnabled()]) != nil {
				ev.Diverged = append(ev.Diverged, mit.String())
			} else if tier == ClaimBlocked {
				ev.Counterexamples = append(ev.Counterexamples, mit.String())
			} else {
				ev.KnownGapLeaks = append(ev.KnownGapLeaks, mit.String())
			}
		}
		m.Release()
	}
	return ev
}

// crossCheck compares the final architectural state of a finished machine
// run with the golden walk (cpu.Machine.GoldenDiff), once the run has ended
// without a timeout or a watchdog error. Returns nil when they agree.
func crossCheck(m *cpu.Machine, res *cpu.RunResult, g *goldenState) error {
	if res.TimedOut || res.Err != nil {
		return fmt.Errorf("machine inconclusive: %v", res)
	}
	if d := m.GoldenDiff(0, g.ip, g.res); len(d) > 0 {
		return errors.New(strings.Join(d, "; "))
	}
	return nil
}
