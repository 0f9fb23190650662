package fuzzer

import (
	"fmt"
	"strings"

	"specasan/internal/core"
)

// Minimise shrinks a flagged candidate to a minimal instruction sequence
// that still exhibits its defining property: it leaks under mit, terminates
// cleanly, and its architectural state cross-checks against the golden
// interpreter. Body lines shrink by classic ddmin (complement-preserving
// delta debugging); the trigger's training count then shrinks to the
// smallest value that still works.
//
// Minimisation is deterministic — a pure function of the candidate — so the
// emitted corpus is byte-identical across runs and worker counts. An error
// means the find is unminimisable: the original candidate no longer replays
// its own property, which for a deterministic simulator indicates a claims/
// evaluation bug and fails the fuzz run loudly.
func Minimise(c *Candidate, mit core.Mitigation) (*Candidate, error) {
	return minimise(c, mit, replays)
}

// replays is Minimise's probe: whether the rendered trial t still leaks
// under mit, terminates cleanly and cross-checks against golden.
func replays(t *Candidate, mit core.Mitigation) bool {
	ev := EvaluateCandidate(t, []core.Mitigation{mit})
	return ev.Valid && len(ev.Diverged) == 0 && len(ev.Rows) == 1 && ev.Rows[0].Leaked
}

// minimise is Minimise over an explicit probe, so a test can count what
// reaches the simulator.
func minimise(c *Candidate, mit core.Mitigation, probe func(*Candidate, core.Mitigation) bool) (*Candidate, error) {
	holds := memoProbe(func(train int, body []string) bool {
		t := &Candidate{
			Seed: c.Seed, Index: c.Index,
			Trigger: c.Trigger, Relation: c.Relation, Channel: c.Channel,
			Train: train, Body: append([]string(nil), body...),
		}
		return t.Render() == nil && probe(t, mit)
	})

	if !holds(c.Train, c.Body) {
		return nil, fmt.Errorf("unminimisable: %s does not replay its leak under %v", c.Name(), mit)
	}

	body := ddmin(c.Body, func(lines []string) bool { return holds(c.Train, lines) })

	train := c.Train
	if train > 0 {
		lo := 3 // template floor for both pht and btb
		for t := lo; t < train; t++ {
			if holds(t, body) {
				train = t
				break
			}
		}
	}

	out := &Candidate{
		Seed: c.Seed, Index: c.Index,
		Trigger: c.Trigger, Relation: c.Relation, Channel: c.Channel,
		Train: train, Body: body,
	}
	if err := out.Render(); err != nil {
		return nil, err
	}
	return out, nil
}

// trial keys one probe of a Minimise call: the training count and the body
// lines joined as Render joins them, so equal keys render the same program.
type trial struct {
	train int
	body  string
}

// memoProbe wraps probe so each distinct trial reaches it once; a repeat
// returns the recorded verdict. ddmin revisits trials (at n = 2 each
// complement is the other chunk), and a verdict is a pure function of the
// trial, so probe order, verdicts and the minimised result are unchanged.
// Each Minimise call builds its own memo and drops it on return: a memo
// shared across calls would answer a later run's probes from memory.
func memoProbe(probe func(train int, body []string) bool) func(train int, body []string) bool {
	verdicts := map[trial]bool{}
	return func(train int, body []string) bool {
		k := trial{train, strings.Join(body, "\n")}
		v, ok := verdicts[k]
		if !ok {
			v = probe(train, body)
			verdicts[k] = v
		}
		return v
	}
}

// ddmin is the classic Zeller/Hildebrandt algorithm over line sets: split
// into n chunks, try each chunk alone, then each complement, refining
// granularity until single-line resolution. test must hold for the input
// and is monotone-checked on every probe.
func ddmin(lines []string, test func([]string) bool) []string {
	cur := append([]string(nil), lines...)
	n := 2
	for len(cur) >= 2 {
		chunks := split(cur, n)
		reduced := false
		// Subsets first: a single chunk that still leaks is a big win.
		for _, chunk := range chunks {
			if test(chunk) {
				cur, n, reduced = chunk, 2, true
				break
			}
		}
		if !reduced {
			// Complements: drop one chunk at a time.
			for i := range chunks {
				comp := complement(chunks, i)
				if test(comp) {
					cur = comp
					n = max(n-1, 2)
					reduced = true
					break
				}
			}
		}
		if !reduced {
			if n >= len(cur) {
				break
			}
			n = min(2*n, len(cur))
		}
	}
	return cur
}

func split(lines []string, n int) [][]string {
	out := make([][]string, 0, n)
	size := len(lines) / n
	rem := len(lines) % n
	at := 0
	for i := 0; i < n; i++ {
		sz := size
		if i < rem {
			sz++
		}
		if sz == 0 {
			continue
		}
		out = append(out, lines[at:at+sz])
		at += sz
	}
	return out
}

func complement(chunks [][]string, skip int) []string {
	var out []string
	for i, ch := range chunks {
		if i != skip {
			out = append(out, ch...)
		}
	}
	return out
}
