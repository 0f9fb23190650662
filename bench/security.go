package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"specasan/internal/attacks"
	"specasan/internal/core"
	"specasan/internal/fuzzer"
	"specasan/internal/par"
)

// fuzzCandidates is the fuzz batch of one security round: with the Table 1
// matrix it keeps a round near two seconds on a 2-thread host.
const fuzzCandidates = 128

// The Table 1 verdict totals the paper's matrix has (● / ◐ / ○).
const (
	table1Full    = 32
	table1Partial = 10
	table1None    = 13
)

// securityRunner evaluates the Table 1 matrix and a seeded fuzz batch per
// round. The fuzz loop is fuzzer.Run's, opened up so each candidate can be
// timed: evaluate on an ordered pool, deduplicate the flagged candidates in
// index order, then minimise each find and re-evaluate it.
type securityRunner struct {
	mits      []core.Mitigation
	tableMits []core.Mitigation
	attacks   []*attacks.Attack
	// cands is the fuzz batch, generated from the seed at set-up.
	cands []*fuzzer.Candidate

	problems   []string
	digests    []string
	candidates int
	finds      int
	wall       time.Duration
}

func newSecurityRunner(seed uint64) (*securityRunner, error) {
	r := &securityRunner{
		mits:      core.RegisteredMitigations(),
		tableMits: attacks.TableMitigations(),
		attacks:   attacks.All(),
	}
	// Assemble every Table 1 gadget once, so a broken input fails set-up.
	for _, a := range r.attacks {
		for _, v := range a.Variants {
			if _, err := v.Build(); err != nil {
				return nil, fmt.Errorf("%s/%s: %w", a.Name, v.Name, err)
			}
		}
	}
	for i := 0; i < fuzzCandidates; i++ {
		r.cands = append(r.cands, fuzzer.Generate(seed, i))
	}
	return r, nil
}

type fuzzFind struct {
	cand *fuzzer.Candidate
	mits []string
}

func (r *securityRunner) round(tr *tracer) (roundStats, error) {
	roundSpan := tr.begin("round", 0)
	start := time.Now()
	st := roundStats{}

	// Table 1, serially, as harness.SecurityMatrix evaluates it.
	tableSpan := tr.begin("table1", roundSpan.id)
	var counts [3]int
	for _, a := range r.attacks {
		for _, m := range r.tableMits {
			t0 := time.Now()
			v, _, err := a.Evaluate(m)
			tr.record("attacks.Evaluate", tableSpan.id, t0, time.Now())
			st.attempted++
			if err != nil {
				st.failed++
				r.problem("table 1 %s/%v: %v", a.Name, m, err)
				continue
			}
			counts[v]++
		}
	}
	tableSpan.end()
	if counts[attacks.VerdictFull] != table1Full || counts[attacks.VerdictPartial] != table1Partial ||
		counts[attacks.VerdictNone] != table1None {
		r.problem("table 1 totals %d full / %d partial / %d none, want %d / %d / %d",
			counts[attacks.VerdictFull], counts[attacks.VerdictPartial], counts[attacks.VerdictNone],
			table1Full, table1Partial, table1None)
	}

	// The fuzz batch.
	fuzzSpan := tr.begin("fuzz", roundSpan.id)
	cands, n := r.cands, len(r.cands)
	evals := make([]*fuzzer.Evaluation, n)
	times := make([][2]time.Time, n)
	var finds []fuzzFind
	seen := map[string]bool{}
	h := sha256.New()
	workers := par.Workers(0, n)
	par.ForEachOrdered(n, 0, func(i int) {
		times[i][0] = time.Now()
		evals[i] = fuzzer.EvaluateCandidate(cands[i], r.mits)
		times[i][1] = time.Now()
	}, func(i int) {
		c, ev := cands[i], evals[i]
		fmt.Fprintf(h, "%s valid=%v ce=%v gap=%v div=%v\n", ev.Hash, ev.Valid,
			ev.Counterexamples, ev.KnownGapLeaks, ev.Diverged)
		if len(ev.Diverged) > 0 {
			r.problem("fuzz candidate %s diverged from golden under %v", c.Name(), ev.Diverged)
		}
		if !ev.Valid || !ev.Flagged() {
			return
		}
		kind, flagged := fuzzer.KindKnownGap, ev.KnownGapLeaks
		if len(ev.Counterexamples) > 0 {
			kind, flagged = fuzzer.KindCounterexample, ev.Counterexamples
		}
		sig := kind + "|" + c.FeatureSig() + "|" + strings.Join(flagged, ",")
		if !seen[sig] {
			seen[sig] = true
			finds = append(finds, fuzzFind{cand: c, mits: flagged})
		}
	})
	for i, t := range times {
		tr.record("fuzzer.EvaluateCandidate", fuzzSpan.id, t[0], t[1])
		st.opMs = append(st.opMs, ms(t[1].Sub(t[0])))
		st.busy += t[1].Sub(t[0])
		st.attempted++
		if len(evals[i].Diverged) > 0 {
			st.failed++
		}
	}
	// Minimise sequentially in find order, as fuzzer.Run does.
	for _, f := range finds {
		st.attempted++
		t0 := time.Now()
		target, err := core.ParseMitigation(f.mits[0])
		if err != nil {
			st.failed++
			r.problem("fuzz find %s: %v", f.cand.Name(), err)
			continue
		}
		min, err := fuzzer.Minimise(f.cand, target)
		t1 := time.Now()
		tr.record("fuzzer.Minimise", fuzzSpan.id, t0, t1)
		st.busy += t1.Sub(t0)
		if err != nil {
			st.failed++
			r.problem("fuzz find %s unminimisable: %v", f.cand.Name(), err)
			continue
		}
		final := fuzzer.EvaluateCandidate(min, r.mits)
		tr.record("fuzzer.EvaluateCandidate", fuzzSpan.id, t1, time.Now())
		st.busy += time.Since(t1)
		if !final.Valid || !final.Flagged() {
			st.failed++
			r.problem("fuzz find %s: minimised form no longer flags", f.cand.Name())
			continue
		}
		fmt.Fprintf(h, "poc %s ce=%v gap=%v\n", sha256Hex(min.Source), final.Counterexamples, final.KnownGapLeaks)
	}
	fuzzSpan.end()
	st.wall = time.Since(start)
	st.workers = workers
	roundSpan.end()

	r.candidates += n
	r.finds = len(finds)
	r.wall += st.wall
	r.digests = append(r.digests, hex.EncodeToString(h.Sum(nil)))
	return st, nil
}

func (r *securityRunner) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *securityRunner) finish(rec *record) {
	rec.Problems = append(rec.Problems, dedupe(r.problems)...)
	for _, d := range r.digests[1:] {
		if d != r.digests[0] {
			rec.Problems = append(rec.Problems, "fuzz report differs between rounds")
			break
		}
	}
	rec.Digests["fuzz_report"] = r.digests[0]
	rec.Info["fuzz_finds"] = float64(r.finds)
	rec.Info["candidates_per_s"] = float64(r.candidates) / r.wall.Seconds()
}

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}
