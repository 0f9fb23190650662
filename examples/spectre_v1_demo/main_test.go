package main

import (
	"testing"

	"specasan/internal/attacks"
	"specasan/internal/core"
	"specasan/internal/isa"
	"specasan/internal/obs"
)

// TestFigure5SpecASanHoldsTheSecretLoad pins the walkthrough under
// SpecASan: the speculative load of the secret is held with the victim
// pointer's key (0xa) against the secret granule's lock (0xb), the bounds
// check resolves mispredicted and its squash ends the hold, and the oracle
// sees no leak.
func TestFigure5SpecASanHoldsTheSecretLoad(t *testing.T) {
	w, err := runPoC(core.SpecASan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if o := w.m.Oracle; o.Leaked() || o.SecretReads != 0 {
		t.Fatalf("SpecASan leaked: %d secret reads, events %v", o.SecretReads, o.Events())
	}
	const keyLock = attacks.TagVictim<<4 | attacks.TagSecret
	var load, branch uint64 // the held load of the secret; its squashing branch
	issued := map[uint64]bool{}
	for _, ev := range w.events {
		switch {
		case ev.Kind == obs.EvMem && ev.Arg == attacks.SecretAddr:
			issued[ev.Seq] = true
		case ev.Kind == obs.EvTagDelayStart && issued[ev.Seq]:
			if ev.Arg != keyLock {
				t.Fatalf("held load of the secret: key/lock %#x, want %#x", ev.Arg, keyLock)
			}
			load = ev.Seq
		case ev.Kind == obs.EvDispatch && ev.Seq == load:
			load = 0 // the seq was reused before the hold ended
		case ev.Kind == obs.EvSquash && load != 0 && ev.Seq == load:
			branch = ev.Arg
		}
		if branch != 0 {
			break
		}
	}
	if branch == 0 {
		t.Fatal("no held load of the secret was squashed by a mispredicted branch")
	}
	var bpc uint64
	for _, ev := range w.events {
		if ev.Kind == obs.EvDispatch && ev.Seq == branch {
			bpc = ev.PC // the last dispatch of the seq before the squash
		}
		if ev.Kind == obs.EvSquash && ev.Arg == branch {
			break
		}
	}
	if in := w.prog.InstAt(bpc); in == nil || in.Op != isa.BCC {
		t.Fatalf("squashing seq %d at pc %#x is not the bounds check B.HS: %v", branch, bpc, in)
	}
	if w.transmits() {
		t.Fatal("the held secret reached the transmit")
	}
	if len(w.blockingSequence()) == 0 {
		t.Fatal("the printed walkthrough is empty")
	}
}

// secretProbeLine is the probe line the PoC's transmit touches for the
// planted secret's low byte.
const secretProbeLine = attacks.ProbeAddr + (attacks.SecretValue<<6)&4032

// transmits reports whether the run's transmit touched the secret's probe
// line: the held data reached the dependent load.
func (w *walkthrough) transmits() bool {
	for _, ev := range w.events {
		if ev.Kind == obs.EvMem && ev.Arg == secretProbeLine {
			return true
		}
	}
	return false
}

// TestFigure5WithoutSpecASanTheSecretLeaks pins the two baselines: neither
// the unprotected core nor committed-path MTE withholds the secret from
// the transmit, and the secret reaches the cache. Neither records a
// tag-check hold: MTE checks the mismatched load's tag but returns its
// data, so its ring has no tag-delay-start, its unsafe_accesses counter
// and tag-delay histogram stay empty, and its cycle count is that of a run
// that held nothing.
func TestFigure5WithoutSpecASanTheSecretLeaks(t *testing.T) {
	for _, tc := range []struct {
		mit    core.Mitigation
		cycles uint64
	}{{core.Unsafe, 2806}, {core.MTE, 2808}} {
		met := obs.NewMetrics(1)
		w, err := runPoC(tc.mit, met)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range w.events {
			if ev.Kind == obs.EvTagDelayStart {
				t.Fatalf("%v held seq %d", tc.mit, ev.Seq)
			}
		}
		if n := w.res.Stats.Get("unsafe_accesses"); n != 0 {
			t.Fatalf("%v: unsafe_accesses = %d, want 0", tc.mit, n)
		}
		if n := met.Core(0).TagDelay.N; n != 0 {
			t.Fatalf("%v: %d tag-delay samples, want 0", tc.mit, n)
		}
		if w.res.Cycles != tc.cycles {
			t.Fatalf("%v: %d cycles, want %d", tc.mit, w.res.Cycles, tc.cycles)
		}
		if !w.transmits() || !w.m.Oracle.Leaked() {
			t.Fatalf("%v: the secret must reach the transmit and leak (transmit %v, leaked %v)",
				tc.mit, w.transmits(), w.m.Oracle.Leaked())
		}
	}
}
