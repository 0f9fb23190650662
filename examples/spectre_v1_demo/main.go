// spectre_v1_demo walks through Figure 5 of the paper: the Spectre-v1 PoC
// of Listing 1 running once on an unprotected core (the secret-dependent
// probe line lands in the cache) and once under SpecASan (the speculative
// out-of-bounds load gets tcs=unsafe, no data returns, the transmit never
// happens). The events printed for the SpecASan run, read from core 0's
// event ring, show the mechanism's steps: the access to the secret, the
// unsafe signal with the pointer's key and the granule's lock, and the
// squash by the mispredicted bounds check that ends the hold.
package main

import (
	"fmt"

	"specasan"
	"specasan/internal/asm"
	"specasan/internal/attacks"
	"specasan/internal/core"
	"specasan/internal/cpu"
	"specasan/internal/obs"
)

func main() {
	fmt.Println("=== Spectre-v1 on the unprotected baseline ===")
	show(specasan.Unsafe, false)
	fmt.Println("\n=== Spectre-v1 under plain MTE (committed-path checks only) ===")
	show(specasan.MTE, false)
	fmt.Println("\n=== Spectre-v1 under SpecASan (events of the blocking sequence) ===")
	show(specasan.SpecASan, true)
}

// walkthrough is one run of the PoC: the finished machine (its oracle holds
// the verdict), the run's result and core 0's event ring.
type walkthrough struct {
	m      *cpu.Machine
	res    *cpu.RunResult
	events []obs.Event
	prog   *asm.Program
}

// runPoC runs the Spectre-v1 PoC once under mit with the event ring
// attached, and met too when it is not nil.
func runPoC(mit core.Mitigation, met *obs.Metrics) (*walkthrough, error) {
	v := attacks.SpectrePHT().Variants[0]
	sc, err := v.Build()
	if err != nil {
		return nil, err
	}
	tr := obs.NewTracer(1, 0)
	_, m, res, err := attacks.RunScenario(v.Name, sc, mit, func(m *cpu.Machine) { m.AttachObs(tr, met) })
	if err != nil {
		return nil, err
	}
	return &walkthrough{m: m, res: res, events: tr.Core(0).Events(), prog: sc.Prog}, nil
}

// blockingSequence selects the Figure 5 events: every access to the
// secret, every tag-check hold, and the squash or commit that ends each
// held instruction.
func (w *walkthrough) blockingSequence() []obs.Event {
	var sel []obs.Event
	held := map[uint64]bool{}
	for _, ev := range w.events {
		switch {
		case ev.Kind == obs.EvMem && ev.Arg == attacks.SecretAddr, ev.Kind == obs.EvTagDelayEnd:
		case ev.Kind == obs.EvTagDelayStart:
			held[ev.Seq] = true
		case (ev.Kind == obs.EvSquash || ev.Kind == obs.EvCommit) && held[ev.Seq]:
			delete(held, ev.Seq)
		default:
			continue
		}
		sel = append(sel, ev)
	}
	return sel
}

func show(mit core.Mitigation, trace bool) {
	w, err := runPoC(mit, nil)
	if err != nil {
		panic(err)
	}
	if trace {
		seq := w.blockingSequence()
		for _, ev := range seq {
			fmt.Println(" ", obs.EventLine(0, ev, func(pc uint64) string { return w.prog.InstAt(pc).String() }))
		}
		if len(seq) == 0 {
			fmt.Println("  (no unsafe accesses: nothing to block)")
		}
	}
	o := w.m.Oracle
	fmt.Printf("  cycles=%d committed=%d\n", w.res.Cycles, w.res.Committed)
	fmt.Printf("  speculative secret reads : %d\n", o.SecretReads)
	fmt.Printf("  leak events              : %d", len(o.Events()))
	if o.Leaked() {
		fmt.Printf("  -> SECRET LEAKED (probe line cached, recoverable by Flush+Reload)")
	} else {
		fmt.Printf("  -> no microarchitectural trace of the secret")
	}
	fmt.Println()
}
