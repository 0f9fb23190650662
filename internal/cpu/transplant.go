package cpu

// State transplant: install a golden-interpreter architectural snapshot into
// a fresh cycle-accurate machine. This is the seam fast-forward sampling
// stands on — a run executes N instructions functionally (hundreds of MIPS),
// then switches to cycle-accurate simulation from exactly that state.
//
// Exactness argument: the machine's committed state is (cRegs, cFlags,
// fetchPC, memory image incl. MTE tag sidecars, output stream). A fresh
// machine has no speculative state — empty ROB/LSQ, reset TSH, cold caches
// and predictors — so installing the snapshot into those five committed
// pieces reproduces the golden interpreter's architectural state bit for
// bit. Micro-architectural state starts cold. Sampling runs then warm the
// cache hierarchy from the functional walk's recorded touches (WarmCaches)
// and the rest (predictors, TSH occupancy) with a configurable number of
// detailed cycles before counters are read (see harness). Tests assert
// golden(full walk) == golden(N) + transplant + detailed(rest) on final
// registers, memory, tags and output.

import (
	"fmt"

	"specasan/internal/asm"
	"specasan/internal/core"
	"specasan/internal/golden"
	"specasan/internal/isa"
)

// NewMachineAt builds a single-core machine whose architectural start state
// is the golden snapshot st rather than the program's entry point. The
// machine takes ownership of st.Mem (snapshots are already deep copies;
// callers reusing one snapshot across machines must Clone it per machine).
// The program is still needed for instruction fetch — code lives in the
// Program, not the image, so the snapshot cannot drift from the text.
func NewMachineAt(cfg core.Config, mit core.Mitigation, prog *asm.Program, st *golden.State) (*Machine, error) {
	if cfg.Cores != 1 {
		return nil, fmt.Errorf("cpu: state transplant requires a single-core config, got %d cores", cfg.Cores)
	}
	m, err := newMachineOn(cfg, mit, prog, st.Mem)
	if err != nil {
		return nil, err
	}
	c := m.Cores[0]
	c.cRegs = st.Regs
	c.cRegs[isa.XZR] = 0
	c.cFlags = st.Flags
	c.fetchPC = st.PC
	c.Output = append(c.Output, st.Output...)
	return m, nil
}

// WarmCaches replays a functional run's recorded memory touches into the
// machine's cache hierarchy, so detailed execution after a transplant does
// not start against stone-cold caches (the dominant error source in sampled
// IPC otherwise). The transplant seam is single-core, so everything warms
// core 0. Safe to call with a nil or empty ring.
func (m *Machine) WarmCaches(tr *golden.TouchRing) {
	if tr == nil || tr.Len() == 0 {
		return
	}
	m.Hier.Warm(0, tr.Each)
}
