// Package branch implements the front-end prediction structures the Spectre
// family of attacks trains: a gshare pattern history table (PHT) for
// conditional direction, a branch target buffer (BTB) for taken targets, a
// return stack buffer (RSB), and a branch-history-buffer (BHB) indexed
// indirect-target predictor. All structures are deliberately attacker
// trainable — aliasing between attacker and victim PCs is what the PoCs in
// internal/attacks exploit.
package branch

import (
	"fmt"

	"specasan/internal/recycle"
)

// Predictor bundles the per-core prediction state.
type Predictor struct {
	phtBits int
	pht     []uint8 // 2-bit saturating counters
	ghr     uint64  // global history register

	btb     []btbEntry
	btbMask uint64

	rsb    []uint64
	rsbTop int
	rsbLen int

	bhb     uint64 // branch history buffer for indirect prediction
	bhbLen  int
	ittable map[uint64]uint64 // (pc ^ folded BHB) -> predicted indirect target

	// Stats.
	CondLookups, CondMispredicts uint64
	IndLookups, IndMispredicts   uint64
	RetLookups, RetMispredicts   uint64

	// ChaosFlipCond, when set, may invert the direction predicted for a
	// conditional branch (fault injection). A flipped prediction behaves
	// exactly like an organic mispredict: resolution trains the PHT with the
	// true outcome and repairs the speculative history, so the perturbation
	// is microarchitectural only.
	ChaosFlipCond func(pc uint64) bool
}

type btbEntry struct {
	valid  bool
	pc     uint64
	target uint64
}

// Config sizes the predictor.
type Config struct {
	PHTBits  int
	BTBSize  int
	RSBDepth int
	BHBLen   int
}

// New returns a predictor with the given geometry.
func New(cfg Config) (*Predictor, error) {
	size := cfg.BTBSize
	if size == 0 || size&(size-1) != 0 {
		return nil, fmt.Errorf("branch: BTBSize %d must be a power of two", size)
	}
	p := &Predictor{
		phtBits: cfg.PHTBits,
		pht:     phts.Make(1 << cfg.PHTBits),
		btb:     btbs.Make(size),
		btbMask: uint64(size - 1),
		rsb:     make([]uint64, cfg.RSBDepth),
		bhbLen:  cfg.BHBLen,
		ittable: make(map[uint64]uint64),
	}
	// Weakly taken initial state.
	for i := range p.pht {
		p.pht[i] = 2
	}
	return p, nil
}

// phts and btbs keep the tables of released predictors (see Release).
var (
	phts recycle.Slices[uint8]
	btbs recycle.Slices[btbEntry]
)

// Release hands the PHT and BTB back for a later New to reuse and nils
// them: the predictor must not be used again. Its stats stay readable.
func (p *Predictor) Release() {
	phts.Free(p.pht)
	btbs.Free(p.btb)
	p.pht, p.btb = nil, nil
}

func (p *Predictor) phtIndex(pc uint64) uint64 {
	return (pc>>2 ^ p.ghr) & (uint64(1)<<p.phtBits - 1)
}

// PredictCond predicts the direction of a conditional branch at pc and
// speculatively folds the prediction into the global history (so that
// back-to-back in-flight branches see consistent history). It returns the
// pre-prediction history snapshot; the pipeline carries it to resolution so
// ResolveCond can train the right PHT entry and repair the history on a
// mispredict.
func (p *Predictor) PredictCond(pc uint64) (taken bool, snapshot uint64) {
	p.CondLookups++
	snapshot = p.ghr
	taken = p.pht[p.phtIndex(pc)] >= 2
	if p.ChaosFlipCond != nil && p.ChaosFlipCond(pc) {
		taken = !taken
	}
	p.ghr = p.ghr<<1 | b2u(taken)
	return taken, snapshot
}

// ResolveCond trains the PHT with the resolved outcome using the history
// snapshot captured at prediction time, and repairs the speculative global
// history when the prediction was wrong.
func (p *Predictor) ResolveCond(pc uint64, snapshot uint64, predicted, taken bool) {
	saved := p.ghr
	p.ghr = snapshot
	idx := p.phtIndex(pc)
	p.ghr = saved
	c := p.pht[idx]
	if taken && c < 3 {
		c++
	} else if !taken && c > 0 {
		c--
	}
	p.pht[idx] = c
	if predicted != taken {
		p.CondMispredicts++
		p.ghr = snapshot<<1 | b2u(taken)
	}
}

// TrainCond is the in-order training entry point used by attack PoCs and
// tests that drive the predictor directly (prediction and resolution fused).
func (p *Predictor) TrainCond(pc uint64, taken bool) {
	pred, snap := p.PredictCond(pc)
	p.ResolveCond(pc, snap, pred, taken)
}

// PredictTarget returns the BTB's target for a taken branch at pc, or
// (0,false) on a BTB miss (the front end then falls through and re-steers at
// resolution).
func (p *Predictor) PredictTarget(pc uint64) (uint64, bool) {
	e := &p.btb[(pc>>2)&p.btbMask]
	if e.valid && e.pc == pc {
		return e.target, true
	}
	return 0, false
}

// UpdateTarget installs the resolved target for pc in the BTB. Aliased PCs
// (same index, different pc) overwrite each other — the Spectre-v2 training
// surface.
func (p *Predictor) UpdateTarget(pc, target uint64) {
	p.btb[(pc>>2)&p.btbMask] = btbEntry{valid: true, pc: pc, target: target}
}

// PredictIndirect predicts an indirect branch (BR/BLR) target using the BHB
// hash; falls back to the BTB.
func (p *Predictor) PredictIndirect(pc uint64) (uint64, bool) {
	p.IndLookups++
	if t, ok := p.ittable[p.indIndex(pc)]; ok {
		return t, true
	}
	return p.PredictTarget(pc)
}

func (p *Predictor) indIndex(pc uint64) uint64 {
	folded := p.bhb ^ p.bhb>>17 ^ p.bhb>>31
	return pc ^ folded<<1
}

// UpdateIndirect trains the indirect predictor; predicted reports whether
// the earlier prediction matched.
func (p *Predictor) UpdateIndirect(pc, target uint64, predictedTarget uint64, hadPrediction bool) {
	p.ittable[p.indIndex(pc)] = target
	p.UpdateTarget(pc, target)
	if !hadPrediction || predictedTarget != target {
		p.IndMispredicts++
	}
}

// NoteBranch folds a resolved branch into the BHB, which seasons indirect
// prediction — the Spectre-BHB training surface.
func (p *Predictor) NoteBranch(pc, target uint64) {
	p.bhb = (p.bhb<<2 | (pc>>4^target>>4)&3) & (uint64(1)<<(2*p.bhbLen) - 1)
}

// PushReturn records a call's return address on the RSB.
func (p *Predictor) PushReturn(addr uint64) {
	p.rsbTop = (p.rsbTop + 1) % len(p.rsb)
	p.rsb[p.rsbTop] = addr
	if p.rsbLen < len(p.rsb) {
		p.rsbLen++
	}
}

// PredictReturn pops the RSB prediction for a RET at pc. An empty or
// underflowed RSB yields (0,false). Overfilled stacks wrap — the
// ret2spec/Spectre-RSB surface.
func (p *Predictor) PredictReturn() (uint64, bool) {
	p.RetLookups++
	if p.rsbLen == 0 {
		return 0, false
	}
	t := p.rsb[p.rsbTop]
	p.rsbTop = (p.rsbTop - 1 + len(p.rsb)) % len(p.rsb)
	p.rsbLen--
	return t, true
}

// NoteReturnResolved counts RSB mispredictions.
func (p *Predictor) NoteReturnResolved(predicted uint64, hadPrediction bool, actual uint64) {
	if !hadPrediction || predicted != actual {
		p.RetMispredicts++
	}
}

// PoisonRSB overwrites the top RSB entries with an attacker-chosen target —
// a direct model of RSB stuffing from attacker-controlled code.
func (p *Predictor) PoisonRSB(target uint64, n int) {
	for i := 0; i < n; i++ {
		p.PushReturn(target)
	}
}

// GHR exposes the global history register (tests / diagnostics).
func (p *Predictor) GHR() uint64 { return p.ghr }

// BHB exposes the branch history buffer (tests / diagnostics).
func (p *Predictor) BHB() uint64 { return p.bhb }

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
