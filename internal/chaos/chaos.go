// Package chaos is the deterministic fault-injection layer: it perturbs
// microarchitectural state — cache contents, branch predictions, memory
// timing, fill-buffer pressure, speculative flushes — without ever touching
// architectural semantics, then checks that the simulator still converges to
// the golden interpreter's architectural state and that the Table 1 security
// verdicts are perturbation-invariant.
//
// Every perturbation is drawn from one seeded PRNG, and the simulator is
// single-threaded, so a (seed, kinds, rate) triple replays the exact same
// fault schedule — a failing chaos run is a reproducible test case, not a
// flake.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"specasan/internal/core"
	"specasan/internal/cpu"
)

// Kind is one family of injected faults.
type Kind uint8

// The fault kinds. All perturb microarchitectural state only.
const (
	// Evict flushes a random valid L1D line (via the coherent flush path,
	// so dirty data is written back — the eviction is architecturally
	// invisible).
	Evict Kind = iota
	// Mispredict inverts random conditional-branch predictions. The flip
	// behaves exactly like an organic mispredict: squash, repair, retrain.
	Mispredict
	// LatencyJitter adds random extra cycles to DRAM line fetches
	// (data and tag-fetch traffic both go through this path).
	LatencyJitter
	// LFBStall delays random line-fill-buffer allocations — fill-buffer
	// pressure without changing what the buffer eventually holds.
	LFBStall
	// BranchDelay stretches random branches' issue-to-resolve latency,
	// widening the speculative window without changing the resolved
	// outcome.
	BranchDelay
	// SquashStorm forces full pipeline flushes from the (resolved) ROB
	// head at random cycles — redirect storms.
	SquashStorm

	numKinds
)

var kindNames = [numKinds]string{
	Evict:         "evict",
	Mispredict:    "mispredict",
	LatencyJitter: "latency",
	LFBStall:      "lfb-stall",
	BranchDelay:   "branch-delay",
	SquashStorm:   "squash-storm",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindSetName names a set of kinds as campaign reports print it, joined
// with "+" (e.g. "evict+latency").
func KindSetName(ks []Kind) string {
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = k.String()
	}
	return strings.Join(names, "+")
}

// ParseKind resolves a kind name (as printed by String).
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if s == name {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("chaos: unknown fault kind %q (have %s)",
		s, strings.Join(kindNames[:], ", "))
}

// AllKinds returns every fault kind.
func AllKinds() []Kind {
	ks := make([]Kind, numKinds)
	for i := range ks {
		ks[i] = Kind(i)
	}
	return ks
}

// TimingSafeKinds returns the kinds that can only delay events, never
// change which transient instructions execute. Verdict-invariance runs are
// restricted to these, because the excluded kinds can legitimately defeat an
// attack PoC without indicating a simulator bug: Mispredict unlearns the
// PoC's trained prediction, SquashStorm cuts its speculation window short,
// and Evict turns the gadget's cached inputs into misses that push the
// secret access past the squash (the tag-valid Spectre v2/v5/BHB variants
// race exactly that window).
func TimingSafeKinds() []Kind {
	return []Kind{LatencyJitter, LFBStall, BranchDelay}
}

// Config shapes an injector.
type Config struct {
	Seed  uint64
	Kinds []Kind
	// Rate is the per-opportunity injection probability (0..1). Evictions
	// and squashes get one opportunity per cycle; the other kinds one per
	// affected event (prediction, DRAM fetch, LFB fill, branch issue).
	Rate float64
	// MaxLatency bounds the extra cycles one LatencyJitter/LFBStall/
	// BranchDelay injection adds (uniform in [1, MaxLatency]).
	MaxLatency uint64
	// Machine, when set, is the machine configuration RunWorkload builds
	// (its Cores field is overridden per workload); nil means
	// core.DefaultConfig. Scenario-driven campaigns set this so the stamped
	// scenario hash describes the machine that actually ran.
	Machine *core.Config
}

// DefaultConfig returns a config that exercises every fault kind at a rate
// high enough to fire hundreds of times in a small kernel run.
func DefaultConfig(seed uint64) Config {
	return Config{Seed: seed, Kinds: AllKinds(), Rate: 0.02, MaxLatency: 200}
}

// Injector drives fault injection for one machine run. It is not safe to
// share across machines: its PRNG stream is the run's fault schedule.
type Injector struct {
	cfg    Config
	rng    *rand.Rand
	kinds  [numKinds]bool
	counts [numKinds]uint64
}

// New builds an injector.
func New(cfg Config) (*Injector, error) {
	if cfg.Rate < 0 || cfg.Rate > 1 {
		return nil, fmt.Errorf("chaos: rate %v outside [0,1]", cfg.Rate)
	}
	if len(cfg.Kinds) == 0 {
		return nil, fmt.Errorf("chaos: no fault kinds selected")
	}
	inj := &Injector{cfg: cfg, rng: rand.New(rand.NewSource(int64(cfg.Seed)))}
	for _, k := range cfg.Kinds {
		if int(k) >= int(numKinds) {
			return nil, fmt.Errorf("chaos: bad kind %d", k)
		}
		inj.kinds[k] = true
	}
	if inj.cfg.MaxLatency == 0 {
		inj.cfg.MaxLatency = 200
	}
	return inj, nil
}

// fire rolls the injection dice for kind k and counts a hit.
func (inj *Injector) fire(k Kind) bool {
	if !inj.kinds[k] || inj.rng.Float64() >= inj.cfg.Rate {
		return false
	}
	inj.counts[k]++
	return true
}

// extra draws an injected latency in [1, MaxLatency].
func (inj *Injector) extra() uint64 {
	return 1 + uint64(inj.rng.Int63n(int64(inj.cfg.MaxLatency)))
}

// Injected returns how many faults of kind k fired so far.
func (inj *Injector) Injected(k Kind) uint64 { return inj.counts[k] }

// Total returns how many faults fired across all kinds.
func (inj *Injector) Total() uint64 {
	var n uint64
	for _, c := range inj.counts {
		n += c
	}
	return n
}

// Summary renders the per-kind injection counts, sorted by kind name.
func (inj *Injector) Summary() string {
	var parts []string
	for k := Kind(0); k < numKinds; k++ {
		if inj.kinds[k] {
			parts = append(parts, fmt.Sprintf("%s=%d", k, inj.counts[k]))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// Attach wires the injector into every chaos hook of m. It must be called
// after machine construction and before Run; it chains with (rather than
// replaces) any PerCycle hook already installed.
func (inj *Injector) Attach(m *cpu.Machine) {
	hier := m.Hier
	hier.ChaosMemLatency = func(now uint64) uint64 {
		if inj.fire(LatencyJitter) {
			return inj.extra()
		}
		return 0
	}
	hier.ChaosLFBDelay = func(now uint64) uint64 {
		if inj.fire(LFBStall) {
			return inj.extra()
		}
		return 0
	}
	for _, c := range m.Cores {
		c := c
		c.Predictor().ChaosFlipCond = func(pc uint64) bool {
			return inj.fire(Mispredict)
		}
		c.ChaosBranchDelay = func(pc uint64) uint64 {
			if inj.fire(BranchDelay) {
				return inj.extra()
			}
			return 0
		}
	}
	prev := m.PerCycle
	m.PerCycle = func(cycle uint64) {
		if prev != nil {
			prev(cycle)
		}
		for i := range m.Cores {
			if inj.fire(Evict) {
				if !hier.ChaosEvictLine(i, inj.rng.Intn(1<<16), cycle) {
					inj.counts[Evict]-- // no valid line; nothing injected
				}
			}
			if inj.fire(SquashStorm) {
				if !m.Cores[i].ChaosFlush() {
					inj.counts[SquashStorm]--
				}
			}
		}
	}
}
