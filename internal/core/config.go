package core

import "math"

// Config holds the simulated CPU configuration. The defaults reproduce
// Table 2 of the paper (an ARM Cortex-A76-class out-of-order core).
type Config struct {
	// Core.
	Cores       int // hardware cores sharing the L2
	FetchWidth  int // instructions fetched per cycle
	IssueWidth  int // micro-ops issued per cycle
	CommitWidth int // micro-ops committed per cycle
	IQEntries   int // issue queue capacity
	ROBEntries  int // reorder buffer capacity
	LQEntries   int // load queue capacity
	SQEntries   int // store queue capacity

	// Functional units.
	ALUs      int // simple integer units, 1-cycle
	MulLat    int // multiplier latency (pipelined)
	DivLat    int // divider latency (not pipelined)
	BranchLat int // issue-to-resolve latency of branches (pipeline depth)
	LoadPorts int // L1D read ports
	StorePort int // L1D write ports

	// Branch prediction.
	PHTBits  int // gshare pattern history table index bits
	BTBSize  int // branch target buffer entries
	RSBDepth int // return stack buffer depth
	BHBLen   int // branch history length for indirect prediction

	// Memory hierarchy (Table 2).
	L1ISizeKB  int
	L1IWays    int
	L1ILatency uint64
	L1DSizeKB  int
	L1DWays    int
	L1DLatency uint64
	L2SizeKB   int
	L2Ways     int
	L2Latency  uint64
	LineBytes  int
	LFBEntries int
	MSHRs      int
	GhostSize  int // GhostMinion shadow buffer entries (cache lines)

	// DRAM.
	DRAMLatency uint64
	DRAMBurst   uint64
	TagBurst    uint64 // extra channel occupancy for a tag-storage fetch

	// Prefetcher (§6 future-work extension): next-line prefetch on demand
	// misses; PrefetchChecked drops prefetches that cross an allocation-tag
	// boundary (the "secure prefetcher" design).
	PrefetcherOn    bool
	PrefetchChecked bool

	// SpecASan mechanism knobs (for the ablation benches).
	BroadcastLatency  uint64 // cycles to mark dependents unsafe in the ROB (§3.4)
	EarlyTagCheck     bool   // propagate tag-check result from the level that has the line (vs re-check at core after full fetch)
	LFBTagging        bool   // extend tag checks to LFB forwarding (MDS defence)
	SelectiveDelay    bool   // delay only mismatching accesses (vs all tagged speculative loads)
	PartialSQMatching bool   // baseline forwards on partial (page-offset) address match — the Fallout-enabling behaviour
	LFBLeakForwarding bool   // baseline forwards stale LFB data to faulting/assisted loads — the RIDL/ZombieLoad behaviour
}

// DefaultConfig returns the Table 2 configuration: 8-way issue/commit,
// 32-entry IQ, 40-entry ROB, 16-entry LQ/SQ, 32 KB 2-way L1s, 1 MB 16-way
// L2, 16-entry LFB.
func DefaultConfig() Config {
	return Config{
		Cores:       1,
		FetchWidth:  8,
		IssueWidth:  8,
		CommitWidth: 8,
		IQEntries:   32,
		ROBEntries:  40,
		LQEntries:   16,
		SQEntries:   16,

		ALUs:      4,
		MulLat:    3,
		DivLat:    12,
		BranchLat: 6,
		LoadPorts: 2,
		StorePort: 1,

		PHTBits:  12,
		BTBSize:  512,
		RSBDepth: 16,
		BHBLen:   8,

		L1ISizeKB:  32,
		L1IWays:    2,
		L1ILatency: 1,
		L1DSizeKB:  32,
		L1DWays:    2,
		L1DLatency: 2,
		L2SizeKB:   1024,
		L2Ways:     16,
		L2Latency:  12,
		LineBytes:  64,
		LFBEntries: 16,
		MSHRs:      8,
		GhostSize:  32,

		DRAMLatency: 100,
		DRAMBurst:   4,
		TagBurst:    1,

		BroadcastLatency:  1,
		EarlyTagCheck:     true,
		LFBTagging:        true,
		SelectiveDelay:    true,
		PartialSQMatching: true,
		LFBLeakForwarding: true,
	}
}

// Validate reports configuration errors that would make the pipeline
// inconsistent.
func (c *Config) Validate() error {
	switch {
	case c.Cores < 1:
		return errf("Cores must be >= 1")
	case c.FetchWidth < 1 || c.IssueWidth < 1 || c.CommitWidth < 1:
		return errf("pipeline widths must be >= 1")
	case c.ROBEntries < 2:
		return errf("ROBEntries must be >= 2")
	case c.IQEntries < 1 || c.LQEntries < 1 || c.SQEntries < 1:
		return errf("queue capacities must be >= 1")
	case c.ALUs < 1 || c.LoadPorts < 1 || c.StorePort < 1:
		return errf("need at least one unit of each kind")
	case c.BHBLen < 1:
		return errf("BHBLen must be >= 1")
	case c.LFBEntries < 1:
		return errf("LFBEntries must be >= 1")
	case c.MSHRs < 1:
		return errf("MSHRs must be >= 1")
	case c.GhostSize < 1:
		return errf("GhostSize must be >= 1")
	case c.L1ILatency < 1 || c.L1DLatency < 1 || c.L2Latency < 1:
		return errf("cache latencies must be >= 1 cycle")
	case c.DRAMLatency < 1:
		return errf("DRAMLatency must be >= 1 cycle")
	case c.LineBytes != 64:
		return errf("LineBytes must be 64 (4 tag granules per line)")
	case !wholeSets(c.L1DSizeKB, c.L1DWays, c.LineBytes):
		return errf("L1D geometry does not divide evenly")
	case !wholeSets(c.L2SizeKB, c.L2Ways, c.LineBytes):
		return errf("L2 geometry does not divide evenly")
	}
	return nil
}

// wholeSets reports whether a cache of sizeKB KiB splits into at least one
// whole set of ways lines. It never divides by zero or overflows: a
// scenario document can set any of the three.
func wholeSets(sizeKB, ways, lineBytes int) bool {
	if sizeKB < 1 || ways < 1 || sizeKB > math.MaxInt/1024 {
		return false
	}
	size := sizeKB * 1024
	return ways <= size/lineBytes && size%(ways*lineBytes) == 0
}

type configError string

func (e configError) Error() string { return "config: " + string(e) }

func errf(s string) error { return configError(s) }
