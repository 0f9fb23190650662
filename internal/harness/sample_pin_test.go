package harness

import (
	"testing"

	"specasan/internal/core"
	"specasan/internal/workloads"
)

// sampledPin is one sampled cell's exact result: the extrapolated cycles,
// the committed total, the extrapolated restricted count and the detailed
// cycles its windows ran.
type sampledPin struct {
	cycles, committed, restricted, detailed uint64
}

// TestSampledTimingPins pins sampled cells at scale 1, where the touch ring
// wraps before every window after the first, so a window's warm caches come
// from a full ring of functional touches. Two plans per cell:
//   - windows: four 10,000-instruction windows, evenly spaced;
//   - tail: one window whose fast-forward ends 20,000 instructions before
//     the program does.
//
// Sampling changes when detailed cost is paid, never what the windows
// simulate, so any drift here is a behaviour change of the functional walks
// or the cache warming, not an estimate to re-record.
func TestSampledTimingPins(t *testing.T) {
	type key struct {
		bench string
		mit   core.Mitigation
		tail  bool
	}
	pins := map[key]sampledPin{
		{"505.mcf_r", core.Unsafe, false}:         {696237, 462444, 0, 68245},
		{"505.mcf_r", core.Unsafe, true}:          {832202, 462444, 0, 35742},
		{"505.mcf_r", core.SpecASan, false}:       {695355, 470639, 2207, 67118},
		{"505.mcf_r", core.SpecASan, true}:        {848857, 470639, 3600, 35818},
		{"500.perlbench_r", core.Unsafe, false}:   {2100598, 1775040, 0, 55347},
		{"500.perlbench_r", core.Unsafe, true}:    {2343629, 1775040, 0, 26088},
		{"500.perlbench_r", core.SpecASan, false}: {2116741, 1779139, 9181, 55595},
		{"500.perlbench_r", core.SpecASan, true}:  {2390584, 1779139, 15479, 26514},
		{"508.namd_r", core.Unsafe, false}:        {478409, 1259728, 0, 23192},
		{"508.namd_r", core.Unsafe, true}:         {358580, 1259728, 0, 6046},
		{"508.namd_r", core.SpecASan, false}:      {481902, 1262803, 0, 23271},
		{"508.namd_r", core.SpecASan, true}:       {359456, 1262803, 0, 6046},
		{"520.omnetpp_r", core.Unsafe, false}:     {1065597, 624254, 0, 76307},
		{"520.omnetpp_r", core.Unsafe, true}:      {1371609, 624254, 0, 43549},
		{"520.omnetpp_r", core.SpecASan, false}:   {1103948, 632449, 1692, 77838},
		{"520.omnetpp_r", core.SpecASan, true}:    {1408545, 632449, 1802, 44115},
	}
	for k, pin := range pins {
		spec := workloads.ByName(k.bench)
		if spec == nil {
			t.Fatalf("unknown workload %q", k.bench)
		}
		opt := DefaultOptions()
		if k.tail {
			opt.FastForwardInsts = pin.committed - 20_000
		} else {
			opt.SampleWindows = 4
			opt.SampleWindowInsts = 10_000
		}
		r, err := RunBenchmark(spec, k.mit, opt)
		if err != nil {
			t.Errorf("%+v: %v", k, err)
			continue
		}
		got := sampledPin{r.Cycles, r.Committed, r.Restricted, r.Stats.Get("sampled_detailed_cycles")}
		if got != pin {
			t.Errorf("%+v: got %+v, pinned %+v", k, got, pin)
		}
	}
}
