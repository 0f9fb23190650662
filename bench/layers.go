package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"specasan/internal/asm"
	"specasan/internal/attacks"
	"specasan/internal/branch"
	"specasan/internal/cache"
	"specasan/internal/core"
	"specasan/internal/cpu"
	"specasan/internal/fuzzer"
	"specasan/internal/golden"
	"specasan/internal/harness"
	"specasan/internal/isa"
	"specasan/internal/mem"
	"specasan/internal/mte"
	"specasan/internal/scenario"
	"specasan/internal/store"
	"specasan/internal/workloads"
)

// Layer replay microbenches. Each drives one layer's public API with a
// stream recorded from a registry kernel, so the per-operation cost is
// measured on the access and branch mix the simulator really sees. Each
// timing is the median of layerReps repetitions.
const layerReps = 5

// touch is one memory or instruction-fetch touch of a golden walk.
type touch struct {
	addr   uint64 // stripped address
	ptr    uint64 // the address keyed with its allocation tag
	write  bool
	ifetch bool
}

// recordTouches walks tagged 505.mcf_r on the golden interpreter with a
// touch ring large enough to keep the whole walk, and returns the touches
// with the memory image the walk left behind.
func recordTouches() ([]touch, *mem.Image, error) {
	prog, err := workloads.ByName("505.mcf_r").Build(true, 1)
	if err != nil {
		return nil, nil, err
	}
	ip := golden.New(prog)
	ip.MTEOn = true
	ip.TagSeed = cpu.TagSeedBase
	ip.Touch = golden.NewTouchRing(1 << 20)
	if res := ip.Run(50_000_000); res.Reason != golden.StopExit {
		return nil, nil, fmt.Errorf("505.mcf_r walk stopped with %v", res.Reason)
	}
	var ts []touch
	ip.Touch.Each(func(addr uint64, write, ifetch bool) {
		ts = append(ts, touch{addr: addr, ptr: mte.WithKey(addr, ip.Mem.Tags.Lock(addr)), write: write, ifetch: ifetch})
	})
	return ts, ip.Mem, nil
}

// hierConfig is the hierarchy a SpecASan machine of the default
// configuration builds.
func hierConfig() cache.HierConfig {
	cfg := core.DefaultConfig()
	return cache.HierConfig{
		Cores:     1,
		L1ISizeKB: cfg.L1ISizeKB, L1IWays: cfg.L1IWays, L1ILatency: cfg.L1ILatency,
		L1DSizeKB: cfg.L1DSizeKB, L1DWays: cfg.L1DWays, L1DLatency: cfg.L1DLatency,
		L2SizeKB: cfg.L2SizeKB, L2Ways: cfg.L2Ways, L2Latency: cfg.L2Latency,
		LineBytes: cfg.LineBytes, LFBEntries: cfg.LFBEntries, MSHRs: cfg.MSHRs,
		GhostSize: cfg.GhostSize, LoadPorts: cfg.LoadPorts,
		DRAM:       mem.DRAMConfig{Latency: cfg.DRAMLatency, BurstCycles: cfg.DRAMBurst, TagBurst: cfg.TagBurst},
		MTEOn:      true,
		LFBTagging: cfg.LFBTagging,
	}
}

// timeEach returns the median over layerReps of fn's duration divided by
// n operations, in nanoseconds. prep, when set, runs untimed before each
// repetition.
func timeEach(n int, prep func(), fn func()) float64 {
	var xs []float64
	for r := 0; r < layerReps; r++ {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		fn()
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(max(n, 1)))
	}
	return median(xs)
}

// measureLayers runs every microbench. tmp holds the store microbench's
// scratch directory.
func measureLayers(tmp string, serveDocs [][]byte) (map[string]float64, error) {
	out := map[string]float64{}

	sc, err := harness.MeasureSingleCore(200_000, harness.DefaultWarmupCycles)
	if err != nil {
		return nil, err
	}
	out["cpu.ns_per_cycle"] = sc.HostNsPerCycle

	touches, img, err := recordTouches()
	if err != nil {
		return nil, err
	}
	var data, fetch, loads, stores []touch
	for _, t := range touches {
		switch {
		case t.ifetch:
			fetch = append(fetch, t)
		case t.write:
			data = append(data, t)
			stores = append(stores, t)
		default:
			data = append(data, t)
			loads = append(loads, t)
		}
	}

	// Cache hierarchy: a fresh (cold) hierarchy per repetition, each access
	// issued when the previous one completed.
	h, err := cache.NewHierarchy(hierConfig(), img)
	if err != nil {
		return nil, err
	}
	newHier := func() { h, _ = cache.NewHierarchy(hierConfig(), img) } // the same config built above
	var l1Hits int
	out["cache.access_ns"] = timeEach(len(data), newHier, func() {
		now := uint64(0)
		l1Hits = 0
		for _, t := range data {
			res := h.Access(cache.AccessReq{Ptr: t.ptr, Size: 8, Write: t.write, Now: now})
			if res.ServedBy == "l1" {
				l1Hits++
			}
			now = max(now+1, res.ReadyAt)
		}
	})
	out["cache.l1d_hit_ratio"] = float64(l1Hits) / float64(max(len(data), 1))
	out["cache.fetch_ns"] = timeEach(len(fetch), newHier, func() {
		now := uint64(0)
		for _, t := range fetch {
			now = max(now+1, h.FetchInst(0, t.addr, now))
		}
	})

	// Memory image and tag storage.
	var sink uint64
	out["mem.read_ns"] = timeEach(len(loads), nil, func() {
		for _, t := range loads {
			sink += img.ReadU64(t.addr)
		}
	})
	scratch := img.Clone()
	out["mem.write_ns"] = timeEach(len(stores), nil, func() {
		for _, t := range stores {
			scratch.WriteU64(t.addr, sink)
		}
	})
	var ok int
	out["mte.check_ns"] = timeEach(len(data), nil, func() {
		for _, t := range data {
			if img.Tags.CheckAccess(t.ptr, 8) {
				ok++
			}
		}
	})
	if ok == 0 {
		return nil, fmt.Errorf("mte replay: no access passed its tag check")
	}
	snap, err := goldenSnapshot("505.mcf_r", 20)
	if err != nil {
		return nil, err
	}
	out["mem.clone_ms"] = timeEach(1, nil, func() { snap.Clone() }) / 1e6

	// Branch predictor over recorded conditional-branch outcomes.
	outcomes, err := recordBranches()
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	bcfg := branch.Config{PHTBits: cfg.PHTBits, BTBSize: cfg.BTBSize, RSBDepth: cfg.RSBDepth, BHBLen: cfg.BHBLen}
	pred, err := branch.New(bcfg)
	if err != nil {
		return nil, err
	}
	var miss int
	out["branch.cond_ns"] = timeEach(len(outcomes), func() { pred, _ = branch.New(bcfg) }, func() {
		miss = 0
		for _, o := range outcomes {
			taken, hist := pred.PredictCond(o.pc)
			pred.ResolveCond(o.pc, hist, taken, o.taken)
			if taken != o.taken {
				miss++
			}
		}
	})
	out["branch.mispredict_ratio"] = float64(miss) / float64(max(len(outcomes), 1))

	// TSH: every data touch is a memory instruction; a ROB-sized in-order
	// window retires the oldest as each new one dispatches.
	rob := uint64(cfg.ROBEntries)
	out["core.tsh_ns"] = timeEach(len(data), nil, func() {
		t := core.NewTSH(nopROB{})
		for i := range data {
			seq := uint64(i) + 1
			t.Allocate(seq)
			t.OnIssue(seq)
			t.OnResult(seq, true)
			if seq > rob {
				t.Release(seq - rob)
			}
		}
	})

	if out["golden.ns_per_inst"], err = goldenNsPerInst(); err != nil {
		return nil, err
	}
	if out["asm.us_per_kinst"], err = asmUsPerKinst(); err != nil {
		return nil, err
	}
	if out["attacks.table1_ms"], err = table1Ms(); err != nil {
		return nil, err
	}
	out["fuzzer.evaluate_ms_p50"] = evaluateMsP50()
	if out["store.get_us"], out["store.put_us"], err = storeUs(tmp); err != nil {
		return nil, err
	}
	if out["scenario.parse_hash_us"], err = parseHashUs(serveDocs); err != nil {
		return nil, err
	}
	return out, nil
}

type nopROB struct{}

func (nopROB) SignalSSA(uint64, bool) {}

// goldenSnapshot walks a tagged kernel at a scale to its end and returns
// its memory image, the state a sampled window is transplanted from.
func goldenSnapshot(name string, scale float64) (*mem.Image, error) {
	prog, err := workloads.ByName(name).Build(true, scale)
	if err != nil {
		return nil, err
	}
	ip := golden.New(prog)
	ip.MTEOn = true
	ip.TagSeed = cpu.TagSeedBase
	if res := ip.Run(1 << 32); res.Reason != golden.StopExit {
		return nil, fmt.Errorf("%s walk stopped with %v", name, res.Reason)
	}
	return ip.Mem, nil
}

type branchOutcome struct {
	pc    uint64
	taken bool
}

// recordBranches single-steps 541.leela_r on the golden interpreter and
// keeps every conditional branch's outcome.
func recordBranches() ([]branchOutcome, error) {
	prog, err := workloads.ByName("541.leela_r").Build(false, 0.5)
	if err != nil {
		return nil, err
	}
	ip := golden.New(prog)
	var out []branchOutcome
	for {
		pc := ip.PC()
		in := prog.InstAt(pc)
		res := ip.Run(1)
		if res.Reason == golden.StopExit {
			return out, nil
		}
		if res.Reason != golden.StopMaxInsts {
			return nil, fmt.Errorf("541.leela_r step at %#x stopped with %v", pc, res.Reason)
		}
		if in != nil && in.IsConditional() {
			out = append(out, branchOutcome{pc: pc, taken: ip.PC() != pc+isa.InstBytes})
		}
	}
}

// goldenNsPerInst times cold-decode-cache walks of 508.namd_r, the way the
// sampled tier walks each cell.
func goldenNsPerInst() (float64, error) {
	prog, err := workloads.ByName("508.namd_r").Build(false, 1)
	if err != nil {
		return 0, err
	}
	var insts uint64
	perInst := timeEach(1, nil, func() {
		insts = 0
		for insts < 5_000_000 {
			insts += golden.New(prog).Run(1 << 32).Insts
		}
	})
	return perInst / float64(insts), nil
}

// asmUsPerKinst assembles every SPEC kernel's generated source.
func asmUsPerKinst() (float64, error) {
	var srcs []string
	for _, s := range workloads.SPEC() {
		srcs = append(srcs, workloads.Generate(s.Params, s.Threads, true))
	}
	var kinst float64
	var err error
	perRun := timeEach(1, nil, func() {
		kinst = 0
		for _, src := range srcs {
			var p *asm.Program
			if p, err = asm.Assemble(src); err != nil {
				return
			}
			kinst += float64(p.NumInsts()) / 1000
		}
	})
	return perRun / 1e3 / kinst, err
}

// table1Ms evaluates the Table 1 matrix once, serially.
func table1Ms() (float64, error) {
	t0 := time.Now()
	for _, a := range attacks.All() {
		for _, m := range attacks.TableMitigations() {
			if _, _, err := a.Evaluate(m); err != nil {
				return 0, err
			}
		}
	}
	return ms(time.Since(t0)), nil
}

// evaluateMsP50 evaluates the first 32 seed-1 fuzz candidates against every
// registered defence.
func evaluateMsP50() float64 {
	mits := core.RegisteredMitigations()
	var xs []float64
	for i := 0; i < 32; i++ {
		c := fuzzer.Generate(1, i)
		t0 := time.Now()
		fuzzer.EvaluateCandidate(c, mits)
		xs = append(xs, ms(time.Since(t0)))
	}
	return percentile(xs, 50)
}

// storeUs puts and gets a cell-result-sized entry in a scratch store.
func storeUs(tmp string) (getUs, putUs float64, err error) {
	r, err := harness.RunBenchmark(workloads.ByName("505.mcf_r"), core.SpecASan,
		harness.Options{Scale: 0.05, MaxCycles: 200_000_000})
	if err != nil {
		return 0, 0, err
	}
	payload, err := json.Marshal(harness.CellResultOf(r))
	if err != nil {
		return 0, 0, err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return 0, 0, err
	}
	dir, err := os.MkdirTemp(tmp, "store-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return 0, 0, err
	}
	const n = 100
	key := func(i int) store.Key { return store.Key{Space: "bench", Name: fmt.Sprintf("cell-%d", i)} }
	rep := 0
	putUs = timeEach(n, nil, func() {
		for i := 0; i < n && err == nil; i++ {
			err = st.Put(key(rep*n+i), payload)
		}
		rep++
	}) / 1e3
	if err != nil {
		return 0, 0, err
	}
	getUs = timeEach(n, nil, func() {
		for i := 0; i < n && err == nil; i++ {
			var ok bool
			if _, ok, err = st.Get(key(i)); err == nil && !ok {
				err = fmt.Errorf("store entry %s missing", key(i))
			}
		}
	}) / 1e3
	return getUs, putUs, err
}

// parseHashUs parses, validates and hashes the serve workload's scenario
// documents, as the service does for every request.
func parseHashUs(docs [][]byte) (float64, error) {
	var err error
	perDoc := timeEach(len(docs), nil, func() {
		for _, d := range docs {
			var s *scenario.Scenario
			if s, err = scenario.Parse(d, "doc", "doc"); err != nil {
				return
			}
			if err = s.Validate(); err != nil {
				return
			}
			s.Hash()
		}
	})
	return perDoc / 1e3, err
}
