package cache

import (
	"sort"
	"strings"
	"testing"

	"specasan/internal/mem"
	"specasan/internal/mte"
)

func newHier(mteOn, lfbTags bool) (*Hierarchy, *mem.Image) {
	img := mem.NewImage()
	h, err := NewHierarchy(HierConfig{
		Cores:     1,
		L1ISizeKB: 32, L1IWays: 2, L1ILatency: 1,
		L1DSizeKB: 32, L1DWays: 2, L1DLatency: 2,
		L2SizeKB: 1024, L2Ways: 16, L2Latency: 12,
		LineBytes: 64, LFBEntries: 16, MSHRs: 8, GhostSize: 32, LoadPorts: 2,
		DRAM:  mem.DRAMConfig{Latency: 100, BurstCycles: 4, TagBurst: 1},
		MTEOn: mteOn, LFBTagging: lfbTags,
	}, img)
	if err != nil {
		panic(err)
	}
	return h, img
}

func TestMissThenHitLatency(t *testing.T) {
	h, _ := newHier(false, false)
	addr := uint64(0x10000)
	miss := h.Access(AccessReq{Core: 0, Ptr: addr, Size: 8, Now: 10})
	if miss.ReadyAt < 10+100 {
		t.Fatalf("cold miss served at %d, want >= DRAM latency", miss.ReadyAt)
	}
	if miss.ServedBy != "mem" {
		t.Fatalf("served by %s", miss.ServedBy)
	}
	// A later access hits (after the fill completes).
	hit := h.Access(AccessReq{Core: 0, Ptr: addr, Size: 8, Now: miss.ReadyAt + 1})
	if hit.ServedBy != "l1" || hit.ReadyAt > miss.ReadyAt+4 {
		t.Fatalf("expected fast L1 hit, got %s at %d", hit.ServedBy, hit.ReadyAt)
	}
}

func TestHitUnderFillViaLFB(t *testing.T) {
	h, _ := newHier(false, false)
	addr := uint64(0x20000)
	miss := h.Access(AccessReq{Core: 0, Ptr: addr, Size: 8, Now: 0})
	// A second access to the same line while in flight waits for the fill,
	// not for a second DRAM trip.
	second := h.Access(AccessReq{Core: 0, Ptr: addr + 8, Size: 8, Now: 2})
	if second.ReadyAt > miss.ReadyAt {
		t.Fatalf("hit-under-fill %d should not exceed the fill time %d",
			second.ReadyAt, miss.ReadyAt)
	}
	if h.Ctrl.Fetches != 1 {
		t.Fatalf("expected one DRAM fetch, got %d", h.Ctrl.Fetches)
	}
}

func TestL2HitFasterThanMem(t *testing.T) {
	h, _ := newHier(false, false)
	// Fill enough distinct lines to evict one from the 2-way L1 set but
	// keep it in the 16-way L2.
	base := uint64(0x30000)
	setStride := uint64(32 * 1024 / 2) // same L1 set every stride
	for i := uint64(0); i < 4; i++ {
		h.Access(AccessReq{Core: 0, Ptr: base + i*setStride, Size: 8, Now: i * 200})
	}
	// The first line is out of L1 now but in L2.
	r := h.Access(AccessReq{Core: 0, Ptr: base, Size: 8, Now: 2000})
	if r.ServedBy != "l2" {
		t.Fatalf("served by %s, want l2", r.ServedBy)
	}
	if r.ReadyAt > 2000+20 {
		t.Fatalf("L2 hit too slow: %d", r.ReadyAt)
	}
}

func TestTagCheckOutcomes(t *testing.T) {
	h, img := newHier(true, true)
	addr := uint64(0x40000)
	img.Tags.SetRange(addr, 64, 5)
	ok := h.Access(AccessReq{Core: 0, Ptr: mte.WithKey(addr, 5), Size: 8, Now: 0})
	if !ok.TagOK {
		t.Fatal("matching key must pass")
	}
	bad := h.Access(AccessReq{Core: 0, Ptr: mte.WithKey(addr, 6), Size: 8, Now: 300})
	if bad.TagOK {
		t.Fatal("mismatching key must fail")
	}
	if bad.Blocked {
		t.Fatal("non-speculative access is not blocked, it faults at commit")
	}
}

func TestUnsafeSpeculativeMissLeavesNoTrace(t *testing.T) {
	h, img := newHier(true, true)
	addr := uint64(0x50000)
	img.Tags.SetRange(addr, 64, 5)
	r := h.Access(AccessReq{Core: 0, Ptr: mte.WithKey(addr, 7), Size: 8, Now: 0,
		Spec: true, BlockUnsafe: true})
	if !r.Blocked || r.TagOK {
		t.Fatal("unsafe speculative access must be blocked")
	}
	if h.InAnyCache(addr, r.ReadyAt+200) {
		t.Fatal("blocked fill must leave no trace in any cache (G3)")
	}
	if h.BlockedFills != 1 {
		t.Fatalf("BlockedFills = %d", h.BlockedFills)
	}
}

func TestGhostBufferLifecycle(t *testing.T) {
	h, _ := newHier(false, false)
	addr := uint64(0x60000)
	r := h.Access(AccessReq{Core: 0, Ptr: addr, Size: 8, Now: 0, Spec: true, Ghost: true})
	if h.InAnyCache(addr, r.ReadyAt+10) {
		t.Fatal("ghost fill must not install in the caches")
	}
	// Promote at commit: line moves to L1.
	h.PromoteGhost(0, addr, r.ReadyAt+10)
	if !h.InL1D(0, addr, r.ReadyAt+20) {
		t.Fatal("promoted ghost line must be in L1")
	}
	// Squash path: drop leaves nothing.
	addr2 := uint64(0x70000)
	r2 := h.Access(AccessReq{Core: 0, Ptr: addr2, Size: 8, Now: 500, Spec: true, Ghost: true})
	h.DropGhost(0, addr2)
	h.PromoteGhost(0, addr2, r2.ReadyAt+10) // refetch path, background
	if h.Ghost[0].Promotes != 1 {
		t.Fatalf("Promotes = %d, want 1", h.Ghost[0].Promotes)
	}
	if h.Ghost[0].Refetch != 1 {
		t.Fatalf("Refetch = %d, want 1", h.Ghost[0].Refetch)
	}
}

func TestFlushLineRemovesEverywhere(t *testing.T) {
	h, _ := newHier(false, false)
	addr := uint64(0x80000)
	r := h.Access(AccessReq{Core: 0, Ptr: addr, Size: 8, Now: 0})
	now := r.ReadyAt + 10
	if !h.InAnyCache(addr, now) {
		t.Fatal("line should be cached")
	}
	h.FlushLine(addr, now)
	if h.InAnyCache(addr, now+20) {
		t.Fatal("flushed line must be gone from L1 and L2")
	}
	// And the next access must go to memory again.
	r2 := h.Access(AccessReq{Core: 0, Ptr: addr, Size: 8, Now: now + 30})
	if r2.ServedBy != "mem" {
		t.Fatalf("after flush served by %s, want mem", r2.ServedBy)
	}
}

func TestCoherenceInvalidateOnRemoteWrite(t *testing.T) {
	img := mem.NewImage()
	h, err := NewHierarchy(HierConfig{
		Cores:     2,
		L1ISizeKB: 32, L1IWays: 2, L1ILatency: 1,
		L1DSizeKB: 32, L1DWays: 2, L1DLatency: 2,
		L2SizeKB: 1024, L2Ways: 16, L2Latency: 12,
		LineBytes: 64, LFBEntries: 16, MSHRs: 8, GhostSize: 32, LoadPorts: 2,
		DRAM: mem.DRAMConfig{Latency: 100, BurstCycles: 4, TagBurst: 1},
	}, img)
	if err != nil {
		t.Fatal(err)
	}
	addr := uint64(0x90000)
	// Both cores read the line (shared).
	r0 := h.Access(AccessReq{Core: 0, Ptr: addr, Size: 8, Now: 0})
	h.Access(AccessReq{Core: 1, Ptr: addr, Size: 8, Now: r0.ReadyAt + 5})
	now := r0.ReadyAt + 300
	if !h.InL1D(0, addr, now) || !h.InL1D(1, addr, now) {
		t.Fatal("both cores should hold the line")
	}
	// Core 1 writes: core 0's copy must be invalidated.
	h.Access(AccessReq{Core: 1, Ptr: addr, Size: 8, Write: true, Now: now})
	if h.InL1D(0, addr, now+50) {
		t.Fatal("remote copy must be invalidated on write")
	}
	if h.CoherenceInv == 0 {
		t.Fatal("invalidation not counted")
	}
}

func TestLFBStaleForwardGating(t *testing.T) {
	// Baseline: the faulting-sample path returns the newest in-flight
	// line's bytes. With LFB tagging, a mismatching key is refused.
	for _, tagging := range []bool{false, true} {
		h, img := newHier(tagging, tagging)
		victim := uint64(0xa0000)
		img.Write(victim, []byte("secretss"))
		img.Tags.SetRange(victim, 64, 9)
		// Victim fill in flight (matching key so it is not itself blocked).
		h.Access(AccessReq{Core: 0, Ptr: mte.WithKey(victim, 9), Size: 8, Now: 0, Spec: true})
		// Attacker samples with a foreign (untagged) pointer.
		r := h.Access(AccessReq{Core: 0, Ptr: 0xf00000, Size: 8, Now: 3,
			Spec: true, FaultingSample: true})
		if tagging {
			if r.ServedBy == "lfb-stale" {
				t.Fatal("tagged LFB must refuse the stale forward")
			}
		} else {
			if r.ServedBy != "lfb-stale" || string(r.StaleData[:8]) != "secretss" {
				t.Fatalf("baseline must forward stale bytes, got %s", r.ServedBy)
			}
		}
	}
}

func TestMSHROccupancyBoundsParallelMisses(t *testing.T) {
	h, _ := newHier(false, false)
	// Launch more misses than MSHRs: later ones must be pushed out in time.
	var last uint64
	for i := 0; i < 12; i++ {
		r := h.Access(AccessReq{Core: 0, Ptr: uint64(0xb0000 + i*4096), Size: 8, Now: 0})
		if r.ReadyAt < last {
			// not strictly monotonic per ordering of sets, but the final
			// one must be delayed beyond a single DRAM trip
		}
		last = r.ReadyAt
	}
	if last < 100+20 {
		t.Fatalf("12 parallel misses with 8 MSHRs finished too fast: %d", last)
	}
	if h.L1D[0].MSHRStalls == 0 {
		t.Fatal("expected MSHR structural stalls")
	}
}

func TestInstructionFetchPath(t *testing.T) {
	h, _ := newHier(false, false)
	pc := uint64(0x10000)
	first := h.FetchInst(0, pc, 0)
	if first < 100 {
		t.Fatal("cold I-fetch must miss to memory")
	}
	second := h.FetchInst(0, pc+4, first+1)
	if second > first+3 {
		t.Fatalf("same-line I-fetch should hit, got %d", second)
	}
}

func TestPrefetcherFillsNextLine(t *testing.T) {
	img := mem.NewImage()
	h, err := NewHierarchy(HierConfig{
		Cores:     1,
		L1ISizeKB: 32, L1IWays: 2, L1ILatency: 1,
		L1DSizeKB: 32, L1DWays: 2, L1DLatency: 2,
		L2SizeKB: 1024, L2Ways: 16, L2Latency: 12,
		LineBytes: 64, LFBEntries: 16, MSHRs: 8, GhostSize: 32, LoadPorts: 2,
		DRAM:         mem.DRAMConfig{Latency: 100, BurstCycles: 4, TagBurst: 1},
		PrefetcherOn: true,
	}, img)
	if err != nil {
		t.Fatal(err)
	}
	addr := uint64(0x10000)
	r := h.Access(AccessReq{Core: 0, Ptr: addr, Size: 8, Now: 0})
	if h.Prefetches != 1 {
		t.Fatalf("prefetches = %d", h.Prefetches)
	}
	// The next line is present without another demand miss.
	r2 := h.Access(AccessReq{Core: 0, Ptr: addr + 64, Size: 8, Now: r.ReadyAt + 20})
	if r2.ServedBy != "l1" {
		t.Fatalf("prefetched line served by %s", r2.ServedBy)
	}
}

func TestCheckedPrefetcherStopsAtTagBoundary(t *testing.T) {
	img := mem.NewImage()
	h, err := NewHierarchy(HierConfig{
		Cores:     1,
		L1ISizeKB: 32, L1IWays: 2, L1ILatency: 1,
		L1DSizeKB: 32, L1DWays: 2, L1DLatency: 2,
		L2SizeKB: 1024, L2Ways: 16, L2Latency: 12,
		LineBytes: 64, LFBEntries: 16, MSHRs: 8, GhostSize: 32, LoadPorts: 2,
		DRAM:  mem.DRAMConfig{Latency: 100, BurstCycles: 4, TagBurst: 1},
		MTEOn: true, LFBTagging: true,
		PrefetcherOn: true, PrefetchChecked: true,
	}, img)
	if err != nil {
		t.Fatal(err)
	}
	// Attacker's line tagged A; the adjacent secret line tagged B.
	attacker := uint64(0x20000)
	img.Tags.SetRange(attacker, 64, 0xa)
	img.Tags.SetRange(attacker+64, 64, 0xb)
	r := h.Access(AccessReq{Core: 0, Ptr: mte.WithKey(attacker, 0xa), Size: 8, Now: 0})
	if h.PrefetchesBlocked != 1 || h.Prefetches != 0 {
		t.Fatalf("blocked=%d issued=%d; the cross-tag prefetch must be dropped",
			h.PrefetchesBlocked, h.Prefetches)
	}
	if h.InAnyCache(attacker+64, r.ReadyAt+50) {
		t.Fatal("the differently-tagged neighbour must not be prefetched")
	}
	// Same-tag neighbours still prefetch.
	img.Tags.SetRange(attacker+128, 128, 0xc)
	h.Access(AccessReq{Core: 0, Ptr: mte.WithKey(attacker+128, 0xc), Size: 8, Now: 400})
	if h.Prefetches != 1 {
		t.Fatalf("same-tag prefetch must proceed, got %d", h.Prefetches)
	}
}

func TestLevelSmallerThanAChunk(t *testing.T) {
	// 1 KB, 2-way, 64 B lines: 8 sets, fewer than one chunk holds.
	l, err := NewLevel("tiny", 1024, 2, 64, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sets := l.setMask + 1; sets != 8 || len(l.chunks) != 1 {
		t.Fatalf("sets = %d, chunks = %d; want 8 sets in 1 chunk", sets, len(l.chunks))
	}
	// Three lines in set 3 of a 2-way level: the third evicts the LRU one.
	stride := uint64(8 * 64)
	a, b, c := uint64(3*64), 3*64+stride, 3*64+2*stride
	l.install(a, 1, 1, shared)
	l.install(b, 2, 2, shared)
	if l.find(a) == nil || l.find(b) == nil {
		t.Fatal("both lines must fit the 2-way set")
	}
	l.install(c, 3, 3, shared)
	if l.find(a) != nil || l.find(b) == nil || l.find(c) == nil || l.Evictions != 1 {
		t.Fatalf("LRU eviction wrong: a=%v b=%v c=%v evictions=%d",
			l.find(a) != nil, l.find(b) != nil, l.find(c) != nil, l.Evictions)
	}
	// Another set of the same (only) chunk.
	if !l.Contains(c, 3) || l.Contains(7*64, 100) {
		t.Fatal("Contains disagrees with the fills")
	}
}

func TestNewLevelRejectsNonPowerOfTwoLineSize(t *testing.T) {
	// 3 KB, 2-way, 48 B lines would give 32 sets, but set selection shifts
	// by log2(line size), so the line size itself must be a power of two.
	if _, err := NewLevel("odd", 3072, 2, 48, 1, 1, 1); err == nil || !strings.Contains(err.Error(), "line size 48") {
		t.Fatalf("err = %v, want a line-size error", err)
	}
	if _, err := NewLevel("even", 4096, 2, 64, 1, 1, 1); err != nil {
		t.Fatalf("power-of-two line size rejected: %v", err)
	}
}

// setMajorLines returns l's valid line addresses in set-major order (set,
// then way), walking sets by index rather than by chunk.
func setMajorLines(l *Level) []uint64 {
	var out []uint64
	for s := uint64(0); s <= l.setMask; s++ {
		set := l.set(s<<l.lineShift, false)
		for w := range set {
			if set[w].valid {
				out = append(out, set[w].addr)
			}
		}
	}
	return out
}

func TestChaosEvictLineSetMajorAcrossChunks(t *testing.T) {
	// Lines in sets 0, 5, 17, 40, 200 and 255 of the 256-set L1D span five
	// 16-set chunks; sets 17 and 200 hold both ways.
	setStride := uint64(256 * 64)
	var addrs []uint64
	for _, s := range []uint64{200, 17, 255, 0, 40, 5} {
		addrs = append(addrs, 0x100000+s*64)
	}
	addrs = append(addrs, 0x100000+setStride+17*64, 0x100000+setStride+200*64)
	fill := func() (*Hierarchy, uint64) {
		h, _ := newHier(false, false)
		var now uint64
		for _, a := range addrs {
			now = h.Access(AccessReq{Core: 0, Ptr: a, Size: 8, Now: now}).ReadyAt + 1
		}
		return h, now + 1000
	}
	h, _ := fill()
	ref := setMajorLines(h.L1D[0])
	if len(ref) != len(addrs) {
		t.Fatalf("%d lines cached, want %d", len(ref), len(addrs))
	}
	allocated := 0
	for _, c := range h.L1D[0].chunks {
		if c != nil {
			allocated++
		}
	}
	if allocated != 5 {
		t.Fatalf("%d L1D chunks allocated, want the 5 the fills touched", allocated)
	}
	for idx := 0; idx < 2*len(ref); idx++ {
		h, now := fill()
		if !h.ChaosEvictLine(0, idx, now) {
			t.Fatalf("idx %d: nothing evicted", idx)
		}
		want := ref[idx%len(ref)]
		for _, a := range ref {
			if got := h.InL1D(0, a, now); got == (a == want) {
				t.Fatalf("idx %d: line %#x present=%v; the set-major walk evicts %#x", idx, a, got, want)
			}
		}
	}
	empty, _ := newHier(false, false)
	if empty.ChaosEvictLine(0, 3, 0) {
		t.Fatal("an empty L1D has nothing to evict")
	}
}

// lruModel is a reference set-associative LRU cache: per set, each resident
// line address with the sequence number of its last touch.
type lruModel struct {
	sets, ways uint64
	res        map[uint64]map[uint64]uint64
}

func (m *lruModel) touch(a, seq uint64) {
	s := (a / 64) % m.sets
	if m.res[s] == nil {
		m.res[s] = map[uint64]uint64{}
	}
	set := m.res[s]
	if _, ok := set[a]; !ok && uint64(len(set)) == m.ways {
		oldest := a
		for la, q := range set {
			if oldest == a || q < set[oldest] {
				oldest = la
			}
		}
		delete(set, oldest)
	}
	set[a] = seq
}

// ranked returns each set's lines, least recent first.
func (m *lruModel) ranked() [][]uint64 {
	var out [][]uint64
	for _, set := range m.res {
		lines := make([]uint64, 0, len(set))
		for a := range set {
			lines = append(lines, a)
		}
		sort.Slice(lines, func(i, j int) bool { return set[lines[i]] < set[lines[j]] })
		out = append(out, lines)
	}
	return out
}

func TestFinishWarmRanksLRUPerSet(t *testing.T) {
	// Replayed touches over sets in several chunks of the 2-way L1D and the
	// 16-way L2, the first and last chunks included, revisiting lines out of
	// order and overflowing L1D set 3.
	// After finishWarm each filled set ranks its lines 0..n-1 by last touch,
	// as a reference LRU model says, and a full set's victim is rank 0.
	h, _ := newHier(false, false)
	l1d := &lruModel{sets: 256, ways: 2, res: map[uint64]map[uint64]uint64{}}
	l2 := &lruModel{sets: 1024, ways: 16, res: map[uint64]map[uint64]uint64{}}
	setStride := uint64(1024 * 64) // same set in both levels
	type touch struct{ set, tag uint64 }
	touches := []touch{{3, 0}, {3, 1}, {700, 0}, {3, 2}, {18, 0}, {700, 1}, {1023, 0}, {3, 1}, {18, 1}, {1023, 1}, {3, 0}, {700, 0}, {18, 2}}
	for i, tc := range touches {
		a := 0x400000 + tc.set*64 + tc.tag*setStride
		seq := uint64(10000 + 100*i)
		h.warmTouch(0, a, false, false, seq)
		l1d.touch(a, seq)
		l2.touch(a, seq)
	}
	h.finishWarm()
	for _, lv := range []struct {
		l     *Level
		model *lruModel
	}{{h.L1D[0], l1d}, {h.L2, l2}} {
		n := 0
		for _, lines := range lv.model.ranked() {
			n += len(lines)
			for rank, a := range lines {
				if ln := lv.l.find(a); ln == nil || ln.lastUse != uint64(rank) {
					t.Fatalf("%s: line %#x = %+v, want rank %d", lv.l.name, a, ln, rank)
				}
			}
			if uint64(len(lines)) == lv.model.ways {
				if v := lv.l.victim(lines[0]); v.addr != lines[0] {
					t.Fatalf("%s: victim %#x, want the rank-0 line %#x", lv.l.name, v.addr, lines[0])
				}
			}
		}
		if got := len(setMajorLines(lv.l)); got != n {
			t.Fatalf("%s holds %d lines, the model %d", lv.l.name, got, n)
		}
	}
}
