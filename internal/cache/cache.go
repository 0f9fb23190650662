// Package cache models the cache hierarchy of the simulated machine:
// per-core L1 instruction and data caches, a shared inclusive L2, MSHRs,
// the line fill buffer (LFB), the GhostMinion shadow buffer, and a
// MESI-lite directory for multi-core coherence.
//
// Functional data lives in the mem.Image (stores write it at commit), so the
// structures here model timing and, crucially for this paper, *which
// accesses are allowed to change them*. SpecASan's G3 goal — unsafe
// speculative accesses must leave no microarchitectural trace — is enforced
// here: a fill triggered by a tag-mismatching speculative access is
// suppressed at whatever level detected the mismatch, and only the tag-check
// outcome travels back to the core (modelled after the L1 signal / MSHR flag
// design of §3.3.1).
package cache

import (
	"fmt"
	"math/bits"

	"specasan/internal/mem"
	"specasan/internal/mte"
	"specasan/internal/obs"
	"specasan/internal/recycle"
)

// line is one cache line's metadata. Data bytes live in the memory image;
// lines carry the MESI state and fill timing.
type line struct {
	valid   bool
	addr    uint64 // line-aligned address
	state   mesi
	dirty   bool
	validAt uint64 // cycle at which the fill data is usable
	lastUse uint64
}

type mesi uint8

const (
	invalid mesi = iota
	shared
	exclusive
	modified
)

// Level is a single cache (L1I, L1D or L2).
//
// Line metadata lives in chunks of up to maxChunkSets consecutive sets, each
// allocated by the first fill of any of its sets. An attack PoC or a fuzz
// candidate runs a few thousand cycles and touches a handful of the L2's
// 1,024 sets, so its machine pays for those chunks rather than for the
// whole 655 KB array; a long kernel that touches every set ends up with all
// of them.
type Level struct {
	name   string
	ways   int
	lineSz int
	hitLat uint64

	// Set and chunk selection by shift and mask: a probe never divides.
	lineShift  uint     // log2(lineSz)
	setMask    uint64   // sets-1
	chunkShift uint     // log2(sets per chunk)
	chunkMask  uint64   // sets per chunk - 1
	chunks     [][]line // chunk i holds sets [i<<chunkShift, (i+1)<<chunkShift), row-major; nil until filled

	mshr []uint64
	port []uint64 // per-port next-free cycle

	// Stats.
	Hits, Misses, Evictions, Writebacks, MSHRStalls uint64
}

// maxChunkSets is the number of sets a line chunk covers (fewer when the
// level has fewer sets).
const maxChunkSets = 16

// NewLevel builds a cache level. ports is the number of same-cycle access
// ports; mshrs bounds outstanding misses.
func NewLevel(name string, sizeBytes, ways, lineSz int, hitLat uint64, ports, mshrs int) (*Level, error) {
	if ways <= 0 || lineSz <= 0 {
		return nil, fmt.Errorf("cache %s: ways (%d) and line size (%d) must be positive", name, ways, lineSz)
	}
	if lineSz&(lineSz-1) != 0 {
		return nil, fmt.Errorf("cache %s: line size %d not a power of two", name, lineSz)
	}
	sets := sizeBytes / (ways * lineSz)
	if sets == 0 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache %s: set count %d not a power of two", name, sets)
	}
	if ports <= 0 || mshrs <= 0 {
		return nil, fmt.Errorf("cache %s: ports (%d) and MSHRs (%d) must be positive", name, ports, mshrs)
	}
	chunkSets := min(sets, maxChunkSets)
	return &Level{
		name: name, ways: ways, lineSz: lineSz, hitLat: hitLat,
		lineShift:  uint(bits.TrailingZeros(uint(lineSz))),
		setMask:    uint64(sets - 1),
		chunkShift: uint(bits.TrailingZeros(uint(chunkSets))),
		chunkMask:  uint64(chunkSets - 1),
		chunks:     make([][]line, sets/chunkSets),
		mshr:       make([]uint64, mshrs),
		port:       make([]uint64, ports),
	}, nil
}

// lineChunks keeps the line chunks of released levels (see
// Hierarchy.Release).
var lineChunks recycle.Slices[line]

// release hands the level's line chunks back and nils the chunk table, so
// a later probe panics instead of reading chunks another level now owns.
func (l *Level) release() {
	for _, c := range l.chunks {
		lineChunks.Free(c)
	}
	l.chunks = nil
}

func (l *Level) lineAddr(addr uint64) uint64 { return addr &^ uint64(l.lineSz-1) }

// set returns the ways of addr's set, allocating its chunk when alloc is
// set; without alloc a set whose chunk was never filled is nil.
func (l *Level) set(addr uint64, alloc bool) []line {
	s := (addr >> l.lineShift) & l.setMask
	c := l.chunks[s>>l.chunkShift]
	if c == nil {
		if !alloc {
			return nil
		}
		c = lineChunks.Make(int(l.chunkMask+1) * l.ways)
		l.chunks[s>>l.chunkShift] = c
	}
	base := int(s&l.chunkMask) * l.ways
	return c[base : base+l.ways]
}

// find returns addr's line if it is present, or nil.
func (l *Level) find(addr uint64) *line {
	la := l.lineAddr(addr)
	set := l.set(addr, false)
	for w := range set {
		if set[w].valid && set[w].addr == la {
			return &set[w]
		}
	}
	return nil
}

// victim picks the line to fill in addr's set: the first invalid way, else
// the least recently used one.
func (l *Level) victim(addr uint64) *line {
	return victimIn(l.set(addr, true))
}

// victimIn is victim for the ways of one set.
func victimIn(set []line) *line {
	best := &set[0]
	for w := range set {
		ln := &set[w]
		if !ln.valid {
			return ln
		}
		if ln.lastUse < best.lastUse {
			best = ln
		}
	}
	return best
}

// reservePort returns the cycle at which a port is free, booking it.
func (l *Level) reservePort(now uint64) uint64 {
	best := 0
	for i := 1; i < len(l.port); i++ {
		if l.port[i] < l.port[best] {
			best = i
		}
	}
	start := now
	if l.port[best] > start {
		start = l.port[best]
	}
	l.port[best] = start + 1
	return start
}

// reserveMSHR books an MSHR slot until freeAt; returns the cycle at which a
// slot became available (possibly later than now — structural stall).
func (l *Level) reserveMSHR(now, busyFor uint64) uint64 {
	best := 0
	for i := 1; i < len(l.mshr); i++ {
		if l.mshr[i] < l.mshr[best] {
			best = i
		}
	}
	start := now
	if l.mshr[best] > start {
		l.MSHRStalls += l.mshr[best] - start
		start = l.mshr[best]
	}
	l.mshr[best] = start + busyFor
	return start
}

// mshrOccupancy returns how many MSHRs are busy at the given cycle — the
// Speculative-Interference observable.
func (l *Level) mshrOccupancy(now uint64) int {
	n := 0
	for _, b := range l.mshr {
		if b > now {
			n++
		}
	}
	return n
}

// install fills addr's line, returning the evicted dirty line address (or 0)
// so the caller can account the writeback.
func (l *Level) install(addr uint64, now, validAt uint64, st mesi) (wbAddr uint64, wb bool) {
	ln := l.victim(addr)
	if ln.valid {
		l.Evictions++
		if ln.dirty {
			wbAddr, wb = ln.addr, true
			l.Writebacks++
		}
	}
	*ln = line{valid: true, addr: l.lineAddr(addr), state: st, validAt: validAt, lastUse: now}
	return wbAddr, wb
}

// invalidate drops addr's line if present, reporting whether it was dirty.
func (l *Level) invalidate(addr uint64) (wasDirty, present bool) {
	if ln := l.find(addr); ln != nil {
		ln.valid = false
		return ln.dirty, true
	}
	return false, false
}

// Contains reports whether addr's line is valid (and filled) at cycle now —
// the probe the Flush+Reload analysis uses.
func (l *Level) Contains(addr uint64, now uint64) bool {
	ln := l.find(addr)
	return ln != nil && ln.validAt <= now
}

// lfbEntry is one line-fill-buffer slot: a line in transit from below,
// holding a data snapshot (the in-flight bytes MDS attacks sample) and
// usable for hit-under-fill once dataAt passes.
type lfbEntry struct {
	valid    bool
	addr     uint64
	dataAt   uint64
	snapshot []byte
	allocAt  uint64
}

// LFB is the line fill buffer (§3.3.3). Entries carry the allocation tags
// of their line implicitly (tag checks consult authoritative tag storage;
// the entry's address identifies the granules), so SpecASan's LFB tag check
// is a lookup keyed by the entry address.
type LFB struct {
	entries []lfbEntry
	Hits    uint64
	Fills   uint64
}

// NewLFB returns an LFB with n entries.
func NewLFB(n int) *LFB { return &LFB{entries: make([]lfbEntry, n)} }

// find returns the entry for lineAddr if its fill is still in flight (or
// just landed): an LFB entry retires once the line is written to the cache.
func (f *LFB) find(lineAddr uint64, now uint64) *lfbEntry {
	for i := range f.entries {
		e := &f.entries[i]
		if e.valid && e.addr == lineAddr {
			if e.dataAt+1 < now {
				e.valid = false // retired: the line reached the cache
				return nil
			}
			return e
		}
	}
	return nil
}

// allocate takes the oldest slot for a new in-flight line. The returned
// entry's snapshot is sized to lineSz and must be filled by the caller with
// the in-flight bytes; the buffer behind it is reused across fills so
// steady-state allocation is zero.
func (f *LFB) allocate(lineAddr uint64, now, dataAt uint64, lineSz int) *lfbEntry {
	var victim *lfbEntry
	for i := range f.entries {
		e := &f.entries[i]
		if !e.valid {
			victim = e
			break
		}
		if victim == nil || e.allocAt < victim.allocAt {
			victim = e
		}
	}
	buf := victim.snapshot[:0]
	if cap(buf) < lineSz {
		buf = make([]byte, lineSz)
	}
	*victim = lfbEntry{valid: true, addr: lineAddr, dataAt: dataAt, snapshot: buf[:lineSz], allocAt: now}
	f.Fills++
	return victim
}

// newest returns the most recently allocated entry still in flight at now —
// what a faulting load transiently samples in RIDL/ZombieLoad — or nil.
func (f *LFB) newest(now uint64) *lfbEntry {
	var best *lfbEntry
	for i := range f.entries {
		e := &f.entries[i]
		if e.valid && e.dataAt+1 >= now && (best == nil || e.allocAt > best.allocAt) {
			best = e
		}
	}
	return best
}

// ghostEntry is one GhostMinion shadow-buffer slot: a speculative fill kept
// out of the cache hierarchy until the triggering load commits.
type ghostEntry struct {
	valid   bool
	addr    uint64
	dataAt  uint64
	lastUse uint64
}

// Ghost is the GhostMinion shadow fill structure.
type Ghost struct {
	entries  []ghostEntry
	Hits     uint64
	Fills    uint64
	Promotes uint64
	Refetch  uint64 // commit-time promotions that missed the ghost buffer
}

// NewGhost returns a ghost buffer with n line entries.
func NewGhost(n int) *Ghost { return &Ghost{entries: make([]ghostEntry, n)} }

func (g *Ghost) find(lineAddr uint64) *ghostEntry {
	for i := range g.entries {
		if g.entries[i].valid && g.entries[i].addr == lineAddr {
			return &g.entries[i]
		}
	}
	return nil
}

func (g *Ghost) insert(lineAddr uint64, now, dataAt uint64) {
	var victim *ghostEntry
	for i := range g.entries {
		e := &g.entries[i]
		if !e.valid {
			victim = e
			break
		}
		if victim == nil || e.lastUse < victim.lastUse {
			victim = e
		}
	}
	*victim = ghostEntry{valid: true, addr: lineAddr, dataAt: dataAt, lastUse: now}
	g.Fills++
}

// drop removes the entry for lineAddr (squash cleanup).
func (g *Ghost) drop(lineAddr uint64) {
	if e := g.find(lineAddr); e != nil {
		e.valid = false
	}
}

// dirEntry tracks L1 copies of a line for coherence.
type dirEntry struct {
	sharers  uint32 // bitmask of cores with an L1 copy
	owner    int8   // core holding M/E, or -1
	modified bool
}

// Hierarchy is the full memory system of one simulated machine: per-core
// L1I/L1D + LFB (+ ghost buffer), a shared L2, a directory, and the memory
// controller.
type Hierarchy struct {
	Img   *mem.Image
	L1I   []*Level
	L1D   []*Level
	LFBs  []*LFB
	Ghost []*Ghost
	L2    *Level
	Ctrl  *mem.Controller
	dir   *dirTable

	lineSz     int
	mteOn      bool
	lfbTagging bool

	// Next-line prefetcher (§6 future work): on a demand miss, the line
	// after the missing one is fetched too. With prefetchChecked, the
	// prefetch is dropped unless the next line's allocation tags match the
	// triggering line's — the "secure prefetcher" extension the paper
	// leaves to future work.
	prefetchOn      bool
	prefetchChecked bool

	// Prefetcher stats.
	Prefetches        uint64
	PrefetchesBlocked uint64
	PrefetchSecretHit func(lineAddr uint64) // leak-analysis hook

	// Coherence penalty constants.
	upgradeLat  uint64 // invalidating remote sharers
	transferLat uint64 // dirty line transfer from a remote L1

	// Stats.
	TagChecks     uint64
	TagMismatches uint64
	BlockedFills  uint64 // fills suppressed for unsafe speculative accesses
	LFBForwards   uint64 // baseline stale-LFB forwards (RIDL behaviour)
	CoherenceInv  uint64
	CoherenceXfer uint64

	// Chaos fault-injection hooks (internal/chaos). Both perturb timing
	// only — the data a request eventually returns is unchanged.
	//
	// ChaosMemLatency, when set, returns extra cycles added to a DRAM line
	// fetch (memory/tag-fetch latency jitter).
	ChaosMemLatency func(now uint64) uint64
	// ChaosLFBDelay, when set, returns extra cycles before a new LFB
	// allocation's data becomes usable (fill-buffer allocation pressure).
	ChaosLFBDelay func(now uint64) uint64

	// Obs/Met, when set, receive line-fill-buffer stall events and samples
	// for the requesting core (internal/obs hooks; nil = disabled, one
	// pointer compare on the access path).
	Obs *obs.Tracer
	Met *obs.Metrics
}

// HierConfig carries the geometry for NewHierarchy.
type HierConfig struct {
	Cores      int
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
	GhostSize  int
	LoadPorts  int
	DRAM       mem.DRAMConfig
	MTEOn      bool // platform fetches and checks MTE tags
	LFBTagging bool // SpecASan LFB extension active
	// Prefetcher configuration (§6 extension).
	PrefetcherOn    bool
	PrefetchChecked bool
}

// NewHierarchy builds the memory system.
func NewHierarchy(cfg HierConfig, img *mem.Image) (*Hierarchy, error) {
	l2, err := NewLevel("L2", cfg.L2SizeKB*1024, cfg.L2Ways, cfg.LineBytes, cfg.L2Latency, 2, cfg.MSHRs*2)
	if err != nil {
		return nil, err
	}
	h := &Hierarchy{
		Img:             img,
		L2:              l2,
		Ctrl:            mem.NewController(cfg.DRAM, cfg.MTEOn),
		dir:             newDirTable(),
		lineSz:          cfg.LineBytes,
		mteOn:           cfg.MTEOn,
		lfbTagging:      cfg.LFBTagging,
		prefetchOn:      cfg.PrefetcherOn,
		prefetchChecked: cfg.PrefetchChecked,
		upgradeLat:      8,
		transferLat:     16,
	}
	for c := 0; c < cfg.Cores; c++ {
		l1i, err := NewLevel(fmt.Sprintf("L1I%d", c), cfg.L1ISizeKB*1024, cfg.L1IWays, cfg.LineBytes, cfg.L1ILatency, 1, cfg.MSHRs)
		if err != nil {
			return nil, err
		}
		l1d, err := NewLevel(fmt.Sprintf("L1D%d", c), cfg.L1DSizeKB*1024, cfg.L1DWays, cfg.LineBytes, cfg.L1DLatency, cfg.LoadPorts, cfg.MSHRs)
		if err != nil {
			return nil, err
		}
		h.L1I = append(h.L1I, l1i)
		h.L1D = append(h.L1D, l1d)
		h.LFBs = append(h.LFBs, NewLFB(cfg.LFBEntries))
		h.Ghost = append(h.Ghost, NewGhost(cfg.GhostSize))
	}
	return h, nil
}

// Release hands every level's line chunks and the directory's slots back
// for later hierarchies to reuse and nils them: the hierarchy must not be
// accessed again. Its stats stay readable.
func (h *Hierarchy) Release() {
	for i := range h.L1I {
		h.L1I[i].release()
		h.L1D[i].release()
	}
	h.L2.release()
	h.dir.release()
}

func (h *Hierarchy) lineAddr(addr uint64) uint64 { return addr &^ uint64(h.lineSz-1) }

// dirFor returns (creating) the directory entry for a line.
func (h *Hierarchy) dirFor(lineAddr uint64) *dirEntry {
	return h.dir.getOrCreate(lineAddr, dirEntry{owner: -1})
}

// tagCheck performs the MTE check for a pointer against authoritative tag
// storage. It returns true when the platform has MTE off (nothing to check).
func (h *Hierarchy) tagCheck(ptr uint64, size int) (ok bool, lock mte.Tag) {
	lock = h.Img.Tags.Lock(ptr)
	if !h.mteOn {
		return true, lock
	}
	h.TagChecks++
	if h.Img.Tags.CheckAccess(ptr, size) {
		return true, lock
	}
	h.TagMismatches++
	return false, lock
}

// AccessReq describes one data-side memory access from a core.
type AccessReq struct {
	Core  int
	Ptr   uint64 // full pointer including the MTE key byte
	Size  int
	Write bool
	Now   uint64

	// Spec marks the access as speculative at issue time; BlockUnsafe makes
	// a tag mismatch suppress data return and fills (SpecASan).
	Spec        bool
	BlockUnsafe bool
	// Ghost redirects the fill to the ghost buffer (GhostMinion). The core
	// sets it for a load under control or memory-dependence speculation;
	// Spec covers control speculation alone.
	Ghost bool
	// FaultingSample requests the baseline RIDL/ZombieLoad behaviour: the
	// access is an assisted/faulting load that transiently samples the LFB.
	FaultingSample bool
}

// AccessRes is the outcome of a data-side access.
type AccessRes struct {
	ReadyAt  uint64 // cycle the response (data or outcome-only) reaches the core
	TagOK    bool
	Lock     mte.Tag
	Blocked  bool   // unsafe speculative access: no data returned, no fill
	ServedBy string // "l1", "lfb", "ghost", "l2", "mem", "lfb-stale"
	// StaleData holds transiently forwarded in-flight bytes when the
	// baseline LFB leak path triggered (ServedBy == "lfb-stale");
	// StaleAddr is the line address the bytes belong to.
	StaleData []byte
	StaleAddr uint64
	// MSHROccupancy snapshots L1D MSHR pressure after the access, for the
	// contention-channel analysis.
	MSHROccupancy int
}

// Probe reports whether ptr's line is already present in core's L1D — and,
// when includeLFB, whether its fill is in flight in the LFB — without
// performing an access: no port reservation, no LRU or hit/miss counter
// update, no fill, no tag check. Issue-time policy gates (the Delay-on-Miss
// defence) use it to classify a speculative load as hit or miss before
// deciding whether it may touch the hierarchy at all.
func (h *Hierarchy) Probe(core int, ptr uint64, now uint64, includeLFB bool) bool {
	addr := mte.Strip(ptr)
	if h.L1D[core].find(addr) != nil {
		return true
	}
	if !includeLFB {
		return false
	}
	la := h.lineAddr(addr)
	for i := range h.LFBs[core].entries {
		e := &h.LFBs[core].entries[i]
		if e.valid && e.addr == la && e.dataAt+1 >= now {
			return true
		}
	}
	return false
}

// Access performs a data-side cache access and returns its timing and
// tag-check outcome. It is the L1D entry point used by the LSQ for loads and
// by commit for stores.
func (h *Hierarchy) Access(req AccessReq) AccessRes {
	l1 := h.L1D[req.Core]
	lfb := h.LFBs[req.Core]
	addr := mte.Strip(req.Ptr)
	la := h.lineAddr(addr)
	tagOK, lock := h.tagCheck(req.Ptr, req.Size)
	blockData := !tagOK && req.Spec && req.BlockUnsafe

	start := l1.reservePort(req.Now)
	res := AccessRes{TagOK: tagOK, Lock: lock}

	// RIDL/ZombieLoad baseline behaviour: a faulting load transiently
	// receives whatever the newest LFB entry holds instead of architectural
	// data. With SpecASan LFB tagging the forward requires a tag match.
	if req.FaultingSample {
		if e := lfb.newest(req.Now); e != nil {
			match := true
			if h.lfbTagging && h.mteOn {
				match = mte.Match(mte.Key(req.Ptr), h.Img.Tags.Lock(e.addr))
			}
			if match && !blockData {
				h.LFBForwards++
				res.ReadyAt = start + l1.hitLat
				res.ServedBy = "lfb-stale"
				res.StaleData = e.snapshot
				res.StaleAddr = e.addr
				res.MSHROccupancy = l1.mshrOccupancy(res.ReadyAt)
				return res
			}
		}
		// Nothing to sample (or forward denied): outcome-only response.
		res.ReadyAt = start + l1.hitLat
		res.Blocked = true
		res.ServedBy = "lfb"
		return res
	}

	// L1 hit path.
	if ln := l1.find(addr); ln != nil {
		ready := start + l1.hitLat
		if ln.validAt > ready {
			ready = ln.validAt // hit under fill
		}
		ln.lastUse = req.Now
		l1.Hits++
		if req.Write {
			ready = h.ensureWritable(req.Core, la, ready)
			ln.state = modified
			ln.dirty = true
		}
		res.ReadyAt = ready
		res.Blocked = blockData
		res.ServedBy = "l1"
		res.MSHROccupancy = l1.mshrOccupancy(ready)
		return res
	}
	l1.Misses++

	// LFB hit: line already in flight.
	if e := lfb.find(la, req.Now); e != nil {
		lfb.Hits++
		ready := start + l1.hitLat
		if e.dataAt > ready {
			// Hit under fill: the access waits for the in-flight line.
			if stall := e.dataAt - ready; h.Obs != nil || h.Met != nil {
				if t := h.Obs.Core(req.Core); t != nil {
					t.Record(req.Now, 0, mte.Strip(req.Ptr), obs.EvLFBStall, stall)
				}
				if cm := h.Met.Core(req.Core); cm != nil {
					cm.LFBStall.Observe(stall)
				}
			}
			ready = e.dataAt
		}
		if req.Write {
			ready = h.ensureWritable(req.Core, la, ready)
		}
		res.ReadyAt = ready
		res.Blocked = blockData
		res.ServedBy = "lfb"
		res.MSHROccupancy = l1.mshrOccupancy(ready)
		return res
	}

	// Ghost buffer hit (GhostMinion).
	if req.Ghost {
		if g := h.Ghost[req.Core].find(la); g != nil {
			h.Ghost[req.Core].Hits++
			g.lastUse = req.Now
			ready := start + l1.hitLat + 1 // ghost access is slightly slower than L1
			if g.dataAt > ready {
				ready = g.dataAt
			}
			res.ReadyAt = ready
			res.ServedBy = "ghost"
			res.MSHROccupancy = l1.mshrOccupancy(ready)
			return res
		}
	}

	// Miss: fetch from L2/memory. Blocked (unsafe speculative) fills and
	// ghost fills must not install anywhere in the hierarchy (G3 /
	// GhostMinion invisibility); the request still consumes bandwidth.
	ghostFill := req.Ghost && !req.Write
	install := !blockData && !ghostFill
	dataAt, servedBy := h.fetchFromL2(req.Core, la, start+l1.hitLat, req.Write, install)

	// Unsafe speculative miss under SpecASan: the level that detected the
	// mismatch (modelled via the MSHR flag) returns only the outcome; no
	// fill happens anywhere (G3).
	if blockData {
		h.BlockedFills++
		res.ReadyAt = dataAt // outcome returns when the check completed
		res.Blocked = true
		res.ServedBy = servedBy
		res.MSHROccupancy = l1.mshrOccupancy(dataAt)
		return res
	}

	// GhostMinion: speculative fills stay in the ghost buffer.
	if ghostFill {
		h.Ghost[req.Core].insert(la, req.Now, dataAt)
		res.ReadyAt = dataAt
		res.ServedBy = servedBy
		res.MSHROccupancy = l1.mshrOccupancy(dataAt)
		return res
	}

	// Normal fill: MSHR + LFB track the in-flight line, then install in L1.
	if h.ChaosLFBDelay != nil {
		dataAt += h.ChaosLFBDelay(req.Now)
	}
	mshrStart := l1.reserveMSHR(start, dataAt-start)
	_ = mshrStart
	h.Img.ReadInto(la, lfb.allocate(la, req.Now, dataAt, h.lineSz).snapshot)
	if h.prefetchOn && !req.Write {
		h.prefetchNext(req.Core, la, start+l1.hitLat)
	}
	st := shared
	d := h.dirFor(la)
	if req.Write {
		dataAt = h.ensureWritable(req.Core, la, dataAt)
		st = modified
	} else if d.sharers == 0 {
		st = exclusive
	}
	if wbAddr, wb := l1.install(addr, req.Now, dataAt, st); wb {
		h.writebackToL2(wbAddr, req.Now)
	}
	if req.Write {
		h.dirFor(la).modified = true
		l1.find(addr).dirty = true
	}
	d.sharers |= 1 << uint(req.Core)
	if st != shared {
		d.owner = int8(req.Core)
	}
	res.ReadyAt = dataAt
	res.ServedBy = servedBy
	res.MSHROccupancy = l1.mshrOccupancy(dataAt)
	return res
}

// prefetchNext issues the next-line prefetch at miss-detection time for a
// demand miss of lineAddr. The checked variant refuses to cross an allocation-tag boundary:
// a prefetch that would pull differently-tagged (or untagged-to-tagged)
// memory into the cache is dropped, closing the §6 prefetch leak.
func (h *Hierarchy) prefetchNext(core int, lineAddr uint64, triggerDataAt uint64) {
	next := lineAddr + uint64(h.lineSz)
	if h.L1D[core].find(next) != nil || h.LFBs[core].find(next, triggerDataAt) != nil {
		return
	}
	if h.prefetchChecked && h.mteOn {
		// The next line may only be prefetched when its tag layout matches
		// the triggering line granule-for-granule: a prefetch across an
		// allocation boundary is refused.
		for g := uint64(0); g < uint64(h.lineSz)/mte.GranuleBytes; g++ {
			off := g * mte.GranuleBytes
			if h.Img.Tags.Lock(next+off) != h.Img.Tags.Lock(lineAddr+off) {
				h.PrefetchesBlocked++
				return
			}
		}
	}
	h.Prefetches++
	if h.PrefetchSecretHit != nil {
		h.PrefetchSecretHit(next)
	}
	dataAt, _ := h.fetchFromL2(core, next, triggerDataAt, false, true)
	if wbAddr, wb := h.L1D[core].install(next, triggerDataAt, dataAt+2, shared); wb {
		h.writebackToL2(wbAddr, triggerDataAt)
	}
	h.dirFor(next).sharers |= 1 << uint(core)
}

// ensureWritable obtains exclusive ownership of a line for a store,
// invalidating remote sharers; returns the (possibly delayed) ready cycle.
func (h *Hierarchy) ensureWritable(core int, lineAddr uint64, ready uint64) uint64 {
	d := h.dirFor(lineAddr)
	others := d.sharers &^ (1 << uint(core))
	if others != 0 {
		for c := 0; c < len(h.L1D); c++ {
			if others&(1<<uint(c)) != 0 {
				h.L1D[c].invalidate(lineAddr)
				h.CoherenceInv++
			}
		}
		ready += h.upgradeLat
	}
	d.sharers = 1 << uint(core)
	d.owner = int8(core)
	d.modified = true
	return ready
}

// fetchFromL2 obtains a line for core at cycle now, returning when the data
// arrives at the L1 boundary and which level served it. install=false
// (blocked or ghosted fills) leaves the L2 untouched — not even replacement
// state changes.
func (h *Hierarchy) fetchFromL2(core int, lineAddr uint64, now uint64, forWrite, install bool) (dataAt uint64, servedBy string) {
	// Remote-M transfer: another L1 holds the newest copy.
	d := h.dirFor(lineAddr)
	if d.modified && d.owner >= 0 && int(d.owner) != core {
		oc := int(d.owner)
		h.L1D[oc].invalidate(lineAddr)
		if !forWrite {
			// Downgrade: keep a shared copy in L2; for simplicity the
			// remote copy is dropped and both read from L2 afterwards.
			d.modified = false
			d.owner = -1
		}
		h.CoherenceXfer++
		start := h.L2.reservePort(now)
		return start + h.L2.hitLat + h.transferLat, "remote"
	}

	start := h.L2.reservePort(now)
	if ln := h.L2.find(lineAddr); ln != nil {
		ready := start + h.L2.hitLat
		if ln.validAt > ready {
			ready = ln.validAt
		}
		if install {
			ln.lastUse = now // no replacement-state trace otherwise
		}
		h.L2.Hits++
		return ready, "l2"
	}
	h.L2.Misses++
	reqAt := h.L2.reserveMSHR(start+h.L2.hitLat, h.Ctrl.Latency())
	memReady := h.Ctrl.FetchLine(reqAt)
	if h.ChaosMemLatency != nil {
		memReady += h.ChaosMemLatency(now)
	}
	if !install {
		return memReady, "mem"
	}
	if wbAddr, wb := h.L2.install(lineAddr, now, memReady, shared); wb {
		h.Ctrl.Writeback(now)
		h.dir.del(wbAddr) // inclusive: L1 copies of the victim are gone too
		for c := range h.L1D {
			h.L1D[c].invalidate(wbAddr)
		}
	}
	return memReady, "mem"
}

// writebackToL2 accounts an L1 dirty eviction.
func (h *Hierarchy) writebackToL2(lineAddr uint64, now uint64) {
	if ln := h.L2.find(lineAddr); ln != nil {
		ln.dirty = true
		return
	}
	// L1 victim no longer in L2 (rare with inclusion): send to memory.
	h.Ctrl.Writeback(now)
}

// PromoteGhost installs a ghost-buffer line into the cache hierarchy when
// its load commits (GhostMinion). Returns the commit-side latency cost.
func (h *Hierarchy) PromoteGhost(core int, ptr uint64, now uint64) uint64 {
	g := h.Ghost[core]
	addr := mte.Strip(ptr)
	la := h.lineAddr(addr)
	if h.L1D[core].find(addr) != nil {
		g.drop(la)
		return 0
	}
	if e := g.find(la); e != nil {
		g.Promotes++
		g.drop(la)
		if wbAddr, wb := h.L1D[core].install(addr, now, now+1, exclusive); wb {
			h.writebackToL2(wbAddr, now)
		}
		d := h.dirFor(la)
		d.sharers |= 1 << uint(core)
		return 1
	}
	// Evicted from the ghost buffer before commit: refetch (the
	// GhostMinion capacity cost).
	g.Refetch++
	dataAt, _ := h.fetchFromL2(core, la, now, false, true)
	if wbAddr, wb := h.L1D[core].install(addr, now, dataAt, shared); wb {
		h.writebackToL2(wbAddr, now)
	}
	h.dirFor(la).sharers |= 1 << uint(core)
	return 0 // commit does not stall on the refetch; it proceeds in background
}

// DropGhost discards a ghost entry on squash.
func (h *Hierarchy) DropGhost(core int, ptr uint64) {
	h.Ghost[core].drop(h.lineAddr(mte.Strip(ptr)))
}

// FlushLine implements DC CIVAC: clean and invalidate a line in every cache,
// the LFBs and the ghost buffers.
func (h *Hierarchy) FlushLine(ptr uint64, now uint64) uint64 {
	addr := mte.Strip(ptr)
	la := h.lineAddr(addr)
	for c := range h.L1D {
		if dirty, present := h.L1D[c].invalidate(la); present && dirty {
			h.writebackToL2(la, now)
		}
		if e := h.LFBs[c].find(la, now); e != nil {
			e.valid = false
		}
		h.Ghost[c].drop(la)
	}
	if dirty, present := h.L2.invalidate(la); present && dirty {
		h.Ctrl.Writeback(now)
	}
	h.dir.del(la)
	return now + 8 // maintenance-op latency
}

// ChaosEvictLine flushes the idx-th (mod occupancy) valid line of core's L1D
// — the chaos injector's random-eviction primitive. Going through FlushLine
// keeps the eviction architecturally safe: dirty data is written back and
// every copy (L1s, L2, LFBs, ghost buffers, directory) is dropped
// consistently. Returns false when the L1D holds no valid line.
func (h *Hierarchy) ChaosEvictLine(core int, idx int, now uint64) bool {
	if core < 0 || core >= len(h.L1D) {
		return false
	}
	l1 := h.L1D[core]
	n := 0
	for _, c := range l1.chunks {
		for i := range c {
			if c[i].valid {
				n++
			}
		}
	}
	if n == 0 {
		return false
	}
	// Chunks in index order, lines row-major within each, visit the lines
	// in set-major order.
	k := idx % n
	for _, c := range l1.chunks {
		for i := range c {
			if !c[i].valid {
				continue
			}
			if k == 0 {
				h.FlushLine(c[i].addr, now)
				return true
			}
			k--
		}
	}
	return false
}

// FetchInst models an instruction fetch: L1I, then shared L2.
func (h *Hierarchy) FetchInst(core int, pc uint64, now uint64) (readyAt uint64) {
	l1 := h.L1I[core]
	addr := mte.Strip(pc)
	start := l1.reservePort(now)
	if ln := l1.find(addr); ln != nil {
		ready := start + l1.hitLat
		if ln.validAt > ready {
			ready = ln.validAt
		}
		ln.lastUse = now
		l1.Hits++
		return ready
	}
	l1.Misses++
	dataAt, _ := h.fetchFromL2(core, h.lineAddr(addr), start+l1.hitLat, false, true)
	if wbAddr, wb := l1.install(addr, now, dataAt, shared); wb {
		h.writebackToL2(wbAddr, now)
	}
	return dataAt
}

// InL1D reports whether ptr's line is present and filled in core's L1D at
// cycle now — the side-channel observable for the leak analysis.
func (h *Hierarchy) InL1D(core int, ptr uint64, now uint64) bool {
	return h.L1D[core].Contains(h.lineAddr(mte.Strip(ptr)), now)
}

// InAnyCache reports whether ptr's line left a trace anywhere (L1s or L2).
func (h *Hierarchy) InAnyCache(ptr uint64, now uint64) bool {
	la := h.lineAddr(mte.Strip(ptr))
	for c := range h.L1D {
		if h.L1D[c].Contains(la, now) {
			return true
		}
	}
	return h.L2.Contains(la, now)
}

// LineBytes returns the cache line size.
func (h *Hierarchy) LineBytes() int { return h.lineSz }
