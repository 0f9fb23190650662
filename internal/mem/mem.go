// Package mem provides the functional memory image (a sparse, paged byte
// store plus the MTE tag storage) and the timing model of the DRAM channel
// and memory controller.
//
// Functional state and timing are deliberately separated: stores reach the
// image only at commit, so the image always holds the committed architectural
// state, while caches, the LFB and the controller model *when* bytes and tag
// checks become visible. The memory controller issues the data fetch and the
// tag-storage fetch as two parallel requests and reports the tag-check
// outcome with the response (§3.3.4 of the paper); on a tag mismatch for a
// speculative request the data is withheld.
package mem

import (
	"encoding/binary"
	"fmt"
	"sort"

	"specasan/internal/asm"
	"specasan/internal/mte"
	"specasan/internal/recycle"
)

const (
	pageShift = 12
	pageBytes = 1 << pageShift
	pageMask  = pageBytes - 1

	// granulesPerPage pairs the tag sidecar with the data frame: one lock
	// byte per 16-byte MTE granule of the page.
	granulesPerPage = pageBytes / mte.GranuleBytes
	granuleShift    = pageShift - 4 // log2(granulesPerPage)

	// rootPages bounds the directly-indexed part of the page table: page
	// numbers below it (the first 4 GiB of address space, where programs
	// live) resolve with one slice index; anything above — fuzz programs
	// can .org anywhere in the 56-bit space — falls back to a sparse map.
	rootPages = 1 << 20
)

// page is one 4 KiB frame of committed memory plus its MTE tag sidecar, so
// a data+tag pair for an address is two indexed loads into the same frame.
type page struct {
	data   [pageBytes]byte
	locks  [granulesPerPage]mte.Tag
	tagged int32 // non-zero entries in locks
}

// Image is the committed architectural memory: sparse 4 KiB pages indexed
// through a two-level table (flat slice for low pages, map overflow for the
// rest) plus the authoritative MTE tag storage, which lives inline in the
// page frames.
type Image struct {
	root     []*page          // page number -> frame, for pn < rootPages
	high     map[uint64]*page // overflow for pn >= rootPages
	numPages int
	tagged   int // non-zero granule locks across all pages

	// Tags is the architectural tag store, viewing the per-page sidecars.
	Tags *mte.Storage
}

// NewImage returns an empty memory image.
func NewImage() *Image {
	m := &Image{}
	m.Tags = mte.NewStorageOn(m)
	return m
}

// FrameAt returns the data and tag-lock slices of the mapped 4 KiB page
// containing addr (key bits ignored), or nils when the page is unmapped. The
// slices alias the live page: callers may read and write data through them
// but must treat the lock slice as read-only (lock writes go through Tags so
// the tagged-granule accounting stays correct). The golden interpreter uses
// this to fill the direct-mapped page TLB on its load/store fast path.
func (m *Image) FrameAt(addr uint64) ([]byte, []mte.Tag) {
	if p := m.pageAt(mte.Strip(addr) >> pageShift); p != nil {
		return p.data[:], p.locks[:]
	}
	return nil, nil
}

// FrameFor is FrameAt but maps the page when absent (the store path).
func (m *Image) FrameFor(addr uint64) ([]byte, []mte.Tag) {
	p := m.pageFor(mte.Strip(addr) >> pageShift)
	return p.data[:], p.locks[:]
}

// Clone returns a deep copy of the image: every mapped page frame is copied
// including its MTE tag sidecar, and the copy gets its own tag-storage view.
// Writes to either image never alias the other. This is the memory half of
// the golden-interpreter state transplant. The copy's frames come from
// released images when there are any, like a loaded image's.
func (m *Image) Clone() *Image {
	c := &Image{numPages: m.numPages, tagged: m.tagged}
	c.Tags = mte.NewStorageOn(c)
	if m.root != nil {
		c.root = roots.Make(len(m.root))
		for pn, p := range m.root {
			if p != nil {
				cp := frames.New()
				*cp = *p
				c.root[pn] = cp
			}
		}
	}
	if m.high != nil {
		c.high = make(map[uint64]*page, len(m.high))
		for pn, p := range m.high {
			cp := frames.New()
			*cp = *p
			c.high[pn] = cp
		}
	}
	return c
}

// CloneSharing is Clone for images nobody writes again, such as a run's
// checkpoints: each page whose bytes and tags equal those of prev's page at
// the same address shares prev's frame instead of being copied. Neither the
// copy nor prev may be written afterwards, and both are released through
// ReleaseShared.
func (m *Image) CloneSharing(prev *Image) *Image {
	c := &Image{numPages: m.numPages, tagged: m.tagged}
	c.Tags = mte.NewStorageOn(c)
	frame := func(pn uint64, p *page) *page {
		if q := prev.pageAt(pn); q != nil && *q == *p {
			return q
		}
		cp := frames.New()
		*cp = *p
		return cp
	}
	if m.root != nil {
		c.root = roots.Make(len(m.root))
		for pn, p := range m.root {
			if p != nil {
				c.root[pn] = frame(uint64(pn), p)
			}
		}
	}
	if m.high != nil {
		c.high = make(map[uint64]*page, len(m.high))
		for pn, p := range m.high {
			c.high[pn] = frame(pn, p)
		}
	}
	return c
}

// pageAt returns the frame for page number pn, or nil when unmapped.
func (m *Image) pageAt(pn uint64) *page {
	if pn < uint64(len(m.root)) {
		return m.root[pn]
	}
	if pn >= rootPages {
		return m.high[pn]
	}
	return nil
}

// pageFor returns the frame for page number pn, mapping it if needed.
func (m *Image) pageFor(pn uint64) *page {
	if p := m.pageAt(pn); p != nil {
		return p
	}
	p := frames.New()
	if pn < rootPages {
		if pn >= uint64(len(m.root)) {
			n := uint64(len(m.root)) * 2
			if n < 64 {
				n = 64
			}
			for n <= pn {
				n *= 2
			}
			if n > rootPages {
				n = rootPages
			}
			grown := roots.Make(int(n))
			copy(grown, m.root)
			roots.Free(m.root)
			m.root = grown
		}
		m.root[pn] = p
	} else {
		if m.high == nil {
			m.high = make(map[uint64]*page)
		}
		m.high[pn] = p
	}
	m.numPages++
	return p
}

// frames and roots keep the page frames and page tables of released images
// (see Release).
var (
	frames recycle.Objects[page]
	roots  recycle.Slices[*page]
)

// Release hands every page frame and the page table back for later images
// to reuse and leaves the image empty. The caller must hold no slice
// FrameAt or FrameFor returned: the frame behind it now belongs to another
// image. An image that shares frames (CloneSharing) goes through
// ReleaseShared instead.
func (m *Image) Release() { ReleaseShared([]*Image{m}, nil) }

// ReleaseShared releases the images in drop, whose frames CloneSharing may
// have shared with one another and with the images in keep, such as some
// of a run's checkpoints and the rest of them. Each frame goes back for
// reuse once, and a frame an image in keep holds stays with it; Release
// on each image in drop would hand a shared frame back twice, or hand back
// one a kept image still reads. The images in drop are left empty.
func ReleaseShared(drop, keep []*Image) {
	for i, m := range drop {
		later := drop[i+1:] // a frame they share is theirs to hand back
		free := func(pn uint64, p *page) {
			if !holds(keep, pn, p) && !holds(later, pn, p) {
				frames.Free(p)
			}
		}
		for pn, p := range m.root {
			if p != nil {
				free(uint64(pn), p)
			}
		}
		for pn, p := range m.high {
			free(pn, p)
		}
		roots.Free(m.root)
		m.root, m.high, m.numPages, m.tagged = nil, nil, 0, 0
	}
}

// holds reports whether an image of imgs holds frame p. CloneSharing
// shares a frame only at the page number it had, so only pn is looked at.
func holds(imgs []*Image, pn uint64, p *page) bool {
	for _, o := range imgs {
		if o.pageAt(pn) == p {
			return true
		}
	}
	return false
}

// PageAddrs returns the base address of every allocated page, sorted — the
// iteration surface for whole-memory comparison (cpu.Machine.GoldenDiff).
func (m *Image) PageAddrs() []uint64 {
	out := make([]uint64, 0, m.numPages)
	for pn, p := range m.root {
		if p != nil {
			out = append(out, uint64(pn)*pageBytes)
		}
	}
	for pn := range m.high {
		out = append(out, pn*pageBytes)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PageBytes is the image's page granularity.
const PageBytes = pageBytes

// ByteAt returns the byte at the (tag-stripped) address.
func (m *Image) ByteAt(addr uint64) byte {
	addr = mte.Strip(addr)
	if p := m.pageAt(addr >> pageShift); p != nil {
		return p.data[addr&pageMask]
	}
	return 0
}

// SetByte stores one byte at the (tag-stripped) address.
func (m *Image) SetByte(addr uint64, v byte) {
	addr = mte.Strip(addr)
	m.pageFor(addr >> pageShift).data[addr&pageMask] = v
}

// Read copies size bytes starting at addr into a fresh slice.
func (m *Image) Read(addr uint64, size int) []byte {
	out := make([]byte, size)
	m.ReadInto(addr, out)
	return out
}

// ReadInto fills out with the bytes starting at addr (unmapped reads as 0),
// the allocation-free variant of Read for callers with a reusable buffer.
func (m *Image) ReadInto(addr uint64, out []byte) {
	for len(out) > 0 {
		addr = mte.Strip(addr)
		off := addr & pageMask
		n := uint64(pageBytes - off)
		if uint64(len(out)) < n {
			n = uint64(len(out))
		}
		if p := m.pageAt(addr >> pageShift); p != nil {
			copy(out[:n], p.data[off:off+n])
		} else {
			clear(out[:n])
		}
		addr += n
		out = out[n:]
	}
}

// Write stores the bytes starting at addr.
func (m *Image) Write(addr uint64, b []byte) {
	for len(b) > 0 {
		addr = mte.Strip(addr)
		off := addr & pageMask
		n := uint64(pageBytes - off)
		if uint64(len(b)) < n {
			n = uint64(len(b))
		}
		copy(m.pageFor(addr >> pageShift).data[off:off+n], b[:n])
		addr += n
		b = b[n:]
	}
}

// ReadU64 reads a little-endian 64-bit value.
func (m *Image) ReadU64(addr uint64) uint64 {
	addr = mte.Strip(addr)
	if off := addr & pageMask; off <= pageBytes-8 {
		p := m.pageAt(addr >> pageShift)
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint64(p.data[off : off+8])
	}
	var v uint64
	for i := uint64(0); i < 8; i++ {
		v |= uint64(m.ByteAt(addr+i)) << (8 * i)
	}
	return v
}

// WriteU64 stores a little-endian 64-bit value.
func (m *Image) WriteU64(addr uint64, v uint64) {
	addr = mte.Strip(addr)
	if off := addr & pageMask; off <= pageBytes-8 {
		binary.LittleEndian.PutUint64(m.pageFor(addr >> pageShift).data[off:off+8], v)
		return
	}
	for i := uint64(0); i < 8; i++ {
		m.SetByte(addr+i, byte(v>>(8*i)))
	}
}

// ReadUint reads size bytes (1 or 8) as an unsigned little-endian integer.
func (m *Image) ReadUint(addr uint64, size int) uint64 {
	switch size {
	case 1:
		return uint64(m.ByteAt(addr))
	case 8:
		return m.ReadU64(addr)
	default:
		var v uint64
		for i := 0; i < size && i < 8; i++ {
			v |= uint64(m.ByteAt(addr+uint64(i))) << (8 * i)
		}
		return v
	}
}

// WriteUint stores size bytes (1 or 8) of v little-endian.
func (m *Image) WriteUint(addr uint64, v uint64, size int) {
	if size >= 8 {
		m.WriteU64(addr, v)
		return
	}
	for i := 0; i < size; i++ {
		m.SetByte(addr+uint64(i), byte(v>>(8*i)))
	}
}

// LockAtGranule returns the allocation tag of granule g from the page
// sidecar. Part of the mte.Backing implementation.
func (m *Image) LockAtGranule(g uint64) mte.Tag {
	if p := m.pageAt(g >> granuleShift); p != nil {
		return p.locks[g&(granulesPerPage-1)]
	}
	return 0
}

// SetLockAtGranule sets the allocation tag of granule g in the page sidecar,
// mapping the page if needed. Part of the mte.Backing implementation.
func (m *Image) SetLockAtGranule(g uint64, t mte.Tag) {
	pn := g >> granuleShift
	var p *page
	if t == 0 {
		// Clearing a tag on an unmapped page is a no-op; don't allocate.
		if p = m.pageAt(pn); p == nil {
			return
		}
	} else {
		p = m.pageFor(pn)
	}
	idx := g & (granulesPerPage - 1)
	old := p.locks[idx]
	if old == t {
		return
	}
	p.locks[idx] = t
	switch {
	case old == 0:
		p.tagged++
		m.tagged++
	case t == 0:
		p.tagged--
		m.tagged--
	}
}

// TaggedGranules returns the number of granules carrying a non-zero lock.
// Part of the mte.Backing implementation.
func (m *Image) TaggedGranules() int { return m.tagged }

// LoadProgram copies a program's data blocks into memory, in order. Code is
// fetched from the Program structure directly (the I-side models timing
// only), but data must live in the image for loads/stores. A reservation
// (.space) maps nothing, because an unmapped page already reads as zero; it
// only clears the part of its range that an earlier block mapped.
func (m *Image) LoadProgram(p *asm.Program) {
	for _, d := range p.Data {
		if d.Zero > 0 {
			m.clearMapped(d.Addr, d.Zero)
		} else {
			m.Write(d.Addr, d.Bytes)
		}
	}
}

// clearMapped zeroes n bytes from addr on the pages that are already mapped,
// with Write's addressing, and maps no page: the rule SetLockAtGranule
// applies to a zero tag.
func (m *Image) clearMapped(addr, n uint64) {
	for n > 0 {
		addr = mte.Strip(addr)
		off := addr & pageMask
		k := min(n, pageBytes-off)
		if p := m.pageAt(addr >> pageShift); p != nil {
			clear(p.data[off : off+k])
		}
		addr, n = addr+k, n-k
	}
}

// DRAMConfig holds the timing parameters of the DRAM channel model.
type DRAMConfig struct {
	Latency     uint64 // row access latency in cycles
	BurstCycles uint64 // channel occupancy per line transfer
	TagBurst    uint64 // extra channel occupancy for a tag-storage fetch
}

// Controller is the memory-controller timing model. It owns the DRAM channel
// occupancy and implements the parallel data+tag fetch. It is shared between
// cores; channel contention is modelled with a next-free timestamp.
//
// Allocation tags are 4 bits per 16-byte granule — 1/32 of the data volume —
// so tag reads are batched: one tag burst serves tagBatch line fills.
type Controller struct {
	cfg      DRAMConfig
	tagsOn   bool // whether tag storage fetches are issued at all
	nextFree uint64
	tagAccum uint64

	// Stats.
	Fetches    uint64
	TagFetches uint64
	Writebacks uint64
	BusyWait   uint64 // cycles requests spent waiting for the channel
}

// NewController returns a controller with the given DRAM timing. tagsOn
// selects whether the platform fetches MTE tag storage in parallel with data
// (false for the unsafe, non-MTE baseline).
func NewController(cfg DRAMConfig, tagsOn bool) *Controller {
	return &Controller{cfg: cfg, tagsOn: tagsOn}
}

// FetchLine returns the cycle at which a full line (data plus, when enabled,
// its allocation tags) is available, for a request arriving at cycle now.
func (c *Controller) FetchLine(now uint64) (readyAt uint64) {
	start := now
	if c.nextFree > start {
		c.BusyWait += c.nextFree - start
		start = c.nextFree
	}
	busy := c.cfg.BurstCycles
	if c.tagsOn {
		c.tagAccum++
		if c.tagAccum%tagBatch == 0 {
			busy += c.cfg.TagBurst
			c.TagFetches++
		}
	}
	c.nextFree = start + busy
	c.Fetches++
	return start + c.cfg.Latency + busy
}

// tagBatch is the number of line fills amortising one tag-storage burst
// (one 64-byte tag burst covers 32 lines of tags; 8 is conservative,
// accounting for spatial spread).
const tagBatch = 8

// Writeback accounts a dirty-line eviction reaching DRAM. It consumes
// channel bandwidth but nothing waits on it.
func (c *Controller) Writeback(now uint64) {
	start := now
	if c.nextFree > start {
		start = c.nextFree
	}
	busy := c.cfg.BurstCycles
	if c.tagsOn {
		c.tagAccum++
		if c.tagAccum%tagBatch == 0 {
			busy += c.cfg.TagBurst
		}
	}
	c.nextFree = start + busy
	c.Writebacks++
}

// Latency returns the configured DRAM access latency in cycles.
func (c *Controller) Latency() uint64 { return c.cfg.Latency }

// String summarises controller activity.
func (c *Controller) String() string {
	return fmt.Sprintf("memctrl{fetches=%d tagFetches=%d writebacks=%d busyWait=%d}",
		c.Fetches, c.TagFetches, c.Writebacks, c.BusyWait)
}
