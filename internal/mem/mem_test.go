package mem

import (
	"bytes"
	"testing"
	"testing/quick"

	"specasan/internal/asm"
	"specasan/internal/mte"
)

func TestImageReadWriteRoundTrip(t *testing.T) {
	m := NewImage()
	m.WriteU64(0x1000, 0xdead_beef_cafe_f00d)
	if got := m.ReadU64(0x1000); got != 0xdead_beef_cafe_f00d {
		t.Fatalf("round trip = %#x", got)
	}
	// Little-endian byte order.
	if m.ByteAt(0x1000) != 0x0d || m.ByteAt(0x1007) != 0xde {
		t.Fatal("endianness wrong")
	}
	// Unmapped memory reads as zero and does not allocate.
	if m.ByteAt(0x999999) != 0 {
		t.Fatal("unmapped read must be zero")
	}
}

func TestImageStripsPointerTags(t *testing.T) {
	m := NewImage()
	tagged := mte.WithKey(0x2000, 0xb)
	m.WriteU64(tagged, 42)
	if m.ReadU64(0x2000) != 42 {
		t.Fatal("tagged and untagged pointers must reach the same bytes")
	}
}

func TestImageCrossPageAccess(t *testing.T) {
	m := NewImage()
	addr := uint64(4096 - 4) // straddles a page boundary
	m.WriteU64(addr, 0x1122334455667788)
	if got := m.ReadU64(addr); got != 0x1122334455667788 {
		t.Fatalf("cross-page = %#x", got)
	}
}

func TestTagSidecarGranuleAtPageEdge(t *testing.T) {
	m := NewImage()
	edge := uint64(PageBytes - mte.GranuleBytes) // last granule of page 0
	m.Tags.SetLock(edge, 5)
	if got := m.Tags.Lock(edge); got != 5 {
		t.Fatalf("lock at page-edge granule = %d, want 5", got)
	}
	// The neighbouring granule lives in the next page's sidecar and must be
	// untouched (and still reachable even though its page is unmapped).
	if got := m.Tags.Lock(PageBytes); got != 0 {
		t.Fatalf("first granule of next page = %d, want 0", got)
	}
	// An access from the edge granule into the untagged next page must fail.
	if m.Tags.CheckAccess(mte.WithKey(edge, 5), 32) {
		t.Fatal("straddle into untagged next page must fail")
	}
	if !m.Tags.CheckAccess(mte.WithKey(edge, 5), 16) {
		t.Fatal("access within the edge granule must pass")
	}
}

func TestTagSidecarRangeStraddlesPages(t *testing.T) {
	// SetRange across a page boundary — what an ST2G at the last granule of
	// a page performs — must land one lock in each page's sidecar.
	m := NewImage()
	base := uint64(3*PageBytes - mte.GranuleBytes)
	m.Tags.SetRange(base, 2*mte.GranuleBytes, 9)
	if got := m.Tags.Lock(base); got != 9 {
		t.Fatalf("lock in first page = %d, want 9", got)
	}
	if got := m.Tags.Lock(3 * PageBytes); got != 9 {
		t.Fatalf("lock in second page = %d, want 9", got)
	}
	if m.Tags.TaggedGranules() != 2 {
		t.Fatalf("TaggedGranules = %d, want 2", m.Tags.TaggedGranules())
	}
	// A 32-byte access covering both granules passes only with the right key.
	if !m.Tags.CheckAccess(mte.WithKey(base, 9), 32) {
		t.Fatal("matching cross-page access must pass")
	}
	if m.Tags.CheckAccess(mte.WithKey(base, 4), 32) {
		t.Fatal("mismatched cross-page access must fail")
	}
	// Clearing the straddling pair updates both sidecars and the census.
	m.Tags.SetRange(base, 2*mte.GranuleBytes, 0)
	if m.Tags.TaggedGranules() != 0 {
		t.Fatalf("TaggedGranules after clear = %d, want 0", m.Tags.TaggedGranules())
	}
}

func TestReadWriteUintSizes(t *testing.T) {
	m := NewImage()
	m.WriteUint(0x3000, 0xabcd, 1)
	if m.ReadUint(0x3000, 1) != 0xcd {
		t.Fatal("byte write must truncate")
	}
	m.WriteUint(0x3010, 0x1234567890, 8)
	if m.ReadUint(0x3010, 8) != 0x1234567890 {
		t.Fatal("word size wrong")
	}
}

func TestQuickReadWrite(t *testing.T) {
	m := NewImage()
	f := func(addr uint32, val uint64) bool {
		a := uint64(addr)
		m.WriteU64(a, val)
		return m.ReadU64(a) == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLoadProgram(t *testing.T) {
	p := asm.MustAssemble(`
_start:
    NOP
    .org 0x5000
data:
    .word 7, 8
    .ascii "hi"
`)
	m := NewImage()
	m.LoadProgram(p)
	if m.ReadU64(0x5000) != 7 || m.ReadU64(0x5008) != 8 {
		t.Fatal("words not loaded")
	}
	if !bytes.Equal(m.Read(0x5010, 2), []byte("hi")) {
		t.Fatal("ascii not loaded")
	}
}

// TestLoadProgramReservations pins how LoadProgram treats a .space
// reservation: it maps no page, because an unmapped page already reads as
// zero, and over a page an earlier block mapped it clears exactly its own
// range, as writing zeros would.
func TestLoadProgramReservations(t *testing.T) {
	m := NewImage()
	m.LoadProgram(asm.MustAssemble(`
    .org 0x40000
buf:
    .space 8192
`))
	if pages := m.PageAddrs(); len(pages) != 0 {
		t.Fatalf("a page-aligned reservation mapped pages %#x", pages)
	}
	if got := m.Read(0x40000, 8192); !bytes.Equal(got, make([]byte, 8192)) {
		t.Fatal("reservation does not read back as zero")
	}
	m.WriteU64(0x41008, 42)
	if pages := m.PageAddrs(); len(pages) != 1 || pages[0] != 0x41000 {
		t.Fatalf("a store into the reservation mapped %#x, want exactly 0x41000", pages)
	}

	// The reservation starts inside a page the .ascii block mapped and runs
	// into the next, unmapped page.
	src := `
    .org 0x50ff0
    .ascii "0123456789abcdef"
    .org 0x50ff8
    .space 16
`
	p := asm.MustAssemble(src)
	got, want := NewImage(), NewImage()
	got.LoadProgram(p)
	want.Write(0x50ff0, []byte("0123456789abcdef"))
	want.Write(0x50ff8, make([]byte, 16))
	if g, w := got.Read(0x50fe0, 64), want.Read(0x50fe0, 64); !bytes.Equal(g, w) {
		t.Fatalf("overlapping reservation loaded % x, want % x", g, w)
	}
	if g := got.Read(0x50ff0, 8); string(g) != "01234567" {
		t.Fatalf("reservation cleared bytes before its range: %q", g)
	}
	if pages := got.PageAddrs(); len(pages) != 1 || pages[0] != 0x50000 {
		t.Fatalf("overlapping reservation mapped %#x, want only 0x50000", pages)
	}
}

func TestControllerLatencyAndBandwidth(t *testing.T) {
	c := NewController(DRAMConfig{Latency: 100, BurstCycles: 4, TagBurst: 1}, false)
	r1 := c.FetchLine(0)
	if r1 != 104 {
		t.Fatalf("first fetch ready at %d, want 104", r1)
	}
	// A burst of fetches serialises on the channel.
	var last uint64
	for i := 0; i < 10; i++ {
		last = c.FetchLine(0)
	}
	if last < 100+4*11 {
		t.Fatalf("channel contention missing: %d", last)
	}
	if c.BusyWait == 0 {
		t.Fatal("busy-wait cycles not accounted")
	}
}

func TestControllerTagTrafficBatched(t *testing.T) {
	plain := NewController(DRAMConfig{Latency: 100, BurstCycles: 4, TagBurst: 1}, false)
	tagged := NewController(DRAMConfig{Latency: 100, BurstCycles: 4, TagBurst: 1}, true)
	var lastPlain, lastTagged uint64
	for i := 0; i < 64; i++ {
		lastPlain = plain.FetchLine(0)
		lastTagged = tagged.FetchLine(0)
	}
	if lastTagged <= lastPlain {
		t.Fatal("tag traffic must consume extra bandwidth")
	}
	// But far less than one burst per fill (tags are 1/32 of the data).
	if lastTagged-lastPlain > 64 {
		t.Fatalf("tag overhead too high: %d extra cycles", lastTagged-lastPlain)
	}
	if tagged.TagFetches == 0 || tagged.TagFetches >= tagged.Fetches {
		t.Fatalf("tag fetches %d of %d fills: batching broken", tagged.TagFetches, tagged.Fetches)
	}
}
