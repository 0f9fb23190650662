// Package mte models the ARM Memory Tagging Extension: 4-bit allocation tags
// ("locks") attached to every 16-byte memory granule, and 4-bit address tags
// ("keys") carried in bits 56..59 of a pointer via Top-Byte Ignore (TBI).
//
// A memory access is safe when its pointer key equals the granule's lock.
// SpecASan extends exactly this check from the committed path to the
// speculative path; the check itself — implemented here — is shared by the
// caches, the line fill buffer, the store queue and the memory controller.
package mte

// Tag is a 4-bit MTE tag value (0..15). Tag 0 is the value of untagged
// memory and of pointers that never went through IRG/ADDG; an untagged
// pointer therefore matches untagged memory (0 == 0) and faults on tagged
// memory — which is precisely the property SpecASan relies on to stop
// attacks that reach tagged secrets through foreign pointers.
type Tag uint8

// TagBits is the width of an MTE tag.
const TagBits = 4

// NumTags is the number of distinct tag values (2^TagBits). The paper's §6
// discusses the collision consequences of this small space.
const NumTags = 1 << TagBits

// GranuleBytes is the MTE tag granule: one lock covers 16 bytes.
const GranuleBytes = 16

// tagShift positions the address tag in bits 56..59 of a 64-bit VA,
// inside the top byte that TBI ignores for translation.
const tagShift = 56

// addrMask strips the entire top byte (TBI) to recover the translated
// address.
const addrMask = (uint64(1) << tagShift) - 1

// Strip removes the top byte from a pointer, returning the address used for
// translation and cache indexing.
func Strip(ptr uint64) uint64 { return ptr & addrMask }

// Key extracts the 4-bit address tag (key) from a pointer.
func Key(ptr uint64) Tag { return Tag(ptr>>tagShift) & (NumTags - 1) }

// WithKey returns ptr with its address tag replaced by k.
func WithKey(ptr uint64, k Tag) uint64 {
	return (ptr &^ (uint64(NumTags-1) << tagShift)) | uint64(k&(NumTags-1))<<tagShift
}

// GranuleIndex returns the granule number containing the (stripped) address.
func GranuleIndex(addr uint64) uint64 { return Strip(addr) / GranuleBytes }

// AlignGranule rounds the (stripped) address down to its granule base.
func AlignGranule(addr uint64) uint64 { return Strip(addr) &^ (GranuleBytes - 1) }

// Match reports whether a pointer key is allowed to access a granule with
// the given lock: MTE requires exact equality.
func Match(key, lock Tag) bool { return key == lock }

// Check reports whether an access of size bytes at ptr is tag-safe against
// the provided lock lookup. It checks every granule the access touches.
func Check(ptr uint64, size int, lockAt func(granule uint64) Tag) bool {
	key := Key(ptr)
	first := GranuleIndex(ptr)
	last := GranuleIndex(Strip(ptr) + uint64(size) - 1)
	for g := first; g <= last; g++ {
		if !Match(key, lockAt(g)) {
			return false
		}
	}
	return true
}

// ChooseTag implements the IRG tag-generation rule: pick a tag from 1..15
// excluding the tags set in the exclusion mask. seed drives a deterministic
// LCG so simulations are reproducible. If every non-zero tag is excluded the
// result is tag 0 (the architecture allows implementation-defined behaviour
// here; untagged is the safe choice).
func ChooseTag(seed uint64, exclude uint16) Tag {
	// Exclude tag 0 always: IRG never generates the untagged wildcard
	// when used for allocation coloring.
	exclude |= 1
	avail := make([]Tag, 0, NumTags)
	for t := Tag(1); t < NumTags; t++ {
		if exclude&(1<<t) == 0 {
			avail = append(avail, t)
		}
	}
	if len(avail) == 0 {
		return 0
	}
	// Deterministic multiplicative hash of the seed.
	h := seed*6364136223846793005 + 1442695040888963407
	return avail[(h>>33)%uint64(len(avail))]
}

// Backing is the physical home of the allocation tags. The memory image
// implements it with a per-page tag sidecar (one lock byte per granule,
// stored next to the page's data so a data+tag pair is two indexed loads in
// the same frame); NewStorage falls back to a standalone sparse map for
// storages created without an image.
type Backing interface {
	// LockAtGranule returns the allocation tag of granule g (0 = untagged).
	LockAtGranule(g uint64) Tag
	// SetLockAtGranule sets the allocation tag of granule g.
	SetLockAtGranule(g uint64, t Tag)
	// TaggedGranules returns the number of granules with a non-zero lock.
	TaggedGranules() int
}

// Storage is the architectural allocation-tag store: lock values for every
// granule of physical memory. Real hardware carves this out of DRAM (the
// "tag storage" address space, §3.3.4); the simulator keeps it sparse.
//
// Storage is the authoritative copy; caches and the LFB hold coherent
// replicas alongside their data lines. It is a thin view over a Backing so
// the tags can live wherever the data lives.
type Storage struct {
	b Backing
}

// NewStorage returns an empty tag storage (all granules untagged) backed by
// a standalone sparse map.
func NewStorage() *Storage {
	return &Storage{b: granuleMap{locks: make(map[uint64]Tag)}}
}

// NewStorageOn returns a tag storage that reads and writes tags through b.
func NewStorageOn(b Backing) *Storage { return &Storage{b: b} }

// Lock returns the allocation tag of the granule containing addr.
func (s *Storage) Lock(addr uint64) Tag {
	return s.b.LockAtGranule(GranuleIndex(addr))
}

// LockAtGranule returns the allocation tag of granule g.
func (s *Storage) LockAtGranule(g uint64) Tag { return s.b.LockAtGranule(g) }

// SetLock sets the allocation tag for the granule containing addr.
func (s *Storage) SetLock(addr uint64, t Tag) {
	s.b.SetLockAtGranule(GranuleIndex(addr), t)
}

// SetRange tags every granule in [addr, addr+size).
func (s *Storage) SetRange(addr uint64, size uint64, t Tag) {
	if size == 0 {
		return
	}
	first := GranuleIndex(addr)
	last := GranuleIndex(Strip(addr) + size - 1)
	for g := first; g <= last; g++ {
		s.b.SetLockAtGranule(g, t)
	}
}

// CheckAccess reports whether an access of size bytes at ptr is tag-safe.
func (s *Storage) CheckAccess(ptr uint64, size int) bool {
	return Check(ptr, size, s.b.LockAtGranule)
}

// TaggedGranules returns the number of granules carrying a non-zero lock.
func (s *Storage) TaggedGranules() int { return s.b.TaggedGranules() }

// granuleMap is the standalone map backing for storages created without a
// memory image (unit tests, tools). Absent = 0 (untagged).
type granuleMap struct {
	locks map[uint64]Tag
}

func (m granuleMap) LockAtGranule(g uint64) Tag { return m.locks[g] }

func (m granuleMap) SetLockAtGranule(g uint64, t Tag) {
	if t == 0 {
		delete(m.locks, g)
		return
	}
	m.locks[g] = t
}

func (m granuleMap) TaggedGranules() int { return len(m.locks) }
