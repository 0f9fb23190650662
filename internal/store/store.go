// Package store is the crash-safe, content-addressed result store behind
// the sweep service and the CLIs' -store flag: a directory of checksummed
// entries keyed by (result-context hash, cell key), written atomically and
// verified on every read.
//
// The durability contract is "never serve a wrong or partial result":
//
//   - Writes go to a unique temp file in the entry's directory, are fsynced,
//     and land under their final name with a single rename. A crash at any
//     point leaves either the old entry, the new entry, or a stale temp file
//     that the next Open sweeps away — never a half-written entry under a
//     served name.
//   - Every entry carries its payload length and SHA-256 in a header line.
//     A read takes the whole file in one go, hashes everything after the
//     first newline, and accepts the entry only if that line is byte for
//     byte the header Put writes for this key, this length and this hash.
//     A truncated, oversized, bit-flipped, mislabelled or re-encoded entry
//     fails that comparison: the read quarantines the file (moves it aside
//     for postmortems) and reports a miss, so the caller re-simulates
//     instead of trusting it. No read decodes the header.
//   - GetJSON into a json.RawMessage yields canonical JSON only (the bytes
//     json.Marshal writes for the value). It scans a payload once: the
//     Store remembers the SHA-256 of the payloads it has accepted as
//     canonical JSON (a bounded set), and a later read of the same bytes,
//     hashed anyway, skips the scan.
//   - A store whose directory cannot be created or written degrades to
//     read-only: gets still work (and still verify), puts return
//     ErrReadOnly, and the caller keeps running without a cache.
//
// Concurrent writers of the same key are safe: each writes its own temp
// file, renames race, and last-writer-wins — both payloads are complete and
// (for deterministic producers) identical anyway.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Schema versions the on-disk entry header. Bump it when the entry format
// changes; old entries then read as corrupt and are re-simulated.
const Schema = "specasan-store/v1"

// tmpPrefix marks in-progress writes. Files with this prefix are never
// served and are swept by Open (a crash between temp-write and rename leaves
// one behind).
const tmpPrefix = ".tmp-"

// quarantineDir collects entries that failed verification, preserved for
// postmortems instead of being silently deleted.
const quarantineDir = "quarantine"

// ErrReadOnly is returned by Put when the store is in read-only mode
// (directory unwritable at Open, or writes started failing).
var ErrReadOnly = errors.New("store: read-only")

// ErrCorrupt marks an entry that failed verification; the file has been
// quarantined and the caller should treat the key as a miss.
var ErrCorrupt = errors.New("store: corrupt entry")

// Key addresses one entry: Space is the result-context hash (which
// run-semantics the entry was produced under), Name the cell key within it.
type Key struct {
	Space string
	Name  string
}

func (k Key) check() error {
	if !keyPart(k.Space) || !keyPart(k.Name) {
		return fmt.Errorf("store: bad key %q/%q (want %s)", k.Space, k.Name, keyPartRule)
	}
	if k.Space == quarantineDir {
		return fmt.Errorf("store: key space %q is reserved", k.Space)
	}
	return nil
}

// keyPartRule is the shape keyPart accepts, as a regular expression.
const keyPartRule = `^[A-Za-z0-9_][A-Za-z0-9._-]*$`

// keyPart validates one half of a Key: filesystem-safe, no path tricks,
// non-empty, and never starting with a dot or dash (no hidden files, no
// flag-lookalikes, and the temp prefix stays unforgeable). Callers derive
// safe names with scenario.CellKey. Such a part needs no escaping inside a
// JSON string, which is what lets appendHeader write it verbatim.
func keyPart(s string) bool {
	if s == "" || s[0] == '.' || s[0] == '-' {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '_' || c == '.' || c == '-') {
			return false
		}
	}
	return true
}

// String renders the key as space/name.
func (k Key) String() string { return k.Space + "/" + k.Name }

// appendHeader appends the first line of the entry Put writes for a payload
// of n bytes hashing to sum under k, newline included. The line is a JSON
// object with the fields schema, space, name, len and sha256 (hex), in that
// order and without spaces, as json.Marshal writes such a struct; a valid
// key needs no escaping, so the line is spelled out here, and a read
// compares bytes against it instead of decoding it.
func appendHeader(b []byte, k Key, n int, sum *[sha256.Size]byte) []byte {
	b = append(b, `{"schema":"`+Schema+`","space":"`...)
	b = append(b, k.Space...)
	b = append(b, `","name":"`...)
	b = append(b, k.Name...)
	b = append(b, `","len":`...)
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, `,"sha256":"`...)
	b = hex.AppendEncode(b, sum[:])
	return append(b, "\"}\n"...)
}

// Counters is a snapshot of the store's activity since Open.
type Counters struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Puts        uint64 `json:"puts"`
	PutErrors   uint64 `json:"put_errors"`
	Quarantined uint64 `json:"quarantined"`
	Pruned      uint64 `json:"pruned"`
}

// Store is one on-disk result store rooted at a directory.
type Store struct {
	root string

	mu       sync.Mutex
	readOnly bool
	n        Counters

	canonical digestSet // payloads GetJSON has accepted as canonical JSON
}

// Open prepares the store at root, creating the directory if needed and
// sweeping stale temp files from interrupted writes. A root that cannot be
// created or written does not fail Open: the store degrades to read-only
// (ReadOnly reports true, Put returns ErrReadOnly) so callers keep running
// without durability rather than not at all.
func Open(root string) (*Store, error) {
	if root == "" {
		return nil, errors.New("store: empty root")
	}
	s := &Store{root: root}
	if err := os.MkdirAll(root, 0o755); err != nil {
		s.readOnly = true
		return s, nil
	}
	// Probe writability the way Put will use it: a temp file in root.
	probe, err := os.CreateTemp(root, tmpPrefix+"probe-")
	if err != nil {
		s.readOnly = true
		return s, nil
	}
	probe.Close()
	os.Remove(probe.Name())
	s.sweepTemps()
	return s, nil
}

// OpenPruned is how the commands and the sweep service open their store:
// Open, then Prune to maxBytes (0 = unbounded). A read-only store and any
// pruning, or a failed prune, are reported as lines on log, each starting
// with "who: ".
func OpenPruned(root string, maxBytes int64, log io.Writer, who string) (*Store, error) {
	s, err := Open(root)
	if err != nil {
		return nil, err
	}
	if s.ReadOnly() {
		fmt.Fprintf(log, "%s: store %s is read-only: serving cached results, not persisting new ones\n", who, root)
	}
	if removed, freed, err := s.Prune(maxBytes); err != nil {
		fmt.Fprintf(log, "%s: %v\n", who, err)
	} else if removed > 0 {
		fmt.Fprintf(log, "%s: store pruned %d entries (%d bytes) to fit %d\n", who, removed, freed, maxBytes)
	}
	return s, nil
}

// sweepTemps removes temp files left by interrupted writes. Only files with
// the temp prefix are touched; racing with a live writer is harmless because
// live writers hold their temp file open only briefly and recreate on error.
func (s *Store) sweepTemps() {
	spaces, err := os.ReadDir(s.root)
	if err != nil {
		return
	}
	for _, sp := range spaces {
		if strings.HasPrefix(sp.Name(), tmpPrefix) {
			os.Remove(filepath.Join(s.root, sp.Name()))
			continue
		}
		if !sp.IsDir() || sp.Name() == quarantineDir {
			continue
		}
		dir := filepath.Join(s.root, sp.Name())
		entries, err := os.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), tmpPrefix) {
				os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
}

// Root returns the store's directory.
func (s *Store) Root() string { return s.root }

// ReadOnly reports whether the store has degraded to read-only mode.
func (s *Store) ReadOnly() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readOnly
}

// Stats returns a snapshot of the activity counters.
func (s *Store) Stats() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

func (s *Store) path(k Key) string {
	return filepath.Join(s.root, k.Space, k.Name+".entry")
}

// Get returns the payload stored under k. ok=false with a nil error is a
// plain miss. An entry that fails verification (truncated, bit-flipped,
// mislabelled, wrong schema) is quarantined and reported as a miss with
// ErrCorrupt, so callers can log it; they must re-simulate either way.
func (s *Store) Get(k Key) (payload []byte, ok bool, err error) {
	payload, _, ok, err = s.get(k)
	return payload, ok, err
}

// get is Get, also returning the payload's SHA-256.
func (s *Store) get(k Key) (payload []byte, sum [sha256.Size]byte, ok bool, err error) {
	if err := k.check(); err != nil {
		return nil, sum, false, err
	}
	f, err := os.Open(s.path(k))
	if err != nil {
		s.count(func(n *Counters) { n.Misses++ })
		if os.IsNotExist(err) {
			return nil, sum, false, nil
		}
		return nil, sum, false, fmt.Errorf("store: %w", err)
	}
	payload, sum, verr := readEntry(f, k)
	f.Close()
	if verr != nil {
		s.quarantine(k, verr)
		return nil, sum, false, fmt.Errorf("%w: %s: %v", ErrCorrupt, k, verr)
	}
	s.count(func(n *Counters) { n.Hits++ })
	return payload, sum, true, nil
}

// Has reports whether an entry file exists under k, without reading or
// verifying it and without counting a hit or a miss: an entry it reports
// can still read as a miss when Get verifies it.
func (s *Store) Has(k Key) bool {
	if k.check() != nil {
		return false
	}
	_, err := os.Stat(s.path(k))
	return err == nil
}

// readEntry reads one entry file in a single read and verifies it against
// the key it was opened under: everything after the first newline is the
// payload, and the line before it must be exactly the header Put writes for
// k, the payload's length and its SHA-256.
func readEntry(f *os.File, k Key) (payload []byte, sum [sha256.Size]byte, err error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, sum, fmt.Errorf("stat: %v", err)
	}
	// One byte over the size, so that the read ends at EOF.
	b := make([]byte, fi.Size()+1)
	n, err := io.ReadFull(f, b)
	if err != io.ErrUnexpectedEOF {
		if err == nil {
			err = errors.New("entry grew while read")
		}
		return nil, sum, fmt.Errorf("read: %v", err)
	}
	b = b[:n]
	i := bytes.IndexByte(b, '\n')
	if i < 0 {
		return nil, sum, errors.New("no header line")
	}
	payload = b[i+1:]
	sum = sha256.Sum256(payload)
	var buf [256]byte
	if want := appendHeader(buf[:0], k, len(payload), &sum); !bytes.Equal(b[:i+1], want) {
		return nil, sum, fmt.Errorf("header %.200q is not %q", b[:i], string(want[:len(want)-1]))
	}
	return payload, sum, nil
}

// quarantine moves a failed entry into the quarantine directory under a
// collision-free name. If the move fails (read-only filesystem) the file is
// left in place; it will fail verification again on the next read, so it is
// still never served.
func (s *Store) quarantine(k Key, reason error) {
	s.count(func(n *Counters) { n.Quarantined++ })
	qdir := filepath.Join(s.root, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return
	}
	base := k.Space + "__" + k.Name
	dst := filepath.Join(qdir, base+".entry")
	for i := 1; ; i++ {
		if _, err := os.Lstat(dst); os.IsNotExist(err) {
			break
		}
		dst = filepath.Join(qdir, fmt.Sprintf("%s.%d.entry", base, i))
	}
	os.Rename(s.path(k), dst)
}

// Put stores payload under k atomically: temp file, fsync, rename. In
// read-only mode it returns ErrReadOnly without touching the disk; a write
// failure that looks like the medium became unwritable (permissions, no
// space, read-only filesystem) flips the store into read-only mode so later
// puts shed immediately.
func (s *Store) Put(k Key, payload []byte) error {
	if err := k.check(); err != nil {
		return err
	}
	if s.ReadOnly() {
		return ErrReadOnly
	}
	if err := s.put(k, payload); err != nil {
		s.count(func(n *Counters) { n.PutErrors++ })
		if unwritable(err) {
			s.mu.Lock()
			s.readOnly = true
			s.mu.Unlock()
		}
		return fmt.Errorf("store: put %s: %w", k, err)
	}
	s.count(func(n *Counters) { n.Puts++ })
	return nil
}

func (s *Store) put(k Key, payload []byte) error {
	dir := filepath.Join(s.root, k.Space)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sum := sha256.Sum256(payload)
	f, err := os.CreateTemp(dir, tmpPrefix+k.Name+"-")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(appendHeader(nil, k, len(payload), &sum)); err != nil {
		return cleanup(err)
	}
	if _, err := f.Write(payload); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, s.path(k)); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so the rename that just landed in it survives a
// crash. Best-effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// unwritable reports whether err suggests the store medium itself rejects
// writes (as opposed to a transient or entry-specific failure).
func unwritable(err error) bool {
	return os.IsPermission(err) ||
		errors.Is(err, errors.ErrUnsupported) ||
		strings.Contains(err.Error(), "read-only file system") ||
		strings.Contains(err.Error(), "no space left")
}

func (s *Store) count(f func(*Counters)) {
	s.mu.Lock()
	f(&s.n)
	s.mu.Unlock()
}

// Prune evicts complete entries, oldest modification time first, until the
// store's entry bytes fit under maxBytes. Temp files and the quarantine
// directory are never counted or touched (sweepTemps and postmortems own
// those). Losing an entry only costs a re-simulation, so eviction needs no
// coordination with readers: a racing Get either wins the open or misses.
// Returns how many entries were removed and how many bytes they held.
// maxBytes <= 0 and read-only stores are no-ops.
func (s *Store) Prune(maxBytes int64) (removed int, freed int64, err error) {
	if maxBytes <= 0 || s.ReadOnly() {
		return 0, 0, nil
	}
	type entry struct {
		path  string
		size  int64
		mtime int64
	}
	var entries []entry
	var total int64
	spaces, err := os.ReadDir(s.root)
	if err != nil {
		return 0, 0, fmt.Errorf("store: prune: %w", err)
	}
	for _, sp := range spaces {
		if !sp.IsDir() || sp.Name() == quarantineDir {
			continue
		}
		dir := filepath.Join(s.root, sp.Name())
		files, err := os.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, f := range files {
			if !strings.HasSuffix(f.Name(), ".entry") || strings.HasPrefix(f.Name(), tmpPrefix) {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			entries = append(entries, entry{
				path:  filepath.Join(dir, f.Name()),
				size:  info.Size(),
				mtime: info.ModTime().UnixNano(),
			})
			total += info.Size()
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].mtime != entries[j].mtime {
			return entries[i].mtime < entries[j].mtime
		}
		return entries[i].path < entries[j].path // deterministic tiebreak
	})
	for _, e := range entries {
		if total <= maxBytes {
			break
		}
		if err := os.Remove(e.path); err != nil {
			if os.IsNotExist(err) {
				total -= e.size // someone else removed it; still freed
				continue
			}
			return removed, freed, fmt.Errorf("store: prune %s: %w", e.path, err)
		}
		total -= e.size
		freed += e.size
		removed++
	}
	if removed > 0 {
		s.count(func(n *Counters) { n.Pruned += uint64(removed) })
	}
	return removed, freed, nil
}

// GetJSON unmarshals the payload stored under k into v. Misses and corrupt
// entries (quarantined inside Get) report ok=false; a payload that is not
// valid JSON for v also quarantines and misses, because a structurally
// unreadable entry must never masquerade as a result.
//
// Into a *json.RawMessage, GetJSON yields the payload only when it is
// canonical JSON: exactly the bytes json.Marshal writes for it (compact,
// HTML-escaped), so that a caller may splice it into encoder output as it
// is. A valid payload in any other form is a plain miss, left in place for
// the next Put to overwrite. The scan that decides this runs once per
// payload per store: a payload whose SHA-256 the store has already accepted
// skips it.
func (s *Store) GetJSON(k Key, v any) (ok bool, err error) {
	payload, sum, ok, err := s.get(k)
	if !ok {
		return false, err
	}
	if raw, isRaw := v.(*json.RawMessage); isRaw {
		if !s.canonical.has(sum) {
			canon, jerr := json.Marshal(json.RawMessage(payload))
			if jerr != nil {
				s.quarantine(k, jerr)
				return false, fmt.Errorf("%w: %s: %v", ErrCorrupt, k, jerr)
			}
			if !bytes.Equal(canon, payload) {
				return false, nil
			}
			s.canonical.add(sum)
		}
		*raw = payload
		return true, nil
	}
	if jerr := json.Unmarshal(payload, v); jerr != nil {
		s.quarantine(k, jerr)
		return false, fmt.Errorf("%w: %s: %v", ErrCorrupt, k, jerr)
	}
	return true, nil
}

// digestSetSize bounds a digestSet: enough for every cell of a few full
// figure sweeps, at 32 bytes a digest.
const digestSetSize = 4096

// digestSet is a set of SHA-256 digests that empties itself when full. The
// zero value is empty and ready to use.
type digestSet struct {
	mu  sync.Mutex
	set map[[sha256.Size]byte]struct{}
}

func (d *digestSet) has(sum [sha256.Size]byte) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.set[sum]
	return ok
}

func (d *digestSet) add(sum [sha256.Size]byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.set == nil {
		d.set = make(map[[sha256.Size]byte]struct{})
	} else if len(d.set) >= digestSetSize {
		clear(d.set)
	}
	d.set[sum] = struct{}{}
}

// PutJSON marshals v and stores it under k.
func (s *Store) PutJSON(k Key, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("store: marshal %s: %w", k, err)
	}
	return s.Put(k, payload)
}
