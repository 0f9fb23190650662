package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreEntry files arbitrary bytes as the entry behind k and reads them
// back. Get must never panic. A hit must return exactly the bytes after the
// header line, hashing to the header's sha256; anything else must be
// ErrCorrupt, with the file moved out of the served path into quarantine.
// The seed corpus (testdata/fuzz/FuzzStoreEntry) holds a valid entry, a
// truncated one, one whose header declares a 2^62-byte payload, two whose
// header decodes right but is not the line Put writes (fields reordered,
// spaces added), and one with a byte after its payload.
func FuzzStoreEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, entry []byte) {
		s := mustOpen(t)
		path := s.path(k)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, entry, 0o644); err != nil {
			t.Fatal(err)
		}
		payload, ok, err := s.Get(k)
		if ok {
			line, rest, _ := bytes.Cut(entry, []byte("\n"))
			var h header
			if err := json.Unmarshal(line, &h); err != nil {
				t.Fatalf("hit on an entry whose header does not parse: %v", err)
			}
			sum := sha256.Sum256(payload)
			if got := hex.EncodeToString(sum[:]); got != h.SHA256 {
				t.Fatalf("hit payload hashes to %s, header says %s", got, h.SHA256)
			}
			if !bytes.Equal(payload, rest) {
				t.Fatalf("hit payload %q, entry holds %q after its header", payload, rest)
			}
			return
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("miss on a filed entry: err = %v, want ErrCorrupt", err)
		}
		if _, err := os.Lstat(path); !os.IsNotExist(err) {
			t.Fatalf("corrupt entry still served from its path: %v", err)
		}
		if q, err := os.ReadDir(filepath.Join(s.root, quarantineDir)); err != nil || len(q) != 1 {
			t.Fatalf("quarantine holds %d files (%v), want 1", len(q), err)
		}
	})
}
