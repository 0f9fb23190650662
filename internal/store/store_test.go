package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func mustOpen(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if s.ReadOnly() {
		t.Fatalf("fresh store opened read-only")
	}
	return s
}

var k = Key{Space: "abc123", Name: "505.mcf_r__SpecASan-deadbeef"}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t)
	payload := []byte(`{"cycles":12345,"committed":678}`)
	if err := s.Put(k, payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok, err := s.Get(k)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: %q vs %q", got, payload)
	}
	n := s.Stats()
	if n.Puts != 1 || n.Hits != 1 || n.Misses != 0 || n.Quarantined != 0 {
		t.Fatalf("counters %+v", n)
	}
}

func TestMissIsClean(t *testing.T) {
	s := mustOpen(t)
	got, ok, err := s.Get(k)
	if got != nil || ok || err != nil {
		t.Fatalf("miss: %v %v %v", got, ok, err)
	}
	if s.Stats().Misses != 1 {
		t.Fatalf("miss not counted: %+v", s.Stats())
	}
}

func TestBadKeysRejected(t *testing.T) {
	s := mustOpen(t)
	for _, bad := range []Key{
		{Space: "", Name: "x"},
		{Space: "a", Name: ""},
		{Space: "../escape", Name: "x"},
		{Space: "a", Name: "../../etc/passwd"},
		{Space: "a", Name: "x/y"},
		{Space: quarantineDir, Name: "x"},
		{Space: ".hidden", Name: "x"},
	} {
		if err := s.Put(bad, []byte("p")); err == nil {
			t.Errorf("Put(%v) accepted", bad)
		}
		if _, _, err := s.Get(bad); err == nil {
			t.Errorf("Get(%v) accepted", bad)
		}
	}
}

// corrupt applies f to the entry file behind k.
func corrupt(t *testing.T, s *Store, k Key, f func([]byte) []byte) {
	t.Helper()
	path := s.path(k)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read entry: %v", err)
	}
	if err := os.WriteFile(path, f(b), 0o644); err != nil {
		t.Fatalf("rewrite entry: %v", err)
	}
}

// wantCorruptMiss asserts Get reports a quarantining miss, and that a
// subsequent Get is a plain miss (the entry is gone from the served path).
func wantCorruptMiss(t *testing.T, s *Store, k Key) {
	t.Helper()
	got, ok, err := s.Get(k)
	if got != nil || ok {
		t.Fatalf("corrupt entry served: %q", got)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	if _, err := os.Lstat(s.path(k)); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry still in place: %v", err)
	}
	if _, ok, err := s.Get(k); ok || err != nil {
		t.Fatalf("post-quarantine Get: ok=%v err=%v", ok, err)
	}
	// The quarantine directory holds the evidence.
	q, err := os.ReadDir(filepath.Join(s.root, quarantineDir))
	if err != nil || len(q) == 0 {
		t.Fatalf("no quarantined file: %v", err)
	}
}

func TestTruncatedEntryQuarantinedAndMissed(t *testing.T) {
	s := mustOpen(t)
	if err := s.Put(k, []byte(`{"cycles":12345}`)); err != nil {
		t.Fatal(err)
	}
	corrupt(t, s, k, func(b []byte) []byte { return b[:len(b)-5] })
	wantCorruptMiss(t, s, k)
}

// A header may declare any length; the reader must refuse one the file
// cannot hold before allocating it.
func TestOversizedLengthQuarantinedAndMissed(t *testing.T) {
	s := mustOpen(t)
	payload := []byte(`{"cycles":12345}`)
	if err := s.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	corrupt(t, s, k, func(b []byte) []byte {
		return bytes.Replace(b, []byte(fmt.Sprintf(`"len":%d,`, len(payload))),
			[]byte(`"len":4611686018427387904,`), 1)
	})
	wantCorruptMiss(t, s, k)
}

func TestBitFlippedPayloadQuarantinedAndMissed(t *testing.T) {
	s := mustOpen(t)
	if err := s.Put(k, []byte(`{"cycles":12345}`)); err != nil {
		t.Fatal(err)
	}
	corrupt(t, s, k, func(b []byte) []byte {
		b[len(b)-3] ^= 0x40 // flip a bit inside the payload
		return b
	})
	wantCorruptMiss(t, s, k)
}

func TestBitFlippedHeaderQuarantinedAndMissed(t *testing.T) {
	s := mustOpen(t)
	if err := s.Put(k, []byte(`{"cycles":12345}`)); err != nil {
		t.Fatal(err)
	}
	corrupt(t, s, k, func(b []byte) []byte {
		i := bytes.IndexByte(b, '\n') - 2 // inside the sha hex
		b[i] ^= 0x01
		return b
	})
	wantCorruptMiss(t, s, k)
}

func TestTrailingDataQuarantinedAndMissed(t *testing.T) {
	s := mustOpen(t)
	if err := s.Put(k, []byte(`{"cycles":12345}`)); err != nil {
		t.Fatal(err)
	}
	corrupt(t, s, k, func(b []byte) []byte { return append(b, "extra"...) })
	wantCorruptMiss(t, s, k)
}

func TestMislabelledEntryQuarantinedAndMissed(t *testing.T) {
	s := mustOpen(t)
	other := Key{Space: k.Space, Name: "other-cell"}
	if err := s.Put(other, []byte(`{"cycles":1}`)); err != nil {
		t.Fatal(err)
	}
	// File a valid entry under the wrong name, as a confused writer or a
	// manual copy would.
	if err := os.Rename(s.path(other), s.path(k)); err != nil {
		t.Fatal(err)
	}
	wantCorruptMiss(t, s, k)
}

func TestUnparsableJSONQuarantinedByGetJSON(t *testing.T) {
	s := mustOpen(t)
	// The checksum protects bytes, not structure: store valid-checksum
	// garbage and ask for typed JSON.
	if err := s.Put(k, []byte("not json")); err != nil {
		t.Fatal(err)
	}
	var v struct{ Cycles uint64 }
	ok, err := s.GetJSON(k, &v)
	if ok || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("GetJSON on garbage: ok=%v err=%v", ok, err)
	}
	if _, err := os.Lstat(s.path(k)); !os.IsNotExist(err) {
		t.Fatalf("garbage entry not quarantined")
	}
}

func TestKillBetweenTempAndRename(t *testing.T) {
	s := mustOpen(t)
	// Simulate a writer that died after writing its temp file but before the
	// rename: a complete temp file sitting next to the entries.
	dir := filepath.Join(s.root, k.Space)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, tmpPrefix+k.Name+"-12345")
	if err := os.WriteFile(tmp, []byte("half-written entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The temp file is never served...
	if _, ok, err := s.Get(k); ok || err != nil {
		t.Fatalf("temp file served: ok=%v err=%v", ok, err)
	}
	// ...and the next Open sweeps it.
	s2, err := Open(s.root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Lstat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale temp survived reopen: %v", err)
	}
	// The reopened store works normally.
	if err := s2.Put(k, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if got, ok, _ := s2.Get(k); !ok || string(got) != "fresh" {
		t.Fatalf("post-sweep store broken: %q ok=%v", got, ok)
	}
}

func TestConcurrentWritersSameKey(t *testing.T) {
	s := mustOpen(t)
	// Deterministic producers write identical payloads; racing writers must
	// end with one complete, verifiable entry.
	payload := []byte(`{"cycles":42}`)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Put(k, payload); err != nil {
				t.Errorf("Put: %v", err)
			}
		}()
	}
	wg.Wait()
	got, ok, err := s.Get(k)
	if err != nil || !ok || !bytes.Equal(got, payload) {
		t.Fatalf("after racing writers: %q ok=%v err=%v", got, ok, err)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(filepath.Join(s.root, k.Space))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	s := mustOpen(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		key := Key{Space: "sp", Name: fmt.Sprintf("cell-%d", i)}
		payload := []byte(fmt.Sprintf(`{"cell":%d}`, i))
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				s.Put(key, payload)
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				got, ok, err := s.Get(key)
				if err != nil {
					t.Errorf("Get: %v", err)
				}
				if ok && !bytes.Equal(got, payload) {
					t.Errorf("partial/wrong read: %q", got)
				}
			}
		}()
	}
	wg.Wait()
}

func TestReadOnlyDegradation(t *testing.T) {
	if os.Getuid() == 0 {
		t.Skip("running as root: directory permissions are not enforced")
	}
	dir := t.TempDir()
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open on unwritable dir should degrade, got error: %v", err)
	}
	if !s.ReadOnly() {
		t.Fatalf("store on unwritable dir not read-only")
	}
	if err := s.Put(k, []byte("p")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Put in read-only mode: %v", err)
	}
	if _, ok, err := s.Get(k); ok || err != nil {
		t.Fatalf("Get in read-only mode: ok=%v err=%v", ok, err)
	}
}

func TestReadOnlyStoreStillServesExistingEntries(t *testing.T) {
	if os.Getuid() == 0 {
		t.Skip("running as root: directory permissions are not enforced")
	}
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(k, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.ReadOnly() {
		t.Fatalf("expected read-only")
	}
	got, ok, err := s2.Get(k)
	if err != nil || !ok || string(got) != "kept" {
		t.Fatalf("read-only Get: %q ok=%v err=%v", got, ok, err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := mustOpen(t)
	type rec struct {
		Cycles   uint64            `json:"cycles"`
		Counters map[string]uint64 `json:"counters"`
	}
	in := rec{Cycles: 9, Counters: map[string]uint64{"b": 2, "a": 1}}
	if err := s.PutJSON(k, &in); err != nil {
		t.Fatal(err)
	}
	var out rec
	ok, err := s.GetJSON(k, &out)
	if err != nil || !ok {
		t.Fatalf("GetJSON: ok=%v err=%v", ok, err)
	}
	if out.Cycles != 9 || out.Counters["a"] != 1 || out.Counters["b"] != 2 {
		t.Fatalf("round trip: %+v", out)
	}
}

func TestQuarantineNamesDoNotCollide(t *testing.T) {
	s := mustOpen(t)
	for i := 0; i < 3; i++ {
		if err := s.Put(k, []byte(`{"n":1}`)); err != nil {
			t.Fatal(err)
		}
		corrupt(t, s, k, func(b []byte) []byte { return b[:len(b)-2] })
		wantsCorrupt := func() {
			if _, _, err := s.Get(k); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("round %d: %v", i, err)
			}
		}
		wantsCorrupt()
	}
	q, err := os.ReadDir(filepath.Join(s.root, quarantineDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 3 {
		t.Fatalf("want 3 quarantined files, got %d", len(q))
	}
	if s.Stats().Quarantined != 3 {
		t.Fatalf("counters %+v", s.Stats())
	}
}
