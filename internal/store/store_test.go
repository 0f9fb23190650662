package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// header is the decoded form of an entry's first line.
type header struct {
	Schema string `json:"schema"`
	Space  string `json:"space"`
	Name   string `json:"name"`
	Len    int64  `json:"len"`
	SHA256 string `json:"sha256"`
}

// appendHeader spells out json.Marshal's encoding of header, which is what
// every entry written before it carries: entries stay readable across the
// change, and an entry a JSON encoder wrote reads like one Put wrote.
func TestHeaderIsJSONOfHeader(t *testing.T) {
	for _, c := range []struct {
		k       Key
		payload string
	}{
		{k, `{"cycles":12345}`},
		{Key{Space: "0123456789abcdef", Name: "505.mcf_r__SpecASan-1a2b3c4d"}, ""},
		{Key{Space: "_", Name: "A.b-c_9"}, strings.Repeat("x", 123456)},
	} {
		sum := sha256.Sum256([]byte(c.payload))
		want, err := json.Marshal(&header{Schema: Schema, Space: c.k.Space, Name: c.k.Name,
			Len: int64(len(c.payload)), SHA256: hex.EncodeToString(sum[:])})
		if err != nil {
			t.Fatal(err)
		}
		if got := appendHeader(nil, c.k, len(c.payload), &sum); string(got) != string(want)+"\n" {
			t.Errorf("appendHeader(%s) = %s, want %s", c.k, got, want)
		}
	}
}

// keyPart accepts exactly the strings keyPartRule matches.
func TestKeyPartMatchesRule(t *testing.T) {
	rule := regexp.MustCompile(keyPartRule)
	check := func(s string) {
		if got, want := keyPart(s), rule.MatchString(s); got != want {
			t.Errorf("keyPart(%q) = %v, rule says %v", s, got, want)
		}
	}
	for _, s := range []string{"", "a\n", "\na", "é", "aé", "a\x00", "..", "./a", "a/b", "abc123", "505.mcf_r__SpecASan-deadbeef"} {
		check(s)
	}
	for a := 0; a < 256; a++ {
		check(string(rune(a)))
		check(string([]byte{byte(a)}))
		for b := 0; b < 256; b++ {
			check(string([]byte{byte(a), byte(b)}))
		}
	}
}

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
		{Space: "a", Name: ".hidden"},
		{Space: "-flag", Name: "x"},
		{Space: "a", Name: "-flag"},
		{Space: "a", Name: "x/"},
		{Space: "/", Name: "x"},
		{Space: "..", Name: "x"},
		{Space: "a", Name: ".."},
		{Space: "a", Name: "café"},
		{Space: "é", Name: "x"},
		{Space: "a", Name: "x y"},
		{Space: "a", Name: "x\n"},
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

// A header that decodes to the right fields but is not the exact line Put
// writes (fields reordered, spaces added) is corrupt: reads compare the
// line, they do not decode it.
func TestReencodedHeaderQuarantinedAndMissed(t *testing.T) {
	for name, reencode := range map[string]func(line []byte) []byte{
		"reordered fields": func(line []byte) []byte {
			var h header
			if err := json.Unmarshal(line, &h); err != nil {
				t.Fatal(err)
			}
			return []byte(fmt.Sprintf(`{"space":%q,"schema":%q,"name":%q,"len":%d,"sha256":%q}`, h.Space, h.Schema, h.Name, h.Len, h.SHA256))
		},
		"extra spaces": func(line []byte) []byte {
			return bytes.ReplaceAll(line, []byte(`,"`), []byte(`, "`))
		},
	} {
		t.Run(name, func(t *testing.T) {
			s := mustOpen(t)
			if err := s.Put(k, []byte(`{"cycles":12345}`)); err != nil {
				t.Fatal(err)
			}
			corrupt(t, s, k, func(b []byte) []byte {
				line, payload, _ := bytes.Cut(b, []byte("\n"))
				var h header
				if err := json.Unmarshal(reencode(line), &h); err != nil || h.Len != int64(len(payload)) {
					t.Fatalf("re-encoded header %s does not decode to the entry's: %v", reencode(line), err)
				}
				return append(append(reencode(line), '\n'), payload...)
			})
			wantCorruptMiss(t, s, k)
		})
	}
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

// Into a json.RawMessage, GetJSON serves canonical JSON only, and scans a
// payload once: a payload it accepted is remembered by its SHA-256, which
// never vouches for different bytes later filed under the same key.
func TestRawJSONScannedOncePerPayload(t *testing.T) {
	s := mustOpen(t)
	good := []byte(`{"cycles":12345,"output":"\u003cok\u003e"}`)
	if err := s.Put(k, good); err != nil {
		t.Fatal(err)
	}
	var raw json.RawMessage
	if ok, err := s.GetJSON(k, &raw); !ok || err != nil || !bytes.Equal(raw, good) {
		t.Fatalf("GetJSON = %q, %v, %v; want the stored bytes", raw, ok, err)
	}
	if !s.canonical.has(sha256.Sum256(good)) {
		t.Fatal("accepted payload not remembered")
	}

	// A broken payload under the same key is still scanned and quarantined.
	broken := good[:len(good)-1]
	if err := s.Put(k, broken); err != nil {
		t.Fatal(err)
	}
	if ok, err := s.GetJSON(k, &raw); ok || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("broken payload after a remembered one: ok=%v err=%v, want ErrCorrupt", ok, err)
	}
	if _, err := os.Lstat(s.path(k)); !os.IsNotExist(err) {
		t.Fatal("broken payload not quarantined")
	}

	// Valid JSON in another form than json.Marshal's is a plain miss that
	// stays in place until a Put overwrites it.
	for _, other := range []string{`{"cycles": 12345}`, ` {"cycles":12345}`, `{"output":"<ok>"}`, "{\"output\":\"\u2028\"}"} {
		if err := s.Put(k, []byte(other)); err != nil {
			t.Fatal(err)
		}
		if ok, err := s.GetJSON(k, &raw); ok || err != nil {
			t.Fatalf("GetJSON(%q) = %v, %v; want a plain miss", other, ok, err)
		}
		if _, err := os.Lstat(s.path(k)); err != nil {
			t.Fatalf("non-canonical entry %q moved: %v", other, err)
		}
		var v map[string]any
		if ok, err := s.GetJSON(k, &v); !ok || err != nil {
			t.Fatalf("GetJSON(%q) into a map = %v, %v; want a hit", other, ok, err)
		}
	}
	if q := s.Stats().Quarantined; q != 1 {
		t.Fatalf("quarantined %d entries, want the broken one", q)
	}
}

func TestDigestSetBounded(t *testing.T) {
	var d digestSet
	digest := func(i int) [sha256.Size]byte { return sha256.Sum256([]byte(fmt.Sprint(i))) }
	for i := 0; i < digestSetSize; i++ {
		d.add(digest(i))
	}
	if len(d.set) != digestSetSize || !d.has(digest(0)) || !d.has(digest(digestSetSize-1)) {
		t.Fatalf("full set holds %d digests, want all %d", len(d.set), digestSetSize)
	}
	d.add(digest(digestSetSize))
	if len(d.set) != 1 || d.has(digest(0)) || !d.has(digest(digestSetSize)) {
		t.Fatalf("set past its bound holds %d digests, want only the newest", len(d.set))
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
