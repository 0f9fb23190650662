package fuzzer

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"specasan/internal/attacks"
	"specasan/internal/core"
	"specasan/internal/scenario"
	"specasan/internal/store"
)

func TestGenerateDeterministic(t *testing.T) {
	for i := 0; i < 64; i++ {
		a, b := Generate(42, i), Generate(42, i)
		if a.Source != b.Source || a.Hash() != b.Hash() {
			t.Fatalf("Generate(42, %d) not deterministic", i)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("Generate(42, %d) structures differ", i)
		}
	}
	// Different indices overwhelmingly produce different programs.
	hashes := map[string]bool{}
	for i := 0; i < 64; i++ {
		hashes[Generate(42, i).Hash()] = true
	}
	if len(hashes) < 48 {
		t.Fatalf("only %d distinct programs in 64 indices", len(hashes))
	}
}

func TestGeneratedCandidatesValid(t *testing.T) {
	// Every generated program must assemble and terminate cleanly on the
	// golden interpreter in both MTE modes — EvaluateCandidate's validity
	// gate. A grammar that emits invalid programs wastes the whole loop.
	mits := []core.Mitigation{core.Unsafe}
	for i := 0; i < 96; i++ {
		c := Generate(7, i)
		ev := EvaluateCandidate(c, mits)
		if !ev.Valid {
			t.Fatalf("candidate %s invalid: %s\n%s", c.Name(), ev.InvalidReason, c.Source)
		}
		if len(ev.Diverged) > 0 {
			t.Fatalf("candidate %s diverges under %v", c.Name(), ev.Diverged)
		}
	}
}

func TestGenerateCoversGrammar(t *testing.T) {
	// A modest index range must exercise every trigger, relation and channel.
	triggers, relations, channels := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for i := 0; i < 256; i++ {
		c := Generate(1, i)
		triggers[c.Trigger], relations[c.Relation], channels[c.Channel] = true, true, true
	}
	if len(triggers) != len(attacks.Triggers()) {
		t.Fatalf("triggers covered: %v", triggers)
	}
	if len(channels) != len(Channels()) {
		t.Fatalf("channels covered: %v", channels)
	}
	for _, rel := range []string{attacks.RelForeign, attacks.RelMatching, attacks.RelStale, attacks.RelUntagged} {
		if !relations[rel] {
			t.Fatalf("relation %s never generated", rel)
		}
	}
}

// mustMit parses a registry name.
func mustMit(t *testing.T, name string) core.Mitigation {
	t.Helper()
	m, err := core.ParseMitigation(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestClaimsTable(t *testing.T) {
	// The claims model pinned against hand-derived Table 1 reasoning. Each row
	// is (mitigation, trigger, relation, channel) → expected tier. DelayOnMiss
	// registers via the scenario package import.
	_ = scenario.DelayOnMiss
	cand := func(trigger, rel, ch string) *Candidate {
		return &Candidate{Trigger: trigger, Relation: rel, Channel: ch}
	}
	cases := []struct {
		mit     string
		trigger string
		rel     string
		ch      string
		want    ClaimTier
	}{
		// Unsafe and committed-path MTE claim nothing.
		{"Unsafe", attacks.TriggerPHT, attacks.RelForeign, ChanCache, ClaimNone},
		{"MTE", attacks.TriggerPHT, attacks.RelForeign, ChanCache, ClaimNone},
		// The fence delays every speculative load: blocked everywhere.
		{"SpecBarrier", attacks.TriggerPHT, attacks.RelForeign, ChanCache, ClaimBlocked},
		{"SpecBarrier", attacks.TriggerSTL, attacks.RelUntagged, ChanPort, ClaimBlocked},
		// STT blocks memory/branch transmitters but documents the SCC gap.
		{"STT", attacks.TriggerPHT, attacks.RelForeign, ChanCache, ClaimBlocked},
		{"STT", attacks.TriggerBTB, attacks.RelMatching, ChanBranch, ClaimBlocked},
		{"STT", attacks.TriggerPHT, attacks.RelForeign, ChanPort, ClaimKnownGap},
		{"STT", attacks.TriggerRSB, attacks.RelMatching, ChanDiv, ClaimKnownGap},
		// GhostMinion covers cache-shaped fills, not contention.
		{"GhostMinion", attacks.TriggerPHT, attacks.RelForeign, ChanCache, ClaimBlocked},
		{"GhostMinion", attacks.TriggerPHT, attacks.RelForeign, ChanTagLatency, ClaimBlocked},
		{"GhostMinion", attacks.TriggerPHT, attacks.RelForeign, ChanPort, ClaimKnownGap},
		{"GhostMinion", attacks.TriggerSTL, attacks.RelStale, ChanBranch, ClaimKnownGap},
		// SpecCFI claims only injected control flow.
		{"SpecCFI", attacks.TriggerBTB, attacks.RelForeign, ChanCache, ClaimBlocked},
		{"SpecCFI", attacks.TriggerRSB, attacks.RelMatching, ChanPort, ClaimBlocked},
		{"SpecCFI", attacks.TriggerPHT, attacks.RelForeign, ChanCache, ClaimNone},
		{"SpecCFI", attacks.TriggerSTL, attacks.RelStale, ChanCache, ClaimNone},
		// SpecASan: tag violations and stale-window loads blocked; tag-valid
		// pointers are the paper's partial rows; untagged slots escape MTE.
		{"SpecASan", attacks.TriggerPHT, attacks.RelForeign, ChanCache, ClaimBlocked},
		{"SpecASan", attacks.TriggerSTL, attacks.RelStale, ChanCache, ClaimBlocked},
		{"SpecASan", attacks.TriggerBTB, attacks.RelMatching, ChanCache, ClaimKnownGap},
		{"SpecASan", attacks.TriggerSTL, attacks.RelUntagged, ChanCache, ClaimKnownGap},
		// Claims combine by max tier: SpecASan+CFI on a matching-pointer BTB
		// shape is blocked (CFI) even though sanitization alone is partial.
		{"SpecASan+CFI", attacks.TriggerBTB, attacks.RelMatching, ChanCache, ClaimBlocked},
		{"SpecASan+CFI", attacks.TriggerSTL, attacks.RelUntagged, ChanCache, ClaimKnownGap},
		// DelayOnMiss: known gap on cache-shaped channels, no claim otherwise.
		{"DelayOnMiss", attacks.TriggerPHT, attacks.RelForeign, ChanCache, ClaimKnownGap},
		{"DelayOnMiss", attacks.TriggerPHT, attacks.RelForeign, ChanPort, ClaimNone},
	}
	for _, tc := range cases {
		got, reason := Claim(mustMit(t, tc.mit), cand(tc.trigger, tc.rel, tc.ch))
		if got != tc.want {
			t.Errorf("Claim(%s, %s/%s/%s) = %v (%s), want %v",
				tc.mit, tc.trigger, tc.rel, tc.ch, got, reason, tc.want)
		}
		if reason == "" {
			t.Errorf("Claim(%s, %s/%s/%s) has no reason", tc.mit, tc.trigger, tc.rel, tc.ch)
		}
	}
}

func TestDdmin(t *testing.T) {
	lines := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	needs := func(keep ...string) func([]string) bool {
		return func(ls []string) bool {
			have := map[string]bool{}
			for _, l := range ls {
				have[l] = true
			}
			for _, k := range keep {
				if !have[k] {
					return false
				}
			}
			return true
		}
	}
	cases := [][]string{{"c"}, {"b", "g"}, {"a", "d", "h"}, {}}
	for _, want := range cases {
		got := ddmin(lines, needs(want...))
		if !reflect.DeepEqual(got, want) && !(len(want) == 0 && len(got) <= 1) {
			t.Errorf("ddmin keeping %v = %v", want, got)
		}
	}
	// Order is preserved.
	got := ddmin(lines, needs("g", "b"))
	if !reflect.DeepEqual(got, []string{"b", "g"}) {
		t.Errorf("ddmin must preserve line order: %v", got)
	}
}

// firstFind scans generated candidates until one flags under the full
// registry, returning it with its evaluation.
func firstFind(t *testing.T, seed uint64) (*Candidate, *Evaluation) {
	t.Helper()
	mits := core.RegisteredMitigations()
	for i := 0; i < 128; i++ {
		c := Generate(seed, i)
		ev := EvaluateCandidate(c, mits)
		if ev.Valid && ev.Flagged() && len(ev.Diverged) == 0 {
			return c, ev
		}
	}
	t.Fatal("no flagged candidate in 128 indices")
	return nil, nil
}

func TestMinimisePreservesLeak(t *testing.T) {
	c, ev := firstFind(t, 11)
	flagged := append(append([]string{}, ev.Counterexamples...), ev.KnownGapLeaks...)
	target := mustMit(t, flagged[0])
	min, err := Minimise(c, target)
	if err != nil {
		t.Fatalf("Minimise: %v", err)
	}
	if len(min.Body) > len(c.Body) {
		t.Fatalf("minimised body grew: %d > %d", len(min.Body), len(c.Body))
	}
	// The minimised candidate still replays the leak under the target.
	out, err := attacks.RunVariantWith(min.Setup.Variant(min.Name(), min.Source, evalMaxCycles), target, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Leaked {
		t.Fatalf("minimised candidate does not leak under %v:\n%s", target, min.Source)
	}
	// And no deletable line remains: dropping any single body line kills the
	// leak or the candidate (1-minimality of ddmin).
	for i := range min.Body {
		reduced := *min
		reduced.Body = append(append([]string{}, min.Body[:i]...), min.Body[i+1:]...)
		if err := reduced.Render(); err != nil {
			continue
		}
		rev := EvaluateCandidate(&reduced, []core.Mitigation{target})
		if rev.Valid && len(rev.Diverged) == 0 && len(rev.Rows) == 1 && rev.Rows[0].Leaked {
			t.Fatalf("line %d (%q) is deletable — not 1-minimal", i, min.Body[i])
		}
	}
}

func TestMinimiseRejectsNonReplayingFind(t *testing.T) {
	// A candidate that does not leak under the named mitigation must be
	// reported unminimisable, not silently emitted.
	c := Generate(1, 0)
	var blocked core.Mitigation
	found := false
	ev := EvaluateCandidate(c, core.RegisteredMitigations())
	for _, row := range ev.Rows {
		if !row.Leaked {
			blocked, found = mustMit(t, row.Mitigation), true
			break
		}
	}
	if !found {
		t.Skip("candidate leaks under every mitigation")
	}
	if _, err := Minimise(c, blocked); err == nil {
		t.Fatalf("Minimise must fail for a non-leaking target %v", blocked)
	} else if !strings.Contains(err.Error(), "unminimisable") {
		t.Fatalf("error %q does not say unminimisable", err)
	}
}

func TestPoCRoundTrip(t *testing.T) {
	c, ev := firstFind(t, 13)
	flagged := append(append([]string{}, ev.Counterexamples...), ev.KnownGapLeaks...)
	var fm []FlaggedMit
	for _, name := range flagged {
		tier, reason := Claim(mustMit(t, name), c)
		fm = append(fm, FlaggedMit{Mitigation: name, Claim: tier.String(), Reason: reason})
	}
	kind := KindKnownGap
	if len(ev.Counterexamples) > 0 {
		kind = KindCounterexample
	}
	poc := BuildPoC(c, kind, fm, ev.Rows, []string{"Unsafe", "SpecASan"})
	dir := t.TempDir()
	path, err := poc.Write(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadPoC(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, poc) {
		t.Fatal("PoC did not round-trip")
	}
	if _, err := os.Stat(filepath.Join(dir, poc.Name+".s")); err != nil {
		t.Fatalf("assembly file missing: %v", err)
	}
	// The embedded scenario validates and references the assembly.
	if err := got.Scenario.Validate(); err != nil {
		t.Fatalf("embedded scenario invalid: %v", err)
	}
	if want := scenario.FileWorkloadPrefix + poc.Name + ".s"; got.Scenario.Workloads[0] != want {
		t.Fatalf("scenario workload = %q, want %q", got.Scenario.Workloads[0], want)
	}
	// Replay: the document alone reproduces the leak under a flagged column.
	out, err := attacks.RunVariantWith(got.Variant(), mustMit(t, got.Flagged[0].Mitigation), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Leaked {
		t.Fatal("round-tripped PoC does not replay its leak")
	}
}

func TestReadPoCRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"schema":"other/v9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPoC(path); err == nil {
		t.Fatal("wrong schema must be rejected")
	}
}

// runCorpus runs the loop into a temp dir and returns name → file bytes for
// everything emitted.
func runCorpus(t *testing.T, opts Options) (map[string]string, *Report) {
	t.Helper()
	dir := t.TempDir()
	opts.OutDir = dir
	rep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, sub := range []string{"pocs", "differential"} {
		entries, err := os.ReadDir(filepath.Join(dir, sub))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, sub, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[sub+"/"+e.Name()] = string(data)
		}
	}
	return files, rep
}

func TestRunCorpusIdenticalAcrossWorkers(t *testing.T) {
	base := Options{Seed: 5, N: 24}
	serial, srep := runCorpus(t, Options{Seed: base.Seed, N: base.N, Workers: 1})
	parallel, prep := runCorpus(t, Options{Seed: base.Seed, N: base.N, Workers: 8})
	if len(serial) == 0 {
		t.Fatal("run emitted nothing; the determinism check is vacuous")
	}
	if !reflect.DeepEqual(keys(serial), keys(parallel)) {
		t.Fatalf("file sets differ:\n  serial   %v\n  parallel %v", keys(serial), keys(parallel))
	}
	for name, want := range serial {
		if parallel[name] != want {
			t.Fatalf("%s differs between -workers 1 and 8", name)
		}
	}
	if srep.Candidates != prep.Candidates || len(srep.PoCs) != len(prep.PoCs) {
		t.Fatal("report counts differ across worker counts")
	}
}

func TestRunStoreResume(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Seed: 5, N: 16, Store: st}
	first, frep := runCorpus(t, opts)
	if frep.CacheHits != 0 {
		t.Fatalf("cold run had %d cache hits", frep.CacheHits)
	}
	second, srep := runCorpus(t, opts)
	if srep.CacheHits != srep.Candidates {
		t.Fatalf("resumed run: %d/%d cache hits", srep.CacheHits, srep.Candidates)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached corpus differs from cold corpus")
	}
}

func TestStoreSpaceTracksRegistry(t *testing.T) {
	all := core.RegisteredMitigations()
	if storeSpace(all) == storeSpace(all[:len(all)-1]) {
		t.Fatal("store space must change with the mitigation set")
	}
	if storeSpace(all) != storeSpace(all) {
		t.Fatal("store space must be stable")
	}
}

func keys(m map[string]string) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
