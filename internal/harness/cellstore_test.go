package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specasan/internal/core"
	"specasan/internal/cpu"
	"specasan/internal/scenario"
	"specasan/internal/store"
	"specasan/internal/workloads"
)

func testStore(t *testing.T) (DiskCellStore, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return DiskCellStore{S: s}, dir
}

func cacheOpts(t *testing.T, cs CellStore) Options {
	t.Helper()
	opt := DefaultOptions()
	opt.Scale = 0.02
	opt.MaxCycles = 20_000_000
	opt.Store = cs
	opt.ResultHash = scenario.Default().ResultHash()
	return opt
}

// formatSweep renders every table a sweep feeds, the byte-level surface the
// cache must reproduce.
func formatSweep(sw *Sweep) string {
	return sw.FormatNormalized("t") + sw.FormatRestricted("t")
}

func TestCellCacheHitIsByteIdentical(t *testing.T) {
	cs, _ := testStore(t)
	spec := workloads.ByName("511.povray_r")
	mits := []core.Mitigation{core.Unsafe, core.SpecASan}
	opt := cacheOpts(t, cs)

	cold, err := RunSweep([]*workloads.Spec{spec}, mits, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := cs.S.Stats().Puts; got != 2 {
		t.Fatalf("cold sweep stored %d cells, want 2", got)
	}

	warm, err := RunSweep([]*workloads.Spec{spec}, mits, opt)
	if err != nil {
		t.Fatal(err)
	}
	if hits := cs.S.Stats().Hits; hits != 2 {
		t.Fatalf("warm sweep hit %d cells, want 2", hits)
	}
	if a, b := formatSweep(cold), formatSweep(warm); a != b {
		t.Fatalf("cached tables differ:\n--- cold\n%s--- warm\n%s", a, b)
	}
	// The underlying stored payloads are canonical: re-put of the warm
	// result would be byte-identical (verified via marshal).
	cr := CellResultOf(warm.Results[spec.Name][core.SpecASan])
	b1, _ := json.Marshal(cr)
	b2, _ := json.Marshal(CellResultOf(cold.Results[spec.Name][core.SpecASan]))
	if !bytes.Equal(b1, b2) {
		t.Fatalf("canonical payloads differ:\n%s\n%s", b1, b2)
	}
}

func TestCellCacheServedWithoutSimulation(t *testing.T) {
	cs, _ := testStore(t)
	spec := workloads.ByName("511.povray_r")
	opt := cacheOpts(t, cs)
	if _, cached, err := RunCell(spec, core.Unsafe, opt); err != nil || cached {
		t.Fatalf("cold run: cached=%v err=%v", cached, err)
	}
	// Second run must come from the store: report cached=true and perform
	// zero additional puts.
	puts := cs.S.Stats().Puts
	r, cached, err := RunCell(spec, core.Unsafe, opt)
	if err != nil || !cached {
		t.Fatalf("warm run: cached=%v err=%v", cached, err)
	}
	if cs.S.Stats().Puts != puts {
		t.Fatalf("warm run wrote to the store")
	}
	if r.Cycles == 0 || r.Stats.Get("restricted_commits") != r.Restricted {
		t.Fatalf("rehydrated result malformed: %+v", r)
	}
}

func TestCorruptedEntryQuarantinedAndResimulated(t *testing.T) {
	cs, dir := testStore(t)
	spec := workloads.ByName("511.povray_r")
	opt := cacheOpts(t, cs)
	cold, _, err := RunCell(spec, core.Unsafe, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit in the single stored entry.
	var entry string
	filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err == nil && strings.HasSuffix(p, ".entry") {
			entry = p
		}
		return nil
	})
	if entry == "" {
		t.Fatal("no entry written")
	}
	b, err := os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-2] ^= 0x04
	if err := os.WriteFile(entry, b, 0o644); err != nil {
		t.Fatal(err)
	}

	r, cached, err := RunCell(spec, core.Unsafe, opt)
	if err != nil {
		t.Fatalf("re-simulation after corruption failed: %v", err)
	}
	if cached {
		t.Fatal("corrupt entry was served")
	}
	if r.Cycles != cold.Cycles || r.Committed != cold.Committed {
		t.Fatalf("re-simulated result diverged: %d/%d vs %d/%d",
			r.Cycles, r.Committed, cold.Cycles, cold.Committed)
	}
	n := cs.S.Stats()
	if n.Quarantined != 1 {
		t.Fatalf("corrupt entry not quarantined: %+v", n)
	}
	// The re-simulation healed the cache: next run hits.
	if _, cached, err := RunCell(spec, core.Unsafe, opt); err != nil || !cached {
		t.Fatalf("cache not healed: cached=%v err=%v", cached, err)
	}
}

func TestInstrumentedCellsBypassCache(t *testing.T) {
	cs, _ := testStore(t)
	spec := workloads.ByName("511.povray_r")
	opt := cacheOpts(t, cs)
	var metrics bytes.Buffer
	opt.Metrics = &metrics
	if _, cached, err := RunCell(spec, core.Unsafe, opt); err != nil || cached {
		t.Fatalf("instrumented run: cached=%v err=%v", cached, err)
	}
	if n := cs.S.Stats(); n.Puts != 0 || n.Hits != 0 {
		t.Fatalf("instrumented run touched the cache: %+v", n)
	}
	if metrics.Len() == 0 {
		t.Fatal("metrics stream empty")
	}
}

// TestMemCellStoreServesRepeats runs one sweep twice through one in-process
// memo on a two-worker pool: the repeat serves every cell from the memo with
// byte-identical tables, and an instrumented cell neither reads nor writes it.
func TestMemCellStoreServesRepeats(t *testing.T) {
	memo := &MemCellStore{}
	specs := []*workloads.Spec{workloads.ByName("511.povray_r"), workloads.ByName("505.mcf_r")}
	mits := []core.Mitigation{core.Unsafe, core.SpecASan}
	opt := cacheOpts(t, memo)
	opt.Workers = 2
	var log bytes.Buffer
	opt.Verbose, opt.Log = true, &log

	cold, err := RunSweep(specs, mits, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(log.String(), " cached "); n != 0 {
		t.Fatalf("cold sweep served %d cells from an empty memo", n)
	}
	log.Reset()
	warm, err := RunSweep(specs, mits, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(log.String(), " cached "); n != 4 {
		t.Fatalf("warm sweep served %d cells from the memo, want 4:\n%s", n, &log)
	}
	if a, b := formatSweep(cold), formatSweep(warm); a != b {
		t.Fatalf("memo tables differ:\n--- cold\n%s--- warm\n%s", a, b)
	}

	opt.Metrics = io.Discard
	if _, cached, err := RunCell(workloads.ByName("508.namd_r"), core.Unsafe, opt); err != nil || cached {
		t.Fatalf("instrumented run: cached=%v err=%v", cached, err)
	}
	if len(memo.cells) != 4 {
		t.Fatalf("instrumented run changed the memo: %d cells, want 4", len(memo.cells))
	}
}

func TestCacheDisabledWithoutResultHash(t *testing.T) {
	cs, _ := testStore(t)
	spec := workloads.ByName("511.povray_r")
	opt := cacheOpts(t, cs)
	opt.ResultHash = ""
	if _, cached, err := RunCell(spec, core.Unsafe, opt); err != nil || cached {
		t.Fatalf("run: cached=%v err=%v", cached, err)
	}
	if n := cs.S.Stats(); n.Puts != 0 {
		t.Fatalf("unkeyed run wrote to the cache: %+v", n)
	}
}

// A Source-override spec's program text lives outside the scenario hash, so
// (ResultHash, name) does not pin its identity — it must never be cached.
func TestSourceOverrideSpecsBypassCache(t *testing.T) {
	cs, _ := testStore(t)
	spec := &workloads.Spec{Name: "inline", Suite: "test", Threads: 1, Source: `
_start:
    MOV X0, #1
    HLT
`}
	opt := cacheOpts(t, cs)
	if _, cached, err := RunCell(spec, core.Unsafe, opt); err != nil || cached {
		t.Fatalf("source-override run: cached=%v err=%v", cached, err)
	}
	if n := cs.S.Stats(); n.Puts != 0 || n.Hits != 0 {
		t.Fatalf("source-override run touched the cache: %+v", n)
	}
}

func TestDifferentResultHashesDoNotShareCells(t *testing.T) {
	cs, _ := testStore(t)
	spec := workloads.ByName("511.povray_r")
	opt := cacheOpts(t, cs)
	if _, _, err := RunCell(spec, core.Unsafe, opt); err != nil {
		t.Fatal(err)
	}
	s2 := scenario.Default()
	s2.Run.Scale = 0.01 // semantically different context
	opt2 := opt
	opt2.Scale = 0.01
	opt2.ResultHash = s2.ResultHash()
	if opt2.ResultHash == opt.ResultHash {
		t.Fatal("scale change should move the result hash")
	}
	if _, cached, err := RunCell(spec, core.Unsafe, opt2); err != nil || cached {
		t.Fatalf("cross-context cache hit: cached=%v err=%v", cached, err)
	}
}

func TestRetryPolicyKnobs(t *testing.T) {
	spec := workloads.ByName("511.povray_r")
	opt := DefaultOptions()
	opt.Scale = 0.02
	r, _, err := RunCell(spec, core.Unsafe, opt)
	if err != nil {
		t.Fatal(err)
	}
	// A budget the kernel misses cold but recovers at 2x on the second
	// escalation: factor 2, retries 2 ⇒ budgets B, 2B, 4B.
	opt.MaxCycles = r.Cycles/3 + 1
	opt.Retry = RetryPolicy{BudgetFactor: 2, MaxRetries: 2}
	if _, _, err := RunCell(spec, core.Unsafe, opt); err != nil {
		t.Fatalf("2-retry policy did not recover: %v", err)
	}
	// Retries disabled: the same budget must fail outright.
	opt.Retry = RetryPolicy{MaxRetries: -1}
	if _, _, err := RunCell(spec, core.Unsafe, opt); !errors.Is(err, ErrTimedOut) {
		t.Fatalf("retries-off run: %v", err)
	}
	// Scenario mapping: max_retries 0 means none, knobs flow through.
	s := scenario.Default()
	s.Run.MaxRetries = 0
	if f, n := OptionsFromScenario(s).Retry.normalized(); n != 0 {
		t.Fatalf("scenario max_retries=0 mapped to %d retries (factor %d)", n, f)
	}
	s.Run.MaxRetries = 3
	s.Run.RetryBudgetFactor = 7
	if f, n := OptionsFromScenario(s).Retry.normalized(); n != 3 || f != 7 {
		t.Fatalf("scenario knobs mapped to factor=%d retries=%d", f, n)
	}
}

func TestRunCellRecoversPanics(t *testing.T) {
	// An Attach hook that panics stands in for any bug inside the cell: the
	// panic must come back as an error carrying the cell identity and a
	// stack, never escape, and never poison the cache (Attach set already
	// makes the cell uncacheable, so the store stays untouched too).
	spec := workloads.ByName("511.povray_r")
	opt := DefaultOptions()
	opt.Scale = 0.02
	opt.Attach = func(string, core.Mitigation, *cpu.Machine) {
		panic("injected cell fault")
	}
	r, cached, err := RunCell(spec, core.Unsafe, opt)
	if r != nil || cached {
		t.Fatalf("panicking cell returned a result: r=%v cached=%v", r, cached)
	}
	if err == nil || !strings.Contains(err.Error(), "injected cell fault") ||
		!strings.Contains(err.Error(), spec.Name) {
		t.Fatalf("panic not converted to a descriptive error: %v", err)
	}
	if !strings.Contains(err.Error(), "goroutine") {
		t.Fatalf("panic error missing stack trace: %v", err)
	}
}
