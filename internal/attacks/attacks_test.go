package attacks

import (
	"testing"

	"specasan/internal/core"
)

// expectedMatrix is Table 1 of the paper, reconstructed from §4 prose:
// ● full, ◐ partial, ○ none. Row order matches All().
var expectedMatrix = map[string]map[core.Mitigation]Verdict{
	"PHT (Spectre v1)": {
		core.STT: VerdictFull, core.GhostMinion: VerdictFull,
		core.SpecCFI: VerdictNone, core.SpecASan: VerdictFull,
		core.SpecASanCFI: VerdictFull,
	},
	"BTB (Spectre v2)": {
		core.STT: VerdictFull, core.GhostMinion: VerdictFull,
		core.SpecCFI: VerdictFull, core.SpecASan: VerdictPartial,
		core.SpecASanCFI: VerdictFull,
	},
	"RSB (Spectre v5)": {
		core.STT: VerdictFull, core.GhostMinion: VerdictFull,
		core.SpecCFI: VerdictFull, core.SpecASan: VerdictPartial,
		core.SpecASanCFI: VerdictFull,
	},
	"STL (Spectre v4)": {
		core.STT: VerdictFull, core.GhostMinion: VerdictFull,
		core.SpecCFI: VerdictNone, core.SpecASan: VerdictFull,
		core.SpecASanCFI: VerdictFull,
	},
	"BHB (BHI)": {
		core.STT: VerdictFull, core.GhostMinion: VerdictFull,
		core.SpecCFI: VerdictFull, core.SpecASan: VerdictPartial,
		core.SpecASanCFI: VerdictFull,
	},
	"Fallout": {
		core.STT: VerdictNone, core.GhostMinion: VerdictNone,
		core.SpecCFI: VerdictNone, core.SpecASan: VerdictFull,
		core.SpecASanCFI: VerdictFull,
	},
	"RIDL": {
		core.STT: VerdictNone, core.GhostMinion: VerdictNone,
		core.SpecCFI: VerdictNone, core.SpecASan: VerdictFull,
		core.SpecASanCFI: VerdictFull,
	},
	"ZombieLoad": {
		core.STT: VerdictNone, core.GhostMinion: VerdictNone,
		core.SpecCFI: VerdictNone, core.SpecASan: VerdictFull,
		core.SpecASanCFI: VerdictFull,
	},
	"SMoTHERSpectre": {
		core.STT: VerdictPartial, core.GhostMinion: VerdictPartial,
		core.SpecCFI: VerdictFull, core.SpecASan: VerdictPartial,
		core.SpecASanCFI: VerdictFull,
	},
	"Spec. Interference": {
		core.STT: VerdictPartial, core.GhostMinion: VerdictPartial,
		core.SpecCFI: VerdictNone, core.SpecASan: VerdictFull,
		core.SpecASanCFI: VerdictFull,
	},
	"SpectreRewind": {
		core.STT: VerdictPartial, core.GhostMinion: VerdictPartial,
		core.SpecCFI: VerdictNone, core.SpecASan: VerdictFull,
		core.SpecASanCFI: VerdictFull,
	},
}

// TestAllAttacksLeakOnUnsafeBaseline: with no mitigation, every PoC variant
// must actually work — otherwise the matrix proves nothing.
func TestAllAttacksLeakOnUnsafeBaseline(t *testing.T) {
	for _, a := range All() {
		for _, v := range a.Variants {
			t.Run(a.Name+"/"+v.Name, func(t *testing.T) {
				out, err := RunVariant(v, core.Unsafe)
				if err != nil {
					t.Fatal(err)
				}
				if out.TimedOut {
					t.Fatalf("timed out after %d cycles", out.Cycles)
				}
				if !out.Leaked {
					t.Fatalf("no leak on unsafe baseline (secretReads=%d, events=%v)",
						out.SecretReads, out.Events)
				}
			})
		}
	}
}

// TestMTEAloneDoesNotStopSpectre: committed-path tag checks (plain MTE)
// must not block the speculative v1 leak — the gap SpecASan closes.
func TestMTEAloneDoesNotStopSpectre(t *testing.T) {
	v := SpectrePHT().Variants[0]
	out, err := RunVariant(v, core.MTE)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Leaked {
		t.Fatalf("plain MTE unexpectedly blocked Spectre-v1 (events=%v)", out.Events)
	}
}

// TestTable1Matrix reproduces every cell of Table 1.
func TestTable1Matrix(t *testing.T) {
	for _, a := range All() {
		want, ok := expectedMatrix[a.Name]
		if !ok {
			t.Fatalf("no expectation for %s", a.Name)
		}
		for _, mit := range TableMitigations() {
			mit := mit
			a := a
			t.Run(a.Name+"/"+mit.String(), func(t *testing.T) {
				verdict, outs, err := a.Evaluate(mit)
				if err != nil {
					t.Fatal(err)
				}
				if verdict != want[mit] {
					for _, o := range outs {
						t.Logf("  variant %-28s leaked=%v reads=%d events=%v timeout=%v",
							o.Variant, o.Leaked, o.SecretReads, o.Events, o.TimedOut)
					}
					t.Fatalf("verdict = %s, want %s", verdict.Word(), want[mit].Word())
				}
			})
		}
	}
}

// TestSpecASanBlocksAccessStage: under SpecASan the v1 secret must never be
// speculatively read at all (G1), not merely not transmitted.
func TestSpecASanBlocksAccessStage(t *testing.T) {
	v := SpectrePHT().Variants[0]
	out, err := RunVariant(v, core.SpecASan)
	if err != nil {
		t.Fatal(err)
	}
	if out.SecretReads != 0 {
		t.Fatalf("secret speculatively read %d times under SpecASan", out.SecretReads)
	}
}

// TestGhostMinionHidesMemoryDependenceFills runs the STL (Spectre v4) PoC
// under GhostMinion and reads the attacker's view: which probe lines are
// valid in L1D or L2 once the run ends. The stale-secret load and its
// transmit execute inside a memory-dependence window, which the core
// routes to the ghost buffer, so the secret-indexed probe line must not be
// installed in the real caches. The unprotected baseline installs it.
func TestGhostMinionHidesMemoryDependenceFills(t *testing.T) {
	secretLine := int(SecretValue & 63) // the transmit's probe line
	cached := func(mit core.Mitigation) []int {
		sc, err := SpectreSTL().Variants[0].Build()
		if err != nil {
			t.Fatal(err)
		}
		_, m, res, err := RunScenario("stl", sc, mit, nil)
		if err != nil {
			t.Fatal(err)
		}
		var lines []int
		for i := 0; i < ProbeSize/64; i++ {
			if m.Hier.InAnyCache(ProbeAddr+uint64(i)*64, res.Cycles) {
				lines = append(lines, i)
			}
		}
		return lines
	}
	has := func(lines []int, l int) bool {
		for _, x := range lines {
			if x == l {
				return true
			}
		}
		return false
	}
	if lines := cached(core.Unsafe); !has(lines, secretLine) {
		t.Fatalf("Unsafe: probe lines %v cached, want the secret's line %d among them", lines, secretLine)
	}
	if lines := cached(core.GhostMinion); has(lines, secretLine) {
		t.Fatalf("GhostMinion: probe lines %v cached, the secret's line %d among them", lines, secretLine)
	}
}
