package attacks

import (
	"testing"

	"specasan/internal/core"
	"specasan/internal/cpu"
	"specasan/internal/mte"
)

// TestLVIMatchesSection6: the buffer-injection mechanism is blocked by tag
// validation of LFB forwards; the register-steering variant is beyond any
// memory-tagging defence (the paper's stated limitation). Overall: partial.
func TestLVIMatchesSection6(t *testing.T) {
	lvi := LVI()

	// Everything leaks on the unprotected baseline.
	for _, v := range lvi.Variants {
		out, err := RunVariant(v, core.Unsafe)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Leaked {
			t.Fatalf("%s must leak on the baseline (reads=%d events=%v)",
				v.Name, out.SecretReads, out.Events)
		}
	}

	verdict, outs, err := lvi.Evaluate(core.SpecASan)
	if err != nil {
		t.Fatal(err)
	}
	if verdict != VerdictPartial {
		for _, o := range outs {
			t.Logf("%s leaked=%v events=%v", o.Variant, o.Leaked, o.Events)
		}
		t.Fatalf("LVI under SpecASan = %s, want partial (§6)", verdict.Word())
	}
	for _, o := range outs {
		switch o.Variant {
		case "buffer-inject":
			if o.Leaked {
				t.Error("tag validation must block the buffer injection")
			}
		case "register-steer":
			if !o.Leaked {
				t.Error("register-targeted LVI is explicitly beyond SpecASan")
			}
		}
	}
}

// TestPrefetcherChannel: with a plain next-line prefetcher the secret line
// is pulled into the cache by the attacker's adjacent demand miss, even
// under SpecASan; the checked prefetcher closes the channel.
func TestPrefetcherChannel(t *testing.T) {
	leaked, err := RunPrefetchLeak(core.SpecASan, false)
	if err != nil {
		t.Fatal(err)
	}
	if !leaked {
		t.Fatal("unchecked prefetcher must pull the secret line (§6 risk)")
	}
	leaked, err = RunPrefetchLeak(core.SpecASan, true)
	if err != nil {
		t.Fatal(err)
	}
	if leaked {
		t.Fatal("checked prefetcher must stop at the allocation-tag boundary")
	}
}

// TestRIDLNeedsLFBTags: SpecASan's tag check reaches in-flight LFB data
// only through the LFB tagging extension (§3.3.3). Without it the RIDL
// sample leaks even under SpecASan; with it, it does not.
func TestRIDLNeedsLFBTags(t *testing.T) {
	for _, on := range []bool{true, false} {
		sc, err := RIDL().Variants[0].Build()
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.LFBTagging = on
		m, err := cpu.NewMachine(cfg, core.SpecASan, sc.Prog)
		if err != nil {
			t.Fatal(err)
		}
		sc.Setup(m)
		if res := m.Run(2_000_000); res.TimedOut {
			t.Fatalf("LFBTagging=%v: RIDL timed out", on)
		}
		if leaked := m.Oracle.Leaked(); leaked == on {
			t.Errorf("LFBTagging=%v: RIDL leaked=%v under SpecASan", on, leaked)
		}
	}
}

// TestTagBruteForceLimitation demonstrates §6's honest caveat: MTE has only
// 16 tags, so an attacker who can retry (catching the tag faults) finds a
// colliding key by brute force — SpecASan inherits this limitation from the
// ISA extension it builds on. A colliding secret tag leaks; any other stays
// blocked.
func TestTagBruteForceLimitation(t *testing.T) {
	run := func(secretTag mte.Tag) bool {
		sc, err := SpectrePHT().Variants[0].Build()
		if err != nil {
			t.Fatal(err)
		}
		m, err := cpu.NewMachine(core.DefaultConfig(), core.SpecASan, sc.Prog)
		if err != nil {
			t.Fatal(err)
		}
		sc.Setup(m)
		m.Img.Tags.SetRange(SecretAddr, SecretSize, secretTag)
		m.Run(2_000_000)
		return m.Oracle.Leaked()
	}
	leaks := 0
	for tag := mte.Tag(1); tag < mte.NumTags; tag++ {
		if run(tag) {
			leaks++
			if tag != TagVictim {
				t.Errorf("tag %#x leaked without colliding", tag)
			}
		}
	}
	if leaks != 1 {
		t.Fatalf("%d of 15 tag guesses leaked; exactly the colliding one must", leaks)
	}
}
