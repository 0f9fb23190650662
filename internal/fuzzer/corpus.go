package fuzzer

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"specasan/internal/asm"
	"specasan/internal/attacks"
	"specasan/internal/scenario"
)

// PoCSchema versions the emitted PoC document format.
const PoCSchema = "specasan-poc/v1"

// PoC kinds.
const (
	KindCounterexample = "counterexample" // leak where the bits claim blocked
	KindKnownGap       = "known-gap"      // leak through a documented exception
)

// FlaggedMit names one mitigation the PoC defeats, with the claims-model
// judgment it contradicts or exercises.
type FlaggedMit struct {
	Mitigation string `json:"mitigation"`
	Claim      string `json:"claim"`
	Reason     string `json:"reason"`
}

// PoC is one minimised find: a self-contained Table-1-style row. The
// document carries everything needed to replay it — minimised source, setup
// spec, the full per-mitigation verdict sweep — plus a pinned scenario
// preset referencing the assembly file written next to it.
type PoC struct {
	Schema   string `json:"schema"`
	Name     string `json:"name"`
	Kind     string `json:"kind"`
	Seed     uint64 `json:"seed"`
	Index    int    `json:"index"`
	Trigger  string `json:"trigger"`
	Relation string `json:"relation"`
	Channel  string `json:"channel"`

	Flagged []FlaggedMit `json:"flagged"`
	// Rows is the post-minimisation sweep over every registered mitigation:
	// the PoC's Table 1 row.
	Rows []MitRow `json:"rows"`

	Source string            `json:"source"`
	Setup  attacks.SetupSpec `json:"setup"`

	// Scenario is the pinned scenario document for re-running this PoC
	// through the sweep harness; its workload references the .s file
	// emitted beside the JSON document.
	Scenario *scenario.Scenario `json:"scenario,omitempty"`
}

// Variant wraps the PoC for replay through attacks.RunVariantWith — the
// path TestPoCCorpusVerdicts and the CI corpus-replay step use.
func (p *PoC) Variant() attacks.Variant {
	return p.Setup.Variant(p.Name, p.Source, evalMaxCycles)
}

// BuildPoC assembles the emitted document from a minimised candidate and
// its full-registry evaluation. mitNames pins the scenario's mitigation
// columns (registry order).
func BuildPoC(min *Candidate, kind string, flagged []FlaggedMit, rows []MitRow, mitNames []string) *PoC {
	name := fmt.Sprintf("%s-%s", min.FeatureSig(), min.Hash()[:12])
	return &PoC{
		Schema: PoCSchema, Name: name, Kind: kind,
		Seed: min.Seed, Index: min.Index,
		Trigger: min.Trigger, Relation: min.Relation, Channel: min.Channel,
		Flagged: flagged, Rows: rows,
		Source: min.Source, Setup: min.Setup,
		Scenario: scenario.PoCScenario(name, name+".s", mitNames),
	}
}

// Write emits the PoC into dir: <name>.json (the document) and <name>.s
// (the minimised source the embedded scenario references). Returns the JSON
// path. Output is byte-stable: canonical field order, trailing newline.
func (p *PoC) Write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	asmPath := filepath.Join(dir, p.Name+".s")
	if err := os.WriteFile(asmPath, []byte(p.Source), 0o644); err != nil {
		return "", err
	}
	doc, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return "", err
	}
	jsonPath := filepath.Join(dir, p.Name+".json")
	if err := os.WriteFile(jsonPath, append(doc, '\n'), 0o644); err != nil {
		return "", err
	}
	return jsonPath, nil
}

// ReadPoC loads one emitted document (see ParsePoC).
func ReadPoC(path string) (*PoC, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := ParsePoC(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// ParsePoC decodes a PoC document strictly (an unknown field anywhere or
// trailing data is an error) and validates what a replay would run: the
// schema, the embedded scenario (scenario.Validate), the setup
// (attacks.SetupSpec.Validate), and the source, which must assemble and
// define the label its RSB poisoning names.
func ParsePoC(data []byte) (*PoC, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var p PoC
	if err := dec.Decode(&p); err != nil {
		return nil, err
	}
	if dec.More() {
		return nil, errors.New("trailing data after document")
	}
	if p.Schema != PoCSchema {
		return nil, fmt.Errorf("schema %q (want %q)", p.Schema, PoCSchema)
	}
	if p.Scenario != nil {
		if err := p.Scenario.Validate(); err != nil {
			return nil, err
		}
	}
	if err := p.Setup.Validate(); err != nil {
		return nil, err
	}
	prog, err := asm.Assemble(p.Source)
	if err != nil {
		return nil, fmt.Errorf("source: %w", err)
	}
	if l := p.Setup.PoisonRSBLabel; l != "" {
		if _, err := prog.LookupLabel(l); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	return &p, nil
}
