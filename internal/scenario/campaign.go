package scenario

import (
	"specasan/internal/chaos"
)

// CampaignCells expands a chaos scenario into its full campaign grid —
// workloads × mitigations × kind sets (each kind alone, plus all kinds
// combined when there is more than one) × seeds — in grid order, with each
// cell's store key derived via ChaosCellKey so campaigns can run against the
// result cache. This is the one expansion both specasan-chaos and the sweep
// service use; keeping it here means a scenario document enumerates the same
// cells no matter which frontend runs it. Scenarios without a chaos section
// expand to nil.
func (s *Scenario) CampaignCells() ([]chaos.CampaignCell, error) {
	if s.Chaos == nil {
		return nil, nil
	}
	kinds, err := s.ChaosKinds()
	if err != nil {
		return nil, err
	}
	specs, err := s.WorkloadSpecs()
	if err != nil {
		return nil, err
	}
	mits, err := s.MitigationList()
	if err != nil {
		return nil, err
	}
	// Grid columns: each kind alone (isolating which perturbation breaks
	// state), plus all kinds combined (their interactions).
	kindSets := make([][]chaos.Kind, 0, len(kinds)+1)
	for _, k := range kinds {
		kindSets = append(kindSets, []chaos.Kind{k})
	}
	if len(kinds) > 1 {
		kindSets = append(kindSets, kinds)
	}
	machine := s.Machine
	var cells []chaos.CampaignCell
	for _, spec := range specs {
		for _, mit := range mits {
			for _, ks := range kindSets {
				names := make([]string, len(ks))
				for i, k := range ks {
					names[i] = k.String()
				}
				for i := 0; i < s.Chaos.Seeds; i++ {
					seed := s.Chaos.Seed0 + uint64(i)
					cells = append(cells, chaos.CampaignCell{
						Spec: spec, Mit: mit,
						Cfg: chaos.Config{
							Seed: seed, Kinds: ks,
							Rate: s.Chaos.Rate, MaxLatency: s.Chaos.MaxLatency,
							Machine: &machine,
						},
						Key: ChaosCellKey(spec.Name, mit.String(), names, seed),
					})
				}
			}
		}
	}
	return cells, nil
}

// CampaignOptions returns the campaign-wide options the scenario sets for
// its CampaignCells: scale, cycle budget and worker pool, the content hash
// stamped into metrics records and the result hash that keys the cell
// cache. Callers add the output plumbing (Metrics, Store).
func (s *Scenario) CampaignOptions() chaos.CampaignOptions {
	return chaos.CampaignOptions{
		Scale: s.Run.Scale, MaxCycles: s.Run.MaxCycles, Workers: s.Run.Workers,
		ScenarioHash: s.Hash(), ResultHash: s.ResultHash(),
	}
}
