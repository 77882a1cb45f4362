package ispider

import (
	"fmt"

	"github.com/dataspace/automed/internal/core"
)

// PlanStep is one iteration of the query-driven intersection plan.
type PlanStep struct {
	// Name labels the iteration.
	Name string
	// Kind is "intersect" or "refine".
	Kind string
	// Mappings is the mappings table for an intersect step.
	Mappings []core.Mapping
	// Refinement is the single mapping of a refine step.
	Refinement core.Mapping
	// Enables lists the priority queries first answerable afterwards.
	Enables []string
	// ManualExpected is the paper's manual transformation count for
	// the step (6, 1, 1, 15, 3 — totalling 26).
	ManualExpected int
}

// Step is the plan step as the integrator takes it.
func (s PlanStep) Step() core.Step {
	st := core.Step{Kind: s.Kind, Name: s.Name, Enables: s.Enables}
	if s.Kind == core.StepRefine {
		st.Mapping = &s.Refinement
	} else {
		st.Mappings = s.Mappings
	}
	return st
}

// IntersectionPlan returns the paper's five-iteration, query-driven
// integration plan (§3). The transformations are verbatim from the
// paper with two documented adjustments: the pepSeeker accession
// derivation is written with a literal pattern over <<UProtein>>
// (the paper's "k ← uprotein" elides the binding), and the
// peptideHit↔proteinHit join carries a source-tag equality so that
// db_search identifiers from different sources cannot collide.
func IntersectionPlan() []PlanStep {
	return []PlanStep{
		{
			Name: "I1", Kind: "intersect", Enables: []string{"Q1"},
			ManualExpected: 6,
			Mappings: []core.Mapping{
				core.Entity("<<UProtein>>",
					core.From("Pedro", "[{'PEDRO', k} | k <- <<protein>>]"),
					core.From("gpmDB", "[{'gpmDB', k} | k <- <<proseq>>]"),
					core.From("PepSeeker", "[{'pepSeeker', x} | {k, x} <- <<proteinhit, proteinid>>]"),
				),
				core.Attribute("<<UProtein, accession_num>>",
					core.From("Pedro", "[{'PEDRO', k, x} | {k, x} <- <<protein, accession_num>>]"),
					core.From("gpmDB", "[{'gpmDB', k, x} | {k, x} <- <<proseq, label>>]"),
					// pepSeeker protein identifiers are accession
					// strings, so the accession of a pepSeeker UProtein
					// is its own key (paper §3, query 1, 6th add).
					core.From("PepSeeker", "[{'pepSeeker', k, k} | {'pepSeeker', k} <- <<UProtein>>]"),
				),
			},
		},
		{
			Name: "R2", Kind: "refine", Enables: []string{"Q2"},
			ManualExpected: 1,
			Refinement: core.Attribute("<<UProtein, description>>",
				core.From("Pedro", "[{'PEDRO', k, x} | {k, x} <- <<protein, description>>]"),
			),
		},
		{
			Name: "R3", Kind: "refine", Enables: []string{"Q3"},
			ManualExpected: 1,
			Refinement: core.Attribute("<<UProtein, organism>>",
				core.From("Pedro", "[{'PEDRO', k, x} | {k, x} <- <<protein, organism>>]"),
			),
		},
		{
			Name: "I4", Kind: "intersect", Enables: []string{"Q4", "Q5"},
			ManualExpected: 15,
			Mappings: []core.Mapping{
				core.Attribute("<<UProteinHit, protein>>",
					core.From("Pedro", "[{'PEDRO', k, x} | {k, x} <- <<proteinhit, protein>>]"),
					core.From("gpmDB", "[{'gpmDB', k, x} | {k, x} <- <<protein, proseqid>>]"),
					core.From("PepSeeker", "[{'pepSeeker', k, x} | {k, x} <- <<proteinhit, proteinid>>]"),
				),
				core.Entity("<<UPeptideHit>>",
					core.From("Pedro", "[{'PEDRO', k} | k <- <<peptidehit>>]"),
					core.From("gpmDB", "[{'gpmDB', k} | k <- <<peptide>>]"),
					core.From("PepSeeker", "[{'pepSeeker', k} | k <- <<peptidehit>>]"),
				),
				core.Attribute("<<UPeptideHit, sequence>>",
					core.From("Pedro", "[{'PEDRO', k, x} | {k, x} <- <<peptidehit, sequence>>]"),
					core.From("gpmDB", "[{'gpmDB', k, x} | {k, x} <- <<peptide, seq>>]"),
					core.From("PepSeeker", "[{'pepSeeker', k, x} | {k, x} <- <<peptidehit, pepseq>>]"),
				),
				core.Attribute("<<UPeptideHit, score>>",
					core.From("Pedro", "[{'PEDRO', k, x} | {k, x} <- <<peptidehit, score>>]"),
					core.From("PepSeeker", "[{'pepSeeker', k, x} | {k, x} <- <<peptidehit, score>>]"),
				),
				core.Attribute("<<UProteinHit, dbsearch>>",
					core.From("Pedro", "[{'PEDRO', k, x} | {k, x} <- <<proteinhit, db_search>>]"),
					core.From("PepSeeker", "[{'pepSeeker', k, x} | {k, x} <- <<proteinhit, fileparameters>>]"),
				),
				core.Attribute("<<UPeptideHit, dbsearch>>",
					core.From("Pedro", "[{'PEDRO', k, x} | {k, x} <- <<peptidehit, db_search>>]"),
				),
				core.Entity("<<uPeptideHitToProteinHit_mm>>",
					core.Derived("[{s1, k1, k2} | {s1, k1, x} <- <<UPeptideHit, dbsearch>>; {s2, k2, y} <- <<UProteinHit, dbsearch>>; s1 = s2; x = y]"),
				),
			},
		},
		{
			Name: "I5", Kind: "intersect", Enables: []string{"Q6", "Q7"},
			ManualExpected: 3,
			Mappings: []core.Mapping{
				core.Attribute("<<UPeptideHit, probability>>",
					core.From("Pedro", "[{'PEDRO', k, x} | {k, x} <- <<peptidehit, probability>>]"),
					core.From("gpmDB", "[{'gpmDB', k, x} | {k, x} <- <<peptide, expect>>]"),
					core.From("PepSeeker", "[{'pepSeeker', k, x} | {k, x} <- <<peptidehit, expect>>]"),
				),
			},
		},
	}
}

// PlanManualTotal returns the paper's expected manual transformation
// count across the plan: 6+1+1+15+3 = 26.
func PlanManualTotal() int {
	total := 0
	for _, s := range IntersectionPlan() {
		total += s.ManualExpected
	}
	return total
}

// RunIntersection executes the full intersection-based integration over
// freshly generated sources: federate, then replay the plan, rebuilding
// the global schema (with redundancy dropping per dropRedundant) after
// each iteration.
func RunIntersection(cfg Config, dropRedundant bool) (*core.Integrator, error) {
	pedro, gpmdb, pepseeker, err := Wrappers(cfg)
	if err != nil {
		return nil, err
	}
	ig, err := core.New(pedro, gpmdb, pepseeker)
	if err != nil {
		return nil, err
	}
	ig.SetAutoDrop(dropRedundant)
	if _, err := ig.Federate("F"); err != nil {
		return nil, err
	}
	if err := ReplayPlan(ig, IntersectionPlan()); err != nil {
		return nil, err
	}
	return ig, nil
}

// ReplayPlan executes plan steps against an already-federated
// integrator, verifying each step's manual count against the paper.
func ReplayPlan(ig *core.Integrator, plan []PlanStep) error {
	for _, step := range plan {
		before := ig.Report().Totals().Manual()
		if err := ig.Apply(step.Step()); err != nil {
			return fmt.Errorf("ispider: step %s: %w", step.Name, err)
		}
		manual := ig.Report().Totals().Manual() - before
		if manual != step.ManualExpected {
			return fmt.Errorf("ispider: step %s produced %d manual transformations, paper says %d",
				step.Name, manual, step.ManualExpected)
		}
	}
	return nil
}
