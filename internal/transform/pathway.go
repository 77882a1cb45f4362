package transform

import (
	"fmt"
	"slices"
	"strings"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
)

// Pathway is a sequence of primitive transformations from a source
// schema to a target schema, denoted S1 → S2 in the paper. Pathways are
// stored in the Schemas & Transformations Repository and are
// automatically reversible.
type Pathway struct {
	// Source and Target name the endpoint schemas.
	Source, Target string
	// Steps are applied in order to transform Source into Target.
	Steps []Transformation
}

// NewPathway builds a pathway between named schemas.
func NewPathway(source, target string, steps ...Transformation) *Pathway {
	return &Pathway{Source: source, Target: target, Steps: steps}
}

// Append adds steps to the pathway.
func (p *Pathway) Append(steps ...Transformation) { p.Steps = append(p.Steps, steps...) }

// Len returns the number of steps.
func (p *Pathway) Len() int { return len(p.Steps) }

// Reverse returns the automatically derived pathway Target → Source:
// steps in reverse order, each primitive inverted (paper §2.1).
func (p *Pathway) Reverse() *Pathway {
	rev := &Pathway{Source: p.Target, Target: p.Source, Steps: make([]Transformation, len(p.Steps))}
	for i, t := range p.Steps {
		rev.Steps[len(p.Steps)-1-i] = t.Reverse()
	}
	return rev
}

// ManualCount returns the number of integrator-written steps.
func (p *Pathway) ManualCount() int {
	n := 0
	for _, t := range p.Steps {
		if t.Manual() {
			n++
		}
	}
	return n
}

// NonTrivialCount returns the number of steps whose query part is not
// Range Void Any — the paper's effort metric for the classical approach.
func (p *Pathway) NonTrivialCount() int {
	n := 0
	for _, t := range p.Steps {
		if t.NonTrivial() {
			n++
		}
	}
	return n
}

// CountByKind tallies steps per primitive kind.
func (p *Pathway) CountByKind() map[Kind]int {
	m := make(map[Kind]int)
	for _, t := range p.Steps {
		m[t.Kind]++
	}
	return m
}

// String renders the pathway header and steps, one per line.
func (p *Pathway) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pathway %s -> %s (%d steps)\n", p.Source, p.Target, len(p.Steps))
	for _, t := range p.Steps {
		fmt.Fprintf(&b, "  %s\n", t)
	}
	return b.String()
}

// Apply executes a single step against a schema, mutating it. An add or
// an extend puts the step's own object into the schema. The query's
// scheme references are checked for resolvability when strict is true.
func Apply(s *hdm.Schema, t Transformation, strict bool) error {
	if err := t.Validate(); err != nil {
		return err
	}
	sc := t.Object.Scheme
	switch t.Kind {
	case Add, Extend:
		if s.Has(sc) {
			return fmt.Errorf("transform: %s: schema %q already has %s", t.Kind, s.Name(), sc)
		}
		if strict && t.Kind == Add {
			if err := checkRefs(s, t.Query); err != nil {
				return fmt.Errorf("transform: add %s: %w", sc, err)
			}
		}
		return s.Add(t.Object)
	case Delete, Contract:
		if !s.Has(sc) {
			return fmt.Errorf("transform: %s: schema %q has no %s", t.Kind, s.Name(), sc)
		}
		if err := s.Remove(sc); err != nil {
			return err
		}
		if strict && t.Kind == Delete {
			// The recovery query must be expressible over what remains.
			if err := checkRefs(s, t.Query); err != nil {
				return fmt.Errorf("transform: delete %s: %w", sc, err)
			}
		}
		return nil
	case Rename:
		return s.Rename(sc, t.To.Scheme)
	case ID:
		// id relates objects across two schemas; within a single
		// schema application it requires the object to exist.
		if !s.Has(sc) && !s.Has(t.To.Scheme) {
			return fmt.Errorf("transform: id: schema %q has neither %s nor %s", s.Name(), sc, t.To.Scheme)
		}
		return nil
	}
	return fmt.Errorf("transform: unknown kind %v", t.Kind)
}

// checkRefs verifies that every scheme reference in q resolves in s.
func checkRefs(s *hdm.Schema, q iql.Expr) error {
	if q == nil {
		return nil
	}
	for _, parts := range iql.UniqueSchemeRefs(q) {
		if _, err := s.Resolve(parts); err != nil {
			return err
		}
	}
	return nil
}

// ApplyPathway applies every step of p to a clone of src named after the
// pathway target, returning the resulting schema.
func ApplyPathway(src *hdm.Schema, p *Pathway, strict bool) (*hdm.Schema, error) {
	out := src.Clone(p.Target)
	for i, t := range p.Steps {
		if err := Apply(out, t, strict); err != nil {
			return nil, fmt.Errorf("transform: step %d of %s->%s: %w", i+1, p.Source, p.Target, err)
		}
	}
	return out, nil
}

// IdentSteps expands the ident operation between two syntactically
// identical schemas into the sequence of id steps id(S:c, S':c) for
// every object c, in canonical order (paper §2.1), each relating a's
// object to b's. The schemas must be identical.
func IdentSteps(a, b *hdm.Schema) ([]Transformation, error) {
	if !hdm.Identical(a, b) {
		da, db := hdm.Diff(a, b)
		return nil, fmt.Errorf("transform: ident requires identical schemas %q and %q (only in %s: %v; only in %s: %v)",
			a.Name(), b.Name(), a.Name(), da, b.Name(), db)
	}
	objs := a.Objects()
	slices.SortFunc(objs, func(x, y *hdm.Object) int { return hdm.CompareSchemes(x.Scheme, y.Scheme) })
	steps := make([]Transformation, len(objs))
	for i, o := range objs {
		ob, _ := b.Object(o.Scheme)
		steps[i] = NewID(o, ob).WithAuto()
	}
	return steps, nil
}

// IsIntersectionForm checks the canonical normal form required of a
// pathway from an extensional schema to an intersection schema (paper
// §2.2): a sequence of add and delete steps followed by a sequence of
// contract steps, optionally followed by id steps. Extend steps with
// Range Void Any bounds are admitted in the first phase: they are the
// tool-generated placeholders for intersection objects that this
// particular source does not contribute to, needed by the k-ary
// generalisation the paper's case study uses (three sources) and its
// future-work section proposes.
func (p *Pathway) IsIntersectionForm() error {
	const (
		phaseAddDel = iota
		phaseContract
		phaseID
	)
	phase := phaseAddDel
	for i, t := range p.Steps {
		switch t.Kind {
		case Add, Delete:
			if phase != phaseAddDel {
				return fmt.Errorf("transform: step %d: %s after contract/id phase", i+1, t.Kind)
			}
		case Extend:
			if phase != phaseAddDel {
				return fmt.Errorf("transform: step %d: extend after contract/id phase", i+1)
			}
			if !iql.IsVoidAnyRange(t.Query) {
				return fmt.Errorf("transform: step %d: only Range Void Any extends allowed in intersection pathway", i+1)
			}
		case Contract:
			if phase == phaseID {
				return fmt.Errorf("transform: step %d: contract after id phase", i+1)
			}
			phase = phaseContract
		case ID:
			phase = phaseID
		case Rename:
			return fmt.Errorf("transform: step %d: rename not allowed in intersection pathway", i+1)
		}
	}
	return nil
}

// MinusPathway derives the pathway ES → (ES − I) from a pathway ES → I
// in intersection normal form, per the paper's operational rule: ES − I
// retains only those objects of ES removed by a *contract* step in
// ES → I; so the derived pathway contracts every object that was
// *deleted* (i.e. semantically mapped into I).
func MinusPathway(esToI *Pathway, minusName string) (*Pathway, error) {
	if err := esToI.IsIntersectionForm(); err != nil {
		return nil, err
	}
	out := NewPathway(esToI.Source, minusName)
	for _, t := range esToI.Steps {
		if t.Kind == Delete {
			out.Append(NewContract(t.Object, nil, nil).WithAuto())
		}
	}
	return out, nil
}
