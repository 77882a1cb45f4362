// Package classical implements the baseline the paper compares against:
// classical "up-front" data integration via union-compatible schemas
// (paper §2.1, Fig. 1), as used by the original iSpider project. Each
// data source schema DSi is transformed into a union-compatible schema
// USi containing every global concept; the USi are merged by injecting
// ident transformations; and one of them becomes the global schema. No
// data service can run until the whole integration is in place.
//
// Effort is measured the way the paper measures it: the number of
// *non-trivial* transformations — steps whose query part is not
// Range Void Any — excluding identity derivations (a concept adopted
// verbatim from the source that contributes it, e.g. all of GS1 from
// Pedro).
package classical

import (
	"fmt"
	"sort"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/query"
	"github.com/dataspace/automed/internal/repo"
	"github.com/dataspace/automed/internal/transform"
	"github.com/dataspace/automed/internal/wrapper"
)

// MappedFrom is one source derivation of a global concept.
type MappedFrom struct {
	// Source names the data source schema.
	Source string
	// Query is the IQL derivation over the source, in the source's
	// scope.
	Query string
	// Counted marks the derivation as part of the paper's non-trivial
	// effort tally. The paper's accounting counts cross-schema
	// mappings (gpmDB→GS1, PepSeeker→GS1, PepSeeker→GS2) but not the
	// verbatim adoption of a stage's own concepts.
	Counted bool
}

// Concept is one global schema object in a staged classical
// integration.
type Concept struct {
	// Object is the concept's scheme text, e.g. "<<protein, organism>>".
	Object string
	// Identity optionally names the source that contributes the
	// concept verbatim (same-named object, identity derivation).
	Identity string
	// Mapped lists non-identity derivations from other sources.
	Mapped []MappedFrom
}

// Stage is one version of the global schema (GS1, GS2, …): the concepts
// it adds on top of the previous stage.
type Stage struct {
	Name     string
	Concepts []Concept
}

// Builder drives a staged classical integration.
type Builder struct {
	repo    *repo.Repository
	proc    *query.Processor
	sources []wrapper.Wrapper
	stages  []Stage
	global  *hdm.Schema
	// perSource tallies counted non-trivial transformations per
	// (stage, source).
	perSource map[string]map[string]int
	// pathways accumulates the cumulative DSi → USi pathway per source.
	pathways map[string]*transform.Pathway
	// identity records, per source, the source objects adopted
	// verbatim as global concepts (deleted with an identity reverse at
	// Merge; everything else contracts).
	identity map[string]map[string]bool
	merged   bool
}

// New builds a classical integrator over wrapped sources.
func New(sources ...wrapper.Wrapper) (*Builder, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("classical: at least one source required")
	}
	b := &Builder{
		repo:      repo.New(),
		proc:      query.New(),
		sources:   sources,
		perSource: make(map[string]map[string]int),
		pathways:  make(map[string]*transform.Pathway),
		identity:  make(map[string]map[string]bool),
	}
	for _, w := range sources {
		if err := b.proc.AddSource(w); err != nil {
			return nil, err
		}
		if err := b.repo.AddSchema(w.Schema()); err != nil {
			return nil, err
		}
		b.pathways[w.SchemaName()] = transform.NewPathway(w.SchemaName(), "US:"+w.SchemaName())
	}
	return b, nil
}

// Repo exposes the schemas & transformations repository.
func (b *Builder) Repo() *repo.Repository { return b.repo }

// Processor exposes the query processor.
func (b *Builder) Processor() *query.Processor { return b.proc }

// AddStage appends a stage, extending every source's union pathway with
// the stage's concepts: an identity add for the contributing source, a
// mapped add per listed derivation, and a trivial Range Void Any extend
// for sources that do not support the concept.
func (b *Builder) AddStage(s Stage) error {
	if b.merged {
		return fmt.Errorf("classical: cannot add stage %q after Merge", s.Name)
	}
	if s.Name == "" {
		return fmt.Errorf("classical: stage needs a name")
	}
	if b.perSource[s.Name] != nil {
		return fmt.Errorf("classical: duplicate stage %q", s.Name)
	}
	b.perSource[s.Name] = make(map[string]int)
	for _, c := range s.Concepts {
		sc, err := hdm.ParseScheme(c.Object)
		if err != nil {
			return fmt.Errorf("classical: stage %q: %w", s.Name, err)
		}
		kind := hdm.Link
		if sc.Arity() == 1 {
			kind = hdm.Nodal
		}
		// Every source's pathway adds the one object.
		concept := hdm.NewObject(sc, kind, "", "")
		covered := make(map[string]bool)
		if c.Identity != "" {
			w := b.source(c.Identity)
			if w == nil {
				return fmt.Errorf("classical: stage %q: unknown identity source %q", s.Name, c.Identity)
			}
			obj, err := w.Schema().Resolve(sc.Parts())
			if err != nil {
				return fmt.Errorf("classical: stage %q: identity for %s: %w", s.Name, sc, err)
			}
			// Identity adoption: add with the source object itself as
			// the derivation. Counted as trivial effort per the paper.
			b.pathways[c.Identity].Append(
				transform.NewAdd(concept, iql.Ref(obj.Scheme.Parts()...)).WithAuto())
			if b.identity[c.Identity] == nil {
				b.identity[c.Identity] = make(map[string]bool)
			}
			b.identity[c.Identity][obj.Scheme.Key()] = true
			covered[c.Identity] = true
		}
		for _, m := range c.Mapped {
			w := b.source(m.Source)
			if w == nil {
				return fmt.Errorf("classical: stage %q: unknown source %q", s.Name, m.Source)
			}
			q, err := iql.Parse(m.Query)
			if err != nil {
				return fmt.Errorf("classical: stage %q: derivation of %s from %s: %w",
					s.Name, sc, m.Source, err)
			}
			b.pathways[m.Source].Append(transform.NewAdd(concept, q))
			if m.Counted {
				b.perSource[s.Name][m.Source]++
			}
			covered[m.Source] = true
		}
		for _, w := range b.sources {
			if covered[w.SchemaName()] {
				continue
			}
			b.pathways[w.SchemaName()].Append(transform.NewExtend(concept, nil, nil).WithAuto())
		}
	}
	b.stages = append(b.stages, s)
	return nil
}

func (b *Builder) source(name string) wrapper.Wrapper {
	for _, w := range b.sources {
		if w.SchemaName() == name {
			return w
		}
	}
	return nil
}

// Merge completes the integration (Fig. 1): each source's pathway is
// closed with contract steps for its remaining local objects so the
// union-compatible schemas become identical; ident transformations are
// injected pairwise; and the first US is adopted as the global schema
// under the given name. Only after Merge can queries run — the paper's
// point about up-front cost.
func (b *Builder) Merge(globalName string) (*hdm.Schema, error) {
	if b.merged {
		return nil, fmt.Errorf("classical: already merged")
	}
	if len(b.stages) == 0 {
		return nil, fmt.Errorf("classical: no stages defined")
	}
	// The global object set: every concept of every stage.
	g := hdm.NewSchema(globalName)
	for _, s := range b.stages {
		for _, c := range s.Concepts {
			sc, err := hdm.ParseScheme(c.Object)
			if err != nil {
				return nil, err
			}
			kind := hdm.Link
			if sc.Arity() == 1 {
				kind = hdm.Nodal
			}
			if !g.Has(sc) {
				if err := g.Add(hdm.NewObject(sc, kind, "", "")); err != nil {
					return nil, err
				}
			}
		}
	}
	// Close each pathway with contracts and derive its US schema.
	var usNames []string
	for _, w := range b.sources {
		name := w.SchemaName()
		pw := b.pathways[name]
		for _, o := range w.Schema().Objects() {
			if b.identity[name] != nil && b.identity[name][o.Scheme.Key()] {
				// Adopted verbatim: the source object is consumed by
				// its identity add; delete it with the identity
				// reverse.
				pw.Append(transform.NewDelete(o, iql.Ref(o.Scheme.Parts()...)).WithAuto())
				continue
			}
			pw.Append(transform.NewContract(o, nil, nil).WithAuto())
		}
		us := g.Clone("US:" + name)
		if err := b.repo.AddSchema(us); err != nil {
			return nil, err
		}
		if err := b.repo.AddPathway(pw, false); err != nil {
			return nil, err
		}
		if err := b.proc.RegisterPathway(pw, name); err != nil {
			return nil, err
		}
		usNames = append(usNames, us.Name())
	}
	// Verify union-compatibility and inject idents.
	for i := 0; i+1 < len(usNames); i++ {
		a, _ := b.repo.Schema(usNames[i])
		c, _ := b.repo.Schema(usNames[i+1])
		steps, err := transform.IdentSteps(a, c)
		if err != nil {
			return nil, fmt.Errorf("classical: schemas not union-compatible: %w", err)
		}
		if err := b.repo.AddPathway(transform.NewPathway(usNames[i], usNames[i+1], steps...), false); err != nil {
			return nil, err
		}
	}
	if err := b.repo.AddSchema(g); err != nil {
		return nil, err
	}
	b.global = g
	b.merged = true
	return g, nil
}

// Global returns the merged global schema (nil before Merge).
func (b *Builder) Global() *hdm.Schema { return b.global }

// Query answers an IQL query over the merged global schema. It is an
// error to query before Merge — classical integration offers no
// services until complete.
func (b *Builder) Query(src string) (iql.Value, error) {
	if !b.merged {
		return iql.Value{}, fmt.Errorf("classical: integration incomplete: no data services before Merge")
	}
	e, err := iql.Parse(src)
	if err != nil {
		return iql.Value{}, err
	}
	var resolveErr error
	canon := iql.SubstituteSchemes(e, func(parts []string) (iql.Expr, bool) {
		obj, err := b.global.Resolve(parts)
		if err != nil {
			if resolveErr == nil {
				resolveErr = err
			}
			return nil, false
		}
		return iql.Ref(obj.Scheme.Parts()...), true
	})
	if resolveErr != nil {
		return iql.Value{}, fmt.Errorf("classical: %w", resolveErr)
	}
	return b.proc.Eval(canon)
}

// NonTrivialCount returns the counted non-trivial transformations for
// one stage and source.
func (b *Builder) NonTrivialCount(stage, source string) int {
	if m := b.perSource[stage]; m != nil {
		return m[source]
	}
	return 0
}

// TotalNonTrivial sums counted non-trivial transformations across all
// stages and sources — the paper's classical-effort headline (95 for
// iSpider).
func (b *Builder) TotalNonTrivial() int {
	total := 0
	for _, m := range b.perSource {
		for _, n := range m {
			total += n
		}
	}
	return total
}

// EffortBreakdown renders "stage/source → count" lines, sorted.
func (b *Builder) EffortBreakdown() []string {
	var out []string
	for stage, m := range b.perSource {
		for src, n := range m {
			if n > 0 {
				out = append(out, fmt.Sprintf("%s from %s: %d", stage, src, n))
			}
		}
	}
	sort.Strings(out)
	return out
}
