package core

import (
	"context"
	"fmt"
	"slices"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/query"
	"github.com/dataspace/automed/internal/transform"
	"github.com/dataspace/automed/internal/wrapper"
)

// Refine performs the paper's footnote-8 operation: an ad-hoc
// transformation of a single schema as part of the iterative
// integration (e.g. adding <<UProtein, description>> from Pedro alone
// to answer query 2). Each forward entry is a manual add; derived
// entries (empty Source) range over the integrated namespace.
func (ig *Integrator) Refine(name string, m Mapping, enables ...string) error {
	ig.mu.Lock()
	defer ig.mu.Unlock()
	if ig.fed == nil {
		return fmt.Errorf("core: call Federate before Refine")
	}
	tsc, kind, err := parseTarget(m.Target)
	if err != nil {
		return err
	}
	if err := ig.notFederated(tsc); err != nil {
		return fmt.Errorf("core: refinement %q: %w", name, err)
	}
	if len(m.Forward) == 0 {
		return fmt.Errorf("core: refinement %q has no forward queries", name)
	}
	// Every entry is parsed and checked before the first is defined: a
	// rejected refinement leaves the processor as it was.
	exprs := make([]iql.Expr, len(m.Forward))
	for i, f := range m.Forward {
		if exprs[i], err = iql.Parse(f.Query); err != nil {
			return fmt.Errorf("core: refinement %q: %w", name, err)
		}
		if f.Source != "" && !ig.hasSource(f.Source) {
			return fmt.Errorf("core: refinement %q: unknown source %q", name, f.Source)
		}
	}
	var counts StepCounts
	for i, f := range m.Forward {
		ig.proc.Define(tsc, exprs[i], "refine:"+name, f.Source)
		counts.ManualAdds++
	}
	// The refinement's touch-set is its single target: the Defines above
	// gave it, and every object over it, new addresses, so every other
	// warm answer stays live across the new version.
	ig.derivedObjs = append(ig.derivedObjs, objMeta{scheme: tsc, kind: kind})
	if _, err := ig.rebuildGlobal(ig.autoDrop); err != nil {
		ig.unjournaled()
		return err
	}
	ig.iterations = append(ig.iterations, Iteration{
		Name: name, Kind: "refinement", Counts: counts,
		Enables: enables, GlobalSchema: ig.globalName(),
	})
	ig.record(Step{Kind: StepRefine, Name: name, Mapping: &m, Enables: enables})
	return nil
}

// BuildGlobal performs workflow step 5: a new global schema version
//
//	G = I1 ∪ … ∪ Im ∪ (ES1 − ⋃I) ∪ … ∪ (ESn − ⋃I)
//
// combining every intersection schema (and refinement/derived concepts)
// with the federated remainder of each source. When dropRedundant is
// true, source objects removed by a delete step in some ES → I pathway
// — whose extents are subsumed by intersection objects — are dropped
// (the paper's − operator); otherwise the full federated schema is
// retained alongside the intersections.
func (ig *Integrator) BuildGlobal(dropRedundant bool) (*hdm.Schema, error) {
	ig.mu.Lock()
	defer ig.mu.Unlock()
	ig.unjournaled()
	g, err := ig.rebuildGlobal(dropRedundant)
	if err != nil {
		return nil, err
	}
	ig.iterations = append(ig.iterations, Iteration{
		Name: g.Name(), Kind: "global",
		Counts:       StepCounts{},
		GlobalSchema: g.Name(),
	})
	return g, nil
}

// rebuildGlobal constructs and installs the next global schema version
// without recording a workflow iteration.
func (ig *Integrator) rebuildGlobal(dropRedundant bool) (*hdm.Schema, error) {
	if ig.fed == nil {
		return nil, fmt.Errorf("core: call Federate before BuildGlobal")
	}
	ig.globalVersion++
	name := fmt.Sprintf("GS%d", ig.globalVersion)
	c := ig.composed(dropRedundant)
	if c == nil {
		c = ig.bare(dropRedundant)
	}
	next, err := ig.extend(c, name, dropRedundant)
	if err != nil {
		return nil, err
	}
	// Until next is published the latest version has no composition: a
	// version failing from here on may be stored, and its sections run
	// past the end of c's, where extending c again would write.
	ig.comp = nil
	g := next.schema
	if err := ig.repo.AddSchema(g); err != nil {
		return nil, err
	}
	// Derived minus-pathways ES → (ES − I), per the paper's
	// operational rule, recorded for BAV bookkeeping, in the order the
	// sources contribute (a checkpoint lists them as they were added):
	// one for each intersection and source, stored by the first rebuild
	// that drops.
	if dropRedundant {
		for _, in := range ig.intersections {
			for _, src := range in.Sources {
				minus := in.Name + ":" + ig.prefix[src] + "-minus"
				if findPathway(ig.repo, src, minus) != nil {
					continue
				}
				mp, err := transform.MinusPathway(in.PathwayBySource[src], minus)
				if err != nil {
					return nil, err
				}
				if err := ig.addPathway(mp); err != nil {
					return nil, err
				}
			}
		}
	}

	ig.global = g
	ig.comp = next
	ig.versions = append(ig.versions, SchemaVersion{Version: ig.globalVersion, Schema: g})
	return g, nil
}

// composition is how a global schema is made up, in order: the targets
// of the first ninters intersections, each once; then those of the
// first nderived derived objects that no target or earlier derived
// object names; then each source's federated objects, less — when drop
// is set — the redundant ones, those some intersection's pathway
// deletes. Every global version is one, made by extending the latest's
// by what the step added (extend), and shares with it what they hold in
// common: the sections, which are appended to past the end of the
// latest's or copied, never written, and the index (hdm.NewVersion).
type composition struct {
	// schema is the global schema it makes up; nil for the bare one.
	schema           *hdm.Schema
	ninters          int
	nderived         int
	drop             bool
	targets, derived []*hdm.Object
	// fed holds each source's section, in registration order, and from
	// the federatedObjects each was taken from.
	fed, from [][]*hdm.Object
	// unread marks the composition of a restore's latest version, a
	// schema the integrator did not build, whose sections are read from
	// the schema on first use.
	unread bool
}

// composed returns the composition of the current global schema, for
// the next version to extend, or nil when it cannot: it is not known,
// or it drops otherwise.
func (ig *Integrator) composed(drop bool) *composition {
	c := ig.comp
	if c == nil || c.schema != ig.global {
		return nil
	}
	if c.unread {
		if c = ig.read(c.schema, c.ninters, c.nderived); c == nil {
			ig.comp = nil
			return nil
		}
		ig.comp = c
	}
	if c.drop != drop && deletes(ig.intersections[:c.ninters]) {
		return nil
	}
	return c
}

// bare is the composition of nothing but the federated objects, which
// extend makes any version of from scratch.
func (ig *Integrator) bare(drop bool) *composition {
	c := &composition{drop: drop, fed: make([][]*hdm.Object, len(ig.sources)), from: make([][]*hdm.Object, len(ig.sources))}
	for i, w := range ig.sources {
		c.from[i] = ig.federatedObjects(w)
		c.fed[i] = c.from[i]
	}
	return c
}

// extend makes the global schema version name out of c and what the
// integrator took since c: the targets of later intersections, later
// derived objects, the section of each source whose federated objects
// are not c's (Backfill) made anew from them, and — under drop — the
// federated objects later intersections delete, dropped. A target an
// earlier derived object names moves to the targets. c is not changed.
func (ig *Integrator) extend(c *composition, name string, drop bool) (*composition, error) {
	next := &composition{
		ninters: len(ig.intersections), nderived: len(ig.derivedObjs), drop: drop,
		targets: c.targets, derived: c.derived, fed: c.fed, from: c.from,
	}
	var added []*hdm.Object
	var removed []string
	for _, in := range ig.intersections[c.ninters:] {
		for _, tsc := range in.Targets {
			if indexOf(next.targets, tsc) >= 0 {
				continue
			}
			if i := indexOf(next.derived, tsc); i >= 0 {
				next.derived = slices.Delete(slices.Clone(next.derived), i, i+1)
				removed = append(removed, tsc.Key())
			}
			obj, _ := in.Schema.Object(tsc)
			if obj == nil {
				obj = hdm.NewObject(tsc, hdm.Nodal, "", "")
			}
			next.targets = append(next.targets, obj)
			added = append(added, obj)
		}
	}
	for _, om := range ig.derivedObjs[c.nderived:] {
		if indexOf(next.targets, om.scheme) >= 0 || indexOf(next.derived, om.scheme) >= 0 {
			continue
		}
		obj := hdm.NewObject(om.scheme, om.kind, "", "")
		next.derived = append(next.derived, obj)
		added = append(added, obj)
	}
	for i, w := range ig.sources {
		sec, from, ins := c.fed[i], ig.federatedObjects(w), ig.intersections[c.ninters:]
		if !sameSlice(from, c.from[i]) {
			sec, ins = from, ig.intersections
		}
		if !drop {
			ins = nil
		}
		redundant := ig.redundant(ins, w.SchemaName())
		if isRedundant := func(o *hdm.Object) bool { return redundant[o.Scheme.Key()] }; len(redundant) > 0 && slices.ContainsFunc(sec, isRedundant) {
			sec = slices.DeleteFunc(slices.Clone(sec), isRedundant)
		}
		if sameSlice(sec, c.fed[i]) && sameSlice(from, c.from[i]) {
			continue
		}
		for _, o := range sec {
			if !slices.Contains(c.fed[i], o) {
				added = append(added, o)
			}
		}
		for _, o := range c.fed[i] {
			if !slices.Contains(sec, o) {
				removed = append(removed, o.Scheme.Key())
			}
		}
		if sameSlice(next.fed, c.fed) {
			next.fed, next.from = slices.Clone(next.fed), slices.Clone(next.from)
		}
		next.fed[i], next.from[i] = sec, from
	}
	parts := make([][]*hdm.Object, 0, 2+len(next.fed))
	parts = append(parts, slices.Clip(next.targets), slices.Clip(next.derived))
	parts = append(parts, next.fed...)
	var err error
	if next.schema, err = hdm.NewVersion(name, c.schema, parts, added, removed); err != nil {
		return nil, err
	}
	return next, nil
}

// read returns the composition of s as the global schema over the
// first ninters intersections and nderived derived objects — its
// sections the schema's own objects — or nil when s is not one: it
// holds other objects, or in another order, or it lacks a federated
// object no intersection of those deletes.
func (ig *Integrator) read(s *hdm.Schema, ninters, nderived int) *composition {
	objs := s.Order()
	c := &composition{schema: s, ninters: ninters, nderived: nderived,
		fed: make([][]*hdm.Object, len(ig.sources)), from: make([][]*hdm.Object, len(ig.sources))}
	at := 0
	// next reports whether the object at the next position is o, alike,
	// and takes it.
	next := func(o *hdm.Object) bool {
		if at == len(objs) || !alike(objs[at], o) {
			return false
		}
		at++
		return true
	}
	for _, in := range ig.intersections[:ninters] {
		for _, tsc := range in.Targets {
			if indexOf(objs[:at], tsc) >= 0 {
				continue
			}
			obj, _ := in.Schema.Object(tsc)
			if obj == nil {
				obj = hdm.NewObject(tsc, hdm.Nodal, "", "")
			}
			if !next(obj) {
				return nil
			}
		}
	}
	c.targets = objs[:at:at]
	for _, om := range ig.derivedObjs[:nderived] {
		if indexOf(objs[:at], om.scheme) >= 0 {
			continue
		}
		if !next(&hdm.Object{Scheme: om.scheme, Kind: om.kind}) {
			return nil
		}
	}
	c.derived = objs[len(c.targets):at:at]
	dropped := 0
	for i, w := range ig.sources {
		start := at
		c.from[i] = ig.federatedObjects(w)
		for _, o := range c.from[i] {
			if !next(o) {
				if s.Has(o.Scheme) {
					return nil
				}
				dropped++
			}
		}
		c.fed[i] = objs[start:at:at]
	}
	if at != len(objs) {
		return nil
	}
	if dropped > 0 {
		// Every object missing must be redundant, and every redundant
		// object missing.
		n := 0
		for i, w := range ig.sources {
			redundant := ig.redundant(ig.intersections[:ninters], w.SchemaName())
			for _, o := range c.from[i] {
				if redundant[o.Scheme.Key()] {
					n++
					if s.Has(o.Scheme) {
						return nil
					}
				}
			}
		}
		if n != dropped {
			return nil
		}
		c.drop = true
	}
	return c
}

// redundant returns the federated keys of the objects of source src
// that the pathways of ins delete (semantically map into an
// intersection); nil when they delete none.
func (ig *Integrator) redundant(ins []*Intersection, src string) map[string]bool {
	var out map[string]bool
	for _, in := range ins {
		for _, sc := range in.DeletedBySource[src] {
			if out == nil {
				out = make(map[string]bool)
			}
			out[sc.WithPrefix(ig.prefix[src]).Key()] = true
		}
	}
	return out
}

// deletes reports whether the pathways of ins delete any source object.
func deletes(ins []*Intersection) bool {
	for _, in := range ins {
		for _, objs := range in.DeletedBySource {
			if len(objs) > 0 {
				return true
			}
		}
	}
	return false
}

// indexOf returns the position of the object named sc in objs, or -1.
func indexOf(objs []*hdm.Object, sc hdm.Scheme) int {
	k := sc.Key()
	return slices.IndexFunc(objs, func(o *hdm.Object) bool { return o.Scheme.Key() == k })
}

// alike reports whether two objects are one object, or the same by value.
func alike(a, b *hdm.Object) bool {
	return a == b || a.Scheme.Key() == b.Scheme.Key() && a.Kind == b.Kind && a.Model == b.Model && a.Construct == b.Construct
}

// sameSlice reports whether a and b are one slice.
func sameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// federatedObjects returns source w's objects under its provenance
// prefix: none while it is skipped, else the ones federation or
// backfill made, or a restore took from its checkpoint's image, or — for
// a source a restore could not take them for, or whose schema has grown
// since — ones made now and kept.
func (ig *Integrator) federatedObjects(w wrapper.Wrapper) []*hdm.Object {
	src := w.SchemaName()
	if slices.Contains(ig.skipped, src) {
		return nil
	}
	if objs, ok := ig.federated[src]; ok && len(objs) == w.Schema().Len() {
		return objs
	}
	pfx := ig.prefix[src]
	objs := make([]*hdm.Object, 0, w.Schema().Len())
	for _, o := range w.Schema().All() {
		objs = append(objs, o.WithScheme(o.Scheme.WithPrefix(pfx)))
	}
	ig.federated[src] = objs
	return objs
}

// prefixes reports whether objs are what federatedObjects makes of the
// objects of s under the prefix pfx: one for each, in order, alike but
// for the prefixed scheme.
func prefixes(objs []*hdm.Object, s *hdm.Schema, pfx string) bool {
	if len(objs) != s.Len() {
		return false
	}
	for i, o := range s.All() {
		f := objs[i]
		if !f.Scheme.IsPrefixed(o.Scheme, pfx) || f.Kind != o.Kind || f.Model != o.Model || f.Construct != o.Construct {
			return false
		}
	}
	return true
}

// Result carries a query answer plus any incompleteness warnings
// produced while unfolding extents, and identifies the global schema
// version it was answered against.
type Result struct {
	Value    iql.Value
	Warnings []string
	// Version is the global schema version the query was resolved
	// against (0 = federated schema).
	Version int
	// Schema names that global schema version.
	Schema string
}

// CurrentVersion selects the latest global schema version in QueryAt.
const CurrentVersion = -1

// Query answers an IQL query over the current global schema (workflow
// step 6). Every scheme reference must resolve (exactly or by suffix)
// in the current global schema — objects dropped as redundant are no
// longer queryable, exactly as in the paper's tool — and is canonical-
// ised before evaluation.
func (ig *Integrator) Query(src string) (Result, error) {
	return ig.QueryAt(context.Background(), CurrentVersion, src)
}

// QueryCtx is Query with per-request cancellation and timeout.
func (ig *Integrator) QueryCtx(ctx context.Context, src string) (Result, error) {
	return ig.QueryAt(ctx, CurrentVersion, src)
}

// QueryAt answers an IQL query against a specific live global schema
// version (CurrentVersion for the latest). Older versions expose
// exactly the objects they were published with, so clients can keep
// querying a pinned schema while integration advances.
func (ig *Integrator) QueryAt(ctx context.Context, version int, src string) (Result, error) {
	e, err := iql.Parse(src)
	if err != nil {
		return Result{}, err
	}
	return ig.QueryExprAt(ctx, version, e)
}

// QueryExprAt is QueryAt over a parsed expression. The read lock is
// held for the whole evaluation, so concurrent integration steps can
// never expose a half-built global schema to the query.
func (ig *Integrator) QueryExprAt(ctx context.Context, version int, e iql.Expr) (Result, error) {
	ig.mu.RLock()
	defer ig.mu.RUnlock()
	r, err := ig.canonicalLocked(version, e, nil)
	if err != nil {
		return Result{}, err
	}
	res := Result{Version: r.Version, Schema: r.Schema}
	res.Value, res.Warnings, _, err = ig.proc.EvalContext(ctx, r.Expr)
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// Resolution is a query resolved against one global schema version.
// Evaluation depends on the version only through it: derivations are
// shared by every version, so two resolutions with the same Expr have
// the same answer.
type Resolution struct {
	// Expr is the query with every scheme reference naming its object:
	// the parsed expression itself when each already did, else a
	// rewritten copy (Rewritten).
	Expr      iql.Expr
	Rewritten bool
	// Version is the global schema version resolved against, Schema
	// that version's name.
	Version int
	Schema  string
}

// Resolve resolves a parsed query against a global schema version
// (CurrentVersion for the latest) and calls use with the resolution,
// holding the read lock throughout: no step lands between the
// resolution and what use does with it, such as evaluating its Expr
// (Processor().EvalEncoded). refs are e's distinct scheme references
// (iql.UniqueSchemeRefs), collected once by whoever keeps e: a query
// whose references already name their objects is resolved without a
// walk of its AST and without an allocation.
func (ig *Integrator) Resolve(version int, e iql.Expr, refs [][]string, use func(Resolution) error) error {
	ig.mu.RLock()
	defer ig.mu.RUnlock()
	r, err := ig.canonicalLocked(version, e, refs)
	if err != nil {
		return err
	}
	return use(r)
}

// canonicalLocked picks the global schema version a query is answered
// against and canonicalises the query's scheme references in it. refs,
// when the caller has them, are e's distinct references; without them
// e is walked. The caller holds the read lock, and keeps it while it
// evaluates.
func (ig *Integrator) canonicalLocked(version int, e iql.Expr, refs [][]string) (Resolution, error) {
	if ig.global == nil {
		return Resolution{}, fmt.Errorf("core: no global schema; call Federate first")
	}
	target, ver := ig.global, ig.currentLocked()
	if version != CurrentVersion {
		s, ok := ig.schemaAtLocked(version)
		if !ok {
			return Resolution{}, fmt.Errorf("core: no global schema version %d (have 0..%d)", version, ig.currentLocked())
		}
		target, ver = s, version
	}
	r := Resolution{Expr: e, Version: ver, Schema: target.Name()}
	// A reference that already names its object is left as it is, so a
	// query written in canonical references — every Table 1 query — is
	// evaluated as parsed, and a cached plan keeps its analysis.
	if refs != nil {
		canonical := true
		for _, parts := range refs {
			obj, err := target.Resolve(parts)
			if err != nil {
				return Resolution{}, fmt.Errorf("core: query over %s: %w", target.Name(), err)
			}
			canonical = canonical && obj.Scheme.Is(parts)
		}
		if canonical {
			return r, nil
		}
	}
	var resolveErr error
	r.Expr = iql.SubstituteSchemes(e, func(parts []string) (iql.Expr, bool) {
		obj, err := target.Resolve(parts)
		if err != nil {
			if resolveErr == nil {
				resolveErr = fmt.Errorf("core: query over %s: %w", target.Name(), err)
			}
			return nil, false
		}
		if obj.Scheme.Is(parts) {
			return nil, false
		}
		r.Rewritten = true
		return iql.Ref(obj.Scheme.Parts()...), true
	})
	if resolveErr != nil {
		return Resolution{}, resolveErr
	}
	return r, nil
}

// Extent returns the extent of one global schema object.
func (ig *Integrator) Extent(scheme string) (iql.Value, error) {
	sc, err := hdm.ParseScheme(scheme)
	if err != nil {
		return iql.Value{}, err
	}
	ig.mu.RLock()
	defer ig.mu.RUnlock()
	if ig.global == nil {
		return iql.Value{}, fmt.Errorf("core: no global schema; call Federate first")
	}
	obj, err := ig.global.Resolve(sc.Parts())
	if err != nil {
		return iql.Value{}, err
	}
	return ig.proc.Extent(obj.Scheme.Parts())
}

// Report summarises the session's iterations and effort counts.
func (ig *Integrator) Report() Report {
	ig.mu.RLock()
	defer ig.mu.RUnlock()
	return Report{Iterations: append([]Iteration(nil), ig.iterations...)}
}

// ReverseProcessor demonstrates the BAV bidirectionality the technique
// rests on: it materialises the current global schema and returns a new
// query processor in which each intersection pathway is registered
// *reversed* (I → ES), so that queries phrased against an original
// data source schema are answered from the integrated resource. Source
// objects that were only contracted come back as extends with unknown
// extents (Range Void Any), surfacing as warnings rather than answers.
func (ig *Integrator) ReverseProcessor() (*query.Processor, error) {
	ig.mu.RLock()
	defer ig.mu.RUnlock()
	if ig.global == nil {
		return nil, fmt.Errorf("core: no global schema")
	}
	mat, err := ig.proc.Materialize(ig.global)
	if err != nil {
		return nil, err
	}
	st := wrapper.NewStatic(ig.global.Name())
	for _, o := range ig.global.Objects() {
		if err := st.Add(o.Scheme, o.Kind, o.Model, o.Construct, mat[o.Scheme.Key()]); err != nil {
			return nil, err
		}
	}
	rp := query.New()
	if err := rp.AddSource(st); err != nil {
		return nil, err
	}
	for _, in := range ig.intersections {
		for _, src := range in.Sources {
			if err := rp.RegisterPathway(in.PathwayBySource[src].Reverse(), ""); err != nil {
				return nil, err
			}
		}
	}
	return rp, nil
}
