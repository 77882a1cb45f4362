package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/query"
	"github.com/dataspace/automed/internal/repo"
	"github.com/dataspace/automed/internal/transform"
	"github.com/dataspace/automed/internal/wrapper"
)

// Intersection records one intersection schema: its per-source pathways
// (in the paper's canonical add/delete/contract normal form), the ident
// steps linking the union-compatible images, and the resulting schema.
type Intersection struct {
	// Name is the intersection schema's name, e.g. "I1".
	Name string
	// Sources lists the contributing extensional schemas.
	Sources []string
	// Targets are the intersection schema objects (including
	// tool-generated parent entities).
	Targets []hdm.Scheme
	// Derived are global-level concepts defined over already
	// integrated objects rather than a single source.
	Derived []hdm.Scheme
	// PathwayBySource maps each contributing source to its pathway
	// ES_src → I_src.
	PathwayBySource map[string]*transform.Pathway
	// Schema is the intersection schema I.
	Schema *hdm.Schema
	// DeletedBySource records, per source, the source objects removed
	// by delete (not contract) steps: these become redundant in the
	// global schema (the − operator's operands).
	DeletedBySource map[string][]hdm.Scheme
	// Counts tallies the steps generated for this intersection.
	Counts StepCounts
}

// SchemaVersion pairs a global schema with its version number: version
// 0 is the federated schema, and every Intersect/Refine/BuildGlobal and
// every Backfill that recovers a source publishes the next version,
// which never changes after. All versions stay live for querying.
type SchemaVersion struct {
	Version int
	Schema  *hdm.Schema
}

// Integrator drives the intersection-schema workflow over a set of
// wrapped data sources. Create one with New, call Federate, then any
// sequence of Intersect/Refine/BuildGlobal, querying at any point.
//
// An Integrator is safe for concurrent use: integration steps take the
// write lock, queries take the read lock for their whole evaluation, so
// in-flight queries never observe a half-built global schema and a new
// iteration waits for running queries to drain.
type Integrator struct {
	mu      sync.RWMutex
	repo    *repo.Repository
	proc    *query.Processor
	sources []wrapper.Wrapper
	prefix  map[string]string // source schema name → federation prefix
	// federated holds each source's objects under its provenance prefix,
	// in the source schema's order, as federation or backfill made them
	// or a restore took them from its checkpoint's image: every global
	// schema version adds these, not copies.
	federated map[string][]*hdm.Object

	fedName       string
	fed           *hdm.Schema
	intersections []*Intersection
	derivedObjs   []objMeta // refinement + derived concepts, global-level
	global        *hdm.Schema
	// comp is how global is made up, for the next version to extend
	// (workflow.go); nil when the next is made from scratch.
	comp *composition
	// globalVersion counts rebuilds, a failed one too: it names the next
	// global schema. The current version is the last one published.
	globalVersion int
	versions      []SchemaVersion
	iterations    []Iteration
	autoDrop      bool
	// skipped lists sources FederateReachable left out of the federated
	// schema because they were down at federation time; their sections
	// are empty until Backfill makes them, once they answer a probe. A
	// checkpoint records them (Snapshot.Skipped).
	skipped []string
	// steps are the Intersect and Refine steps taken, in order, with a
	// zero Step in the place of every other change (steps.go); barrier is
	// the length of the list at the latest such change.
	steps   []Step
	barrier int
}

// SetAutoDrop controls whether the global schemas automatically rebuilt
// after each intersection/refinement drop redundant source objects
// (workflow step 5's optional election). Default false.
func (ig *Integrator) SetAutoDrop(drop bool) {
	ig.mu.Lock()
	defer ig.mu.Unlock()
	ig.autoDrop = drop
	ig.unjournaled()
}

type objMeta struct {
	scheme hdm.Scheme
	kind   hdm.ObjectKind
}

// New builds an integrator over the given wrapped sources.
func New(sources ...wrapper.Wrapper) (*Integrator, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("core: at least one source required")
	}
	ig := &Integrator{
		repo:      repo.New(),
		proc:      query.New(),
		prefix:    make(map[string]string),
		federated: make(map[string][]*hdm.Object),
	}
	for _, w := range sources {
		if err := ig.proc.AddSource(w); err != nil {
			return nil, err
		}
		if err := ig.repo.AddSchema(w.Schema()); err != nil {
			return nil, err
		}
		ig.sources = append(ig.sources, w)
		ig.prefix[w.SchemaName()] = sanitizePrefix(w.SchemaName())
	}
	return ig, nil
}

// sanitizePrefix lower-cases a schema name and maps non-alphanumerics
// to underscores, yielding the federation prefix.
func sanitizePrefix(name string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// Repo exposes the underlying schemas & transformations repository.
func (ig *Integrator) Repo() *repo.Repository { return ig.repo }

// Processor exposes the underlying query processor.
func (ig *Integrator) Processor() *query.Processor { return ig.proc }

// Sources lists the wrapped sources in registration order.
func (ig *Integrator) Sources() []wrapper.Wrapper {
	return append([]wrapper.Wrapper(nil), ig.sources...)
}

// SourceNames lists the wrapped sources in registration order.
func (ig *Integrator) SourceNames() []string {
	out := make([]string, len(ig.sources))
	for i, w := range ig.sources {
		out[i] = w.SchemaName()
	}
	return out
}

// fedSection is one source's federated contribution: prefixed objects,
// rename pathway, derivation batch.
type fedSection struct {
	src  string
	objs []*hdm.Object
	pw   *transform.Pathway
	defs []query.ObjectDef
}

// fedSections builds each listed source's federated section and records
// its objects as the source's federated objects. Each section depends
// only on that source's schema, so sections build concurrently; callers
// merge them in registration order, keeping the pathway list and
// derivation order identical to a serial build.
func (ig *Integrator) fedSections(name string, sources []wrapper.Wrapper) []fedSection {
	sections := make([]fedSection, len(sources))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, w := range sources {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, w wrapper.Wrapper) {
			defer wg.Done()
			defer func() { <-sem }()
			src := w.SchemaName()
			pfx := ig.prefix[src]
			objs := w.Schema().Objects()
			sec := fedSection{src: src, objs: make([]*hdm.Object, 0, len(objs)), pw: transform.NewPathway(src, name),
				defs: make([]query.ObjectDef, 0, len(objs))}
			sec.pw.Steps = make([]transform.Transformation, 0, len(objs))
			for _, o := range objs {
				fsc := o.Scheme.WithPrefix(pfx)
				fo := o.WithScheme(fsc)
				sec.objs = append(sec.objs, fo)
				sec.pw.Append(transform.NewRename(o, fo).WithAuto())
				// The prefixed name is defined by the unprefixed
				// object, scoped to its source.
				sec.defs = append(sec.defs, query.ObjectDef{Scheme: fsc, Derivation: query.Derivation{
					Query: iql.Ref(o.Scheme.Parts()...), Via: "federate:" + src, Scope: src,
				}})
			}
			sections[i] = sec
		}(i, w)
	}
	wg.Wait()
	for _, sec := range sections {
		ig.federated[sec.src] = sec.objs
	}
	return sections
}

// mergeFedSections registers the sections' derivations as one batch and
// stores each rename pathway.
func (ig *Integrator) mergeFedSections(sections []fedSection) error {
	var defs []query.ObjectDef
	for _, sec := range sections {
		defs = append(defs, sec.defs...)
	}
	// One batch registration: a single lock acquisition.
	ig.proc.DefineAll(defs)
	for _, sec := range sections {
		if err := ig.addPathway(sec.pw); err != nil {
			return err
		}
	}
	return nil
}

// Federate builds the federated schema F = S1 ∪ … ∪ Sn: every source
// object under its provenance prefix, with no schema or data
// transformation (workflow step 2). F serves as the first version of
// the global schema, so data services run immediately.
func (ig *Integrator) Federate(name string) (*hdm.Schema, error) {
	ig.mu.Lock()
	defer ig.mu.Unlock()
	return ig.federateLocked(name, ig.sources, nil)
}

// FederateReachable is Federate restricted to the sources that answer
// a liveness probe: sources implementing query.Pinger are probed under
// ctx, unreachable ones are skipped (recorded for Backfill) rather
// than failing federation, and sources without a Ping are assumed
// reachable. Federation fails if fewer than min sources remain
// (min <= 0 means at least one). The skipped source names are
// returned alongside the schema.
func (ig *Integrator) FederateReachable(ctx context.Context, name string, min int) (*hdm.Schema, []string, error) {
	ig.mu.Lock()
	defer ig.mu.Unlock()
	if min <= 0 {
		min = 1
	}
	var reachable []wrapper.Wrapper
	var skipped []string
	for _, w := range ig.sources {
		if p, ok := w.(query.Pinger); ok {
			if err := p.Ping(ctx); err != nil {
				skipped = append(skipped, w.SchemaName())
				continue
			}
		}
		reachable = append(reachable, w)
	}
	if len(reachable) < min {
		return nil, nil, fmt.Errorf("core: federate: only %d of %d sources reachable (need %d); down: %s",
			len(reachable), len(ig.sources), min, strings.Join(skipped, ", "))
	}
	fed, err := ig.federateLocked(name, reachable, skipped)
	if err != nil {
		return nil, nil, err
	}
	return fed, append([]string(nil), skipped...), nil
}

// federateLocked federates over the given source subset. Caller holds
// the write lock.
func (ig *Integrator) federateLocked(name string, sources []wrapper.Wrapper, skipped []string) (*hdm.Schema, error) {
	if ig.fed != nil {
		return nil, fmt.Errorf("core: already federated as %q", ig.fedName)
	}
	if name == "" {
		name = "F"
	}
	if err := ig.checkPrefixedNames(); err != nil {
		return nil, err
	}
	if _, taken := ig.repo.Schema(name); taken {
		return nil, fmt.Errorf("core: federate: a schema named %q is already stored", name)
	}
	ig.unjournaled()
	// Version 0 is made of the sections, a skipped source's empty, as
	// every later version is (workflow.go).
	ig.skipped = slices.Clone(skipped)
	sections := ig.fedSections(name, sources)
	c := ig.bare(false)
	fed, err := hdm.NewVersion(name, nil, c.fed, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("core: federate: %w", err)
	}
	if err := ig.repo.AddSchema(fed); err != nil {
		return nil, err
	}
	if err := ig.mergeFedSections(sections); err != nil {
		return nil, err
	}
	c.schema = fed
	ig.fedName, ig.fed, ig.global, ig.comp = name, fed, fed, c
	ig.versions = append(ig.versions, SchemaVersion{Version: 0, Schema: fed})
	ig.iterations = append(ig.iterations, Iteration{
		Name: name, Kind: "federate", Counts: StepCounts{AutoRenames: fed.Len()}, GlobalSchema: name,
	})
	return fed, nil
}

// checkPrefixedNames refuses a source set in which two sources' objects
// take the same name under their provenance prefixes (source Lab's
// <<x_y>> and source Lab_X's <<y>> are both <<lab_x_y>>). Every source
// counts, skipped ones too: Backfill adds those later, and a collision
// found there would leave half a source federated.
func (ig *Integrator) checkPrefixedNames() error {
	owner := make(map[string]string)
	for _, w := range ig.sources {
		src := w.SchemaName()
		for _, o := range w.Schema().Objects() {
			fsc := o.Scheme.WithPrefix(ig.prefix[src])
			if other, ok := owner[fsc.Key()]; ok {
				return fmt.Errorf("core: federate: sources %q and %q both name %s", other, src, fsc)
			}
			owner[fsc.Key()] = src
		}
	}
	return nil
}

// Skipped lists the sources left out of the federated schema by
// FederateReachable and not yet backfilled, in registration order.
func (ig *Integrator) Skipped() []string {
	ig.mu.RLock()
	defer ig.mu.RUnlock()
	return append([]string(nil), ig.skipped...)
}

// Backfill retries every skipped source: each that now answers its
// probe gets the federated section Federate would have made it
// (prefixed objects, rename pathway, scoped derivations) and leaves the
// skipped set. A backfill that recovers any publishes the next global
// version, which adds their sections, and changes no version published
// before it. It returns the names of the sources recovered. Intersect
// is unaffected: intersections register only over the sources their
// mappings name.
func (ig *Integrator) Backfill(ctx context.Context) ([]string, error) {
	ig.mu.Lock()
	defer ig.mu.Unlock()
	if ig.fed == nil || len(ig.skipped) == 0 {
		return nil, nil
	}
	var recovered, still []string
	var ws []wrapper.Wrapper
	for _, w := range ig.sources {
		name := w.SchemaName()
		if !slices.Contains(ig.skipped, name) {
			continue
		}
		if p, ok := w.(query.Pinger); ok && p.Ping(ctx) != nil {
			still = append(still, name)
			continue
		}
		recovered, ws = append(recovered, name), append(ws, w)
	}
	ig.skipped = still
	if len(ws) == 0 {
		return nil, nil
	}
	ig.unjournaled()
	if err := ig.mergeFedSections(ig.fedSections(ig.fedName, ws)); err != nil {
		return nil, fmt.Errorf("core: backfilling %s: %w", strings.Join(recovered, ", "), err)
	}
	if _, err := ig.rebuildGlobal(ig.autoDrop); err != nil {
		return nil, err
	}
	return recovered, nil
}

// addPathway stores a pathway without endpoint re-derivation checks
// (endpoint schemas may be federated namespaces).
func (ig *Integrator) addPathway(pw *transform.Pathway) error {
	if _, ok := ig.repo.Schema(pw.Source); !ok {
		if err := ig.repo.AddSchema(hdm.NewSchema(pw.Source)); err != nil {
			return err
		}
	}
	if _, ok := ig.repo.Schema(pw.Target); !ok {
		if err := ig.repo.AddSchema(hdm.NewSchema(pw.Target)); err != nil {
			return err
		}
	}
	return ig.repo.AddPathway(pw, false)
}

// Federated returns the federated schema, global version 0 (nil before
// Federate): the sources federation reached. A source backfilled later
// is in the versions published since, never in this one.
func (ig *Integrator) Federated() *hdm.Schema {
	ig.mu.RLock()
	defer ig.mu.RUnlock()
	return ig.fed
}

// Global returns the current global schema: the federated schema until
// the first BuildGlobal, then the latest built version.
func (ig *Integrator) Global() *hdm.Schema {
	ig.mu.RLock()
	defer ig.mu.RUnlock()
	return ig.global
}

// GlobalVersion returns the current global schema's version number:
// 0 for the federated schema, then that of the last rebuild that
// published one — a rebuild that failed half-way uses its number up and
// publishes nothing. It is -1 before Federate.
func (ig *Integrator) GlobalVersion() int {
	ig.mu.RLock()
	defer ig.mu.RUnlock()
	if ig.global == nil {
		return -1
	}
	return ig.currentLocked()
}

// currentLocked is the last published version. The caller holds the
// lock, and the integrator is federated.
func (ig *Integrator) currentLocked() int { return ig.versions[len(ig.versions)-1].Version }

// Versions lists every published global schema version, oldest first.
// All versions remain queryable via QueryAt.
func (ig *Integrator) Versions() []SchemaVersion {
	ig.mu.RLock()
	defer ig.mu.RUnlock()
	return append([]SchemaVersion(nil), ig.versions...)
}

// SchemaAt returns the global schema published as the given version.
func (ig *Integrator) SchemaAt(version int) (*hdm.Schema, bool) {
	ig.mu.RLock()
	defer ig.mu.RUnlock()
	return ig.schemaAtLocked(version)
}

func (ig *Integrator) schemaAtLocked(version int) (*hdm.Schema, bool) {
	for _, sv := range ig.versions {
		if sv.Version == version {
			return sv.Schema, true
		}
	}
	return nil, false
}

// Intersections returns the intersections created so far.
func (ig *Integrator) Intersections() []*Intersection {
	ig.mu.RLock()
	defer ig.mu.RUnlock()
	return append([]*Intersection(nil), ig.intersections...)
}

// Intersect performs workflow steps 3-5: creates the intersection
// schema named name from the mappings table, generating per-source
// pathways in the canonical normal form (manual adds; auto extends for
// non-contributing sources; auto deletes derived from simple forward
// queries, or manual deletes from explicit ReverseQuery entries;
// Range Void Any contracts for everything unmapped; ident steps between
// the union-compatible images). The paper defines intersections between
// pairs of schemas and lists k-ary intersections as future work; this
// implementation supports any k ≥ 1 and the case study uses k = 3.
// The enables list names workload queries first answerable after this
// iteration.
func (ig *Integrator) Intersect(name string, mappings []Mapping, enables ...string) (*Intersection, error) {
	ig.mu.Lock()
	defer ig.mu.Unlock()
	if ig.fed == nil {
		return nil, fmt.Errorf("core: call Federate before Intersect")
	}
	if name == "" {
		name = fmt.Sprintf("I%d", len(ig.intersections)+1)
	}
	if len(mappings) == 0 {
		return nil, fmt.Errorf("core: intersection %q has no mappings", name)
	}

	in := &Intersection{
		Name:            name,
		PathwayBySource: make(map[string]*transform.Pathway),
		DeletedBySource: make(map[string][]hdm.Scheme),
	}

	var fwds []parsedFwd
	targetSet := make(map[string]hdm.ObjectKind)
	var targetOrder []hdm.Scheme
	sourceSet := make(map[string]bool)
	derivedOnly := make(map[string]bool)

	for _, m := range mappings {
		tsc, kind, err := parseTarget(m.Target)
		if err != nil {
			return nil, err
		}
		if len(m.Forward) == 0 {
			return nil, fmt.Errorf("core: mapping for %s has no forward queries", tsc)
		}
		sourced := false
		for _, f := range m.Forward {
			e, err := iql.Parse(f.Query)
			if err != nil {
				return nil, fmt.Errorf("core: forward query for %s: %w", tsc, err)
			}
			pf := parsedFwd{target: tsc, kind: kind, source: f.Source, expr: e}
			if f.Source != "" {
				sourced = true
				if !ig.hasSource(f.Source) {
					return nil, fmt.Errorf("core: unknown source %q in mapping for %s", f.Source, tsc)
				}
				sourceSet[f.Source] = true
				if obj, rev, ok := deriveReverse(e, tsc); ok {
					pf.consume, pf.reverse = obj, rev
				}
			}
			fwds = append(fwds, pf)
		}
		if _, seen := targetSet[tsc.Key()]; !seen {
			if sourced {
				// Union-compatible image member.
				targetSet[tsc.Key()] = kind
				targetOrder = append(targetOrder, tsc)
			} else {
				// Derived concepts are global-level: they are not part
				// of the union-compatible images.
				derivedOnly[tsc.Key()] = true
			}
		}
	}

	// Tool-generated parent entities: attributes whose parent entity is
	// neither a target of this intersection nor already integrated.
	// The explicit-target snapshot keeps planning independent of the
	// order parents are discovered in.
	explicit := make(map[string]bool, len(targetSet))
	for k := range targetSet {
		explicit[k] = true
	}
	autoParents, err := ig.planAutoParents(fwds, explicit, targetSet, &targetOrder)
	if err != nil {
		return nil, fmt.Errorf("core: intersection %q: %w", name, err)
	}
	fwds = append(fwds, autoParents...)
	for _, f := range fwds {
		if err := ig.notFederated(f.target); err != nil {
			return nil, fmt.Errorf("core: intersection %q: %w", name, err)
		}
	}

	// Explicit reverse queries, indexed source → object key.
	explicitRev := make(map[string]iql.Expr)
	for _, m := range mappings {
		for _, r := range m.Reverse {
			osc, err := hdm.ParseScheme(r.Object)
			if err != nil {
				return nil, fmt.Errorf("core: reverse mapping object: %w", err)
			}
			e, err := iql.Parse(r.Query)
			if err != nil {
				return nil, fmt.Errorf("core: reverse query for %s: %w", osc, err)
			}
			explicitRev[r.Source+"\x00"+osc.Key()] = e
		}
	}

	// Contributing sources, in registration order.
	var contributing []string
	for _, w := range ig.sources {
		if sourceSet[w.SchemaName()] {
			contributing = append(contributing, w.SchemaName())
		}
	}
	if len(contributing) == 0 {
		return nil, fmt.Errorf("core: intersection %q has no source-backed mappings", name)
	}
	in.Sources = contributing

	// The intersection schema I: all targets.
	iSchema := hdm.NewSchema(name)
	for _, tsc := range targetOrder {
		if err := iSchema.Add(hdm.NewObject(tsc, targetSet[tsc.Key()], "", "")); err != nil {
			return nil, err
		}
	}
	in.Schema = iSchema
	in.Targets = append([]hdm.Scheme(nil), targetOrder...)

	// Build and check one pathway per contributing source, ES_src →
	// I_src, and everything else that can refuse the mappings table,
	// before anything is registered: a rejected iteration leaves the
	// repository and the processor as they were.
	if _, taken := ig.repo.Schema(name); taken {
		return nil, fmt.Errorf("core: intersection %q: a schema of that name is already stored", name)
	}
	images := make([]string, len(contributing))
	for i, src := range contributing {
		imageName := name + "~" + ig.prefix[src]
		if _, taken := ig.repo.Schema(imageName); taken {
			return nil, fmt.Errorf("core: intersection %q: image schema %q is already stored", name, imageName)
		}
		images[i] = imageName
		deleted := make(map[string]bool)
		srcSchema := ig.sourceSchema(src)

		// The pathway's steps are allocated once, at their number: this
		// source's adds, an extend for each target it does not contribute
		// to, and a delete or a contract for each of its objects. Each
		// step points at its object: an add or an extend at I's target
		// object, a delete or a contract at the source's own.
		adds, contributed := 0, make(map[string]bool)
		for _, f := range fwds {
			if f.source == src {
				adds++
				contributed[f.target.Key()] = true
			}
		}
		pw := transform.NewPathway(src, imageName)
		pw.Steps = make([]transform.Transformation, 0, adds+len(targetOrder)-len(contributed)+srcSchema.Len())

		// Phase 1: adds (manual), auto parent adds, and extends for
		// targets this source does not contribute to.
		for _, f := range fwds {
			if f.source != src {
				continue
			}
			tobj, _ := iSchema.Object(f.target)
			t := transform.NewAdd(tobj, f.expr)
			if f.auto() {
				t = t.WithAuto()
				in.Counts.AutoAdds++
			} else {
				in.Counts.ManualAdds++
			}
			pw.Append(t)
		}
		for _, tsc := range targetOrder {
			if contributed[tsc.Key()] {
				continue
			}
			tobj, _ := iSchema.Object(tsc)
			pw.Append(transform.NewExtend(tobj, nil, nil).WithAuto())
			in.Counts.AutoExtends++
		}

		// Phase 2: deletes — explicit reverse queries first (manual),
		// then tool-derived reverses for simple forward mappings.
		for _, f := range fwds {
			if f.source != src || f.consume == nil {
				continue
			}
			obj, err := srcSchema.Resolve(f.consume)
			if err != nil {
				return nil, fmt.Errorf("core: intersection %q: forward query for %s consumes %v: %w",
					name, f.target, f.consume, err)
			}
			key := obj.Scheme.Key()
			if deleted[key] {
				continue
			}
			if rev, ok := explicitRev[src+"\x00"+key]; ok {
				pw.Append(transform.NewDelete(obj, rev))
				in.Counts.ManualDeletes++
			} else {
				pw.Append(transform.NewDelete(obj, f.reverse).WithAuto())
				in.Counts.AutoDeletes++
			}
			deleted[key] = true
			in.DeletedBySource[src] = append(in.DeletedBySource[src], obj.Scheme)
		}
		// Explicit reverse queries for objects not auto-consumed.
		for _, m := range mappings {
			for _, r := range m.Reverse {
				if r.Source != src {
					continue
				}
				osc, _ := hdm.ParseScheme(r.Object)
				obj, err := srcSchema.Resolve(osc.Parts())
				if err != nil {
					return nil, fmt.Errorf("core: intersection %q: reverse mapping: %w", name, err)
				}
				if deleted[obj.Scheme.Key()] {
					continue
				}
				pw.Append(transform.NewDelete(obj, explicitRev[src+"\x00"+obj.Scheme.Key()]))
				in.Counts.ManualDeletes++
				deleted[obj.Scheme.Key()] = true
				in.DeletedBySource[src] = append(in.DeletedBySource[src], obj.Scheme)
			}
		}

		// Phase 3: contract everything else of the source schema.
		for _, o := range srcSchema.All() {
			if deleted[o.Scheme.Key()] {
				continue
			}
			pw.Append(transform.NewContract(o, nil, nil).WithAuto())
			in.Counts.AutoContracts++
		}

		if err := pw.IsIntersectionForm(); err != nil {
			return nil, fmt.Errorf("core: intersection %q: %w", name, err)
		}
		in.PathwayBySource[src] = pw
	}
	// Every image is a copy of I, so one list of id steps relates any
	// two of them, and the first of them to I. The pathways share it:
	// nothing writes a pathway's steps in place, and it is clipped, so an
	// Append to one of them copies it first.
	idSteps, err := transform.IdentSteps(iSchema, iSchema)
	if err != nil {
		return nil, fmt.Errorf("core: intersection %q: %w", name, err)
	}
	idSteps = slices.Clip(idSteps)
	ident := func(from, to string) error {
		return ig.addPathway(transform.NewPathway(from, to, idSteps...))
	}

	// Register: the images with their pathways, ident steps between
	// consecutive union-compatible images, and the designation of the
	// first image as the intersection schema I. An image shares I's
	// objects (Schema.Clone), which no pathway's Apply writes.
	for i, src := range contributing {
		pw := in.PathwayBySource[src]
		if err := ig.repo.AddSchema(iSchema.Clone(images[i])); err != nil {
			return nil, err
		}
		if err := ig.addPathway(pw); err != nil {
			return nil, err
		}
		if err := ig.proc.RegisterPathway(pw, src); err != nil {
			return nil, err
		}
	}
	if err := ig.repo.AddSchema(iSchema); err != nil {
		return nil, err
	}
	for i := 0; i+1 < len(images); i++ {
		if err := ident(images[i], images[i+1]); err != nil {
			return nil, err
		}
		in.Counts.AutoIDs += len(idSteps)
	}
	if err := ident(images[0], name); err != nil {
		return nil, err
	}

	// Derived concepts (empty Source): defined over the integrated
	// namespace, registered unscoped; they join the global schema but
	// not the union-compatible images.
	derivedSeen := make(map[string]bool)
	for _, f := range fwds {
		if f.source != "" {
			continue
		}
		ig.proc.Define(f.target, f.expr, name+":derived", "")
		in.Counts.ManualAdds++
		if derivedOnly[f.target.Key()] && !derivedSeen[f.target.Key()] {
			derivedSeen[f.target.Key()] = true
			in.Derived = append(in.Derived, f.target)
			ig.derivedObjs = append(ig.derivedObjs, objMeta{scheme: f.target, kind: f.kind})
		}
	}

	ig.intersections = append(ig.intersections, in)
	// Workflow step 5: the tool automatically creates a new global
	// schema from the intersection and the extensional schemas.
	if _, err := ig.rebuildGlobal(ig.autoDrop); err != nil {
		ig.unjournaled()
		return nil, err
	}
	ig.iterations = append(ig.iterations, Iteration{
		Name: name, Kind: "intersection", Counts: in.Counts,
		Enables: enables, GlobalSchema: ig.globalName(),
	})
	ig.record(Step{Kind: StepIntersect, Name: name, Mappings: mappings, Enables: enables})
	return in, nil
}

// parsedFwd is one parsed forward mapping entry; isAuto marks
// tool-generated entries (parent entities).
type parsedFwd struct {
	target  hdm.Scheme
	kind    hdm.ObjectKind
	source  string
	expr    iql.Expr
	reverse iql.Expr // auto-derived reverse, if invertible
	consume []string // source object consumed (when invertible)
	isAuto  bool
}

func (f parsedFwd) auto() bool { return f.isAuto }

// planAutoParents reproduces the Intersection Schema Tool behaviour of
// creating missing parent entities implied by attribute mappings: the
// paper's iteration 4 adds <<UProteinHit, protein>> etc. without ever
// adding <<UProteinHit>>, so the tool derives the entity from each
// source's first simple attribute query (counted automatic, keeping the
// paper's manual count intact).
func (ig *Integrator) planAutoParents(fwds []parsedFwd, explicit map[string]bool, targetSet map[string]hdm.ObjectKind, targetOrder *[]hdm.Scheme) ([]parsedFwd, error) {
	var out []parsedFwd
	// Parent key → source → derivation already planned?
	planned := make(map[string]map[string]bool)
	for _, f := range fwds {
		if f.source == "" || f.target.Arity() < 2 {
			continue
		}
		parent := hdm.NewScheme(f.target.First())
		pk := parent.Key()
		if explicit[pk] {
			continue // entity mapped explicitly
		}
		if ig.proc.HasDefinition(parent) {
			continue // integrated in an earlier iteration
		}
		if planned[pk] == nil {
			planned[pk] = make(map[string]bool)
		}
		if planned[pk][f.source] {
			continue
		}
		pq, ok := deriveParent(f.expr)
		if !ok {
			continue // only simple attribute shapes imply a parent derivation
		}
		planned[pk][f.source] = true
		if _, seen := targetSet[pk]; !seen {
			targetSet[pk] = hdm.Nodal
			*targetOrder = append(*targetOrder, parent)
		}
		out = append(out, parsedFwd{
			target: parent, kind: hdm.Nodal, source: f.source, expr: pq, isAuto: true,
		})
	}
	// Every parent that ended up as a target must have at least one
	// derivation, else queries over it cannot be answered.
	for pk, srcs := range planned {
		if len(srcs) == 0 {
			return nil, fmt.Errorf("no derivation found for implied parent entity %s; add an explicit entity mapping", pk)
		}
	}
	return out, nil
}

// notFederated refuses a step's target that names a source's object
// under its provenance prefix: the next global schema could not hold
// both, and the step is refused before it defines anything. Every
// source counts, skipped ones too, as in checkPrefixedNames: Backfill
// adds those later.
func (ig *Integrator) notFederated(target hdm.Scheme) error {
	for _, w := range ig.sources {
		if pfx := ig.prefix[w.SchemaName()]; target.HasPrefix(pfx) && w.Schema().Has(target.TrimPrefix(pfx)) {
			return fmt.Errorf("target %s is already source %q's federated object", target, w.SchemaName())
		}
	}
	return nil
}

func (ig *Integrator) hasSource(name string) bool {
	for _, w := range ig.sources {
		if w.SchemaName() == name {
			return true
		}
	}
	return false
}

func (ig *Integrator) sourceSchema(name string) *hdm.Schema {
	for _, w := range ig.sources {
		if w.SchemaName() == name {
			return w.Schema()
		}
	}
	return nil
}

func (ig *Integrator) globalName() string {
	if ig.global != nil {
		return ig.global.Name()
	}
	return ""
}
