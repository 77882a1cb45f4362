// Package query implements AutoMed's query processor for the BAV
// setting: users' IQL queries expressed on an integrated (virtual)
// schema are answered by recursively unfolding the view definitions
// carried by the add/extend steps of the pathways from the data source
// schemas (GAV unfolding); the reverse direction — answering source
// queries from an integrated resource — falls out of the automatic
// reversibility of pathways (LAV), per paper §2.1.
//
// An object added by several pathways (one per data source) has as its
// extent the bag union of all of its derivations, which is AutoMed's
// default semantics for integrated objects and the one the paper
// assumes. Extends contribute their lower bound and flag the answer as
// potentially incomplete.
//
// Derivations are *scoped*: a derivation registered from the pathway
// ES_i → I evaluates its unqualified scheme references against the
// schema of data source ES_i first, exactly as the paper's
// transformations are written (e.g. <<protein>> inside Pedro's pathway
// means Pedro's protein table even though PepSeeker also has one).
//
// There is one way from a reference to a source, in two steps. resolve
// (resolve.go) decides what a reference names — an object of the
// scope's own source, a virtual object, an object of exactly one
// registered source, an ambiguity, or nothing — and which dependency
// keys that implies. read (access.go) is the only code that calls an
// extent provider: around the call it owns the source-extent cache and
// its singleflight, the circuit breaker and stale fallback, the
// per-source deadline, the fetch span and metrics, and the
// last-known-good copy. Evaluation (eval.go), the stream position
// (stream.go), the prefetch plan (prefetch.go), the recovery probe
// (breaker.go) and Explain are thin callers of the two.
//
// Every cached extent is addressed by what derives it (address.go): a
// source object's by its source instance's identity and epoch and its
// scheme key, a virtual object's by a fingerprint of its derivations,
// of what each of their references resolves to, and of the addresses of
// those. An entry cannot go stale; a change — a definition (DefineAll),
// a source's recovery, InvalidateCache — only gives what it touched new
// addresses, so nothing is swept, and the old entries wait for the LRU.
// One set of stores (Stores) can therefore serve every processor over
// the same source instances. The join-index cache follows the extent
// stores: whatever way an extent leaves either, the indexes built over
// it leave with it.
//
// This file is the registry: sources, derivations, caches.
package query

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/dataspace/automed/internal/cache"
	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/transform"
	"github.com/dataspace/automed/internal/wrapper"
)

// Derivation is one definition of a virtual object's extent.
type Derivation struct {
	// Query computes (part of) the extent; for extends this is the
	// Range whose lower bound is used.
	Query iql.Expr
	// Lower marks a lower-bound-only derivation (from an extend step):
	// answers through it are certain but possibly incomplete.
	Lower bool
	// Via records the pathway that introduced the derivation, for
	// provenance reporting.
	Via string
	// Scope names the data source schema whose objects unqualified
	// references resolve against first; empty means unscoped.
	Scope string
}

// source is one registered extent provider. extCtx is the provider's
// context-aware fetch path, nil when it offers none; kind labels the
// provider's wrapper flavour in metrics and traces.
type source struct {
	name   string
	schema *hdm.Schema
	ext    iql.Extents
	// inst is the provider's instance, or one of its own for a provider
	// that has none (it then shares nothing); id is its identity.
	inst   *wrapper.Instance
	id     uint64
	extCtx ContextSourcer
	// fb is the provider's stale-fallback path (snapshot extents held
	// for offline use), nil when it offers none.
	fb   FallbackSourcer
	kind string
	// scan is the provider's row scanner, set only when its scans page
	// from the backend; the others gain nothing from it and are read whole.
	scan ScanSourcer
	// count is a paging provider's way of having a selection of an extent
	// counted at its backend, nil when it offers none. A provider that
	// does not page is read whole and cached, and counts from the cache.
	count wrapper.CountSourcer
}

// cachedExtent memoises a virtual object's extent together with the
// incompleteness warnings its computation raised (cache hits replay the
// warnings instead of silently reporting an incomplete answer as
// complete) and the transitive set of scheme keys the computation
// touched (its dependency set, which cache hits replay into the current
// session so enclosing computations inherit it).
type cachedExtent struct {
	val   iql.Value
	size  int64 // val's footprint
	warns []string
	deps  []string
}

// sizedExtent is an extent with its footprint (iql.Value.Footprint),
// walked once when the extent is filled and carried with it: the
// source-extent cache's entries, and what a session read last (see
// session.Footprint).
type sizedExtent struct {
	val  iql.Value
	size int64
}

// cost estimates the entry's in-memory size for the byte budget.
func (ce cachedExtent) cost() int64 {
	n := ce.size
	for _, w := range ce.warns {
		n += int64(len(w)) + 16
	}
	for _, d := range ce.deps {
		n += int64(len(d)) + 16
	}
	return n
}

// virtualObject is a virtual object's derivations, in registration
// order, what each contributes to its fingerprint on its own, and its
// scheme key: the string a resolution carries, so resolving a reference
// to it allocates none. In an addresses table it carries its
// fingerprint too.
type virtualObject struct {
	key    string
	derivs []Derivation
	sums   []derivSum
	fp     Fingerprint
}

// Processor answers IQL queries over virtual schemas backed by data
// source wrappers. It is safe for concurrent use.
type Processor struct {
	mu      sync.Mutex
	sources []source
	defs    map[string]virtualObject
	// gen counts registrations, of sources and of derivations (both
	// under mu); addr is the fingerprint table of the latest, built when
	// a query first needs it (see addresses).
	gen  atomic.Uint64
	addr atomic.Pointer[addresses]
	// st are the stores the processor's extents are cached in: its own,
	// or ones it shares (UseStores, which sets shared).
	st     *Stores
	shared bool
	// MaxSteps bounds IQL evaluation per query; 0 means unlimited. The
	// budget is shared across every derivation a query unfolds, not per
	// derivation.
	MaxSteps int
	// Parallel is ignored: evaluation is serial. The benchmark module
	// (bench/) still sets it; ROADMAP item 1(a) deletes it.
	Parallel int
	// ScanBuffer sets the streaming pipeline's row window (see
	// stream.go): extents at or below it materialise and cache as
	// before, larger ones stream through a bounded prefetch buffer of
	// this many rows. 0 picks DefaultScanBufferRows; negative disables
	// streaming so every extent materialises.
	ScanBuffer int

	// brCfg and breakers implement the per-source circuit breakers (see
	// breaker.go); both are guarded by mu. Breakers are created lazily
	// per source name on first fetch, so sources registered after
	// SetBreaker are covered too.
	brCfg    BreakerConfig
	breakers map[string]*breaker
	// lastGood retains the most recent successful fetch of every source
	// object, whatever its epoch (source.object), for stale-extent
	// fallback. It is deliberately separate from srcExt: invalidation
	// must retire cached extents (so queries refetch), but must not
	// destroy the fallback copy a broken source will be served from.
	lgMu     sync.Mutex
	lastGood map[extentAddr]lastGoodEntry
}

// Stores are the extent caches processors fill: the virtual-extent
// memo, the source extents, and the join indexes built over either.
// Entries are addressed by what derives them, so processors over the
// same source instances that share one set share what either computes.
type Stores struct {
	memo   *cache.Map[Fingerprint, struct{}, cachedExtent]
	srcExt *cache.Map[extentAddr, struct{}, sizedExtent]
	// joinIdx caches built hash-join indexes across every evaluator the
	// stores' processors spawn, keyed by extent identity (see
	// iql.JoinIndexCache): a large memoised extent joined by many queries
	// is indexed once per extent version. memo and srcExt report every
	// extent they drop to it, so an index is dropped when, and only when,
	// its extent is. (An array both stores hold — a federated object's
	// memo entry is its source's own array — loses its indexes when
	// either lets it go: a rebuild on the next join, never a stale index.)
	joinIdx *iql.JoinIndexCache
}

// NewStores returns empty stores, each layer bounded to budget bytes
// (<= 0: unbounded). The join-index layer's entries retain the extents
// they index.
func NewStores(budget int64) *Stores {
	idx := iql.NewJoinIndexCache(0)
	st := &Stores{
		memo:    cache.NewWithDrop[Fingerprint, struct{}](cache.Options{}, func(ce cachedExtent) { idx.DropExtent(ce.val) }),
		srcExt:  cache.NewWithDrop[extentAddr, struct{}](cache.Options{}, func(se sizedExtent) { idx.DropExtent(se.val) }),
		joinIdx: idx,
	}
	st.setMaxBytes(budget)
	return st
}

// Stats snapshots the three layers: the virtual-extent memo, the source
// extents and the join indexes (see Processor.JoinIndexStats).
func (st *Stores) Stats() (memo, src, index cache.Stats) {
	return st.memo.Stats(), st.srcExt.Stats(), st.joinIdx.Stats()
}

func (st *Stores) setMaxBytes(budget int64) {
	st.memo.SetMaxBytes(budget)
	st.srcExt.SetMaxBytes(budget)
	st.joinIdx.SetMaxBytes(budget)
}

// New returns an empty processor with stores of its own, unbounded.
func New() *Processor {
	return &Processor{
		defs:     make(map[string]virtualObject),
		st:       NewStores(0),
		breakers: make(map[string]*breaker),
		lastGood: make(map[extentAddr]lastGoodEntry),
	}
}

// UseStores makes the processor cache its extents in st, which other
// processors may share. It is called once, before the processor is
// shared.
func (p *Processor) UseStores(st *Stores) { p.st, p.shared = st, true }

// CacheStats snapshots the two extent cache layers: the virtual-extent
// memo and the source-extent cache.
func (p *Processor) CacheStats() (memo, src cache.Stats) {
	memo, src, _ = p.st.Stats()
	return memo, src
}

// JoinIndexStats snapshots the join-index cache in the shape of the
// other layers: a miss is an index built, an invalidation an index
// dropped with its extent.
func (p *Processor) JoinIndexStats() cache.Stats { return p.st.joinIdx.Stats() }

// Sourcer is the subset of wrapper behaviour the processor needs; it is
// satisfied by wrapper implementations. Extent must tolerate concurrent
// calls: the processor prefetches the extents a query enumerates in
// parallel (misses of the same object are still coalesced to a single
// fetch by the source-extent cache).
type Sourcer interface {
	SchemaName() string
	Schema() *hdm.Schema
	Extent(parts []string) (iql.Value, error)
}

// ContextSourcer is the optional context-aware extension of an extent
// provider: wrappers over remote backends (SQL over the wire, REST
// endpoints) implement it so per-request timeouts and cancellation
// propagate into the wire fetch instead of being checked only between
// evaluation steps.
type ContextSourcer interface {
	ExtentContext(ctx context.Context, parts []string) (iql.Value, error)
}

// AddSource registers a data source. Source schema objects are
// authoritative: references resolving in exactly one source schema are
// answered by that source. Sources additionally implementing
// ContextSourcer get request contexts threaded into their fetches.
func (p *Processor) AddSource(w Sourcer) error {
	if w == nil {
		return fmt.Errorf("query: nil source")
	}
	return p.AddExtents(w.SchemaName(), w.Schema(), w)
}

// AddExtents registers a generic extent provider with an explicit
// schema, e.g. a materialised global schema used to answer source
// queries in the reverse (LAV) direction.
func (p *Processor) AddExtents(name string, schema *hdm.Schema, ext iql.Extents) error {
	if name == "" || schema == nil || ext == nil {
		return fmt.Errorf("query: invalid extent source")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.sources {
		if s.name == name {
			return fmt.Errorf("query: source %q already registered", name)
		}
	}
	src := source{name: name, schema: schema, ext: ext, kind: "local", inst: new(wrapper.Instance)}
	if x, ok := ext.(interface{ Instance() *wrapper.Instance }); ok {
		src.inst = x.Instance()
	}
	src.id = src.inst.ID()
	src.extCtx, _ = ext.(ContextSourcer)
	src.fb, _ = ext.(FallbackSourcer)
	if k, ok := ext.(interface{ Kind() string }); ok {
		src.kind = k.Kind()
	}
	if sc, ok := ext.(ScanSourcer); ok {
		if st, ok := ext.(interface{ StreamingScans() bool }); ok && st.StreamingScans() {
			src.scan = sc
			src.count, _ = ext.(wrapper.CountSourcer)
		}
	}
	p.sources = append(p.sources, src)
	p.gen.Add(1)
	return nil
}

// SourceNames returns registered source names in registration order.
func (p *Processor) SourceNames() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, len(p.sources))
	for i, s := range p.sources {
		out[i] = s.name
	}
	return out
}

// RegisterPathway installs the view definitions induced by a pathway's
// steps, all scoped to the given source schema name: add(o,q) defines o
// by q; extend(o, Range lo hi) defines a lower bound for o; rename(o,n)
// defines n by o; id(a,b) defines each of a, b by the other (cycles are
// cut during evaluation, yielding the union across an ident chain
// exactly once; self-ids register nothing). delete and contract steps
// induce no forward definitions. They are registered through DefineAll.
func (p *Processor) RegisterPathway(pw *transform.Pathway, scope string) error {
	if pw == nil {
		return fmt.Errorf("query: nil pathway")
	}
	via := pw.Source + "->" + pw.Target
	var defs []ObjectDef
	def := func(o hdm.Scheme, q iql.Expr, lower bool) {
		defs = append(defs, ObjectDef{Scheme: o, Derivation: Derivation{Query: q, Lower: lower, Via: via, Scope: scope}})
	}
	for _, t := range pw.Steps {
		switch t.Kind {
		case transform.Add:
			def(t.Object, t.Query, false)
		case transform.Extend:
			def(t.Object, t.Query, true)
		case transform.Rename:
			def(t.To, iql.Ref(t.Object.Parts()...), false)
		case transform.ID:
			if t.Object.Key() == t.To.Key() {
				continue // self-id: no definitional content in one namespace
			}
			def(t.Object, iql.Ref(t.To.Parts()...), false)
			def(t.To, iql.Ref(t.Object.Parts()...), false)
		case transform.Delete, transform.Contract:
			// No forward definition.
		}
	}
	p.DefineAll(defs)
	return nil
}

// Define installs a single ad-hoc derivation for a virtual object: a
// DefineAll of one.
func (p *Processor) Define(sc hdm.Scheme, q iql.Expr, via, scope string) {
	p.DefineAll([]ObjectDef{{Scheme: sc, Derivation: Derivation{Query: q, Via: via, Scope: scope}}})
}

// ObjectDef is one derivation in a DefineAll batch: the object and how
// it is derived.
type ObjectDef struct {
	Scheme hdm.Scheme
	Derivation
}

// DefineAll installs a batch of derivations — each appended to its
// object's, in order — under a single lock acquisition. It is the one
// way a derivation is registered. The objects it defines, and every
// object over them, take new addresses. Shared stores leave what the
// old ones address to the LRU: another processor may be, or come to
// be, at that state. Stores of the processor's own cannot be asked for
// it again — definitions only accumulate — so it is dropped at once.
func (p *Processor) DefineAll(defs []ObjectDef) {
	if len(defs) == 0 {
		return
	}
	old := p.addr.Load()
	p.mu.Lock()
	for _, d := range defs {
		k := d.Scheme.Key()
		vo := p.defs[k]
		p.defs[k] = virtualObject{key: k, derivs: append(vo.derivs, d.Derivation), sums: append(vo.sums, sumOf(d.Derivation))}
	}
	p.gen.Add(1)
	p.mu.Unlock()
	if old != nil && !p.shared {
		p.retire(old)
	}
}

// HasDefinition reports whether the object has at least one derivation.
func (p *Processor) HasDefinition(sc hdm.Scheme) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.defs[sc.Key()].derivs) > 0
}

// ObjectDerivations pairs a virtual object's scheme key with its
// derivations in registration order.
type ObjectDerivations struct {
	Key    string
	Derivs []Derivation
}

// AllDerivations returns every registered derivation: keys sorted for
// deterministic snapshots, derivations within a key in registration
// order (the order extents accumulate in during unfolding).
func (p *Processor) AllDerivations() []ObjectDerivations {
	p.mu.Lock()
	defer p.mu.Unlock()
	keys := make([]string, 0, len(p.defs))
	for k := range p.defs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]ObjectDerivations, 0, len(keys))
	for _, k := range keys {
		out = append(out, ObjectDerivations{Key: k, Derivs: append([]Derivation(nil), p.defs[k].derivs...)})
	}
	return out
}

// InvalidateCache retires every extent read from the processor's
// sources — for source-data changes of unknown extent. It moves each
// source to a fresh epoch, so that what any processor over the same
// source instances derived from them is unreachable; deletes what the
// old addresses hold (retire); and purges the join-index cache, whose
// entries over arrays nobody caches only a purge reaches.
func (p *Processor) InvalidateCache() {
	old := p.addresses()
	for _, src := range old.srcs {
		src.inst.Bump()
	}
	p.retire(old)
	p.st.joinIdx.Purge()
}

// retire deletes what the table old addressed and the current one does
// not: the source extents of epochs that moved, and the memoised extents
// whose fingerprint moved. A fill that lands under one of those
// addresses later deletes itself (landed, and unfold for the memo).
func (p *Processor) retire(old *addresses) {
	t := p.addresses()
	for i, src := range old.srcs {
		if t.epochs[i] == old.epochs[i] {
			continue
		}
		for _, o := range src.schema.Objects() {
			p.st.srcExt.Delete(extentAddr{src.id, old.epochs[i], o.Scheme.Key()}, nil)
		}
	}
	for k, vo := range old.defs {
		if t.defs[k].fp != vo.fp {
			p.st.memo.Delete(vo.fp, nil)
		}
	}
}
