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
// Both extent caches — the virtual-extent memo and the source-extent
// cache — are dependency-tagged cache.Stores: every memoised extent
// records the transitive set of scheme keys its computation touched, so
// that registering new derivations (an integration iteration) evicts
// exactly the affected entries via InvalidateSchemes instead of purging
// all cached work. The join-index cache follows them: whatever way an
// extent leaves either store, the indexes built over it leave with it,
// and no index leaves for any other reason but the cache's own bounds.
// So does a serving layer's answer cache, once it follows the processor
// (Follow): every invalidation of the extent caches is applied to it too.
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
// order, and its scheme key: the string a resolution carries, so
// resolving a reference to it allocates none.
type virtualObject struct {
	key    string
	derivs []Derivation
}

// Processor answers IQL queries over virtual schemas backed by data
// source wrappers. It is safe for concurrent use.
type Processor struct {
	mu      sync.Mutex
	sources []source
	defs    map[string]virtualObject
	memo    *cache.Store[cachedExtent]
	srcExt  *cache.Store[sizedExtent]
	// joinIdx caches built hash-join indexes across every evaluator the
	// processor spawns, keyed by extent identity (see iql.JoinIndexCache):
	// a large memoised extent joined by many queries is indexed once per
	// extent version. memo and srcExt report every extent they drop to
	// it, so an index is dropped when, and only when, its extent is. (An
	// array both stores hold — a federated object's memo entry is its
	// source's own array — loses its indexes when either lets it go: a
	// rebuild on the next join, never a stale index.)
	joinIdx *iql.JoinIndexCache
	// MaxSteps bounds IQL evaluation per query; 0 means unlimited. The
	// budget is shared across every derivation a query unfolds, not per
	// derivation.
	MaxSteps int
	// Parallel sets the worker count for data-parallel comprehension
	// evaluation: 0 picks GOMAXPROCS, 1 forces serial evaluation, and
	// larger values set the pool width explicitly. Sharded evaluation
	// is byte-identical to serial, so this is purely a performance
	// knob.
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
	// extent for stale-extent fallback, keyed like srcExt entries. It is
	// deliberately separate from srcExt: cache invalidation must evict
	// cached extents (so queries refetch), but must not destroy the
	// fallback copy a broken source will be served from.
	lgMu     sync.Mutex
	lastGood map[string]lastGoodEntry

	// follower is the answer cache that follows the extent caches'
	// invalidations (Follow); nil when none does.
	follower Follower

	statParallelEvals atomic.Uint64
	statSerialEvals   atomic.Uint64
	statShards        atomic.Uint64
}

// New returns an empty processor. Its extent caches are unbounded until
// SetCacheBytes installs a byte budget.
func New() *Processor {
	idx := iql.NewJoinIndexCache(0)
	return &Processor{
		defs:     make(map[string]virtualObject),
		memo:     cache.NewWithDrop(cache.Options{}, func(ce cachedExtent) { idx.DropExtent(ce.val) }),
		srcExt:   cache.NewWithDrop(cache.Options{}, func(se sizedExtent) { idx.DropExtent(se.val) }),
		joinIdx:  idx,
		breakers: make(map[string]*breaker),
		lastGood: make(map[string]lastGoodEntry),
	}
}

// SetCacheBytes bounds each extent cache layer (the virtual-extent
// memo, the source-extent cache, and the join-index cache — whose
// entries retain the extents they index) to budget bytes, evicting
// entries beyond it; budget <= 0 removes the bound.
func (p *Processor) SetCacheBytes(budget int64) {
	p.memo.SetMaxBytes(budget)
	p.srcExt.SetMaxBytes(budget)
	p.joinIdx.SetMaxBytes(budget)
}

// CacheStats snapshots the two extent cache layers: the virtual-extent
// memo and the source-extent cache.
func (p *Processor) CacheStats() (memo, src cache.Stats) {
	return p.memo.Stats(), p.srcExt.Stats()
}

// JoinIndexStats snapshots the join-index cache in the shape of the
// other layers: a miss is an index built, an invalidation an index
// dropped with its extent.
func (p *Processor) JoinIndexStats() cache.Stats { return p.joinIdx.Stats() }

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
	src := source{name: name, schema: schema, ext: ext, kind: "local"}
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
// object's, in order — under a single lock acquisition and one
// selective invalidation pass: cached extents depending on the newly
// defined objects are evicted, unrelated entries stay live. It is the
// one way a derivation is registered.
func (p *Processor) DefineAll(defs []ObjectDef) {
	if len(defs) == 0 {
		return
	}
	keys := make([]string, 0, len(defs))
	p.mu.Lock()
	for _, d := range defs {
		k := d.Scheme.Key()
		p.defs[k] = virtualObject{key: k, derivs: append(p.defs[k].derivs, d.Derivation)}
		keys = append(keys, k)
	}
	p.mu.Unlock()
	p.InvalidateSchemes(keys...)
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

// Follower is a cache of answers computed by the processor, tagged as
// its extent caches are with the scheme keys each computation touched
// (cache.Store is one).
type Follower interface {
	InvalidateDeps(keys ...string) int
	Purge()
}

// Follow makes f follow the processor's invalidations: InvalidateSchemes
// invalidates f's entries under the same keys, and InvalidateCache
// purges f. Every derivation change (DefineAll), breaker recovery
// (ProbeOpen) and source-data change reaches the processor through
// those two, and a step makes its changes under the integrator's write
// lock, so no answer a change retired outlives it in f. It is called
// once, before the processor is shared.
func (p *Processor) Follow(f Follower) { p.follower = f }

// InvalidateCache clears every memoised extent wholesale, and the
// follower's answers with them. It remains for source-data changes of
// unknown extent; integration iterations use the selective
// InvalidateSchemes instead.
func (p *Processor) InvalidateCache() {
	p.memo.Purge()
	p.srcExt.Purge()
	// The purges above dropped the indexes of every cached extent; what
	// is left was built over arrays nobody caches, and a full purge is
	// the moment to drop that memory too.
	p.joinIdx.Purge()
	if p.follower != nil {
		p.follower.Purge()
	}
}

// InvalidateSchemes evicts exactly the cached extents whose dependency
// set intersects keys — each memoised extent knows the transitive set
// of source and virtual scheme keys its computation touched — and
// returns how many entries were dropped. Unrelated cached extents
// survive, which is what keeps warm answers live across integration
// iterations — and with each surviving extent the join indexes built
// over it, while the indexes of a dropped extent go with it (the two
// stores report their drops to the index cache), so an iteration leaves
// no index of a retired extent version pinned and rebuilds none over an
// extent it did not touch. The follower's answers under keys go too,
// after the extents and uncounted: an answer whose evaluation began
// before then is refused by the follower's generation (cache.PutAt), one
// that began after read the fresh extents.
func (p *Processor) InvalidateSchemes(keys ...string) int {
	if len(keys) == 0 {
		return 0
	}
	n := p.memo.InvalidateDeps(keys...) + p.srcExt.InvalidateDeps(keys...)
	if p.follower != nil {
		p.follower.InvalidateDeps(keys...)
	}
	return n
}
