package query

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"github.com/dataspace/automed/internal/cache"
	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/obs"
)

// session threads the recursion stack and scope stack through one query
// evaluation so that ident cycles are cut exactly once, mid-cycle
// results are not memoised, and each derivation's references resolve in
// its own source scope.
type session struct {
	p       *Processor
	onStack map[string]bool
	scopes  []string
	cut     bool
	// ctx cancels long evaluations (per-request timeouts); it is handed
	// to every evaluator the session spawns and to every read.
	ctx context.Context
	// budget is the evaluation step budget shared by every evaluator
	// this session spawns, so MaxSteps bounds the whole query rather
	// than each derivation separately.
	budget *iql.StepBudget
	// warnLog is the ordered warning stream of this evaluation; each
	// virtual extent caches the slice it contributed so that memo-
	// cache hits replay the warnings of the computation they reuse.
	warnLog []string
	// depLog is the ordered stream of scheme keys this evaluation
	// touched (source and virtual); each virtual extent caches the
	// slice it contributed as its dependency set, and memo-cache hits
	// replay the reused computation's dependencies, so the log is
	// always the transitive touch-set of the evaluation so far. It
	// starts on depBuf, so an evaluation that logs at most sixteen keys,
	// its memo hits' replays included, never grows it.
	depLog []string
	depBuf [16]string
	// warm holds, by source object, what this query's prefetch read.
	// Evaluation does not ask such a source a second time: a failing
	// source gets one provider call per query, and a read extent is the
	// query's whatever happens to the cache meanwhile.
	warm map[extentAddr]warmed
	// countFailed holds the source objects whose count at the source
	// failed in this query: their stream position goes straight to the
	// whole-extent read (see ExtentCount).
	countFailed map[extentAddr]bool
	// stats collects sharding telemetry across every evaluator this
	// session spawns (it is concurrency-safe).
	stats *iql.EvalStats
	// last is the extent Extent returned last, with its footprint when
	// that is known without a walk (size 0 when not): what a memo entry
	// or a join index over the same array is charged (see Footprint).
	last sizedExtent
	// addr is the table the evaluation resolves against and fills the
	// memo under, taken before it read anything: what a change
	// overlapped lands under an address the change retired.
	addr *addresses
}

// evaluator builds an IQL evaluator wired to this session: shared step
// budget, request context, the processor-wide join-index cache, and
// the sharded-evaluation settings. Sharded workers serialise their
// session access internally (see iql/parallel.go), so handing the
// session itself as the extent source stays correct under parallelism.
func (s *session) evaluator() *iql.Evaluator {
	return &iql.Evaluator{
		Ext:      s,
		Budget:   s.budget,
		Ctx:      s.ctx,
		Indexes:  s.p.st.joinIdx,
		Parallel: s.p.evalParallel(),
		Stats:    s.stats,
	}
}

// newSession builds an evaluation session with a fresh per-query step
// budget.
func (p *Processor) newSession(ctx context.Context, scopes ...string) *session {
	s := &session{
		p:       p,
		onStack: make(map[string]bool),
		scopes:  scopes,
		ctx:     ctx,
		budget:  &iql.StepBudget{Max: p.MaxSteps},
		stats:   &iql.EvalStats{},
		addr:    p.addresses(),
	}
	s.depLog = s.depBuf[:0]
	return s
}

func (s *session) scope() string {
	if len(s.scopes) == 0 {
		return ""
	}
	return s.scopes[len(s.scopes)-1]
}

// deps returns the distinct scheme keys this session touched, sorted,
// in a slice of their own. The log is sorted and compacted where it
// stands: a session that reports has finished evaluating.
func (s *session) deps() []string {
	s.depLog = sortedSet(s.depLog)
	return slices.Clone(s.depLog)
}

// report returns what a finished evaluation raised and touched: its
// distinct warnings and its dependency set, both sorted.
func (s *session) report() (warns, deps []string) {
	s.warnLog = sortedSet(s.warnLog)
	return s.warnLog, s.deps()
}

// sortedSet sorts log and drops its repeats in place, and returns what
// is left at its exact length, so an append to it never writes into log.
func sortedSet(log []string) []string {
	slices.Sort(log)
	return slices.Clip(slices.Compact(log))
}

// warn records a warning in the session: warnings are reported per
// evaluation, and the ordered log also feeds the extent memo cache.
func (s *session) warn(msg string) {
	s.warnLog = append(s.warnLog, msg)
}

// Extent implements iql.Extents for evaluation within a session:
// source objects are read from their provider, virtual objects unfold
// their derivations.
func (s *session) Extent(parts []string) (iql.Value, error) {
	r := s.addr.resolve(s.scope(), parts)
	switch r.kind {
	case refScoped, refGlobal:
		s.depLog = r.appendDeps(s.depLog)
		return s.source(r.src, r.sc)
	case refVirtual:
		return s.virtual(r, parts)
	case refAmbiguous:
		return iql.Value{}, fmt.Errorf("query: <<%s>> is ambiguous across sources %s",
			strings.Join(parts, ", "), strings.Join(r.names, ", "))
	}
	return iql.Value{}, fmt.Errorf("query: unknown schema object <<%s>>", strings.Join(parts, ", "))
}

// source reads one source object's whole extent for this evaluation,
// raising the degraded warning when the answer is a stale copy.
func (s *session) source(src source, sc hdm.Scheme) (iql.Value, error) {
	w, warm := s.warm[src.object(sc.Key())]
	x, err := w.x, w.err
	switch {
	case !warm:
		x, err = s.p.read(s.ctx, src, sc, readWhole, nil)
	case err != nil:
		x, err = s.p.stale(s.ctx, src, sc, s.p.breakerFor(src.name), err)
	default:
		mark(s.ctx, obs.StageFetch, src.name, sc.Key(), obs.CacheHit, bagLen(x.val), nil)
	}
	if x.degraded != "" {
		s.warn(x.degraded)
	}
	s.last = sizedExtent{x.val, x.size}
	return x.val, err
}

// Footprint implements iql.SizedExtents: the footprint of the extent
// this session's Extent returned last, when els are its elements and
// its footprint is known — a cached extent's, or one just filled.
func (s *session) Footprint(els []iql.Value) (int64, bool) {
	v := s.last.val
	if s.last.size == 0 || len(els) == 0 || v.Kind != iql.KindBag || v.Len() != len(els) || &v.Items()[0] != &els[0] {
		return 0, false
	}
	return s.last.size, true
}

// virtual answers a virtual object from the memo, or by unfolding its
// derivations under an extent span so the fetch (and nested extent)
// spans of the computation appear as its children.
func (s *session) virtual(r resolution, parts []string) (iql.Value, error) {
	if ce, ok := s.p.st.memo.Get(r.fp); ok {
		// Replay the reused computation's warnings and dependency
		// set so the enclosing evaluation inherits both.
		s.warnLog = append(s.warnLog, ce.warns...)
		s.depLog = append(s.depLog, ce.deps...)
		s.last = sizedExtent{ce.val, ce.size}
		if obs.TraceFrom(s.ctx) != nil {
			mark(s.ctx, obs.StageExtent, strings.Join(parts, ", "), "", obs.CacheHit, bagLen(ce.val), nil)
		}
		return ce.val, nil
	}
	name := strings.Join(parts, ", ")
	sp, ctx := obs.StartSpan(s.ctx, obs.StageExtent, name)
	sp.SetCache(obs.CacheMiss)
	saved := s.ctx
	s.ctx = ctx
	v, err := s.unfold(r, name)
	s.ctx = saved
	sp.SetRows(bagLen(v))
	sp.End(err)
	return v, err
}

// unfold computes a virtual object's extent as the bag union of its
// derivations, each evaluated in its own scope, and memoises it with
// the warnings and dependency keys the computation contributed.
func (s *session) unfold(r resolution, name string) (iql.Value, error) {
	if s.onStack[r.key] {
		s.cut = true
		return iql.Bag(), nil
	}
	s.onStack[r.key] = true
	savedCut := s.cut
	s.cut = false
	warnMark := len(s.warnLog)
	depMark := len(s.depLog)
	// The object's own key heads its dependency set, which the
	// evaluation reports (EvalContext).
	s.depLog = r.appendDeps(s.depLog)
	parts := make([][]iql.Value, 0, len(r.derivs))
	var evalErr error
	for _, d := range r.derivs {
		s.scopes = append(s.scopes, d.Scope)
		ev := s.evaluator()
		v, err := ev.Eval(d.Query, nil)
		s.scopes = s.scopes[:len(s.scopes)-1]
		if err != nil {
			evalErr = fmt.Errorf("query: unfolding <<%s>> via %s: %w", name, d.Via, err)
			break
		}
		els, err := v.Elements()
		if err != nil {
			evalErr = fmt.Errorf("query: derivation of <<%s>> via %s is not a collection: %w", name, d.Via, err)
			break
		}
		parts = append(parts, els)
		if d.Lower {
			if iql.IsVoidAnyRange(d.Query) {
				s.warn(fmt.Sprintf("extent of <<%s>> is unknown via %s (Range Void Any)", name, d.Via))
			} else {
				s.warn(fmt.Sprintf("extent of <<%s>> may be incomplete: lower bound used (via %s)", name, d.Via))
			}
		}
	}
	delete(s.onStack, r.key)
	if evalErr != nil {
		return iql.Value{}, evalErr
	}
	// A single derivation's elements are the extent as they stand — bags
	// are never modified in place, so a federated object shares its
	// source object's array instead of copying it on every cold read.
	var acc []iql.Value
	if len(parts) == 1 {
		acc = parts[0]
	} else {
		acc = slices.Concat(parts...)
	}
	out := iql.BagOf(acc)
	if !s.cut {
		// A federated object's extent is its source's array, whose
		// footprint its read has just told.
		size, ok := s.Footprint(acc)
		if !ok {
			size = out.Footprint()
		}
		ce := cachedExtent{val: out, size: size, deps: cache.Dedup(s.depLog[depMark:])}
		if n := len(s.warnLog) - warnMark; n > 0 {
			ce.warns = append([]string(nil), s.warnLog[warnMark:]...)
		}
		s.p.st.memo.Put(r.fp, ce, ce.cost(), nil)
		if !s.addr.current(s.p.gen.Load()) {
			s.p.st.memo.Delete(r.fp, nil) // retired while it was computed
		}
		s.last = sizedExtent{out, size}
	}
	s.cut = s.cut || savedCut
	return out, nil
}

// eval is the one body behind Eval, EvalScoped, EvalContext and
// EvalEncoded: warm the source extents the expression enumerates
// concurrently, then walk it serially in a fresh session — into dst when
// there is one, to a value when there is not — which comes back so the
// caller can report what the evaluation raised and touched.
func (p *Processor) eval(ctx context.Context, e iql.Expr, scope string, dst *iql.Encoding) (iql.Value, *session, error) {
	s := p.newSession(ctx, scope) // before the prefetch reads anything
	s.warm = p.prefetch(ctx, s.addr, e, scope)
	sp, ctx := obs.StartSpan(ctx, obs.StageEval, "")
	s.ctx = ctx
	var v iql.Value
	var err error
	if dst != nil {
		err = s.evaluator().EvalEncoded(dst, e, nil)
	} else {
		v, err = s.evaluator().Eval(e, nil)
	}
	p.noteEval(s.stats, sp)
	sp.End(err)
	return v, s, err
}

// Eval evaluates a parsed IQL expression against the processor.
func (p *Processor) Eval(e iql.Expr) (iql.Value, error) {
	return p.EvalScoped(e, "")
}

// EvalScoped evaluates an expression whose unqualified references
// resolve against the named source schema first.
func (p *Processor) EvalScoped(e iql.Expr, scope string) (iql.Value, error) {
	v, _, err := p.eval(context.Background(), e, scope, nil)
	return v, err
}

// EvalContext evaluates a parsed IQL expression under a context (for
// per-request timeouts and cancellation) and returns, alongside the
// value, the incompleteness warnings raised by this evaluation alone
// and the distinct scheme keys it touched (its dependency set), both
// sorted. Each evaluation
// collects its own warnings, so concurrent queries do not see each
// other's.
func (p *Processor) EvalContext(ctx context.Context, e iql.Expr) (iql.Value, []string, []string, error) {
	v, s, err := p.eval(ctx, e, "", nil)
	if err != nil {
		return iql.Value{}, nil, nil, err
	}
	warns, deps := s.report()
	return v, warns, deps, nil
}

// EvalEncoded is EvalContext with the value written to dst instead of
// built (see iql.Evaluator.EvalEncoded): the same warnings, the same
// dependency set, the same steps and errors.
func (p *Processor) EvalEncoded(ctx context.Context, e iql.Expr, dst *iql.Encoding) ([]string, []string, error) {
	_, s, err := p.eval(ctx, e, "", dst)
	if err != nil {
		return nil, nil, err
	}
	warns, deps := s.report()
	return warns, deps, nil
}

// Query parses and evaluates IQL source text.
func (p *Processor) Query(src string) (iql.Value, error) {
	e, err := iql.Parse(src)
	if err != nil {
		return iql.Value{}, err
	}
	return p.Eval(e)
}

// Extent returns the extent of the referenced object: virtual objects
// by unfolding their derivations (their source extents are prefetched
// concurrently first), source objects from their wrapper.
func (p *Processor) Extent(parts []string) (iql.Value, error) {
	s := p.newSession(context.Background())
	s.warm = p.prefetch(s.ctx, s.addr, iql.Ref(parts...), "")
	return s.Extent(parts)
}

// Materialize computes the extent of every object in a schema,
// returning a map from scheme key to extent. Used to snapshot an
// integrated resource (e.g. to answer source queries in the reverse
// direction) and by the benchmark harness.
func (p *Processor) Materialize(s *hdm.Schema) (map[string]iql.Value, error) {
	out := make(map[string]iql.Value, s.Len())
	for _, o := range s.Objects() {
		v, err := p.Extent(o.Scheme.Parts())
		if err != nil {
			return nil, fmt.Errorf("query: materialising %s: %w", o.Scheme, err)
		}
		out[o.Scheme.Key()] = v
	}
	return out, nil
}

// evalParallel resolves the effective sharded-evaluation width.
func (p *Processor) evalParallel() int {
	if p.Parallel > 0 {
		return p.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// ParallelStats snapshots the processor's sharded-evaluation counters.
type ParallelStats struct {
	// ParallelEvals and SerialEvals split completed top-level
	// evaluations by whether any generator scan sharded.
	ParallelEvals uint64
	SerialEvals   uint64
	// Shards is the total number of shards executed.
	Shards uint64
	// Width is the effective worker-pool width for new evaluations.
	Width int
}

// ParallelStats reports sharded-evaluation activity since startup.
func (p *Processor) ParallelStats() ParallelStats {
	return ParallelStats{
		ParallelEvals: p.statParallelEvals.Load(),
		SerialEvals:   p.statSerialEvals.Load(),
		Shards:        p.statShards.Load(),
		Width:         p.evalParallel(),
	}
}

// noteEval folds one finished evaluation's sharding telemetry into the
// processor counters and, when a span is recording, its detail field.
func (p *Processor) noteEval(st *iql.EvalStats, sp *obs.Span) {
	sh := st.Sharded()
	if len(sh) == 0 {
		p.statSerialEvals.Add(1)
		return
	}
	p.statParallelEvals.Add(1)
	shards, workers := 0, 0
	var slowest time.Duration
	for _, s := range sh {
		shards += s.Shards
		if s.Workers > workers {
			workers = s.Workers
		}
		if s.ShardMax > slowest {
			slowest = s.ShardMax
		}
	}
	p.statShards.Add(uint64(shards))
	if sp != nil {
		sp.SetDetail(fmt.Sprintf("sharded scans=%d shards=%d workers=%d shard_max=%s",
			len(sh), shards, workers, slowest.Round(time.Microsecond)))
	}
}
