package iql

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Data-parallel sharded comprehension evaluation.
//
// A comprehension whose first generator scans a large extent is the
// hot loop of every Table-1-style query, and it is embarrassingly
// parallel: each element's qualifier tail (filters, joins, nested
// generators, the head) depends only on the element and the enclosing
// environment, never on its neighbours. The sharded path splits the
// generator's element slice into contiguous shards, evaluates each
// shard on a bounded worker pool, and concatenates the per-shard
// outputs in shard order — an order-preserving merge, so the resulting
// bag is byte-identical to the serial loop's (bag semantics are
// order-carrying in the representation even though equality is
// multiset).
//
// Isolation model (share-nothing where mutation happens, shared where
// immutable):
//
//   - Each worker runs its own Evaluator and takes its own compCtx, so
//     the qualifier state, the probe scratch and the generators' Env
//     scopes are all worker-private; the compPlan they share is never
//     written once published. No locking on the per-element hot path.
//   - The enclosing Env chain is shared read-only: the evaluator that
//     owns it is parked in runSharded until the merge, and IQL has no
//     assignment, so workers only Lookup.
//   - Extents (the query processor's session) are NOT concurrency-
//     safe, so workers route every scheme-reference resolution through
//     one lockedExtents adapter. Extent calls are rare, so the lock is
//     quiet.
//   - The sharded comprehension's constant tail sources are evaluated
//     once per scan and shared read-only across its workers
//     (sharedSource): the first worker to need one evaluates it and is
//     charged its steps, so step counts and Extent calls equal the
//     serial loop's whatever the number of workers that ran. Nested
//     comprehensions keep their per-invocation memo.
//   - Join indexes are shared read-only through the evaluator's
//     JoinIndexCache, which is concurrency-safe; a JoinIndex is
//     never written once built. Workers that miss race to build
//     benignly (last insert wins, both indexes are correct).
//   - The StepBudget is atomic. When a step limit is enforced, every
//     worker takes from the budget the scan's evaluator takes from,
//     exactly as the serial path would, so one logical query keeps one
//     budget. Either way a worker counts its steps and the scan adds
//     them to its evaluator's own when the workers are done, so Steps()
//     and, once Eval returns, Used() are the serial path's.
//
// Error semantics: evaluation fails with the error of the lowest-
// numbered errored shard. On success this is unobservable; when
// several elements would fail independently, serial evaluation
// surfaces the textually first one while the sharded path may surface
// a later shard's (shards scheduled after an error are skipped). Step
// budget and cancellation errors carry the same message either way.

// DefaultMinShardRows is the smallest generator scan the sharded path
// will split when Evaluator.MinShardRows is unset. Below roughly this
// size, shard handoff and worker spin-up cost more than the scan.
const DefaultMinShardRows = 64

// shardOversplit is how many shards each worker gets on average:
// oversplitting lets fast workers steal remaining shards from slow
// ones (skewed filter selectivity, nested-join fan-out) instead of
// idling at the merge barrier.
const shardOversplit = 4

// ShardStat records one sharded generator scan, for tracing and
// metrics.
type ShardStat struct {
	// Rows is the scanned generator's element count.
	Rows int
	// Shards and Workers describe the chosen plan.
	Shards  int
	Workers int
	// Wall is the end-to-end duration of the sharded scan, including
	// the merge.
	Wall time.Duration
	// ShardMax and ShardMin are the longest and shortest single-shard
	// processing times, exposing skew.
	ShardMax time.Duration
	ShardMin time.Duration
}

// EvalStats accumulates sharding telemetry across one evaluation; it
// is safe for concurrent use (nested evaluations spawned by extent
// unfolding may shard while an outer scan is sharded).
type EvalStats struct {
	mu      sync.Mutex
	sharded []ShardStat
}

// record appends one sharded-scan record.
func (st *EvalStats) record(s ShardStat) {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.sharded = append(st.sharded, s)
	st.mu.Unlock()
}

// Sharded returns the recorded sharded scans in completion order.
func (st *EvalStats) Sharded() []ShardStat {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]ShardStat(nil), st.sharded...)
}

// lockedExtents serialises extent resolution across the workers of one
// sharded scan: the underlying Extents (typically the query
// processor's evaluation session) mutates per-query state on every
// call and is not concurrency-safe.
type lockedExtents struct {
	mu  sync.Mutex
	ext Extents
}

func (l *lockedExtents) Extent(parts []string) (Value, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ext.Extent(parts)
}

// Footprint implements SizedExtents when the underlying Extents does.
func (l *lockedExtents) Footprint(els []Value) (int64, bool) {
	se, ok := l.ext.(SizedExtents)
	if !ok {
		return 0, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return se.Footprint(els)
}

// sharedSource is one constant generator source of a sharded
// comprehension, evaluated by the first worker that reaches it and read
// by the rest.
type sharedSource struct {
	once sync.Once
	val  Value
	err  error
}

// shardable reports whether the current generator scan qualifies for
// the sharded path: parallelism enabled, no enclosing generator loop
// on this evaluator (a nested comprehension re-entered per element
// must not spin up a pool per element), a sink that several workers'
// outputs can be merged into (a bag or a count; an answer being encoded
// is written by one goroutine, in evaluation order), and enough rows
// for at least two minimum-size shards.
func (ctx *compCtx) shardable(rows int, out *sink) bool {
	ev := ctx.ev
	if ev.Parallel <= 1 || ev.genDepth != 0 || out.into != nil {
		return false
	}
	min := ev.MinShardRows
	if min <= 0 {
		min = DefaultMinShardRows
	}
	return rows >= 2*min
}

// shardPlan picks worker and shard counts for an n-row scan: at most
// parallel workers, shards of at least min rows, oversplit so the pool
// load-balances across skewed shards.
func shardPlan(n, parallel, min int) (workers, shards int) {
	maxShards := n / min
	workers = parallel
	if workers > maxShards {
		workers = maxShards
	}
	shards = workers * shardOversplit
	if shards > maxShards {
		shards = maxShards
	}
	return workers, shards
}

// shardBounds returns the half-open element range of shard s of n rows
// split into shards contiguous, balanced pieces.
func shardBounds(n, shards, s int) (lo, hi int) {
	return s * n / shards, (s + 1) * n / shards
}

// runSharded evaluates the qualifier tail from next for every element
// of els across a worker pool, handing out the head values in element
// order (a counting sink gets the sum of its shards' counts). It is
// called in place of the serial generator loop (see compCtx.run) and
// produces identical output.
func (ctx *compCtx) runSharded(i int, els []Value, next int, env *Env, out *sink) error {
	ev := ctx.ev
	minRows := ev.MinShardRows
	if minRows <= 0 {
		minRows = DefaultMinShardRows
	}
	workers, shards := shardPlan(len(els), ev.Parallel, minRows)
	start := time.Now()

	ext := ev.Ext
	if ext == nil {
		ext = NoExtents
	}
	locked := &lockedExtents{ext: ext}

	sources := make([]sharedSource, len(ctx.quals))
	results := make([]sink, shards)
	errs := make([]error, shards)
	shardDur := make([]time.Duration, shards)
	var nextShard atomic.Int64
	var workerSteps atomic.Int64
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wev := &Evaluator{
				Ext:     locked,
				Ctx:     ev.Ctx,
				Indexes: ev.Indexes,
				Stats:   ev.Stats,
				// Workers are entered below Eval, which is where an
				// evaluator works out what it enforces.
				enforced: ev.enforced,
				worker:   true,
			}
			// One compCtx serves all of this worker's shards: its
			// memoised constant sources, built join indexes and
			// generator scopes carry across shards, exactly as one
			// serial invocation would.
			wctx := wev.compCtxFor(ctx.plan.comp)
			wctx.shared = sources
			defer wctx.release()
			defer func() { workerSteps.Add(int64(wev.steps)) }()
			child := wctx.enter(i, env)
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := int(nextShard.Add(1)) - 1
				if s >= shards {
					return
				}
				lo, hi := shardBounds(len(els), shards, s)
				shardStart := time.Now()
				shardOut := sink{count: out.count}
				if !out.count {
					shardOut.vals = make([]Value, 0, min(hi-lo, outPrealloc))
				}
				wev.genDepth++
				var err error
				for _, el := range els[lo:hi] {
					if err = wctx.runElement(i, el, next, child, &shardOut); err != nil {
						break
					}
				}
				wev.genDepth--
				shardDur[s] = time.Since(shardStart)
				if err != nil {
					errs[s] = err
					halt()
					return
				}
				results[s] = shardOut
			}
		}()
	}
	wg.Wait()

	ev.steps += int(workerSteps.Load())

	for s := 0; s < shards; s++ {
		if errs[s] != nil {
			return errs[s]
		}
	}

	total := 0
	for _, r := range results {
		total += len(r.vals)
		out.n += r.n
	}
	out.vals = slices.Grow(out.vals, total)
	for _, r := range results {
		out.vals = append(out.vals, r.vals...)
	}

	if ev.Stats != nil {
		st := ShardStat{Rows: len(els), Shards: shards, Workers: workers, Wall: time.Since(start)}
		for s, d := range shardDur {
			if s == 0 || d > st.ShardMax {
				st.ShardMax = d
			}
			if s == 0 || d < st.ShardMin {
				st.ShardMin = d
			}
		}
		ev.Stats.record(st)
	}
	return nil
}
