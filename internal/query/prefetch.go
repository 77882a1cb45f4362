package query

import (
	"context"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/obs"
)

// Concurrent extent prefetch. A multi-generator comprehension over the
// integrated schema unfolds onto several data source extents; reading
// them one by one during evaluation serialises the wrappers' latencies.
// Before evaluating a query, the processor statically collects the
// scheme references the comprehension will enumerate — generator
// sources, aggregate/member arguments, union operands — resolves each
// as evaluation will, expands those that name virtual objects one
// definition level at a time (skipping anything already memoised), and
// reads the distinct source objects concurrently in readWarm mode.
// Those are ordinary guarded reads: they coalesce with the evaluation
// that needs the extent (and with concurrent queries), respect and feed
// the source's breaker, and retain what they fetch as last-known-good.
//
// Only references the evaluation is set to enumerate are warmed. The
// arms of an if are not: one of them never runs, so its extents are
// read on demand like any other non-enumerated reference, and a source
// behind an untaken arm gets no provider call and no breaker verdict.
//
// Prefetch is advisory: the walk is bounded, every scheduled read is
// awaited unless the request is cancelled (which also stops
// scheduling), and the error of a failed read is handed to the
// evaluation, which surfaces it with full context (or degrades to stale
// data) without asking the source a second time.

const (
	// prefetchWorkers bounds concurrent provider calls per query.
	prefetchWorkers = 8
	// prefetchMaxTasks bounds how many distinct source extents one
	// query's prefetch may schedule.
	prefetchMaxTasks = 64
	// prefetchMaxDepth bounds the virtual-definition expansion depth.
	prefetchMaxDepth = 4
)

// prefetchTask names one source object to warm.
type prefetchTask struct {
	src source
	sc  hdm.Scheme
}

// prefetch reads the distinct, not yet cached source extents the
// expression will enumerate, concurrently. It blocks until those reads
// finish and returns what each read, by source object: the serial
// evaluation that follows takes them from there, so a change that
// retires them from the cache meanwhile — another session's
// /invalidate over the same sources — costs it no second fetch.
// Virtual objects memoised at their address in t are not expanded.
func (p *Processor) prefetch(ctx context.Context, t *addresses, e iql.Expr, scope string) map[extentAddr]warmed {
	if ctx.Err() != nil {
		return nil
	}
	pf := prefetcher{p: p, addr: t}
	pf.visitExpr(e, scope, 0)
	if len(pf.tasks) < 2 {
		return nil // a single read gains nothing from concurrency
	}
	// The prefetch span parents the workers' fetch spans, so traces show
	// the parallel warm-up as one stage with overlapping children.
	sp, sctx := obs.StartSpan(ctx, obs.StagePrefetch, "")
	defer sp.End(nil)
	sem := make(chan struct{}, min(prefetchWorkers, len(pf.tasks)))
	// The reads report back over a channel sized to the number of
	// sends, so a worker abandoned below never blocks on it.
	type outcome struct {
		obj extentAddr
		warmed
	}
	results := make(chan outcome, len(pf.tasks))
	started := 0
schedule:
	for _, t := range pf.tasks {
		// Take a pool slot, giving up when the request is cancelled: a
		// timed-out request must not park behind slow reads.
		select {
		case sem <- struct{}{}:
		case <-sctx.Done():
			break schedule
		}
		started++
		go func(t prefetchTask) {
			defer func() { <-sem }()
			x, err := p.read(sctx, t.src, t.sc, readWarm, nil)
			results <- outcome{t.src.object(t.sc.Key()), warmed{x, err}}
		}(t)
	}
	// Wait for the scheduled reads, but give up as soon as the request
	// is cancelled: abandoned workers only touch the cache, whose
	// singleflight makes their completion safe to ignore.
	var read map[extentAddr]warmed
	for ; started > 0; started-- {
		select {
		case o := <-results:
			if o.err != errNoRead {
				if read == nil {
					read = make(map[extentAddr]warmed, len(pf.tasks))
				}
				read[o.obj] = o.warmed
			}
		case <-sctx.Done():
			return nil
		}
	}
	return read
}

// warmed is what a prefetch read of one source object returned.
type warmed struct {
	x   extent
	err error
}

// prefetcher collects the distinct, not yet cached source extents an
// expression will enumerate. Virtual references that are not memoised
// are expanded into their derivations' references, scoped per
// derivation, with cycles cut by a visited set. The maps are allocated
// lazily so a fully warm walk allocates nothing beyond the walk itself.
type prefetcher struct {
	p           *Processor
	addr        *addresses
	tasks       []prefetchTask
	seenTask    map[extentAddr]bool
	seenVirtual map[string]bool
	// streamPos marks the next reference visited as a comprehension's
	// first generator source — the position the evaluator streams when
	// the provider pages. Warming such an extent would pin it whole in
	// the cache and defeat streaming's bounded memory, so addSource
	// skips it. The flag is consumed by whichever visit sees it first.
	streamPos bool
}

func (pf *prefetcher) addSource(src source, sc hdm.Scheme, streamPos bool) {
	if streamPos && pf.p.pages(src) {
		// Evaluation will stream this scan, or collect it itself if it
		// turns out small.
		return
	}
	a := src.addr(sc.Key())
	if pf.seenTask[a] || pf.p.st.srcExt.Peek(a) {
		return
	}
	if pf.seenTask == nil {
		pf.seenTask = make(map[extentAddr]bool, 8)
	}
	pf.seenTask[a] = true
	pf.tasks = append(pf.tasks, prefetchTask{src, sc})
}

func (pf *prefetcher) visitRef(parts []string, scope string, depth int) {
	// Consume the stream-position mark: it applies to this reference
	// only, not to the derivation bodies a virtual reference expands
	// into (each body's comprehension re-marks its own first generator).
	streamPos := pf.streamPos
	pf.streamPos = false
	if depth > prefetchMaxDepth || len(pf.tasks) >= prefetchMaxTasks {
		return
	}
	r := pf.addr.resolve(scope, parts)
	switch r.kind {
	case refScoped, refGlobal:
		pf.addSource(r.src, r.sc, streamPos)
	case refVirtual:
		// Expand the derivations unless the extent is already memoised.
		if pf.seenVirtual[r.key] || pf.p.st.memo.Peek(r.fp) {
			return
		}
		if pf.seenVirtual == nil {
			pf.seenVirtual = make(map[string]bool, 8)
		}
		pf.seenVirtual[r.key] = true
		// A bare rename keeps the mark: the stream position chases
		// exactly this shape to the underlying source.
		if _, bare := bareRename(r.derivs); bare {
			pf.streamPos = streamPos
		}
		for _, d := range r.derivs {
			pf.visitExpr(d.Query, d.Scope, depth+1)
		}
	}
	// Unknown and ambiguous references will fail evaluation; there is
	// nothing useful to warm for them.
}

// visitEnumerated dispatches an expression in enumerated position: a
// scheme reference is visited directly, anything else is walked.
func (pf *prefetcher) visitEnumerated(e iql.Expr, scope string, depth int) {
	if ref, ok := e.(*iql.SchemeRef); ok {
		pf.visitRef(ref.Parts, scope, depth)
		return
	}
	pf.streamPos = false // only a direct scheme reference can stream
	pf.visitExpr(e, scope, depth)
}

// visitExpr walks the scheme references the expression will enumerate
// when evaluated: generator sources of comprehensions (at any nesting
// depth), references passed to builtins, and the operands of bag
// union. References in other positions (an arm of an if) may never be
// evaluated, so they are not prefetched.
func (pf *prefetcher) visitExpr(e iql.Expr, scope string, depth int) {
	switch n := e.(type) {
	case nil:
		return
	case *iql.SchemeRef:
		// A bare reference at the top of a query (or of a derivation
		// body) is enumerated directly.
		pf.visitRef(n.Parts, scope, depth)
	case *iql.Comp:
		// The evaluator streams only a comprehension's first generator,
		// and only when the plan has no joins. Joins need a second
		// generator, so a sole generator is the statically-certain
		// stream position; multi-generator comprehensions are warmed as
		// before. A join indexes, so materialises, every generator after
		// the first; the first is only walked, yet it is read whole too,
		// because the evaluator streams no generator of a join; and
		// skipping the warm would serialise overlappable fetches.
		gens := 0
		for _, q := range n.Quals {
			if _, ok := q.(*iql.Generator); ok {
				gens++
			}
		}
		first := true
		for _, q := range n.Quals {
			switch qq := q.(type) {
			case *iql.Generator:
				if first && gens == 1 {
					pf.streamPos = true
				}
				first = false
				pf.visitEnumerated(qq.Src, scope, depth)
				pf.streamPos = false
			case *iql.Filter:
				pf.visitExpr(qq.Cond, scope, depth)
			}
		}
		pf.visitExpr(n.Head, scope, depth)
	case *iql.Call:
		for _, a := range n.Args {
			pf.visitEnumerated(a, scope, depth)
		}
	case *iql.Binary:
		if n.Op == "++" {
			pf.visitEnumerated(n.L, scope, depth)
			pf.visitEnumerated(n.R, scope, depth)
			return
		}
		pf.visitExpr(n.L, scope, depth)
		pf.visitExpr(n.R, scope, depth)
	case *iql.Unary:
		pf.visitExpr(n.X, scope, depth)
	case *iql.TupleExpr:
		for _, x := range n.Elems {
			pf.visitExpr(x, scope, depth)
		}
	case *iql.BagExpr:
		for _, x := range n.Elems {
			pf.visitExpr(x, scope, depth)
		}
	case *iql.RangeExpr:
		// Evaluating a Range yields its lower bound.
		pf.visitEnumerated(n.Lo, scope, depth)
	case *iql.LetExpr:
		pf.visitEnumerated(n.Val, scope, depth)
		pf.visitExpr(n.Body, scope, depth)
	case *iql.IfExpr:
		pf.visitExpr(n.Cond, scope, depth)
	}
}
