package query

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/obs"
)

// The one way to a source: read is the only function that calls an
// extent provider, and whatever depends on how the call went — breaker
// verdict, span, metrics, last-known-good copy, cache entry — is done
// here, once, whoever asked.

// readMode says who is asking.
type readMode int

const (
	// readWhole: evaluation wants the whole extent — cached when warm,
	// stale (with a degraded warning) when the source is unreachable.
	readWhole readMode = iota
	// readStream: evaluation at a stream position. A paging provider may
	// answer with rows; the rest is declined (errNoRead) and left to the
	// readWhole that follows.
	readStream
	// readCount: count of a comprehension at a stream position. A paging
	// provider that can have the selection counted at its backend answers
	// with the number; the rest is declined (errNoRead), a call that fails
	// returns its error, and either way the readStream or readWhole that
	// follows counts here.
	readCount
	// readWarm: prefetch filling the cache. Never stale.
	readWarm
	// readProbe: the recovery probe. Admitted only by a breaker that
	// needs probing, never answered from the cache.
	readProbe
)

// errNoRead: the read was declined before any provider call.
var errNoRead = errors.New("query: no read")

// extent is what a read returns: the whole value, or rows when a paging
// provider's extent outgrew the scan buffer, or — to readCount — only n,
// how many rows the selection keeps. size is val's footprint when the
// source-extent cache has it, 0 when not; degraded is the warning to
// raise when val is a stale copy.
type extent struct {
	val      iql.Value
	size     int64
	rows     iql.RowStream
	n        int64
	degraded string
}

// pages reports whether a stream position over src is read by scanner.
func (p *Processor) pages(src source) bool {
	return src.scan != nil && p.effectiveScanBuffer() > 0
}

// read reads one source object; sel is what a readCount asks to have
// counted, and nil in every other mode. Concurrent misses coalesce into
// one provider call via the cache's singleflight; that shares errors,
// so a waiter whose own context is still live retries once rather than
// inherit a cancellation that was never its. An open breaker answers
// without touching the source, and only provider calls, never cache
// hits, feed the breaker.
func (p *Processor) read(ctx context.Context, src source, sc hdm.Scheme, mode readMode, sel *iql.Selection) (extent, error) {
	key := sc.Key()
	a := src.addr(key)
	// A cached extent is scanned, and counted, for free.
	if (mode == readStream || mode == readCount) && (!p.pages(src) || p.st.srcExt.Peek(a)) {
		return extent{}, errNoRead
	}
	var counter func(context.Context) (int64, error)
	if mode == readCount {
		// Whether the provider answers for this selection is settled
		// before the breaker is asked: a declined count must not use up
		// a half-open breaker's one probe.
		if src.count == nil {
			return extent{}, errNoRead
		}
		var ok bool
		if counter, ok = src.count.ExtentCounter(sc.Parts(), *sel); !ok {
			return extent{}, errNoRead
		}
	}
	br := p.breakerFor(src.name)
	if br != nil {
		admitted := false
		if mode == readProbe {
			admitted = br.probeAllow(src.inst.Stale())
		} else {
			admitted, _ = br.allow()
		}
		if !admitted {
			if mode != readWhole {
				return extent{}, errNoRead
			}
			// Breaker open: the source gets no traffic at all.
			mark(ctx, obs.StageBreaker, src.name, key, "", 0, nil)
			return p.stale(ctx, src, sc, br, nil)
		}
	}
	if mode == readStream {
		return p.scan(ctx, src, sc, a, br)
	}
	if mode == readCount {
		return p.count(ctx, src, sc, br, counter)
	}
	if mode == readProbe {
		v, _, err := p.fetch(ctx, src, sc, br)
		return extent{val: v}, err
	}
	fetched := false
	fetch := func() (sizedExtent, int64, error) {
		fetched = true
		v, size, err := p.fetch(ctx, src, sc, br)
		return sizedExtent{v, size}, size, err
	}
	se, shared, err := p.st.srcExt.GetOrCompute(a, nil, fetch)
	if err != nil && shared && isCancellation(err) && ctx.Err() == nil {
		se, _, err = p.st.srcExt.GetOrCompute(a, nil, fetch)
	}
	if fetched && err == nil {
		p.landed(src, a)
	}
	v := se.val
	if mode != readWhole {
		return extent{val: v, size: se.size}, err
	}
	// Cache hits (and waits coalesced onto another request's fetch) show
	// in traces too; misses were recorded by the guard around the call.
	if !fetched {
		mark(ctx, obs.StageFetch, src.name, key, obs.CacheHit, bagLen(v), err)
	}
	if err != nil {
		return p.stale(ctx, src, sc, br, err)
	}
	return extent{val: v, size: se.size}, nil
}

// guard is the bookkeeping around one provider call: the fetch span
// (parent of the wrapper's own spans), the wire detail the wrapper
// reports through the context, and the outcome, settled exactly once.
type guard struct {
	p   *Processor
	src source
	key string
	br  *breaker
	// asker is the reading side's own context: its cancellation says
	// nothing about the source and is never a breaker outcome.
	asker   context.Context
	sp      *obs.Span
	fs      *obs.FetchStat
	start   time.Time
	settled bool
}

// open starts the guard and returns the context the provider call runs
// under.
func (p *Processor) open(ctx context.Context, src source, key, detail string, br *breaker) (guard, context.Context) {
	g := guard{p: p, src: src, key: key, br: br, asker: ctx, start: time.Now()}
	g.sp, ctx = obs.StartSpan(ctx, obs.StageFetch, src.name)
	g.sp.SetDetail(detail)
	g.sp.SetCache(obs.CacheMiss)
	ctx, g.fs = obs.BeginFetch(ctx)
	return g, ctx
}

// mark records a zero-cost span: where an answer came from when no
// provider call was made for it.
func mark(ctx context.Context, stage, name, detail, disposition string, rows int64, err error) {
	if sp, _ := obs.StartSpan(ctx, stage, name); sp != nil {
		sp.SetDetail(detail)
		sp.SetCache(disposition)
		sp.SetRows(rows)
		sp.End(err)
	}
}

// settle records the call's one outcome and returns the cache cost of
// whole: the entire extent, when the call ended with it in hand, which
// is then also retained as last-known-good (rows counts what a stream
// delivered instead). walkedAway: the reading side gave up — early
// Close, a scan dropped before it was committed to — which like an
// asker's cancellation is no verdict on the source. The first good read
// of an instance that served a stale copy moves it to a fresh epoch,
// retiring what any session derived from the copy.
func (g *guard) settle(whole *iql.Value, rows int64, err error, walkedAway bool) int64 {
	if g.settled {
		return 0
	}
	g.settled = true
	if g.br != nil {
		if walkedAway || (err != nil && g.asker.Err() != nil) {
			g.br.cancelProbe()
		} else {
			g.br.record(err == nil, err)
		}
	}
	if err == nil && !walkedAway {
		g.src.inst.ReadWell()
	}
	var footprint int64
	if err == nil && whole != nil {
		g.p.noteGood(g.src.object(g.key), *whole)
		rows, footprint = bagLen(*whole), whole.Footprint()
	}
	bytes := g.fs.Bytes()
	if bytes == 0 {
		bytes = footprint // the wrapper reported no wire size
	}
	g.sp.SetRows(rows)
	g.sp.SetBytes(bytes)
	g.sp.SetRetries(g.fs.Retries())
	g.sp.End(err)
	obs.SourcesFrom(g.asker).Observe(g.src.name, g.src.kind, time.Since(g.start), rows, bytes, g.fs.Retries(), err)
	return footprint
}

func bagLen(v iql.Value) int64 {
	if v.Kind != iql.KindBag {
		return 0
	}
	return int64(len(v.Items()))
}

// sourceDeadline puts one bounded provider call under the per-source
// deadline, when there is one, whether breakers are on or off.
func (p *Processor) sourceDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	p.mu.Lock()
	timeout := p.brCfg.SourceTimeout
	p.mu.Unlock()
	if timeout > 0 {
		return context.WithTimeout(ctx, timeout)
	}
	return ctx, func() {}
}

// fetch is the whole-extent arm of the guarded call. Context-aware
// providers observe cancellation and the per-source deadline.
func (p *Processor) fetch(ctx context.Context, src source, sc hdm.Scheme, br *breaker) (iql.Value, int64, error) {
	g, fctx := p.open(ctx, src, sc.Key(), sc.Key(), br)
	fctx, cancel := p.sourceDeadline(fctx)
	var v iql.Value
	var err error
	if src.extCtx != nil {
		v, err = src.extCtx.ExtentContext(fctx, sc.Parts())
	} else {
		v, err = src.ext.Extent(sc.Parts())
	}
	cancel()
	return v, g.settle(&v, 0, err, false), err
}

// count is the counting arm: one call under the per-source deadline
// whose answer is a number. A number is not an extent — nothing is
// cached and nothing retained as last-known-good — so every such count
// asks the source, and what it observes is one row. A count that fails
// is dropped without a verdict, as a failed spill probe is: the
// readWhole that follows asks again, its outcome counts, and it owns
// the stale route.
func (p *Processor) count(ctx context.Context, src source, sc hdm.Scheme, br *breaker, counter func(context.Context) (int64, error)) (extent, error) {
	g, cctx := p.open(ctx, src, sc.Key(), sc.Key()+" count", br)
	cctx, cancel := p.sourceDeadline(cctx)
	n, err := counter(cctx)
	cancel()
	if err != nil {
		g.settle(nil, 0, err, true)
		return extent{}, err
	}
	g.settle(nil, 1, nil, false)
	obs.SourcesFrom(ctx).ObserveCounted(src.name, src.kind)
	return extent{n: n}, nil
}

// scan is the paging arm: a spill probe collects pages until their rows
// exceed the scan buffer or the scanner ends. An extent that ends
// within the probe is cached and settled exactly like a whole-extent
// fetch; a larger one is handed over as a pulled sourceStream, which
// settles the same guard when it terminates or is closed. A scan that
// fails before the hand-over is dropped without a verdict: the
// readWhole that follows asks again and its outcome counts. The
// per-source deadline would cut a long scan, so pages run under the
// wrapper's own timeout instead. An extent the probe collects is cached
// at a, its address before the first row was read.
func (p *Processor) scan(ctx context.Context, src source, sc hdm.Scheme, a extentAddr, br *breaker) (extent, error) {
	buf := p.effectiveScanBuffer()
	g, sctx := p.open(ctx, src, sc.Key(), sc.Key(), br)
	sctx, cancel := context.WithCancel(sctx)
	scn, err := src.scan.ExtentScanner(sctx, sc.Parts())
	var probe [][]iql.Value
	rows := 0
	if err == nil {
		for rows <= buf && scn.Next(sctx) {
			probe = append(probe, scn.Page())
			rows += len(scn.Page())
		}
		if rows > buf {
			return extent{rows: &sourceStream{prefix: probe, ctx: sctx, cancel: cancel, scn: scn, g: g}}, nil
		}
		err = scn.Err()
		scn.Close()
	}
	cancel()
	if err != nil {
		g.settle(nil, 0, err, true)
		return extent{}, errNoRead
	}
	// What is cached holds no spare capacity: the cache charges the
	// rows, not the array behind them.
	var all []iql.Value
	if len(probe) == 1 && cap(probe[0]) == rows {
		all = probe[0]
	} else if rows > 0 {
		all = make([]iql.Value, 0, rows)
		for _, page := range probe {
			all = append(all, page...)
		}
	}
	v := iql.BagOf(all)
	size := g.settle(&v, 0, nil, false)
	p.st.srcExt.Put(a, sizedExtent{v, size}, size, nil)
	p.landed(src, a)
	return extent{val: v, size: size}, nil
}

// landed deletes the extent a fill has just cached at a if a change
// retired a while it was read: retire deleted what a held before, and
// no read asks for it again.
func (p *Processor) landed(src source, a extentAddr) {
	if src.inst.Epoch() != a.epoch {
		p.st.srcExt.Delete(a, nil)
	}
}

// lastGoodEntry is one retained last-known-good source extent.
type lastGoodEntry struct {
	val iql.Value
	at  time.Time
}

// noteGood retains a successful read of a source object for
// stale-extent fallback.
func (p *Processor) noteGood(obj extentAddr, v iql.Value) {
	p.lgMu.Lock()
	p.lastGood[obj] = lastGoodEntry{val: v, at: time.Now()}
	p.lgMu.Unlock()
}

// stale answers a whole-extent read that could not reach its source —
// the call failed with err, or an open breaker refused it (err nil) —
// from the last-known-good extent (or the wrapper's snapshot fallback),
// with the degraded warning the evaluation must carry. A failure stays
// a failure while breakers are off or once the asker has gone; with no
// fallback the unavailability is the error.
func (p *Processor) stale(ctx context.Context, src source, sc hdm.Scheme, br *breaker, err error) (extent, error) {
	if err != nil && (br == nil || ctx.Err() != nil) {
		return extent{}, err
	}
	cause := "fetch failed: " + compactErr(err)
	if err == nil {
		cause = "breaker open: " + br.lastError()
	}
	p.lgMu.Lock()
	lg, ok := p.lastGood[src.object(sc.Key())]
	p.lgMu.Unlock()
	age := time.Duration(-1)
	if ok {
		age = time.Since(lg.at)
	} else if src.fb != nil {
		// No retained copy (e.g. the daemon restarted while the
		// source was down): fall back to the wrapper's snapshot
		// extent, whose age is unknown.
		if v, found := src.fb.FallbackExtent(sc.Parts()); found {
			lg, ok = lastGoodEntry{val: v}, true
		}
	}
	if ok {
		br.noteFallback()
		src.inst.MarkStale()
		mark(ctx, obs.StageFallback, src.name, sc.Key(), obs.CacheHit, bagLen(lg.val), nil)
		return extent{val: lg.val, degraded: degradedWarning(src.name, sc, age, cause)}, nil
	}
	return extent{}, fmt.Errorf("query: source %s unavailable for <<%s>> (%s; no fallback extent)",
		src.name, strings.Join(sc.Parts(), ", "), cause)
}

// isCancellation reports whether err stems from context cancellation,
// however the transport wrapped it.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
