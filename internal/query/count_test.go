package query

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/obs"
	"github.com/dataspace/automed/internal/sqlmem"
)

// A count that the source can take is read in readCount mode: one
// guarded provider call that brings back a number. These tests walk the
// modes around it — streaming off, the extent already cached, the
// breaker open, the count failing — and hold each to the answer,
// warnings and dependency keys of counting here, and to what a counted
// read must leave behind: a fetch, a verdict, and no extent anywhere.

// pushedCount is localCount with a filter the source can take: four of
// every ten rows (v is id mod 10).
const pushedCount = `count([x | {x, v} <- <<big_items, v>>; v < 4])`

// countProcessor serves a table of rows through a SQL source named S,
// with <<big_items, v>> a federated rename of <<items, v>>, breakers on.
// It returns the processor, a context whose fetches are counted, and
// the registry they are counted in.
func countProcessor(t *testing.T, dsn string, rows int) (*Processor, context.Context, *obs.Sources) {
	t.Helper()
	p := New()
	p.SetBreaker(BreakerConfig{Enabled: true})
	if err := p.AddSource(newStreamSQLSource(t, dsn, rows, 0)); err != nil {
		t.Fatal(err)
	}
	p.Define(hdm.MustScheme("<<big_items, v>>"), iql.MustParse("<<items, v>>"), "rename", "S")
	srcs := obs.NewSources()
	return p, obs.WithSources(context.Background(), srcs), srcs
}

// fetchesOf reads the one source's counters; the zero snapshot before
// its first fetch.
func fetchesOf(srcs *obs.Sources) obs.SourceSnapshot {
	if snap := srcs.Snapshot(); len(snap) == 1 {
		return snap[0]
	}
	return obs.SourceSnapshot{}
}

// countCached reports whether the one source's <<items, v>> is in the
// source-extent cache.
func countCached(p *Processor) bool { return p.st.srcExt.Peek(addrOf(p, "S", "items|v")) }

// addrOf is the current address of the object key of p's source name.
func addrOf(p *Processor, name, key string) extentAddr {
	for _, src := range p.addresses().srcs {
		if src.name == name {
			return src.addr(key)
		}
	}
	panic("no source " + name)
}

// TestCountedReadIsOneGuardedFetch: a count the source takes is one
// provider call under one fetch span naming the object and "count",
// with the wrapper's statement span beneath it; it observes one row,
// gives the breaker a success, and leaves nothing behind — no source
// extent, no memo entry, no last-known-good copy: a number is not an
// extent. A step limit far below the table's size lets it through,
// where counting here trips it.
func TestCountedReadIsOneGuardedFetch(t *testing.T) {
	const rows = 10000
	p, ctx, srcs := countProcessor(t, "count-one-fetch", rows)
	p.MaxSteps = 10
	tr := obs.NewTrace("t", "", "")
	v, warns, deps, err := p.EvalContext(obs.WithTrace(ctx, tr), iql.MustParse(pushedCount))
	if err != nil || !v.Equal(iql.Int(rows*4/10)) || len(warns) != 0 {
		t.Fatalf("%s = %s, warnings %v, %v; want %d", pushedCount, v, warns, err, rows*4/10)
	}
	if want := []string{"big_items|v", "items|v"}; !reflect.DeepEqual(deps, want) {
		t.Errorf("dependency keys %v, want %v as for a streamed scan of the chain", deps, want)
	}
	var fetch, stmt []obs.SpanJSON
	for _, sp := range tr.Snapshot().Spans {
		switch sp.Stage {
		case obs.StageFetch:
			fetch = append(fetch, sp)
		case "sql":
			stmt = append(stmt, sp)
		}
	}
	if len(fetch) != 1 || fetch[0].Name != "S" || fetch[0].Detail != "items|v count" || fetch[0].Rows != 1 || fetch[0].Err != "" {
		t.Errorf("fetch spans %+v, want one of source S, detail \"items|v count\", one row, no error", fetch)
	}
	if len(stmt) != 1 || stmt[0].Parent != fetch[0].ID || !strings.HasPrefix(stmt[0].Name, "SELECT COUNT(*) FROM ") {
		t.Errorf("sql spans %+v, want one SELECT COUNT(*) under the fetch span", stmt)
	}
	if got := fetchesOf(srcs); got.Fetches != 1 || got.Counted != 1 || got.Rows != 1 || got.Errors != 0 {
		t.Errorf("source counters %+v, want one fetch, counted, of one row", got)
	}
	if h := p.SourceHealth()[0]; h.WindowSize != 1 || h.ConsecutiveFailures != 0 {
		t.Errorf("breaker %+v, want one success on record", h)
	}
	p.lgMu.Lock()
	kept := len(p.lastGood)
	p.lgMu.Unlock()
	if memo, src := p.CacheStats(); countCached(p) || src.Len != 0 || memo.Len != 0 || kept != 0 {
		t.Errorf("a counted read left %d source extents, %d memo entries and %d last-known-good copies, want none", src.Len, memo.Len, kept)
	}

	if _, _, _, err := p.EvalContext(ctx, iql.MustParse(localCount)); err == nil || !strings.Contains(err.Error(), "exceeded 10 steps") {
		t.Errorf("counting %d rows here under a 10-step limit: %v, want the limit to trip", rows, err)
	}
}

// TestCountNeverPushedWithStreamingOff: ScanBuffer < 0 — the mode of
// the benchmark's oracle — reads every extent whole and never calls the
// counting extension, and the default mode agrees with it on values,
// warnings and dependency keys, whichever way each count went.
func TestCountNeverPushedWithStreamingOff(t *testing.T) {
	const rows = 6000
	pushed, pctx, pushedSrcs := countProcessor(t, "count-modes-on", rows)
	whole, wctx, wholeSrcs := countProcessor(t, "count-modes-off", rows)
	whole.ScanBuffer = -1
	for _, q := range []string{
		pushedCount,
		`count([x | {x, v} <- <<items, v>>; v = 7])`, // also a constant-key join
		`count([x | {x, v} <- <<big_items, v>>; 3 <= v; x < 100; v <= 8])`,
		`count([{v, x} | {x, v} <- <<big_items, v>>])`,
		`count([x | x <- <<items>>; x >= -5])`,
		`count([x | x <- <<big_items, v>>])`,
		`count([x | x <- <<big_items, v>>; x < 5])`, // a pair compared: not a count for the source
		`count([x | {x, v} <- <<items>>])`,          // a pair over keys: binds nothing
		localCount,
		`count([x | {x, v} <- <<big_items, v>>; v < 4]) + count([x | {x, v} <- <<big_items, v>>; v + 0 < 4])`,
	} {
		e := iql.MustParse(q)
		got, gotWarns, gotDeps, gotErr := pushed.EvalContext(pctx, e)
		want, wantWarns, wantDeps, wantErr := whole.EvalContext(wctx, e)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || (gotErr == nil && !got.Equal(want)) {
			t.Errorf("%s: %s, %v; with streaming off %s, %v", q, got, gotErr, want, wantErr)
		}
		if !reflect.DeepEqual(gotWarns, wantWarns) || !reflect.DeepEqual(gotDeps, wantDeps) {
			t.Errorf("%s: warnings %v and keys %v; with streaming off %v and %v", q, gotWarns, gotDeps, wantWarns, wantDeps)
		}
	}
	if got := fetchesOf(wholeSrcs); got.Counted != 0 {
		t.Errorf("with streaming off %d reads were counted at the source, want none", got.Counted)
	}
	if got := fetchesOf(pushedSrcs); got.Counted != 7 {
		t.Errorf("%d reads were counted at the source, want 7 of the 11 counts asked", got.Counted)
	}
}

// TestCountOfCachedExtentAsksNobody: once the extent is in the source
// cache — here a small one, collected by a scan's spill probe — counting
// it locally is free, and the source is not asked for the number.
func TestCountOfCachedExtentAsksNobody(t *testing.T) {
	p, ctx, srcs := countProcessor(t, "count-cached", 100)
	if v, _, _, err := p.EvalContext(ctx, iql.MustParse(localCount)); err != nil || !v.Equal(iql.Int(100)) {
		t.Fatalf("%s = %s, %v", localCount, v, err)
	}
	if !countCached(p) {
		t.Fatal("the small extent was not cached by the scan")
	}
	before := fetchesOf(srcs)
	v, _, _, err := p.EvalContext(ctx, iql.MustParse(pushedCount))
	if err != nil || !v.Equal(iql.Int(40)) {
		t.Fatalf("%s = %s, %v, want 40", pushedCount, v, err)
	}
	if after := fetchesOf(srcs); after.Fetches != before.Fetches || after.Counted != 0 {
		t.Errorf("counting a cached extent made %d provider calls, %d counted, want none", after.Fetches-before.Fetches, after.Counted)
	}
}

// staleCountProcessor is countProcessor over a backend that answered
// once — so a last-known-good copy of the extent exists — and then went
// away, with the source cache emptied: the next read has to ask.
func staleCountProcessor(t *testing.T, dsn string) (*Processor, context.Context, *obs.Sources) {
	t.Helper()
	p, ctx, srcs := countProcessor(t, dsn, 100)
	if _, _, _, err := p.EvalContext(ctx, iql.MustParse(localCount)); err != nil {
		t.Fatal(err)
	}
	p.InvalidateCache()
	sqlmem.Unregister(dsn)
	return p, ctx, srcs
}

// degradedCount evaluates a count the source could take where the
// source is unreachable: the answer is the stale extent's, filtered
// here, under the degraded warning. (The reference names the source
// object itself: through the rename the stale extent would be memoised
// under the virtual object, and the next query would ask nobody.)
func degradedCount(t *testing.T, p *Processor, ctx context.Context) {
	t.Helper()
	const q = `count([x | {x, v} <- <<items, v>>; v < 4])`
	v, warns, _, err := p.EvalContext(ctx, iql.MustParse(q))
	if err != nil || !v.Equal(iql.Int(40)) {
		t.Fatalf("%s over a vanished source = %s, %v, want the stale extent's 40", q, v, err)
	}
	if len(warns) != 1 || !IsDegraded(warns[0]) {
		t.Errorf("warnings %v, want the degraded one", warns)
	}
}

// TestFailingCountCostsTwoCallsAndOneVerdict: a count the source fails
// to give is dropped without a verdict, like a failed spill probe, and
// evaluation goes straight to the whole-extent read — no scan is tried
// in between — whose failure is the one verdict and whose stale route
// answers: two provider calls for the failing reference, as before
// counts were pushed, never three.
func TestFailingCountCostsTwoCallsAndOneVerdict(t *testing.T) {
	p, ctx, srcs := staleCountProcessor(t, "count-failing")
	before, health := fetchesOf(srcs), p.SourceHealth()[0]
	degradedCount(t, p, ctx)
	after := fetchesOf(srcs)
	if calls := after.Fetches - before.Fetches; calls != 2 || after.Errors-before.Errors != 2 || after.Counted != 0 {
		t.Errorf("%d provider calls, %d failed, %d counted; want 2, 2 and 0", calls, after.Errors-before.Errors, after.Counted)
	}
	if h := p.SourceHealth()[0]; h.WindowSize != health.WindowSize+1 || h.ConsecutiveFailures != 1 || h.Fallbacks != 1 {
		t.Errorf("breaker %+v after %+v, want one more outcome, a failure, and one fallback", h, health)
	}
}

// TestCountUnderOpenBreakerFiltersStaleExtent: an open breaker refuses
// the count like any other call, and the whole-extent read that follows
// serves the stale extent without touching the source.
func TestCountUnderOpenBreakerFiltersStaleExtent(t *testing.T) {
	p, ctx, srcs := staleCountProcessor(t, "count-open")
	for i := 0; p.SourceHealth()[0].State != "open"; i++ {
		if i == 5 {
			t.Fatalf("breaker still %+v after five failing queries", p.SourceHealth()[0])
		}
		degradedCount(t, p, ctx)
	}
	before := fetchesOf(srcs)
	degradedCount(t, p, ctx)
	if after := fetchesOf(srcs); after.Fetches != before.Fetches {
		t.Errorf("%d provider calls under an open breaker, want none", after.Fetches-before.Fetches)
	}
}
