package query

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/obs"
	"github.com/dataspace/automed/internal/rel"
	"github.com/dataspace/automed/internal/sqlmem"
	"github.com/dataspace/automed/internal/wrapper"
)

// newStreamSQLSource registers a sqlmem-backed SQL wrapper serving an
// "items" table of rows (id i, v i%10) with the given fetch page size.
func newStreamSQLSource(t *testing.T, dsn string, rows, pageRows int) *wrapper.SQL {
	t.Helper()
	db := rel.NewDB("S")
	tb := db.MustCreateTable("items", []rel.Column{
		{Name: "id", Type: rel.Int},
		{Name: "v", Type: rel.Int},
	}, "id")
	for i := 0; i < rows; i++ {
		tb.MustInsert(int64(i), int64(i%10))
	}
	sqlmem.Register(dsn, db)
	w, err := wrapper.NewSQL("S", wrapper.SQLConfig{
		Driver:        sqlmem.DriverName,
		DSN:           dsn,
		FetchPageRows: pageRows,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// localCount is a count the source cannot take — its filter is
// arithmetic, not a variable beside a literal — and that keeps every
// row: the tests that use it are about how rows cross from a SQL source
// (spilled or cached whole, cut by a deadline), which count([x | {x, v}
// <- <<items, v>>]) no longer shows, being one SELECT COUNT(*) there.
const localCount = `count([x | {x, v} <- <<items, v>>; v + 0 >= 0])`

// TestStreamSpillThresholdMaterialisesSmallExtents: an extent at or
// below the scan buffer is read once through the scanner, materialised
// and cached, so repeated queries serve it from the cache exactly as
// the non-streaming pipeline would; a larger one streams past the cache,
// which never holds it whole.
func TestStreamSpillThresholdMaterialisesSmallExtents(t *testing.T) {
	for _, rows := range []int{32, 1000} {
		w := newStreamSQLSource(t, fmt.Sprintf("stream-spill-%d", rows), rows, 16)
		p := New()
		p.ScanBuffer = 128 // 32 rows are at or below the spill threshold, 1000 above it
		if err := p.AddSource(w); err != nil {
			t.Fatal(err)
		}
		v, _, _, err := p.EvalContext(context.Background(), iql.MustParse(localCount))
		if err != nil {
			t.Fatal(err)
		}
		if v.Kind != iql.KindInt || v.I() != int64(rows) {
			t.Fatalf("count = %s, want %d", v, rows)
		}
		if cached := p.st.srcExt.Peek(addrOf(p, "S", "items|v")); cached != (rows <= p.ScanBuffer) {
			t.Errorf("%d rows under a scan buffer of %d: extent cached %v", rows, p.ScanBuffer, cached)
		}
	}
}

// TestStreamDeadlineCutsMidStream: a request deadline expiring while a
// streamed scan is in flight must surface as a deadline error through
// the generator, not hang or return a truncated result.
func TestStreamDeadlineCutsMidStream(t *testing.T) {
	const dsn = "stream-deadline"
	w := newStreamSQLSource(t, dsn, 5000, 64)
	sqlmem.SetDelay(dsn, 20*time.Millisecond) // per page round trip
	p := New()
	p.ScanBuffer = 64
	if err := p.AddSource(w); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Millisecond)
	defer cancel()
	_, _, _, err := p.EvalContext(ctx, iql.MustParse(localCount))
	if err == nil {
		t.Fatal("query over a 5000-row source with 20ms/page delay beat a 90ms deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error = %v, want deadline exceeded", err)
	}
}

// TestStreamDisabledNeverScans: ScanBuffer < 0 must route every extent
// through the materialised path even when the wrapper could stream —
// or, as for this count, could answer at its backend without a row.
func TestStreamDisabledNeverScans(t *testing.T) {
	w := newStreamSQLSource(t, "stream-off", 2000, 128)
	p := New()
	p.ScanBuffer = -1
	if err := p.AddSource(w); err != nil {
		t.Fatal(err)
	}
	v, err := p.Query(`count([x | {x, v} <- <<items, v>>])`)
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind != iql.KindInt || v.I() != 2000 {
		t.Fatalf("count = %s, want 2000", v)
	}
	if !p.st.srcExt.Peek(addrOf(p, "S", "items|v")) {
		t.Error("with streaming disabled the extent should be fetched and cached whole")
	}
}

// TestStreamRenameChase covers the federation shape: a virtual object
// defined as a bare scheme-reference rename of a streaming source
// object must stream exactly like the source object itself (same
// result, no full extent in the source-extent cache), while a virtual
// object with a computed body must keep materialising.
func TestStreamRenameChase(t *testing.T) {
	const rows = 10000
	w := newStreamSQLSource(t, "stream-rename", rows, 256)
	p := New()
	p.ScanBuffer = 128
	if err := p.AddSource(w); err != nil {
		t.Fatal(err)
	}
	// big_items renames the source object, as /federate's include
	// transforms do; computed derives it through a comprehension.
	p.Define(hdm.MustScheme("<<big_items, v>>"), iql.MustParse("<<items, v>>"), "rename", "S")
	p.Define(hdm.MustScheme("<<computed, v>>"), iql.MustParse("[r | r <- <<items, v>>]"), "comp", "S")

	v, _, _, err := p.EvalContext(context.Background(), iql.MustParse(`[x | {x, v} <- <<big_items, v>>; v < 1]`))
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != rows/10 {
		t.Fatalf("renamed stream returned %d elements, want %d", v.Len(), rows/10)
	}
	if p.st.srcExt.Peek(addrOf(p, "S", "items|v")) {
		t.Error("rename chase cached the full extent; the chased stream should bypass the source-extent cache")
	}

	// The computed virtual cannot be chased: its unfolding materialises
	// into the memo as before (the body's own evaluation may still
	// stream its generator internally, which is why srcExt is not
	// asserted here).
	v, _, _, err = p.EvalContext(context.Background(), iql.MustParse(`[x | {x, v} <- <<computed, v>>; v < 1]`))
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != rows/10 {
		t.Fatalf("computed virtual returned %d elements, want %d", v.Len(), rows/10)
	}
	if !p.st.memo.Peek(p.addresses().fingerprintOf("computed|v")) {
		t.Error("computed virtual was not memoised; its unfolding should materialise as before")
	}
}

// pagedSource is a paging extent provider with a scripted scanner: it
// serves pages of pageRows rows ({i, i%10} pairs) until rows are out
// and then, when failAfter is set, fails instead of ending.
type pagedSource struct {
	schema    *hdm.Schema
	rows      int
	pageRows  int
	failAfter error
	// slack is the spare capacity of every page; served keeps the pages
	// handed out, for tests that ask what became of them.
	slack  int
	served [][]iql.Value
	// goroutines is the most goroutines there were when a scanner was
	// asked for a page or closed.
	goroutines int
}

func newPagedSource(rows, pageRows int, failAfter error) *pagedSource {
	sch := hdm.NewSchema("P")
	sch.MustAdd(hdm.NewObject(hdm.MustScheme("<<items, v>>"), hdm.Link, "", ""))
	return &pagedSource{schema: sch, rows: rows, pageRows: pageRows, failAfter: failAfter}
}

func (s *pagedSource) SchemaName() string   { return "P" }
func (s *pagedSource) Schema() *hdm.Schema  { return s.schema }
func (s *pagedSource) StreamingScans() bool { return true }

func (s *pagedSource) Extent(parts []string) (iql.Value, error) {
	if s.failAfter != nil {
		return iql.Value{}, s.failAfter
	}
	scn := &pagedScanner{s: s}
	var all []iql.Value
	for scn.Next(context.Background()) {
		all = append(all, scn.Page()...)
	}
	return iql.BagOf(all), nil
}

func (s *pagedSource) ExtentScanner(ctx context.Context, parts []string) (wrapper.Scanner, error) {
	return &pagedScanner{s: s}, nil
}

type pagedScanner struct {
	s    *pagedSource
	at   int
	page []iql.Value
	err  error
	done bool
}

func (c *pagedScanner) Next(ctx context.Context) bool {
	c.s.goroutines = max(c.s.goroutines, runtime.NumGoroutine())
	c.page = nil
	if c.done || c.err != nil {
		return false
	}
	if c.err = ctx.Err(); c.err != nil {
		return false
	}
	if c.at >= c.s.rows {
		c.err, c.done = c.s.failAfter, true
		return false
	}
	n := min(c.s.pageRows, c.s.rows-c.at)
	c.page = make([]iql.Value, 0, n+c.s.slack)
	for ; n > 0; n-- {
		c.page = append(c.page, iql.Tuple(iql.Int(int64(c.at)), iql.Int(int64(c.at%10))))
		c.at++
	}
	c.s.served = append(c.s.served, c.page)
	return true
}

func (c *pagedScanner) Page() []iql.Value { return c.page }
func (c *pagedScanner) Err() error        { return c.err }
func (c *pagedScanner) Close() error {
	c.s.goroutines = max(c.s.goroutines, runtime.NumGoroutine())
	c.done = true
	return nil
}

// fetchSpan returns the trace's fetch span of source P.
func fetchSpan(t *testing.T, tr *obs.Trace) obs.SpanJSON {
	t.Helper()
	for _, sp := range tr.Snapshot().Spans {
		if sp.Stage == obs.StageFetch && sp.Name == "P" {
			return sp
		}
	}
	t.Fatal("no fetch span for source P in the trace")
	return obs.SpanJSON{}
}

// TestStreamClosedAfterFirstPage: an evaluation that gives up on the
// first row closes a stream of which the evaluator took one page, and
// the abandoned scan is no verdict on the source. The stream is pulled:
// no goroutine is added while the evaluator holds it — walking all of
// it, or closing it after the first page — and none is left when Close
// returns.
func TestStreamClosedAfterFirstPage(t *testing.T) {
	before := runtime.NumGoroutine()
	walked := newPagedSource(1000, 100, nil)
	p := New()
	p.ScanBuffer = 64
	if err := p.AddSource(walked); err != nil {
		t.Fatal(err)
	}
	if v, err := p.Query(`count([x | {x, v} <- <<items, v>>])`); err != nil || v.I() != 1000 {
		t.Fatalf("count = %s, %v; want 1000", v, err)
	}

	p = New()
	p.ScanBuffer = 64
	p.SetBreaker(BreakerConfig{Enabled: true})
	src := newPagedSource(1000, 100, nil)
	if err := p.AddSource(src); err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("t", "", "")
	ctx := obs.WithTrace(context.Background(), tr)
	_, _, _, err := p.EvalContext(ctx, iql.MustParse(`[x / 0 | {x, v} <- <<items, v>>]`))
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("error = %v, want the head's division by zero", err)
	}
	for _, s := range []*pagedSource{walked, src} {
		if s.goroutines > before {
			t.Errorf("%d goroutines while the scanner was used, %d before the query", s.goroutines, before)
		}
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the stream was closed, %d before the query", n, before)
	}
	if sp := fetchSpan(t, tr); sp.Rows != 100 || sp.Err != "" {
		t.Errorf("fetch span has rows=%d error=%q, want the one page of 100 rows the evaluator took and no error", sp.Rows, sp.Err)
	}
	if h := p.SourceHealth()[0]; h.WindowSize != 0 || h.ConsecutiveFailures != 0 {
		t.Errorf("an abandoned scan reached the breaker: %+v", h)
	}
}

// TestStreamSecondPageFails: a scan that fails after the hand-over
// surfaces its error through the generator, with the rows delivered
// until then on the fetch span, and counts against the source.
func TestStreamSecondPageFails(t *testing.T) {
	p := New()
	p.ScanBuffer = 64
	p.SetBreaker(BreakerConfig{Enabled: true})
	if err := p.AddSource(newPagedSource(200, 100, errors.New("backend went away"))); err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("t", "", "")
	ctx := obs.WithTrace(context.Background(), tr)
	_, _, _, err := p.EvalContext(ctx, iql.MustParse(`count([x | {x, v} <- <<items, v>>])`))
	if err == nil || !strings.Contains(err.Error(), "backend went away") {
		t.Fatalf("error = %v, want the scanner's", err)
	}
	if sp := fetchSpan(t, tr); sp.Rows != 200 || !strings.Contains(sp.Err, "backend went away") {
		t.Errorf("fetch span has rows=%d error=%q, want the 200 rows delivered and the scanner's error", sp.Rows, sp.Err)
	}
	if h := p.SourceHealth()[0]; h.ConsecutiveFailures != 1 {
		t.Errorf("the failed scan did not reach the breaker: %+v", h)
	}
}

// TestStreamSmallExtentCachedAtItsLength: what the spill probe caches
// holds no spare capacity — a ten-row table read with a 4 096-row page
// must not pin the page's array behind an entry the cache charged as
// ten rows — whether it arrived as one short page or as several.
func TestStreamSmallExtentCachedAtItsLength(t *testing.T) {
	check := func(name string, p *Processor, src string) iql.Value {
		t.Helper()
		if v, err := p.Query(localCount); err != nil || v.I() != 10 {
			t.Fatalf("%s: count = %s, %v", name, v, err)
		}
		a := addrOf(p, src, "items|v")
		se, ok := p.st.srcExt.Get(a)
		cached := se.val
		if !ok {
			t.Fatalf("%s: small extent was not materialised into the source-extent cache", name)
		}
		if cached.Len() != 10 || cached.Cap() != 10 {
			t.Errorf("%s: cached extent has len %d cap %d, want 10 and 10", name, cached.Len(), cached.Cap())
		}
		p.lgMu.Lock()
		kept := p.lastGood[extentAddr{id: a.id, key: a.key}].val
		p.lgMu.Unlock()
		if kept.Cap() != 10 {
			t.Errorf("%s: last-known-good extent has cap %d, want 10", name, kept.Cap())
		}
		return cached
	}
	for _, pageRows := range []int{0, 4} { // the default page, and three pages of 4, 4 and 2
		w := newStreamSQLSource(t, fmt.Sprintf("stream-exact-%d", pageRows), 10, pageRows)
		p := New()
		if err := p.AddSource(w); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("sql, page size %d", pageRows), p, "S")
	}
	// Over scripted pages, where the array ends up as well: a page with
	// room to spare is copied into an array of its own, a page that is
	// exactly full is kept as it is, several pages are joined.
	for _, tc := range []struct {
		name            string
		pageRows, slack int
		wantPageKept    bool
	}{
		{"one short page", 4096, 4086, false},
		{"one full page", 10, 0, true},
		{"pages of 4, 4 and 2", 4, 0, false},
	} {
		src := newPagedSource(10, tc.pageRows, nil)
		src.slack = tc.slack
		p := New()
		if err := p.AddSource(src); err != nil {
			t.Fatal(err)
		}
		cached := check(tc.name, p, "P")
		if kept := &cached.Items()[0] == &src.served[0][0]; kept != tc.wantPageKept {
			t.Errorf("%s: the cached extent is the scanner's first page (%d rows in room for %d): %v, want %v",
				tc.name, len(src.served[0]), cap(src.served[0]), kept, tc.wantPageKept)
		}
	}
}
