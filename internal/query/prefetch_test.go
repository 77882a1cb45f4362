package query

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
)

// countingSource wraps an Extents with fetch accounting: total calls,
// and the high-water mark of concurrently in-flight calls.
type countingSource struct {
	name   string
	schema *hdm.Schema
	ext    iql.Extents

	mu       sync.Mutex
	calls    int
	inFlight int
	maxIn    int
	delay    time.Duration
}

func (c *countingSource) SchemaName() string { return c.name }
func (c *countingSource) Schema() *hdm.Schema {
	return c.schema
}
func (c *countingSource) Extent(parts []string) (iql.Value, error) {
	c.mu.Lock()
	c.calls++
	c.inFlight++
	if c.inFlight > c.maxIn {
		c.maxIn = c.inFlight
	}
	c.mu.Unlock()
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	v, err := c.ext.Extent(parts)
	c.mu.Lock()
	c.inFlight--
	c.mu.Unlock()
	return v, err
}

func newCountingSource(t *testing.T, name string, extents map[string]iql.Value, delay time.Duration) *countingSource {
	t.Helper()
	w := staticSource(t, name, extents)
	return &countingSource{name: name, schema: w.Schema(), ext: iql.ExtentsFunc(w.Extent), delay: delay}
}

// multiSourceJoin builds a processor over two delayed sources and a
// virtual object defined over both.
func multiSourceJoin(t *testing.T, delay time.Duration) (*Processor, *countingSource, *countingSource) {
	t.Helper()
	a := newCountingSource(t, "A", map[string]iql.Value{
		"<<r>>": iql.Bag(
			iql.Tuple(iql.Int(1), iql.Int(10)),
			iql.Tuple(iql.Int(2), iql.Int(20)),
		),
	}, delay)
	b := newCountingSource(t, "B", map[string]iql.Value{
		"<<s>>": iql.Bag(
			iql.Tuple(iql.Int(3), iql.Int(10)),
			iql.Tuple(iql.Int(4), iql.Int(20)),
		),
	}, delay)
	p := New()
	if err := p.AddSource(a); err != nil {
		t.Fatal(err)
	}
	if err := p.AddSource(b); err != nil {
		t.Fatal(err)
	}
	return p, a, b
}

const joinQuery = "[{x, y} | {x, k} <- <<r>>; {y, k2} <- <<s>>; k2 = k]"

func TestPrefetchEquivalence(t *testing.T) {
	// The same query with and without warm caches returns identical
	// results; the prefetched evaluation matches a cold serial one.
	p1, _, _ := multiSourceJoin(t, 0)
	got, err := p1.Query(joinQuery)
	if err != nil {
		t.Fatal(err)
	}
	p2, _, _ := multiSourceJoin(t, 0)
	p2.prefetch(context.Background(), p2.addresses(), iql.MustParse(joinQuery), "")
	warm, err := p2.Query(joinQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(warm) || got.Len() != 2 {
		t.Fatalf("prefetched result %s differs from cold %s", warm, got)
	}
}

func TestPrefetchFetchesConcurrently(t *testing.T) {
	// With two slow sources, the prefetch pass must overlap the
	// fetches: the total query latency stays near one delay, not two,
	// and each extent is fetched exactly once (singleflight).
	const delay = 50 * time.Millisecond
	p, a, b := multiSourceJoin(t, delay)
	start := time.Now()
	v, err := p.Query(joinQuery)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 2 {
		t.Fatalf("bad result %s", v)
	}
	if a.calls != 1 || b.calls != 1 {
		t.Fatalf("fetch counts a=%d b=%d, want 1 each (coalesced)", a.calls, b.calls)
	}
	// Serial fetching would take >= 2*delay. Allow generous headroom
	// for slow CI machines while still distinguishing 1x from 2x.
	if elapsed >= 2*delay {
		t.Errorf("query took %v; prefetch did not overlap the %v source delays", elapsed, delay)
	}
}

func TestPrefetchExpandsVirtualDefinitions(t *testing.T) {
	// A query over a virtual object must prefetch the source extents of
	// its derivations concurrently, scope included.
	const delay = 50 * time.Millisecond
	p, a, b := multiSourceJoin(t, delay)
	p.Define(hdm.MustScheme("<<u>>"),
		iql.MustParse("[{x, k} | {x, k} <- <<r>>] ++ [{y, k} | {y, k} <- <<s>>]"),
		"test", "")
	start := time.Now()
	v, err := p.Query("count(<<u>>)")
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind != iql.KindInt || v.I() != 4 {
		t.Fatalf("bad result %s", v)
	}
	if a.calls != 1 || b.calls != 1 {
		t.Fatalf("fetch counts a=%d b=%d, want 1 each", a.calls, b.calls)
	}
	if elapsed >= 2*delay {
		t.Errorf("virtual unfolding took %v; derivation sources were fetched serially", elapsed)
	}
	if got := a.maxIn + b.maxIn; got < 2 {
		t.Errorf("no fetch overlap observed (max in-flight a=%d b=%d)", a.maxIn, b.maxIn)
	}
}

func TestPrefetchHonoursCancelledContext(t *testing.T) {
	p, a, b := multiSourceJoin(t, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p.prefetch(ctx, p.addresses(), iql.MustParse(joinQuery), "")
	if a.calls != 0 || b.calls != 0 {
		t.Fatalf("cancelled prefetch still fetched: a=%d b=%d", a.calls, b.calls)
	}
}

func TestPrefetchSkipsWarmExtents(t *testing.T) {
	p, a, b := multiSourceJoin(t, 0)
	if _, err := p.Query(joinQuery); err != nil {
		t.Fatal(err)
	}
	// Everything is cached now: a second prefetch schedules nothing.
	p.prefetch(context.Background(), p.addresses(), iql.MustParse(joinQuery), "")
	if a.calls != 1 || b.calls != 1 {
		t.Fatalf("warm prefetch re-fetched: a=%d b=%d", a.calls, b.calls)
	}
}

func TestPrefetchErrorsSurfaceSerially(t *testing.T) {
	// A failing source must not be masked (or duplicated) by prefetch:
	// the query still reports the error with its context.
	var calls atomic.Int32
	w := staticSource(t, "A", map[string]iql.Value{"<<r>>": iql.Bag(iql.Int(1))})
	failing := &countingSource{
		name:   "B",
		schema: staticSource(t, "B", map[string]iql.Value{"<<s>>": iql.Bag()}).Schema(),
		ext: iql.ExtentsFunc(func(parts []string) (iql.Value, error) {
			calls.Add(1)
			return iql.Value{}, context.DeadlineExceeded
		}),
	}
	p := New()
	if err := p.AddSource(w); err != nil {
		t.Fatal(err)
	}
	if err := p.AddSource(failing); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Query("[{x, y} | x <- <<r>>; y <- <<s>>]"); err == nil {
		t.Fatal("failing source did not fail the query")
	}
}

// TestIfArmsAreReadOnDemand: prefetch warms what the condition
// enumerates and leaves the arms to evaluation, so the taken arm's
// source is read once and the untaken arm's source is never called.
func TestIfArmsAreReadOnDemand(t *testing.T) {
	const q = "if count(<<r>>) > 0 then [x | x <- <<s>>] else [x | x <- <<u>>]"
	cond := newCountingSource(t, "C", map[string]iql.Value{"<<r>>": iql.Bag(iql.Int(1))}, 0)
	then := newCountingSource(t, "T", map[string]iql.Value{"<<s>>": iql.Bag(iql.Int(2))}, 0)
	els := newCountingSource(t, "E", map[string]iql.Value{"<<u>>": iql.Bag(iql.Int(3))}, 0)
	p := New()
	for _, w := range []*countingSource{cond, then, els} {
		if err := p.AddSource(w); err != nil {
			t.Fatal(err)
		}
	}
	v, err := p.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 1 {
		t.Fatalf("bad result %s", v)
	}
	if cond.calls != 1 || then.calls != 1 {
		t.Errorf("condition read %d times, taken arm %d, want 1 each", cond.calls, then.calls)
	}
	if els.calls != 0 {
		t.Errorf("untaken arm's source got %d wrapper calls, want 0", els.calls)
	}
}
