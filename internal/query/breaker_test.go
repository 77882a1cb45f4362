package query

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/wrapper"
)

// flakySource is a controllable Sourcer: failures are toggled at will,
// fetches are counted, and hang mode blocks until the fetch context is
// cancelled. It optionally exposes a snapshot fallback extent.
type flakySource struct {
	name   string
	schema *hdm.Schema
	val    iql.Value

	mu       sync.Mutex
	failing  bool
	hanging  bool
	calls    int
	fallback *iql.Value
}

func newFlakySource(t *testing.T, name string) *flakySource {
	t.Helper()
	sch := hdm.NewSchema(name)
	sch.MustAdd(hdm.NewObject(hdm.MustScheme("<<t>>"), hdm.Nodal, "", ""))
	return &flakySource{
		name:   name,
		schema: sch,
		val:    iql.Bag(iql.Int(1), iql.Int(2), iql.Int(3)),
	}
}

func (f *flakySource) SchemaName() string  { return f.name }
func (f *flakySource) Schema() *hdm.Schema { return f.schema }

func (f *flakySource) setFailing(v bool) {
	f.mu.Lock()
	f.failing = v
	f.mu.Unlock()
}

func (f *flakySource) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

func (f *flakySource) Extent(parts []string) (iql.Value, error) {
	return f.ExtentContext(context.Background(), parts)
}

func (f *flakySource) ExtentContext(ctx context.Context, parts []string) (iql.Value, error) {
	f.mu.Lock()
	f.calls++
	failing, hanging := f.failing, f.hanging
	f.mu.Unlock()
	if hanging {
		<-ctx.Done()
		return iql.Value{}, ctx.Err()
	}
	if failing {
		return iql.Value{}, fmt.Errorf("flaky: source %s is down", f.name)
	}
	return f.val, nil
}

func (f *flakySource) FallbackExtent(parts []string) (iql.Value, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fallback == nil {
		return iql.Value{}, false
	}
	return *f.fallback, true
}

// testBreakerConfig keeps probe intervals long so tests control
// half-open transitions explicitly.
func testBreakerConfig() BreakerConfig {
	return BreakerConfig{Enabled: true, OpenFor: time.Hour}
}

func newBreakerProc(t *testing.T, src *flakySource, cfg BreakerConfig) *Processor {
	t.Helper()
	p := New()
	p.SetBreaker(cfg)
	if err := p.AddSource(src); err != nil {
		t.Fatal(err)
	}
	return p
}

// evalCount evaluates count(<<t>>) with a cold extent cache so every
// call reaches the breaker (warm caches would otherwise shield it).
func evalCount(t *testing.T, p *Processor) (iql.Value, []string, error) {
	t.Helper()
	p.InvalidateCache()
	v, warns, _, err := p.EvalContext(context.Background(), iql.MustParse("count(<<t>>)"))
	return v, warns, err
}

func TestBreakerStateMachine(t *testing.T) {
	cfg := BreakerConfig{Enabled: true, OpenFor: time.Minute}.withDefaults()
	b := newBreaker(cfg)
	now := time.Unix(1000, 0)
	b.now = func() time.Time { return now }

	if proceed, probe := b.allow(); !proceed || probe {
		t.Fatalf("closed breaker: allow = (%v, %v), want (true, false)", proceed, probe)
	}
	for i := 1; i < breakerConsecutive; i++ {
		b.record(false, errors.New("boom"))
		if st := b.health().State; st != "closed" {
			t.Fatalf("after %d failures state = %s, want closed", i, st)
		}
	}
	b.record(false, errors.New("boom"))
	if st := b.health().State; st != "open" {
		t.Fatalf("after %d consecutive failures state = %s, want open", breakerConsecutive, st)
	}
	if proceed, _ := b.allow(); proceed {
		t.Fatal("open breaker admitted a fetch before the probe interval")
	}

	// Jitter keeps the retry time within [OpenFor/2, 3*OpenFor/2).
	if h := b.health(); h.RetryInMs < cfg.OpenFor.Milliseconds()/2 || h.RetryInMs >= 3*cfg.OpenFor.Milliseconds()/2 {
		t.Errorf("retry_in_ms = %d, want within [%d, %d)", h.RetryInMs, cfg.OpenFor.Milliseconds()/2, 3*cfg.OpenFor.Milliseconds()/2)
	}

	// Past the probe interval: exactly one probe admitted at a time.
	now = now.Add(2 * cfg.OpenFor)
	proceed, probe := b.allow()
	if !proceed || !probe {
		t.Fatalf("elapsed open breaker: allow = (%v, %v), want (true, true)", proceed, probe)
	}
	if proceed, _ := b.allow(); proceed {
		t.Fatal("second concurrent probe admitted in half-open")
	}
	b.record(false, errors.New("still down"))
	if st := b.health().State; st != "open" {
		t.Fatalf("failed probe left state %s, want open", st)
	}

	now = now.Add(2 * cfg.OpenFor)
	if proceed, _ := b.allow(); !proceed {
		t.Fatal("re-opened breaker refused the next probe after the interval")
	}
	b.record(true, nil)
	h := b.health()
	if h.State != "closed" || h.ConsecutiveFailures != 0 || h.FailureRate != 0 {
		t.Fatalf("successful probe: health = %+v, want closed with reset window", h)
	}
	if h.Opens != 2 || h.Probes != 2 {
		t.Errorf("opens = %d probes = %d, want 2 and 2", h.Opens, h.Probes)
	}
}

func TestBreakerOpensOnFailureRate(t *testing.T) {
	b := newBreaker(BreakerConfig{Enabled: true, OpenFor: time.Hour}.withDefaults())
	// Alternate success/failure: consecutive never accumulates, but the
	// windowed rate reaches 0.5 once MinSamples outcomes are in.
	outcomes := []bool{true, false, true, false}
	for _, ok := range outcomes {
		var err error
		if !ok {
			err = errors.New("boom")
		}
		b.record(ok, err)
	}
	if st := b.health().State; st != "open" {
		t.Fatalf("state after 50%% failures over %d samples = %s, want open", len(outcomes), st)
	}
}

func TestStaleFallbackServesLastKnownGood(t *testing.T) {
	src := newFlakySource(t, "S")
	p := newBreakerProc(t, src, testBreakerConfig())

	// Warm the last-known-good copy with a healthy fetch.
	if _, warns, err := evalCount(t, p); err != nil || len(warns) != 0 {
		t.Fatalf("healthy query: warns=%v err=%v", warns, err)
	}

	src.setFailing(true)
	v, warns, err := evalCount(t, p)
	if err != nil {
		t.Fatalf("query with fallback available failed: %v", err)
	}
	if v.Kind != iql.KindInt || v.I() != 3 {
		t.Fatalf("stale answer = %s, want 3", v)
	}
	if len(warns) != 1 || !IsDegraded(warns[0]) {
		t.Fatalf("warnings = %v, want one degraded warning", warns)
	}
	if !strings.Contains(warns[0], "source S") || !strings.Contains(warns[0], "fetch failed") {
		t.Errorf("degraded warning %q does not name the source and cause", warns[0])
	}

	// Two more cold-cache queries trip the consecutive threshold; the
	// breaker then short-circuits fetches entirely.
	evalCount(t, p)
	evalCount(t, p)
	health := p.SourceHealth()
	if len(health) != 1 || health[0].State != "open" {
		t.Fatalf("health = %+v, want S open", health)
	}
	fetched := src.callCount()
	v, warns, err = evalCount(t, p)
	if err != nil || v.I() != 3 || len(warns) != 1 || !IsDegraded(warns[0]) {
		t.Fatalf("breaker-open query: v=%s warns=%v err=%v", v, warns, err)
	}
	if !strings.Contains(warns[0], "breaker open") {
		t.Errorf("breaker-open warning %q does not carry the cause", warns[0])
	}
	if got := src.callCount(); got != fetched {
		t.Errorf("open breaker let %d fetches through", got-fetched)
	}
}

func TestWrapperFallbackWhenNeverFetched(t *testing.T) {
	// The source fails from the very first fetch, so there is no
	// last-known-good copy; the wrapper's own snapshot fallback answers.
	src := newFlakySource(t, "S")
	fb := iql.Bag(iql.Int(9))
	src.fallback = &fb
	src.setFailing(true)
	p := newBreakerProc(t, src, testBreakerConfig())

	v, warns, err := evalCount(t, p)
	if err != nil {
		t.Fatalf("query with wrapper fallback failed: %v", err)
	}
	if v.I() != 1 {
		t.Fatalf("fallback answer = %s, want count 1", v)
	}
	if len(warns) != 1 || !IsDegraded(warns[0]) || !strings.Contains(warns[0], "age unknown") {
		t.Fatalf("warnings = %v, want one degraded warning with unknown age", warns)
	}
}

func TestNoFallbackAvailableErrors(t *testing.T) {
	src := newFlakySource(t, "S")
	src.setFailing(true)
	p := newBreakerProc(t, src, testBreakerConfig())
	_, _, err := evalCount(t, p)
	if err == nil || !strings.Contains(err.Error(), "no fallback extent") {
		t.Fatalf("err = %v, want no-fallback error", err)
	}
}

func TestSourceTimeoutBoundsHangingFetch(t *testing.T) {
	src := newFlakySource(t, "S")
	cfg := testBreakerConfig()
	cfg.SourceTimeout = 50 * time.Millisecond
	p := newBreakerProc(t, src, cfg)

	if _, _, err := evalCount(t, p); err != nil {
		t.Fatal(err)
	}
	src.mu.Lock()
	src.hanging = true
	src.mu.Unlock()

	start := time.Now()
	v, warns, err := evalCount(t, p)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("hang with fallback available failed: %v", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("hanging source held the query for %v; SourceTimeout did not cut it", elapsed)
	}
	if v.I() != 3 || len(warns) != 1 || !IsDegraded(warns[0]) {
		t.Fatalf("hang fallback: v=%s warns=%v", v, warns)
	}
}

func TestRequestCancellationDoesNotTripBreaker(t *testing.T) {
	src := newFlakySource(t, "S")
	src.mu.Lock()
	src.hanging = true
	src.mu.Unlock()
	p := newBreakerProc(t, src, testBreakerConfig())

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, _, _, err := p.EvalContext(ctx, iql.MustParse("count(<<t>>)")); err == nil {
		t.Fatal("hanging fetch beat its request deadline")
	}
	h := p.SourceHealth()
	if len(h) != 1 || h[0].ConsecutiveFailures != 0 || h[0].State != "closed" {
		t.Fatalf("request cancellation counted against the source: %+v", h)
	}
}

func TestProbeOpenRecoversSource(t *testing.T) {
	src := newFlakySource(t, "S")
	cfg := testBreakerConfig()
	cfg.OpenFor = time.Millisecond
	p := newBreakerProc(t, src, cfg)

	if _, _, err := evalCount(t, p); err != nil {
		t.Fatal(err)
	}
	src.setFailing(true)
	for i := 0; i < 3; i++ {
		evalCount(t, p)
	}
	if h := p.SourceHealth(); h[0].State != "open" {
		t.Fatalf("state = %s, want open", h[0].State)
	}

	// Probe while still down: the breaker must stay open.
	time.Sleep(5 * time.Millisecond)
	if n := p.ProbeOpen(context.Background()); n != 0 {
		t.Fatalf("probe of a down source recovered %d", n)
	}
	if h := p.SourceHealth(); h[0].State != "open" {
		t.Fatalf("state after failed probe = %s, want open", h[0].State)
	}

	// Heal and probe again: the breaker closes and the next query is
	// fresh (no degraded warning).
	src.setFailing(false)
	deadline := time.Now().Add(2 * time.Second)
	for p.ProbeOpen(context.Background()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("probe never recovered the healed source")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if h := p.SourceHealth(); h[0].State != "closed" {
		t.Fatalf("state after successful probe = %s, want closed", h[0].State)
	}
	v, warns, err := evalCount(t, p)
	if err != nil || v.I() != 3 || len(warns) != 0 {
		t.Fatalf("post-recovery query: v=%s warns=%v err=%v", v, warns, err)
	}
}

func TestBreakerDisabledPropagatesErrors(t *testing.T) {
	src := newFlakySource(t, "S")
	src.setFailing(true)
	p := New() // zero config: no breakers
	if err := p.AddSource(src); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := p.EvalContext(context.Background(), iql.MustParse("count(<<t>>)")); err == nil {
		t.Fatal("disabled breaker layer swallowed a fetch error")
	}
	if h := p.SourceHealth(); h != nil {
		t.Fatalf("SourceHealth with breakers disabled = %+v, want nil", h)
	}
}

// twoFlakySources builds a breaker-guarded processor over two flaky
// sources whose objects are <<ta>> and <<tb>>, so a query over both
// schedules two prefetch tasks and prefetch — not evaluation — makes
// the provider calls.
func twoFlakySources(t *testing.T) (*Processor, *flakySource, *flakySource) {
	t.Helper()
	p := New()
	p.SetBreaker(testBreakerConfig())
	srcs := make([]*flakySource, 2)
	for i, name := range []string{"A", "B"} {
		sch := hdm.NewSchema(name)
		sch.MustAdd(hdm.NewObject(hdm.MustScheme("<<t"+strings.ToLower(name)+">>"), hdm.Nodal, "", ""))
		srcs[i] = &flakySource{name: name, schema: sch, val: iql.Bag(iql.Int(1), iql.Int(2), iql.Int(3))}
		if err := p.AddSource(srcs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return p, srcs[0], srcs[1]
}

// evalBoth evaluates count(<<ta>>) + count(<<tb>>) with cold caches.
func evalBoth(t *testing.T, p *Processor) (iql.Value, []string, error) {
	t.Helper()
	p.InvalidateCache()
	v, warns, _, err := p.EvalContext(context.Background(), iql.MustParse("count(<<ta>>) + count(<<tb>>)"))
	return v, warns, err
}

// TestPrefetchedReadsGoThroughTheBreaker: a source reached by prefetch
// gets exactly the treatment of one reached by evaluation — its extent
// is retained as last-known-good, its failures count against its
// breaker, an open breaker shields it from prefetch too, and a failing
// source is asked once per query, not once by prefetch and again by
// evaluation.
func TestPrefetchedReadsGoThroughTheBreaker(t *testing.T) {
	p, a, b := twoFlakySources(t)
	if v, warns, err := evalBoth(t, p); err != nil || v.I() != 6 || len(warns) != 0 {
		t.Fatalf("healthy query: v=%s warns=%v err=%v", v, warns, err)
	}
	if a.callCount() != 1 || b.callCount() != 1 {
		t.Fatalf("healthy query made a=%d b=%d provider calls, want 1 each", a.callCount(), b.callCount())
	}

	// (a) Sources down, caches cold: the extents prefetch fetched are
	// the fallback, one degraded warning per source.
	a.setFailing(true)
	b.setFailing(true)
	v, warns, err := evalBoth(t, p)
	if err != nil {
		t.Fatalf("query after both sources went down failed: %v", err)
	}
	if v.I() != 6 {
		t.Fatalf("degraded answer = %s, want the healthy value 6", v)
	}
	if len(warns) != 2 || !IsDegraded(warns[0]) || !IsDegraded(warns[1]) {
		t.Fatalf("warnings = %v, want one degraded warning per source", warns)
	}
	// (d) Breaker still closed: one provider call per source per query.
	if a.callCount() != 2 || b.callCount() != 2 {
		t.Fatalf("failing query made a=%d b=%d provider calls in total, want 2 each (one per query)", a.callCount(), b.callCount())
	}

	// (c) The failures prefetch met opened the breakers: with one call
	// per query, the third failing query is the third consecutive failure.
	evalBoth(t, p)
	evalBoth(t, p)
	for _, h := range p.SourceHealth() {
		if h.State != "open" {
			t.Fatalf("source %s: state %s after %d consecutive failures, want open", h.Source, h.State, h.ConsecutiveFailures)
		}
	}

	// (b) Open breakers: further queries reach neither source, from
	// prefetch or from evaluation.
	ca, cb := a.callCount(), b.callCount()
	v, warns, err = evalBoth(t, p)
	if err != nil || v.I() != 6 || len(warns) != 2 {
		t.Fatalf("breaker-open query: v=%s warns=%v err=%v", v, warns, err)
	}
	if a.callCount() != ca || b.callCount() != cb {
		t.Errorf("open breakers let a=%d b=%d provider calls through", a.callCount()-ca, b.callCount()-cb)
	}
}

// TestBreakerOpensForSourceOnlyPrefetchReaches: a failing source that
// only prefetch ever calls — a second generator behind a filter that
// rejects every binding, so evaluation never enumerates it — still
// accumulates failures and opens its breaker.
func TestBreakerOpensForSourceOnlyPrefetchReaches(t *testing.T) {
	p, a, b := twoFlakySources(t)
	b.setFailing(true)
	q := iql.MustParse("count([1 | x <- <<ta>>; x > 5; y <- <<tb>>])")
	for i := 0; p.SourceHealth()[1].State != "open"; i++ {
		if i == 10 {
			t.Fatalf("B never opened: %+v (%d calls)", p.SourceHealth()[1], b.callCount())
		}
		p.InvalidateCache()
		if v, _, _, err := p.EvalContext(context.Background(), q); err != nil || v.I() != 0 {
			t.Fatalf("query: v=%s err=%v", v, err)
		}
	}
	if a.callCount() == 0 {
		t.Error("the enumerated source was never read")
	}
}

// TestStaleCopyRetiredByFirstGoodRead: a source that served a stale copy
// once, its breaker still closed (one failure of the three that open
// it), is due a probe; and its first good read — the probe's, or a
// query's — retires what was computed over the copy.
func TestStaleCopyRetiredByFirstGoodRead(t *testing.T) {
	ctx := context.Background()
	for _, by := range []string{"probe", "query"} {
		src := newFlakySource(t, "S")
		p := newBreakerProc(t, src, testBreakerConfig())
		p.Define(hdm.MustScheme("<<v>>"), iql.MustParse("[x | x <- <<t>>]"), "test", "S")
		count := func(q string) (iql.Value, []string) {
			t.Helper()
			v, warns, _, err := p.EvalContext(ctx, iql.MustParse(q))
			if err != nil {
				t.Fatalf("%s: %s: %v", by, q, err)
			}
			return v, warns
		}
		count("count(<<v>>)")
		p.InvalidateCache()
		src.setFailing(true)
		if _, warns := count("count(<<v>>)"); len(warns) != 1 || !IsDegraded(warns[0]) {
			t.Fatalf("%s: warnings while S fails = %v, want one degraded", by, warns)
		}
		if h := p.SourceHealth()[0]; h.State != "closed" {
			t.Fatalf("%s: breaker %s after one failure, want closed", by, h.State)
		}
		src.setFailing(false)
		if by == "probe" {
			if n := p.ProbeOpen(ctx); n != 1 {
				t.Errorf("probe: ProbeOpen recovered %d sources, want 1", n)
			}
		} else if _, warns := count("count(<<t>>)"); len(warns) != 0 {
			t.Fatalf("query: a direct read of the healed S warns %v", warns)
		}
		if v, warns := count("count(<<v>>)"); len(warns) != 0 || !v.Equal(iql.Int(3)) {
			t.Errorf("%s: count(<<v>>) after S healed = %s with %v, want 3 and no warning", by, v, warns)
		}
	}
}

// sharedFlaky is a flakySource that caches know by its instance, so
// processors over it that share stores share what they derive from it.
type sharedFlaky struct {
	*flakySource
	inst wrapper.Instance
}

func (f *sharedFlaky) Instance() *wrapper.Instance { return &f.inst }

// TestStaleCopyRetiredForEverySession: a stale copy one processor served
// is retired by the first good read of another over the same instance
// and stores — a second session, or one restored over the sources it
// took over — although that one's own breaker never saw the failure.
// Until then the other would find the degraded extent at its address.
func TestStaleCopyRetiredForEverySession(t *testing.T) {
	ctx := context.Background()
	for _, by := range []string{"probe", "query"} {
		src := &sharedFlaky{flakySource: newFlakySource(t, "S")}
		st := NewStores(0)
		var a, b *Processor
		for _, pp := range []**Processor{&a, &b} {
			p := New()
			p.SetBreaker(testBreakerConfig())
			p.UseStores(st)
			if err := p.AddSource(src); err != nil {
				t.Fatal(err)
			}
			p.Define(hdm.MustScheme("<<v>>"), iql.MustParse("[x | x <- <<t>>]"), "test", "S")
			*pp = p
		}
		count := func(p *Processor, q string) (iql.Value, []string) {
			t.Helper()
			v, warns, _, err := p.EvalContext(ctx, iql.MustParse(q))
			if err != nil {
				t.Fatalf("%s: %s: %v", by, q, err)
			}
			return v, warns
		}
		count(a, "count(<<v>>)")
		a.InvalidateCache()
		src.setFailing(true)
		if _, warns := count(a, "count(<<v>>)"); len(warns) != 1 || !IsDegraded(warns[0]) {
			t.Fatalf("%s: warnings while S fails = %v, want one degraded", by, warns)
		}
		src.setFailing(false)
		if by == "probe" {
			if n := b.ProbeOpen(ctx); n != 1 {
				t.Errorf("probe: the other processor's ProbeOpen recovered %d sources, want 1", n)
			}
		} else if _, warns := count(b, "count(<<t>>)"); len(warns) != 0 {
			t.Fatalf("query: a direct read of the healed S warns %v", warns)
		}
		for i, p := range []*Processor{b, a} {
			if v, warns := count(p, "count(<<v>>)"); len(warns) != 0 || !v.Equal(iql.Int(3)) {
				t.Errorf("%s: processor %d: count(<<v>>) after S healed = %s with %v, want 3 and no warning", by, 1-i, v, warns)
			}
		}
	}
}
