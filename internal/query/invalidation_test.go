package query

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"weak"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/iql/iqltest"
	"github.com/dataspace/automed/internal/wrapper"
)

// InvalidateSchemes drops, by address, the cached extents the current
// state derives from keys — each source object's named by one, and each
// memoised virtual extent whose computation touched one — and returns
// how many it dropped: how these tests retire one extent at a time.
func (p *Processor) InvalidateSchemes(keys ...string) int {
	n := 0
	for _, src := range p.addresses().srcs {
		for _, k := range keys {
			if p.st.srcExt.Delete(src.addr(k), nil) {
				n++
			}
		}
	}
	touched := func(ce cachedExtent) bool {
		return slices.ContainsFunc(ce.deps, func(d string) bool { return slices.Contains(keys, d) })
	}
	t := p.addresses()
	for _, k := range t.keys() {
		if p.st.memo.Delete(t.fingerprintOf(k), touched) {
			n++
		}
	}
	return n
}

// SetCacheBytes bounds each layer of the processor's stores to budget
// bytes; budget <= 0 removes the bound.
func (p *Processor) SetCacheBytes(budget int64) { p.st.setMaxBytes(budget) }

// countingExtents wraps static extents and counts fetches per scheme
// key, for asserting which extents were recomputed.
type countingExtents struct {
	mu    sync.Mutex
	data  map[string]iql.Value
	calls map[string]int
}

func (c *countingExtents) Extent(parts []string) (iql.Value, error) {
	key := strings.Join(parts, "|")
	c.mu.Lock()
	c.calls[key]++
	v, ok := c.data["<<"+strings.Join(parts, ", ")+">>"]
	c.mu.Unlock()
	if !ok {
		return iql.Value{}, fmt.Errorf("no extent for %s", key)
	}
	return v, nil
}

func (c *countingExtents) count(key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[key]
}

// countingProcessor builds a processor over one source schema with two
// independent tables t and w, and two virtual objects u (over t) and
// v (over w).
func countingProcessor(t *testing.T) (*Processor, *countingExtents) {
	t.Helper()
	ext := &countingExtents{
		data: map[string]iql.Value{
			"<<t>>": iql.Bag(iql.Int(1), iql.Int(2)),
			"<<w>>": iql.Bag(iql.Int(10)),
		},
		calls: make(map[string]int),
	}
	sch := hdm.NewSchema("S")
	sch.MustAdd(hdm.NewObject(hdm.MustScheme("<<t>>"), hdm.Nodal, "", ""))
	sch.MustAdd(hdm.NewObject(hdm.MustScheme("<<w>>"), hdm.Nodal, "", ""))
	p := New()
	if err := p.AddExtents("S", sch, ext); err != nil {
		t.Fatal(err)
	}
	p.Define(hdm.MustScheme("<<u>>"), iql.MustParse("[k | k <- <<t>>]"), "test", "S")
	p.Define(hdm.MustScheme("<<v>>"), iql.MustParse("[k | k <- <<w>>]"), "test", "S")
	return p, ext
}

// TestSelectiveInvalidation is the processor-level contract of the
// dependency-tagged memo: invalidating one scheme recomputes only the
// extents that depend on it, while unrelated memoised extents survive.
func TestSelectiveInvalidation(t *testing.T) {
	p, ext := countingProcessor(t)
	mustExtent := func(key string) iql.Value {
		t.Helper()
		v, err := p.Extent([]string{key})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	mustExtent("u")
	mustExtent("v")
	mustExtent("u")
	mustExtent("v")
	if ext.count("t") != 1 || ext.count("w") != 1 {
		t.Fatalf("fetches = t:%d w:%d, want 1/1 (memoised)", ext.count("t"), ext.count("w"))
	}

	// Invalidate t: u must recompute (and refetch t), v must not.
	if n := p.InvalidateSchemes("t"); n == 0 {
		t.Fatal("InvalidateSchemes(t) evicted nothing")
	}
	mustExtent("u")
	mustExtent("v")
	if ext.count("t") != 2 {
		t.Fatalf("t fetched %d times after invalidation, want 2 (recomputed)", ext.count("t"))
	}
	if ext.count("w") != 1 {
		t.Fatalf("w fetched %d times, want 1 (untouched extent survived)", ext.count("w"))
	}

	// Invalidating the virtual key itself drops its memo entry — but
	// not the source-extent cache below it, so the recomputation
	// re-unfolds without refetching the source.
	memoBefore, _ := p.CacheStats()
	if n := p.InvalidateSchemes("u"); n != 1 {
		t.Fatalf("InvalidateSchemes(u) evicted %d entries, want 1 (u's memo)", n)
	}
	mustExtent("u")
	memoAfter, _ := p.CacheStats()
	if memoAfter.Misses != memoBefore.Misses+1 {
		t.Fatalf("memo misses %d -> %d, want one recompute of u", memoBefore.Misses, memoAfter.Misses)
	}
	if ext.count("t") != 2 {
		t.Fatalf("t fetched %d times after invalidating u, want 2 (source extent cache survived)", ext.count("t"))
	}
}

// stallingExtents is one table <<t>> whose first read takes its rows
// and then waits for release.
type stallingExtents struct {
	mu      sync.Mutex
	rows    []iql.Value
	read    sync.Once
	fetched chan struct{} // closed once the first read has its rows
	release chan struct{}
}

func (s *stallingExtents) Extent(parts []string) (iql.Value, error) {
	s.mu.Lock()
	v := iql.Bag(s.rows...)
	s.mu.Unlock()
	s.read.Do(func() { close(s.fetched) })
	<-s.release
	return v, nil
}

// TestInvalidationDuringFetchIsKept: an invalidation that lands while a
// fetch is in flight reaches the rows after it — neither the source
// extent nor the unfolded one the fetch fed is kept.
func TestInvalidationDuringFetchIsKept(t *testing.T) {
	src := &stallingExtents{rows: []iql.Value{iql.Int(1)}, fetched: make(chan struct{}), release: make(chan struct{})}
	sch := hdm.NewSchema("S")
	sch.MustAdd(hdm.NewObject(hdm.MustScheme("<<t>>"), hdm.Nodal, "", ""))
	p := New()
	if err := p.AddExtents("S", sch, src); err != nil {
		t.Fatal(err)
	}
	p.Define(hdm.MustScheme("<<v>>"), iql.MustParse("[x | x <- <<t>>]"), "test", "S")
	done := make(chan error)
	go func() {
		_, err := p.Eval(iql.MustParse("count(<<v>>)"))
		done <- err
	}()
	<-src.fetched
	src.mu.Lock()
	src.rows = append(src.rows, iql.Int(2))
	src.mu.Unlock()
	p.InvalidateCache()
	close(src.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"count(<<t>>)", "count(<<v>>)"} {
		if v, err := p.Eval(iql.MustParse(q)); err != nil || !v.Equal(iql.Int(2)) {
			t.Errorf("%s = %v (%v) after the invalidation, want 2", q, v, err)
		}
	}
}

// TestDefineInvalidatesDependents verifies that registering a new
// derivation for an object evicts the memoised extents of everything
// that referenced it — including references that previously resolved
// straight to a source object.
func TestDefineInvalidatesDependents(t *testing.T) {
	p, _ := countingProcessor(t)
	// g is defined over u; u over t.
	p.Define(hdm.MustScheme("<<g>>"), iql.MustParse("[k | k <- <<u>>]"), "test", "")
	v, err := p.Extent([]string{"g"})
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 2 {
		t.Fatalf("g = %s", v)
	}
	// A new derivation for u must flow into g's next answer.
	p.Define(hdm.MustScheme("<<u>>"), iql.MustParse("[k | k <- <<w>>]"), "test", "S")
	v, err = p.Extent([]string{"g"})
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 3 {
		t.Fatalf("g after new derivation for u = %s, want 3 elements", v)
	}

	// An unscoped reference that resolved to a source object must also
	// be invalidated when that name later gains a virtual definition.
	p.Define(hdm.MustScheme("<<h>>"), iql.MustParse("[k | k <- <<w>>]"), "test", "")
	v, _ = p.Extent([]string{"h"})
	if v.Len() != 1 {
		t.Fatalf("h = %s", v)
	}
	// w becomes virtual: h's cached extent depended on the reference
	// key "w" and must be recomputed through the new definition.
	p.Define(hdm.MustScheme("<<w>>"), iql.MustParse("[0 | k <- <<t>>]"), "test", "S")
	v, err = p.Extent([]string{"h"})
	if err != nil {
		t.Fatal(err)
	}
	// h now unfolds w's virtual definition (2 zeros from t) unioned
	// with nothing else; the stale answer had 1 element.
	if v.Len() != 2 {
		t.Fatalf("h after w became virtual = %s, want 2 elements", v)
	}
}

// TestWarningsReplayAcrossInvalidation pins the memo contract that
// survived the refactor: warnings replay on memo hits, and selective
// invalidation does not duplicate or lose them.
func TestWarningsReplayAcrossInvalidation(t *testing.T) {
	p2, _ := countingProcessor(t)
	p2.DefineAll([]ObjectDef{{Scheme: hdm.MustScheme("<<lower>>"), Derivation: Derivation{
		Query: iql.MustParse("[k | k <- <<t>>]"), Lower: true, Via: "pw", Scope: "S",
	}}})
	for i := 0; i < 2; i++ {
		_, warns, _, err := p2.EvalContext(context.Background(), iql.MustParse("count(<<lower>>)"))
		if err != nil {
			t.Fatal(err)
		}
		if len(warns) != 1 {
			t.Fatalf("round %d: warnings = %v, want 1 incompleteness warning", i, warns)
		}
	}
	p2.InvalidateSchemes("t")
	_, warns, deps, err := p2.EvalContext(context.Background(), iql.MustParse("count(<<lower>>)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(warns) != 1 {
		t.Fatalf("post-invalidation warnings = %v, want 1", warns)
	}
	// The dependency set names both the virtual object and its source.
	wantDeps := map[string]bool{"lower": true, "t": true}
	for _, d := range deps {
		delete(wantDeps, d)
	}
	if len(wantDeps) != 0 {
		t.Fatalf("deps = %v, missing %v", deps, wantDeps)
	}
}

// slowExtents blocks every fetch until released, counting concurrent
// fetches of the same key.
type slowExtents struct {
	gate    chan struct{}
	fetches atomic.Int64
}

func (s *slowExtents) Extent(parts []string) (iql.Value, error) {
	s.fetches.Add(1)
	<-s.gate
	return iql.Bag(iql.Int(1), iql.Int(2)), nil
}

// TestConcurrentSourceFetchCoalesced reproduces the duplicate-fetch bug
// the cache subsystem fixes: goroutines missing the source-extent cache
// simultaneously must share one wrapper fetch, not race to duplicate
// it.
func TestConcurrentSourceFetchCoalesced(t *testing.T) {
	ext := &slowExtents{gate: make(chan struct{})}
	sch := hdm.NewSchema("S")
	sch.MustAdd(hdm.NewObject(hdm.MustScheme("<<t>>"), hdm.Nodal, "", ""))
	p := New()
	if err := p.AddExtents("S", sch, ext); err != nil {
		t.Fatal(err)
	}
	p.Define(hdm.MustScheme("<<u>>"), iql.MustParse("[k | k <- <<t>>]"), "test", "S")

	const workers = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := p.Extent([]string{"u"}); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	// Release the (single) in-flight fetch once everyone has had a
	// chance to pile up behind it.
	close(ext.gate)
	wg.Wait()
	if n := ext.fetches.Load(); n != 1 {
		t.Fatalf("source extent fetched %d times under concurrency, want 1", n)
	}
}

// TestSharedStepBudget verifies MaxSteps bounds the whole query, not
// each derivation separately: two derivations that fit individually
// must together exhaust the per-query budget.
func TestSharedStepBudget(t *testing.T) {
	p, _ := countingProcessor(t)
	// u has one derivation over t; add a second derivation so the
	// union evaluates two comprehensions.
	p.Define(hdm.MustScheme("<<u>>"), iql.MustParse("[k | k <- <<w>>]"), "test", "S")

	// Find the whole-query step cost, then set the budget between the
	// halves and the total: per-derivation budgeting would pass, a
	// shared budget must fail.
	b := &iql.StepBudget{}
	s := p.newSession(context.Background())
	s.budget = b
	ev := &iql.Evaluator{Ext: s, Budget: b}
	if _, err := ev.Eval(iql.MustParse("count(<<u>>)"), nil); err != nil {
		t.Fatal(err)
	}
	total := b.Used()
	if total < 4 {
		t.Fatalf("unexpectedly cheap query: %d steps", total)
	}

	p.InvalidateCache()
	p.MaxSteps = total - 1
	if _, err := p.Eval(iql.MustParse("count(<<u>>)")); err == nil {
		t.Fatalf("query within per-derivation budgets but beyond the shared %d-step budget succeeded", total-1)
	} else if !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("unexpected error: %v", err)
	}

	p.InvalidateCache()
	p.MaxSteps = total
	if _, err := p.Eval(iql.MustParse("count(<<u>>)")); err != nil {
		t.Fatalf("query at exactly the budget failed: %v", err)
	}
}

// TestJoinIndexesFollowTheirExtents: a join index, and a join run's
// entry, stays cached for as long as the extents it was built over do —
// across an invalidation that drops other extents a warm join is
// replayed, and builds nothing — and leaves with any of those extents,
// whichever store held it; InvalidateCache still empties everything.
// Each join below is a run of two generators: its first evaluation
// builds the index it probes and leaves the run's entry, its second
// probes that index and records the run, and every later one replays it.
func TestJoinIndexesFollowTheirExtents(t *testing.T) {
	const n = 64
	pairs := func(off int) iql.Value {
		rows := make([]iql.Value, n)
		for i := range rows {
			rows[i] = iql.Tuple(iql.Int(int64(i)), iql.Int(int64(i+off)))
		}
		return iql.BagOf(rows)
	}
	ext := &countingExtents{
		data:  map[string]iql.Value{"<<a, x>>": pairs(100), "<<b, y>>": pairs(200)},
		calls: make(map[string]int),
	}
	sch := hdm.NewSchema("S")
	sch.MustAdd(hdm.NewObject(hdm.MustScheme("<<a, x>>"), hdm.Link, "", ""))
	sch.MustAdd(hdm.NewObject(hdm.MustScheme("<<b, y>>"), hdm.Link, "", ""))
	p := New()
	if err := p.AddExtents("S", sch, ext); err != nil {
		t.Fatal(err)
	}
	// ua and ub are computed, so each memo entry is an array of its own.
	p.Define(hdm.MustScheme("<<ua>>"), iql.MustParse("[{k, x} | {k, x} <- <<a, x>>; x > 0]"), "test", "S")
	p.Define(hdm.MustScheme("<<ub>>"), iql.MustParse("[{k, y} | {k, y} <- <<b, y>>; y > 0]"), "test", "S")
	overUB := iql.MustParse("count([x | {k, x} <- <<ua>>; {k2, y} <- <<ub>>; k2 = k])")
	overUA := iql.MustParse("count([y | {k2, y} <- <<ub>>; {k, x} <- <<ua>>; k = k2])")
	eval := func(e iql.Expr) {
		t.Helper()
		v, err := p.Eval(e)
		if err != nil || v.Kind != iql.KindInt || v.I() != n {
			t.Fatalf("%s = %v, %v; want %d", e, v, err, n)
		}
	}
	// step evaluates both joins and returns how they went: how many
	// indexes they found built, how many they built, how many runs they
	// replayed, and how many indexes and runs left with their extent
	// since the step before.
	type outcome struct{ hits, builds, replays, dropped uint64 }
	last := p.JoinIndexStats()
	step := func() outcome {
		t.Helper()
		eval(overUB)
		eval(overUA)
		st := p.JoinIndexStats()
		o := outcome{st.Hits - last.Hits, st.Misses - last.Misses, st.Replays - last.Replays, st.Invalidations - last.Invalidations}
		last = st
		return o
	}
	expect := func(when string, want outcome) {
		t.Helper()
		if got := step(); got != want {
			t.Fatalf("%s: %+v, want %+v", when, got, want)
		}
	}
	expect("cold", outcome{builds: 2})
	if st := p.JoinIndexStats(); st.Len != 4 || st.Bytes <= 0 {
		t.Fatalf("stats = %+v, want 2 indexes with a cost and 2 runs", st)
	}
	expect("warm, recorded", outcome{hits: 2})
	expect("warm", outcome{replays: 2})
	warm := p.JoinIndexStats()

	// A step that touches nothing cached drops no index and no run.
	if n := p.InvalidateSchemes("elsewhere"); n != 0 {
		t.Fatalf("invalidating an unknown scheme dropped %d extents", n)
	}
	expect("after an unrelated step", outcome{replays: 2})
	if st := p.JoinIndexStats(); st.Len != warm.Len || st.Bytes != warm.Bytes {
		t.Fatalf("after an unrelated step: %d entries of %d bytes, want %d of %d", st.Len, st.Bytes, warm.Len, warm.Bytes)
	}

	// Invalidating <<a, x>> retires its source extent and ua's memo
	// entry: the index over ua's array goes, and both runs, which have a
	// member over it; the index over ub's stays.
	if n := p.InvalidateSchemes("a|x"); n != 2 {
		t.Fatalf("InvalidateSchemes(a|x) dropped %d extents, want 2", n)
	}
	if st := p.JoinIndexStats(); st.Len != 1 {
		t.Fatalf("%d entries after ua was retired, want 1 (the index over ub)", st.Len)
	}
	expect("after retiring ua", outcome{hits: 1, builds: 1, dropped: 3})

	// A derivation added to ub refreshes nothing in place — its memo
	// entry is invalidated — and again only its own index goes, with
	// the runs over it.
	p.Define(hdm.MustScheme("<<ub>>"), iql.MustParse("[{k, y} | {k, y} <- <<b, y>>; y < 0]"), "test", "S")
	expect("after redefining ub", outcome{hits: 1, builds: 1, dropped: 3})

	// A byte budget the extents do not fit evicts them, and their
	// indexes with them, whatever the index cache's own budget decides.
	p.SetCacheBytes(64)
	if st := p.JoinIndexStats(); st.Len != 0 || st.Bytes != 0 {
		t.Fatalf("indexes outlived their evicted extents: %+v", st)
	}
	p.SetCacheBytes(0)
	step()
	p.InvalidateCache()
	if st := p.JoinIndexStats(); st.Len != 0 || st.Bytes != 0 || st.Purges == 0 {
		t.Fatalf("InvalidateCache left indexes behind: %+v", st)
	}
}

// warmJoinAllocs is what TestWarmPlanAllocatesNoAnalysis measured a warm
// join through the server to allocate before join runs were replayed,
// whatever its generators: 11 times.
const warmJoinAllocs = 11

// TestJoinRunsFollowTheirExtents: a join run's entry leaves with any of
// its members' extents — one of fewer rows than an index is cached for
// included — and keeps none of them reachable once it is gone; and a
// replayed warm join allocates no more than a warm join did before runs
// were replayed.
func TestJoinRunsFollowTheirExtents(t *testing.T) {
	keyed := func(n, off int) iql.Value {
		rows := make([]iql.Value, n)
		for i := range rows {
			rows[i] = iql.Tuple(iql.Int(int64(i)), iql.Int(int64(i+off)))
		}
		return iql.BagOf(rows)
	}
	ext := &countingExtents{
		data:  map[string]iql.Value{"<<a, x>>": keyed(64, 100), "<<b, y>>": keyed(64, 200), "<<c, z>>": keyed(8, 300)},
		calls: make(map[string]int),
	}
	sch := hdm.NewSchema("S")
	for _, o := range []string{"<<a, x>>", "<<b, y>>", "<<c, z>>"} {
		sch.MustAdd(hdm.NewObject(hdm.MustScheme(o), hdm.Link, "", ""))
	}
	p := New()
	if err := p.AddExtents("S", sch, ext); err != nil {
		t.Fatal(err)
	}
	// Computed, so each is a memo entry's array and nothing else's.
	p.Define(hdm.MustScheme("<<ua>>"), iql.MustParse("[{k, x} | {k, x} <- <<a, x>>; x > 0]"), "test", "S")
	p.Define(hdm.MustScheme("<<ub>>"), iql.MustParse("[{k, y} | {k, y} <- <<b, y>>; y > 0]"), "test", "S")
	p.Define(hdm.MustScheme("<<uc>>"), iql.MustParse("[{k, z} | {k, z} <- <<c, z>>; z > 0]"), "test", "S")
	q := iql.MustParse("[{x, y, z} | {k, x} <- <<ua>>; {k2, y} <- <<ub>>; k2 = k; {k3, z} <- <<uc>>; k3 = k2]")
	ctx := context.Background()
	var dst iql.Encoding
	ask := func() {
		dst = iql.Encoding{JSON: dst.JSON[:0], Text: dst.Text[:0]}
		if _, _, err := p.EvalEncoded(ctx, q, &dst); err != nil || dst.Rows != 8 {
			t.Fatalf("%s: %d rows, %v; want 8", q, dst.Rows, err)
		}
	}
	replays := func() uint64 { return p.JoinIndexStats().Replays }
	warm := func(when string) {
		t.Helper()
		ask() // the walk that leaves the run's entry
		ask() // the walk that records it
		before := replays()
		ask()
		if replays() != before+1 {
			t.Fatalf("%s: the third evaluation replayed %d runs, want 1", when, replays()-before)
		}
	}

	// Each member's extent takes the run's entry with it: the next
	// evaluation walks, and replays only the evaluation after the next.
	for _, member := range []string{"a|x", "b|y", "c|z"} {
		warm("before retiring " + member)
		dropped := p.JoinIndexStats().Invalidations
		if n := p.InvalidateSchemes(member); n != 2 {
			t.Fatalf("InvalidateSchemes(%s) dropped %d extents, want 2", member, n)
		}
		if st := p.JoinIndexStats(); st.Invalidations == dropped {
			t.Fatalf("retiring %s dropped nothing of the join-index cache: %+v", member, st)
		}
		before := replays()
		ask()
		if replays() != before {
			t.Fatalf("after retiring %s, the run was replayed over its old extent", member)
		}
	}

	// Once its entry is gone, nothing keeps a retired extent alive.
	warm("before retiring ua")
	ua, err := p.Extent([]string{"ua"})
	if err != nil || ua.Len() != 64 {
		t.Fatalf("<<ua>> = %s, %v", ua, err)
	}
	gone := weak.Make(&ua.Items()[0])
	ua = iql.Value{}
	p.InvalidateSchemes("a|x")
	runtime.GC()
	runtime.GC()
	if gone.Value() != nil {
		t.Error("<<ua>>'s retired extent is still reachable")
	}

	// A replayed warm join allocates what a warm join did.
	warm("warm")
	allocs := iqltest.Least(20, func() float64 { return testing.AllocsPerRun(1, ask) })
	t.Logf("a replayed warm join allocates %.0f times", allocs)
	if allocs > warmJoinAllocs {
		t.Errorf("a replayed warm join allocates %.0f times, want at most %d", allocs, warmJoinAllocs)
	}
}

// identifiedExtents is a countingExtents that carries its instance, so
// processors sharing stores share what is read from it.
type identifiedExtents struct {
	*countingExtents
	inst wrapper.Instance
}

func (e *identifiedExtents) Instance() *wrapper.Instance { return &e.inst }

// TestSharedStoresAddressEveryDerivationField: processors that share
// stores over one source instance share a memoised extent exactly when
// every field of its derivations agrees — Via too, which the answer's
// warning names.
func TestSharedStoresAddressEveryDerivationField(t *testing.T) {
	ext := &identifiedExtents{countingExtents: &countingExtents{
		data:  map[string]iql.Value{"<<t>>": iql.Bag(iql.Int(1), iql.Int(2))},
		calls: make(map[string]int),
	}}
	sch := hdm.NewSchema("S")
	sch.MustAdd(hdm.NewObject(hdm.MustScheme("<<t>>"), hdm.Nodal, "", ""))
	st := NewStores(0)
	warning := func(via string) string {
		t.Helper()
		p := New()
		p.UseStores(st)
		if err := p.AddExtents("S", sch, ext); err != nil {
			t.Fatal(err)
		}
		p.DefineAll([]ObjectDef{{Scheme: hdm.MustScheme("<<v>>"), Derivation: Derivation{
			Query: iql.MustParse("[k | k <- <<t>>]"), Lower: true, Via: via, Scope: "S"}}})
		_, warns, _, err := p.EvalContext(context.Background(), iql.MustParse("count(<<v>>)"))
		if err != nil || len(warns) != 1 {
			t.Fatalf("via %s: warnings %v, %v", via, warns, err)
		}
		return warns[0]
	}
	for _, via := range []string{"A", "B", "A"} {
		if w := warning(via); !strings.Contains(w, "(via "+via+")") {
			t.Errorf("a processor deriving <<v>> via %s warns %q", via, w)
		}
	}
	if memo, _ := (&Processor{st: st}).CacheStats(); memo.Hits != 1 || memo.Misses != 2 {
		t.Errorf("memo hits %d, misses %d: want <<v>> computed via A and via B, and found via A again", memo.Hits, memo.Misses)
	}
	if n := ext.count("t"); n != 1 {
		t.Errorf("<<t>> fetched %d times by processors sharing its instance, want 1", n)
	}
}
