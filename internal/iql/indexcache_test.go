package iql

import (
	"testing"

	"github.com/dataspace/automed/internal/cache"
)

func cacheKeyFor(rows []Value, spec string) joinIndexKey {
	return joinIndexKey{data: &rows[0], n: len(rows), spec: spec}
}

func TestJoinIndexCacheByteBudget(t *testing.T) {
	mkRows := func(n int) []Value {
		rows := make([]Value, n)
		for i := range rows {
			rows[i] = Tuple(Int(int64(i)), Int(int64(i%5)))
		}
		return rows
	}
	mkIdx := func(rows []Value) *JoinIndex { return NewJoinIndex(rows, []int{1}) }

	c := NewJoinIndexCache(8)
	a, b := mkRows(10), mkRows(10)
	c.put(cacheKeyFor(a, "1"), mkIdx(a), 1000)
	c.put(cacheKeyFor(b, "1"), mkIdx(b), 1000)
	if c.Len() != 2 || c.Bytes() != 2000 {
		t.Fatalf("len=%d bytes=%d, want 2/2000", c.Len(), c.Bytes())
	}
	if _, ok := c.get(cacheKeyFor(a, "1")); !ok {
		t.Fatal("entry a missing")
	}
	if _, ok := c.get(cacheKeyFor(a, "2")); ok {
		t.Fatal("spec is not part of the key")
	}

	// Shrinking the budget evicts down to it.
	c.SetMaxBytes(1500)
	if c.Len() != 1 || c.Bytes() > 1500 {
		t.Fatalf("after budget shrink: len=%d bytes=%d", c.Len(), c.Bytes())
	}

	// An index whose cost alone exceeds the budget is not cached.
	big := mkRows(10)
	c.put(cacheKeyFor(big, "1"), mkIdx(big), 5000)
	if _, ok := c.get(cacheKeyFor(big, "1")); ok {
		t.Fatal("oversize index was cached")
	}

	// Refreshing a key replaces its cost instead of double-counting.
	c.SetMaxBytes(0)
	rows := mkRows(10)
	c.put(cacheKeyFor(rows, "1"), mkIdx(rows), 100)
	c.put(cacheKeyFor(rows, "1"), mkIdx(rows), 300)
	want := c.Bytes()
	c.Purge()
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("purge left len=%d bytes=%d", c.Len(), c.Bytes())
	}
	if want < 300 {
		t.Fatalf("refresh undercounted: %d", want)
	}
}

func TestJoinIndexCacheEntryCap(t *testing.T) {
	c := NewJoinIndexCache(2)
	keep := make([][]Value, 3)
	for i := range keep {
		keep[i] = []Value{Int(int64(i))}
		c.put(cacheKeyFor(keep[i], "0"), NewJoinIndex(keep[i], []int{wholeElement}), 1)
	}
	if c.Len() > 2 {
		t.Fatalf("cap exceeded: %d", c.Len())
	}
}

// TestJoinIndexCacheDropExtent: the indexes built over one element
// array leave together, whatever their spec; everything else stays; the
// counters say which way each index went.
func TestJoinIndexCacheDropExtent(t *testing.T) {
	rows := func(n int) []Value {
		out := make([]Value, n)
		for i := range out {
			out[i] = Int(int64(i))
		}
		return out
	}
	a, b, small := rows(joinIndexCacheMin), rows(joinIndexCacheMin), rows(joinIndexCacheMin-1)
	c := NewJoinIndexCache(0)
	for _, k := range []joinIndexKey{cacheKeyFor(a, "0"), cacheKeyFor(a, "1"), cacheKeyFor(b, "0")} {
		if _, ok := c.get(k); ok {
			t.Fatal("hit in an empty cache")
		}
		c.put(k, NewJoinIndex(nil, nil), 10)
	}
	kept, _ := c.get(cacheKeyFor(b, "0"))

	c.DropExtent(Int(7))
	c.DropExtent(Bag())
	c.DropExtent(BagOf(small))
	c.DropExtent(BagOf(rows(joinIndexCacheMin))) // equal elements, another array
	if c.Len() != 3 {
		t.Fatalf("unrelated drops left %d indexes, want 3", c.Len())
	}
	c.DropExtent(BagOf(a))
	if _, ok := c.get(cacheKeyFor(a, "0")); ok {
		t.Error("index over a dropped extent survived")
	}
	if again, ok := c.get(cacheKeyFor(b, "0")); !ok || again != kept {
		t.Error("index over a surviving extent was dropped or rebuilt")
	}
	st := c.Stats()
	want := cache.Stats{Len: 1, Capacity: defaultJoinIndexCap, Bytes: 10, Hits: 2, Misses: 4, Invalidations: 2}
	if st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
	c.SetMaxBytes(5)
	c.put(cacheKeyFor(a, "0"), NewJoinIndex(nil, nil), 6)
	c.Purge()
	st = c.Stats()
	if st.Evictions != 1 || st.Oversize != 1 || st.Purges != 1 || st.Len != 0 || st.Bytes != 0 || st.MaxBytes != 5 {
		t.Errorf("stats = %+v, want one eviction, one oversize, one purge, empty", st)
	}
}

// TestJoinIndexCacheRuns: a join run's entry counts against the entry
// cap, and one with no record is the first to go for it; a record is
// charged its bytes, and one over the budget leaves the run unrecordable;
// an entry leaves with any member's extent, however small.
func TestJoinIndexCacheRuns(t *testing.T) {
	rows := func(n int) []Value {
		out := make([]Value, n)
		for i := range out {
			out[i] = Int(int64(i))
		}
		return out
	}
	a, b, small := rows(joinIndexCacheMin), rows(joinIndexCacheMin), rows(1)
	walked, recorded := &joinRun{}, &joinRun{}
	rec := &runRecord{rows: make([]int32, 8), steps: make([]int32, 5)}
	c := NewJoinIndexCache(2)
	c.put(cacheKeyFor(a, "0"), NewJoinIndex(nil, nil), 10)
	c.putRun(recorded, []extentID{idOf(b), idOf(small)}, rec, false)
	c.putRun(walked, []extentID{idOf(a)}, nil, false)
	if _, ok := c.getRun(walked, a); ok || c.Len() != 2 {
		t.Fatalf("over the cap, the run without a record stayed: %d entries", c.Len())
	}
	if en, ok := c.getRun(recorded, b); !ok || en.rec != rec || c.Bytes() != 10+en.cost || en.cost < rec.footprint() {
		t.Fatalf("the recorded run: %+v, %v; cache bytes %d", en, ok, c.Bytes())
	}

	c.DropExtent(BagOf(small))
	if _, ok := c.getRun(recorded, b); ok || c.Bytes() != 10 {
		t.Fatalf("a run outlived its one-row member's extent: %d bytes left", c.Bytes())
	}

	c.SetMaxBytes(20)
	c.putRun(recorded, []extentID{idOf(b)}, rec, false)
	if en, ok := c.getRun(recorded, b); !ok || en.rec != nil || !en.unrecordable || en.cost != 0 {
		t.Errorf("a record over the budget: %+v, %v; want an unrecordable entry charged nothing", en, ok)
	}
	if st := c.Stats(); st.Oversize != 1 || st.Invalidations != 1 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want one oversize, one invalidation, one eviction", st)
	}
}
