package iql

import (
	"testing"
	"unsafe"

	"github.com/dataspace/automed/internal/cache"
)

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
	c.putIndex(a, "1", mkIdx(a), 1000)
	c.putIndex(b, "1", mkIdx(b), 1000)
	if st := c.Stats(); st.Len != 2 || st.Bytes != 2000 {
		t.Fatalf("len=%d bytes=%d, want 2/2000", st.Len, st.Bytes)
	}
	if _, ok := c.index(a, "1"); !ok {
		t.Fatal("entry a missing")
	}
	if _, ok := c.index(a, "2"); ok {
		t.Fatal("spec is not part of the key")
	}

	// Shrinking the budget evicts down to it.
	c.SetMaxBytes(1500)
	if st := c.Stats(); st.Len != 1 || st.Bytes > 1500 {
		t.Fatalf("after budget shrink: len=%d bytes=%d", st.Len, st.Bytes)
	}

	// An index whose cost alone exceeds the budget is not cached.
	big := mkRows(10)
	c.putIndex(big, "1", mkIdx(big), 5000)
	if _, ok := c.index(big, "1"); ok {
		t.Fatal("oversize index was cached")
	}

	// Refreshing a key replaces its cost instead of double-counting.
	c.SetMaxBytes(0)
	rows := mkRows(10)
	c.putIndex(rows, "1", mkIdx(rows), 100)
	c.putIndex(rows, "1", mkIdx(rows), 300)
	want := c.Stats().Bytes
	c.Purge()
	if st := c.Stats(); st.Len != 0 || st.Bytes != 0 {
		t.Fatalf("purge left len=%d bytes=%d", st.Len, st.Bytes)
	}
	if want < 300 || want > 1300 {
		t.Fatalf("refresh miscounted: %d", want)
	}
}

func TestJoinIndexCacheEntryCap(t *testing.T) {
	c := NewJoinIndexCache(2)
	keep := make([][]Value, 3)
	for i := range keep {
		keep[i] = []Value{Int(int64(i))}
		c.putIndex(keep[i], "0", NewJoinIndex(keep[i], []int{wholeElement}), 1)
	}
	if n := c.Stats().Len; n > 2 {
		t.Fatalf("cap exceeded: %d", n)
	}
}

// TestJoinIndexCacheEvictsLeastRecentlyUsed: over the entry cap, the
// entry to go is the one least recently looked up or stored, whether
// an index or a join run's entry.
func TestJoinIndexCacheEvictsLeastRecentlyUsed(t *testing.T) {
	rows := func() []Value { return []Value{Int(1), Int(2)} }
	a, b, c, d := rows(), rows(), rows(), rows()
	r := &joinRun{}
	ic := NewJoinIndexCache(3)
	ic.putIndex(a, "0", NewJoinIndex(nil, nil), 1)
	ic.putIndex(b, "0", NewJoinIndex(nil, nil), 1)
	ic.putRun(r, []extentID{idOf(c)}, nil, false)
	if _, ok := ic.index(a, "0"); !ok {
		t.Fatal("index over a missing")
	}
	if _, ok := ic.run(r, c); !ok {
		t.Fatal("run over c missing")
	}
	ic.putIndex(d, "0", NewJoinIndex(nil, nil), 1)
	if _, ok := ic.index(b, "0"); ok {
		t.Error("the least recently used index, over b, survived")
	}
	if _, ok := ic.run(r, c); !ok {
		t.Error("the run's entry was evicted before the least recently used index")
	}
	for _, els := range [][]Value{a, d} {
		if _, ok := ic.index(els, "0"); !ok {
			t.Error("a recently used index was evicted")
		}
	}
	if st := ic.Stats(); st.Evictions != 1 || st.Len != 3 {
		t.Errorf("stats = %+v, want one eviction, three entries", st)
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
	for _, k := range []struct {
		els  []Value
		spec string
	}{{a, "0"}, {a, "1"}, {b, "0"}} {
		if _, ok := c.index(k.els, k.spec); ok {
			t.Fatal("hit in an empty cache")
		}
		c.putIndex(k.els, k.spec, NewJoinIndex(nil, nil), 10)
	}
	kept, _ := c.index(b, "0")

	c.DropExtent(Int(7))
	c.DropExtent(Bag())
	c.DropExtent(BagOf(small))
	c.DropExtent(BagOf(rows(joinIndexCacheMin))) // equal elements, another array
	if n := c.Stats().Len; n != 3 {
		t.Fatalf("unrelated drops left %d indexes, want 3", n)
	}
	c.DropExtent(BagOf(a))
	if _, ok := c.index(a, "0"); ok {
		t.Error("index over a dropped extent survived")
	}
	if again, ok := c.index(b, "0"); !ok || again != kept {
		t.Error("index over a surviving extent was dropped or rebuilt")
	}
	st := c.Stats()
	want := cache.Stats{Len: 1, Capacity: defaultJoinIndexCap, Bytes: 10, Hits: 2, Misses: 4, Invalidations: 2}
	if st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
	c.SetMaxBytes(5)
	c.putIndex(a, "0", NewJoinIndex(nil, nil), 6)
	c.Purge()
	st = c.Stats()
	if st.Evictions != 1 || st.Oversize != 1 || st.Purges != 1 || st.Len != 0 || st.Bytes != 0 || st.MaxBytes != 5 {
		t.Errorf("stats = %+v, want one eviction, one oversize, one purge, empty", st)
	}
}

// TestJoinIndexCacheRuns: a join run's entry counts against the entry
// cap like an index; a record is charged its bytes, and one over the
// budget leaves the run unrecordable; an entry leaves with any member's
// extent, however small.
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
	members := []extentID{idOf(b), idOf(small)}
	c := NewJoinIndexCache(2)
	c.putIndex(a, "0", NewJoinIndex(nil, nil), 10)
	c.putRun(recorded, members, rec, false)
	c.putRun(walked, []extentID{idOf(a)}, nil, false)
	if _, ok := c.index(a, "0"); ok || c.Stats().Len != 2 {
		t.Fatalf("over the cap, the index stored first stayed: %d entries", c.Stats().Len)
	}
	cost := rec.footprint() + int64(cap(members))*int64(unsafe.Sizeof(extentID{}))
	if en, ok := c.run(recorded, b); !ok || en.rec != rec || c.Stats().Bytes != cost {
		t.Fatalf("the recorded run: %+v, %v; cache bytes %d, want %d", en, ok, c.Stats().Bytes, cost)
	}
	if en, ok := c.run(walked, a); !ok || en.rec != nil || en.unrecordable {
		t.Fatalf("the walked run: %+v, %v; want an entry with no record", en, ok)
	}

	c.DropExtent(BagOf(small))
	if _, ok := c.run(recorded, b); ok || c.Stats().Bytes != 0 {
		t.Fatalf("a run outlived its one-row member's extent: %d bytes left", c.Stats().Bytes)
	}

	c.SetMaxBytes(20)
	c.putRun(recorded, []extentID{idOf(b)}, rec, false)
	if en, ok := c.run(recorded, b); !ok || en.rec != nil || !en.unrecordable || c.Stats().Bytes != 0 {
		t.Errorf("a record over the budget: %+v, %v; want an unrecordable entry charged nothing", en, ok)
	}
	if st := c.Stats(); st.Oversize != 1 || st.Invalidations != 1 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want one oversize, one invalidation, one eviction", st)
	}
}
