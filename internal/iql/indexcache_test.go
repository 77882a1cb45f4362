package iql

import "testing"

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
	mkIdx := func(rows []Value) *ValueIndex {
		ix := NewValueIndex(len(rows))
		for _, r := range rows {
			ix.Add(r.Items()[1], r)
		}
		return ix
	}

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
		c.put(cacheKeyFor(keep[i], "0"), NewValueIndex(1), 1)
	}
	if c.Len() > 2 {
		t.Fatalf("cap exceeded: %d", c.Len())
	}
}
