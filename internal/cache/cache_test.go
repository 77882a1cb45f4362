package cache

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestEvictionOrder(t *testing.T) {
	c := New[int](Options{MaxEntries: 3})
	c.Put("a", 1, 1, nil)
	c.Put("b", 2, 1, nil)
	c.Put("c", 3, 1, nil)
	// Touch "a" so "b" becomes the eviction victim.
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	c.Put("d", 4, 1, nil)
	if _, ok := c.Get("b"); ok {
		t.Fatal("least-recently-used entry b survived eviction")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("entry %q missing after eviction", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Len != 3 {
		t.Fatalf("stats = %+v, want 1 eviction, len 3", st)
	}
}

// TestByteBudgetEviction is the acceptance check for the size-aware
// store: inserting past the byte budget evicts LRU entries until the
// budget holds again, and the stats reflect both bytes and evictions.
func TestByteBudgetEviction(t *testing.T) {
	c := New[string](Options{MaxBytes: 100})
	c.Put("a", "A", 40, nil)
	c.Put("b", "B", 40, nil)
	if got := c.Bytes(); got != 80 {
		t.Fatalf("bytes = %d, want 80", got)
	}
	// 40+40+40 > 100: the LRU entry "a" must go.
	c.Put("c", "C", 40, nil)
	if _, ok := c.Get("a"); ok {
		t.Fatal("entry a survived byte-budget eviction")
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("entry b wrongly evicted")
	}
	st := c.Stats()
	if st.Bytes != 80 || st.Evictions != 1 || st.Len != 2 || st.MaxBytes != 100 {
		t.Fatalf("stats = %+v, want bytes 80, 1 eviction, len 2, max 100", st)
	}
	// One huge insert evicts everything it can and still refuses to
	// cache the oversize entry itself.
	c.Put("huge", "H", 1000, nil)
	if _, ok := c.Get("huge"); ok {
		t.Fatal("oversize entry was cached")
	}
	if st := c.Stats(); st.Oversize != 1 {
		t.Fatalf("oversize = %d, want 1", st.Oversize)
	}
	// Refreshing an existing key to an oversize cost drops the stale
	// cached value rather than serving it forever.
	c.Put("b", "B2", 1000, nil)
	if _, ok := c.Get("b"); ok {
		t.Fatal("stale entry b survived an oversize refresh")
	}
}

func TestRefreshAdjustsBytes(t *testing.T) {
	c := New[int](Options{MaxBytes: 100})
	c.Put("a", 1, 30, []string{"x"})
	c.Put("a", 2, 50, []string{"y"})
	if got := c.Bytes(); got != 50 {
		t.Fatalf("bytes after refresh = %d, want 50", got)
	}
	if v, ok := c.Get("a"); !ok || v != 2 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	// The old dependency must no longer reach the entry; the new must.
	if n := c.InvalidateDeps("x"); n != 0 {
		t.Fatalf("InvalidateDeps(x) dropped %d entries, want 0", n)
	}
	if n := c.InvalidateDeps("y"); n != 1 {
		t.Fatalf("InvalidateDeps(y) dropped %d entries, want 1", n)
	}
}

func TestInvalidateDeps(t *testing.T) {
	c := New[int](Options{})
	c.Put("e1", 1, 1, []string{"s1", "s2"})
	c.Put("e2", 2, 1, []string{"s2", "s3"})
	c.Put("e3", 3, 1, []string{"s4"})
	if n := c.InvalidateDeps("s2"); n != 2 {
		t.Fatalf("InvalidateDeps(s2) = %d, want 2", n)
	}
	if _, ok := c.Get("e1"); ok {
		t.Fatal("e1 survived invalidation of its dependency s2")
	}
	if _, ok := c.Get("e2"); ok {
		t.Fatal("e2 survived invalidation of its dependency s2")
	}
	if _, ok := c.Get("e3"); !ok {
		t.Fatal("e3 with disjoint dependencies was wrongly evicted")
	}
	st := c.Stats()
	if st.Invalidations != 2 {
		t.Fatalf("invalidations = %d, want 2", st.Invalidations)
	}
	// Invalidating an unknown key is a no-op.
	if n := c.InvalidateDeps("nope"); n != 0 {
		t.Fatalf("InvalidateDeps(nope) = %d, want 0", n)
	}
}

// TestMapStructKeys: a Map keyed by a struct and tagged by a pointer —
// the join-index layer's shape — hits, evicts the least recently used
// entry, drops exactly the entries a tag names, and says whether a Put
// cached its value.
func TestMapStructKeys(t *testing.T) {
	type key struct {
		id   *int
		spec string
	}
	x, y := new(int), new(int)
	c := NewMap[key, *int, string](Options{MaxEntries: 3, MaxBytes: 100})
	for _, k := range []key{{x, "0"}, {x, "1"}, {y, "0"}} {
		if !c.Put(k, k.spec, 10, []*int{k.id}) {
			t.Fatalf("Put(%v) was refused", k)
		}
	}
	if v, ok := c.Get(key{x, "0"}); !ok || v != "0" {
		t.Fatalf("Get(x, 0) = %q, %v", v, ok)
	}
	if _, ok := c.Get(key{y, "1"}); ok {
		t.Fatal("a key differing in one field hit")
	}
	// {x, 1} is now the least recently used.
	c.Put(key{y, "1"}, "1", 10, []*int{y})
	if _, ok := c.Get(key{x, "1"}); ok {
		t.Fatal("the least recently used entry survived eviction")
	}
	if n := c.InvalidateDeps(y); n != 2 {
		t.Fatalf("InvalidateDeps(y) dropped %d entries, want 2", n)
	}
	if _, ok := c.Get(key{x, "0"}); !ok {
		t.Fatal("an entry tagged x went with y")
	}
	if c.Put(key{y, "2"}, "2", 101, []*int{y}) {
		t.Fatal("Put of an entry over the byte budget reports it cached")
	}
	if st := c.Stats(); st.Len != 1 || st.Evictions != 1 || st.Invalidations != 2 || st.Oversize != 1 {
		t.Fatalf("stats = %+v, want 1 entry, 1 eviction, 2 invalidations, 1 oversize", st)
	}
}

func TestGetOrComputeCoalesces(t *testing.T) {
	c := New[int](Options{})
	var computes atomic.Int64
	gate := make(chan struct{})
	const workers = 16
	var wg sync.WaitGroup
	results := make([]int, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.GetOrCompute("k", []string{"dep"}, func() (int, int64, error) {
				<-gate // hold the computation so every worker arrives
				computes.Add(1)
				return 42, 8, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	close(gate)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times for concurrent misses, want 1", n)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("worker %d got %d, want 42", i, v)
		}
	}
	// The computed value is cached with its dependencies.
	if _, ok := c.Get("k"); !ok {
		t.Fatal("computed value was not cached")
	}
	if n := c.InvalidateDeps("dep"); n != 1 {
		t.Fatalf("InvalidateDeps(dep) = %d, want 1", n)
	}
}

func TestGetOrComputeErrorNotCached(t *testing.T) {
	c := New[int](Options{})
	calls := 0
	boom := fmt.Errorf("boom")
	for i := 0; i < 2; i++ {
		_, _, err := c.GetOrCompute("k", nil, func() (int, int64, error) {
			calls++
			return 0, 0, boom
		})
		if err != boom {
			t.Fatalf("err = %v, want boom", err)
		}
	}
	if calls != 2 {
		t.Fatalf("failed computation was cached: %d calls, want 2", calls)
	}
}

// TestGetOrComputePanicUnblocksWaiters: a panicking compute must not
// wedge the key — waiters receive an error, the panic propagates to the
// leader, and the key is computable again afterwards.
func TestGetOrComputePanicUnblocksWaiters(t *testing.T) {
	c := New[int](Options{})
	inFlight := make(chan struct{})
	release := make(chan struct{})
	leaderPanicked := make(chan bool, 1)
	waited := make(chan error, 1)

	go func() { // leader
		defer func() { leaderPanicked <- recover() != nil }()
		c.GetOrCompute("k", nil, func() (int, int64, error) {
			close(inFlight)
			<-release
			panic("boom")
		})
	}()
	<-inFlight
	hitsBefore := c.Stats().Hits
	go func() { // waiter: guaranteed to coalesce — the flight is live
		_, _, err := c.GetOrCompute("k", nil, func() (int, int64, error) {
			return 0, 0, nil
		})
		waited <- err
	}()
	// A waiter counts a coalesced hit before blocking; wait for it to
	// be parked behind the flight, then let the leader panic.
	for c.Stats().Hits == hitsBefore {
		runtime.Gosched()
	}
	close(release)

	if !<-leaderPanicked {
		t.Fatal("panic did not propagate to the leader")
	}
	if err := <-waited; err == nil {
		t.Fatal("waiter behind a panicked computation got no error")
	}
	v, _, err := c.GetOrCompute("k", nil, func() (int, int64, error) { return 5, 1, nil })
	if err != nil || v != 5 {
		t.Fatalf("key wedged after panic: %v, %v", v, err)
	}
}

func TestPurge(t *testing.T) {
	c := New[int](Options{MaxEntries: 8})
	for i := 0; i < 5; i++ {
		c.Put(fmt.Sprint(i), i, 10, []string{"d"})
	}
	c.Purge()
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("len/bytes after purge = %d/%d", c.Len(), c.Bytes())
	}
	if _, ok := c.Get("3"); ok {
		t.Fatal("entry survived purge")
	}
	if st := c.Stats(); st.Purges != 1 {
		t.Fatalf("purges = %d, want 1", st.Purges)
	}
	// The dependency index was reset too: no phantom invalidations.
	if n := c.InvalidateDeps("d"); n != 0 {
		t.Fatalf("InvalidateDeps after purge = %d, want 0", n)
	}
}

func TestSetMaxBytesReEvicts(t *testing.T) {
	c := New[int](Options{})
	c.Put("a", 1, 60, nil)
	c.Put("b", 2, 60, nil)
	c.SetMaxBytes(100)
	if _, ok := c.Get("a"); ok {
		t.Fatal("LRU entry a survived budget shrink")
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("entry b wrongly evicted on budget shrink")
	}
}

func TestHitRateAndCounters(t *testing.T) {
	c := New[int](Options{MaxEntries: 4})
	c.Put("a", 1, 1, nil)
	c.Get("a")
	c.Get("a")
	c.Get("miss")
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", st.Hits, st.Misses)
	}
	if got := st.HitRate(); got < 0.66 || got > 0.67 {
		t.Fatalf("hit rate = %v, want ~2/3", got)
	}
	if (Stats{}).HitRate() != 0 {
		t.Fatal("zero stats hit rate should be 0")
	}
}

func TestConcurrentMixedUse(t *testing.T) {
	c := New[int](Options{MaxEntries: 32, MaxBytes: 1 << 16})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprint(i % 40)
				switch i % 5 {
				case 0:
					c.Put(k, i, int64(i%64), []string{k, "shared"})
				case 1:
					c.Get(k)
				case 2:
					c.GetOrCompute(k, []string{k}, func() (int, int64, error) { return i, 8, nil })
				case 3:
					c.InvalidateDeps("shared")
				default:
					c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDropsAreReported: a store built with NewWithDrop reports every
// value that leaves it, whichever way it leaves, exactly once, with the
// store's lock released (the hook reads the store), and reports nothing
// that is still cached.
func TestDropsAreReported(t *testing.T) {
	var c *Store[string]
	var got []string
	c = NewWithDrop[string, string](Options{MaxEntries: 3, MaxBytes: 100}, func(v string) {
		_ = c.Len() // deadlocks if the hook ran under the store's lock
		got = append(got, v)
	})
	expect := func(step string, want ...string) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: dropped %v, want %v", step, got, want)
		}
		got = nil
	}

	c.Put("a", "A", 10, []string{"s1"})
	c.Put("b", "B", 10, []string{"s2"})
	c.Put("c", "C", 10, nil)
	expect("three inserts")
	c.Put("d", "D", 10, nil)
	expect("entry cap", "A")
	c.Put("b", "B2", 10, []string{"s2"})
	expect("refresh", "B")
	c.Put("e", "E", 85, nil)
	expect("byte budget", "C", "D")
	c.Put("e", "E2", 1000, nil)
	expect("oversize refresh", "E")
	c.Put("never", "N", 1000, nil)
	expect("oversize insert")

	c.Put("f", "F", 10, []string{"s1"})
	c.Put("g", "G", 10, []string{"s3"})
	if n := c.InvalidateDeps("s1", "nope"); n != 1 {
		t.Fatalf("InvalidateDeps dropped %d entries, want 1", n)
	}
	expect("invalidation", "F")
	if c.Delete("g", func(v string) bool { return v != "G" }) {
		t.Fatal("Delete dropped an entry its match refused")
	}
	if !c.Delete("g", nil) || c.Delete("g", nil) {
		t.Fatal("Delete of a cached key: want true once, then false")
	}
	expect("deletion", "G")
	c.Put("g", "G", 10, []string{"s3"})
	c.SetMaxBytes(5)
	expect("shrunk budget", "B2", "G")

	c.SetMaxBytes(0)
	if _, _, err := c.GetOrCompute("h", nil, func() (string, int64, error) { return "H", 1, nil }); err != nil {
		t.Fatal(err)
	}
	c.Put("i", "I", 1, nil)
	expect("computed and plain inserts")
	c.Purge()
	if len(got) != 2 {
		t.Errorf("purge dropped %v, want H and I", got)
	}
	if c.Len() != 0 {
		t.Errorf("len = %d after purge", c.Len())
	}
}
