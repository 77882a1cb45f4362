// Package cache provides the unified cache substrate of the dataspace:
// a generic, size-aware, dependency-tagged store with LRU eviction.
//
// Every entry carries a cost in bytes and a set of dependency tags. The
// store enforces two independent bounds — a maximum entry count and a
// byte budget — by evicting least-recently-used entries, and supports
// selective invalidation: InvalidateDeps(tags...) evicts exactly the
// entries whose dependency set intersects the given tags (the join-index
// layer drops what was built over an extent this way), and Delete drops
// one entry by its key.
//
// A Map is keyed and tagged by any comparable types; a Store, keyed and
// tagged by strings, is the common case. The extent and answer layers
// key their entries by a fingerprint of what derives them, so an entry
// never goes stale: a change gives what it touched new keys, and the
// old entries are unreachable until the LRU lets them go.
//
// GetOrCompute adds singleflight-style coalescing: concurrent misses of
// the same key share one computation instead of racing to recompute it
// (e.g. two queries unfolding onto the same source extent fetch it
// once).
//
// A store built by NewWithDrop reports every value it lets go of —
// invalidated, deleted, evicted, replaced by a refresh or purged — so
// its owner can release what it derived from the value (the query
// processor drops the join indexes built over a dropped extent).
//
// The store backs all cache layers of the system: the query processor's
// virtual-extent memo, source-extent cache and join indexes (a Map keyed
// by element-array identity), and the server's parsed IQL plan cache and
// result cache.
package cache

import (
	"container/list"
	"fmt"
	"sync"
)

// Options tunes a Store.
type Options struct {
	// MaxEntries bounds the number of entries; <= 0 means unbounded.
	MaxEntries int
	// MaxBytes bounds the summed entry costs; <= 0 means unbounded.
	MaxBytes int64
}

// Stats is a point-in-time snapshot of one store's counters.
type Stats struct {
	Len      int    `json:"len"`
	Capacity int    `json:"capacity"`
	Bytes    int64  `json:"bytes"`
	MaxBytes int64  `json:"max_bytes"`
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	// Evictions counts entries dropped to honour MaxEntries/MaxBytes.
	Evictions uint64 `json:"evictions"`
	// Invalidations counts entries dropped by InvalidateDeps and Delete.
	Invalidations uint64 `json:"invalidations"`
	// Oversize counts inserts rejected because a single entry's cost
	// exceeded the whole byte budget.
	Oversize uint64 `json:"oversize"`
	Purges   uint64 `json:"purges"`
	// Replays counts lookups answered from a record of earlier work
	// instead of an entry: the join-index layer's replayed join runs.
	// The maps of this package have none.
	Replays uint64 `json:"replays"`
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// entry is one cache slot.
type entry[K, D comparable, V any] struct {
	key  K
	val  V
	cost int64
	deps []D
}

// flight is one in-progress GetOrCompute computation; waiters block on
// done and then read val/err (the close provides the happens-before).
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Map is a bounded, mutex-guarded LRU cache whose entries are keyed by
// K and tagged by D. It is safe for concurrent use.
type Map[K, D comparable, V any] struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64

	ll    *list.List
	items map[K]*list.Element
	// byDep indexes entry keys by dependency tag, so InvalidateDeps is
	// proportional to the touched entries, not the cache size.
	byDep  map[D]map[K]struct{}
	flight map[K]*flight[V]
	bytes  int64

	hits          uint64
	misses        uint64
	evictions     uint64
	invalidations uint64
	oversize      uint64
	purges        uint64

	// onDrop, when set, is told every value that leaves the store;
	// dropped collects them under mu for unlock to report.
	onDrop  func(V)
	dropped []V
}

// Store is a Map keyed and tagged by strings.
type Store[V any] = Map[string, string, V]

// New returns an empty store.
func New[V any](opts Options) *Store[V] {
	return NewMap[string, string, V](opts)
}

// NewMap returns an empty map.
func NewMap[K, D comparable, V any](opts Options) *Map[K, D, V] {
	return &Map[K, D, V]{
		maxEntries: opts.MaxEntries,
		maxBytes:   opts.MaxBytes,
		ll:         list.New(),
		items:      make(map[K]*list.Element),
		byDep:      make(map[D]map[K]struct{}),
		flight:     make(map[K]*flight[V]),
	}
}

// NewWithDrop is NewMap for a map whose owner holds state derived from
// the cached values: onDrop is called once for every value that leaves
// the map for any reason — InvalidateDeps, Delete, LRU or byte eviction,
// a Put that replaces it (or rejects its oversize replacement), Purge —
// after the operation that dropped it has released the map's lock, so
// onDrop may take locks of its own but must not expect the drop and its
// report to be one atomic step.
func NewWithDrop[K, D comparable, V any](opts Options, onDrop func(V)) *Map[K, D, V] {
	c := NewMap[K, D, V](opts)
	c.onDrop = onDrop
	return c
}

// noteDropLocked records a value that has left the store, for unlock to
// report.
func (c *Map[K, D, V]) noteDropLocked(v V) {
	if c.onDrop != nil {
		c.dropped = append(c.dropped, v)
	}
}

// unlock releases mu and then reports what was dropped under it.
func (c *Map[K, D, V]) unlock() {
	dropped := c.dropped
	c.dropped = nil
	c.mu.Unlock()
	for _, v := range dropped {
		c.onDrop(v)
	}
}

// Get returns the cached value and marks it most recently used.
func (c *Map[K, D, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*entry[K, D, V]).val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Put inserts or refreshes a value with its byte cost and dependency
// tags, evicting least-recently-used entries while either bound is
// exceeded, and reports whether the value was cached: an entry whose
// cost alone exceeds the byte budget is not.
func (c *Map[K, D, V]) Put(key K, val V, cost int64, deps []D) bool {
	c.mu.Lock()
	defer c.unlock()
	return c.putLocked(key, val, cost, deps)
}

func (c *Map[K, D, V]) putLocked(key K, val V, cost int64, deps []D) bool {
	if cost < 0 {
		cost = 0
	}
	if c.maxBytes > 0 && cost > c.maxBytes {
		c.oversize++
		// An oversize refresh must still drop the stale cached value.
		if el, ok := c.items[key]; ok {
			c.removeLocked(el)
		}
		return false
	}
	if el, ok := c.items[key]; ok {
		// Refresh in place: re-index dependencies and re-count cost.
		en := el.Value.(*entry[K, D, V])
		c.unindexLocked(en)
		c.bytes -= en.cost
		c.noteDropLocked(en.val)
		en.val, en.cost, en.deps = val, cost, deps
		c.bytes += cost
		c.indexLocked(en)
		c.ll.MoveToFront(el)
	} else {
		en := &entry[K, D, V]{key: key, val: val, cost: cost, deps: deps}
		c.items[key] = c.ll.PushFront(en)
		c.bytes += cost
		c.indexLocked(en)
	}
	for (c.maxEntries > 0 && c.ll.Len() > c.maxEntries) ||
		(c.maxBytes > 0 && c.bytes > c.maxBytes) {
		oldest := c.ll.Back()
		if oldest == nil {
			break
		}
		c.removeLocked(oldest)
		c.evictions++
	}
	return true
}

// GetOrCompute returns the cached value for key, or computes it exactly
// once across concurrent callers: the first miss runs compute while
// later misses of the same key wait for and share its outcome
// (including errors; errors are never cached). compute returns the
// value and its byte cost. The hit result reports whether the value came from cache or a
// coalesced in-flight computation rather than this caller's own compute.
func (c *Map[K, D, V]) GetOrCompute(key K, deps []D, compute func() (V, int64, error)) (V, bool, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		v := el.Value.(*entry[K, D, V]).val
		c.mu.Unlock()
		return v, true, nil
	}
	if f, ok := c.flight[key]; ok {
		c.hits++ // coalesced: this caller pays no computation
		c.mu.Unlock()
		<-f.done
		return f.val, true, f.err
	}
	f := &flight[V]{done: make(chan struct{})}
	c.flight[key] = f
	c.misses++
	c.mu.Unlock()

	var (
		val  V
		cost int64
		err  error
	)
	completed := false
	defer func() {
		if completed {
			return
		}
		// compute panicked: unregister the flight and fail the waiters
		// instead of wedging every future lookup of this key, then let
		// the panic continue unwinding.
		f.err = fmt.Errorf("cache: computation for %v panicked", key)
		c.mu.Lock()
		delete(c.flight, key)
		c.mu.Unlock()
		close(f.done)
	}()
	val, cost, err = compute()
	completed = true

	c.mu.Lock()
	f.val, f.err = val, err
	delete(c.flight, key)
	if err == nil {
		c.putLocked(key, val, cost, deps)
	}
	c.unlock()
	close(f.done)
	return val, false, err
}

// Peek reports whether key is cached, without bumping its LRU position
// or the hit/miss counters. Prefetchers use it to decide what is worth
// warming; real lookups should use Get so the stats stay honest.
func (c *Map[K, D, V]) Peek(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// Delete drops key's entry, when it has one that match accepts (nil
// accepts any), and reports whether it did.
func (c *Map[K, D, V]) Delete(key K, match func(V) bool) bool {
	c.mu.Lock()
	defer c.unlock()
	el, ok := c.items[key]
	if !ok || (match != nil && !match(el.Value.(*entry[K, D, V]).val)) {
		return false
	}
	c.removeLocked(el)
	c.invalidations++
	return true
}

// InvalidateDeps evicts every entry whose dependency set intersects
// keys and returns how many entries were dropped.
func (c *Map[K, D, V]) InvalidateDeps(keys ...D) int {
	c.mu.Lock()
	defer c.unlock()
	dropped := 0
	for _, k := range keys {
		for ek := range c.byDep[k] {
			if el, ok := c.items[ek]; ok {
				c.removeLocked(el)
				dropped++
			}
		}
	}
	c.invalidations += uint64(dropped)
	return dropped
}

// Purge discards every entry (counters are kept).
func (c *Map[K, D, V]) Purge() {
	c.mu.Lock()
	defer c.unlock()
	for el := c.ll.Front(); el != nil && c.onDrop != nil; el = el.Next() {
		c.noteDropLocked(el.Value.(*entry[K, D, V]).val)
	}
	c.ll.Init()
	c.items = make(map[K]*list.Element)
	c.byDep = make(map[D]map[K]struct{})
	c.bytes = 0
	c.purges++
}

// SetMaxBytes adjusts the byte budget, evicting LRU entries if the new
// budget is already exceeded. budget <= 0 removes the bound.
func (c *Map[K, D, V]) SetMaxBytes(budget int64) {
	c.mu.Lock()
	defer c.unlock()
	c.maxBytes = budget
	for c.maxBytes > 0 && c.bytes > c.maxBytes {
		oldest := c.ll.Back()
		if oldest == nil {
			break
		}
		c.removeLocked(oldest)
		c.evictions++
	}
}

// Len returns the number of cached entries.
func (c *Map[K, D, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the summed cost of all cached entries.
func (c *Map[K, D, V]) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats snapshots the store's counters.
func (c *Map[K, D, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Len:           c.ll.Len(),
		Capacity:      c.maxEntries,
		Bytes:         c.bytes,
		MaxBytes:      c.maxBytes,
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		Oversize:      c.oversize,
		Purges:        c.purges,
	}
}

func (c *Map[K, D, V]) removeLocked(el *list.Element) {
	en := el.Value.(*entry[K, D, V])
	c.ll.Remove(el)
	delete(c.items, en.key)
	c.bytes -= en.cost
	c.unindexLocked(en)
	c.noteDropLocked(en.val)
}

func (c *Map[K, D, V]) indexLocked(en *entry[K, D, V]) {
	for _, d := range en.deps {
		set := c.byDep[d]
		if set == nil {
			set = make(map[K]struct{})
			c.byDep[d] = set
		}
		set[en.key] = struct{}{}
	}
}

func (c *Map[K, D, V]) unindexLocked(en *entry[K, D, V]) {
	for _, d := range en.deps {
		if set := c.byDep[d]; set != nil {
			delete(set, en.key)
			if len(set) == 0 {
				delete(c.byDep, d)
			}
		}
	}
}

// Dedup returns the distinct keys in first-seen order. It is the
// shared key-set helper for building dependency sets.
func Dedup(keys []string) []string {
	seen := make(map[string]bool, len(keys))
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}
