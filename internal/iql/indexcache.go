package iql

import (
	"sync"

	"github.com/dataspace/automed/internal/cache"
)

// JoinIndexCache caches built hash-join indexes across evaluations.
//
// A join index is a pure function of the generator's source elements
// and the join-key component spec, so it can be keyed by the identity
// of the source's element array (extents are immutable and memoised by
// the query processor, which makes the identity stable for exactly as
// long as the extent version is live) plus the spec. One cache shared
// by every evaluator a processor spawns means a large source joined by
// many queries — or by the same query re-evaluated per request — is
// indexed once per extent version instead of once per evaluation.
//
// The keyed element pointer is retained by the cache, so an address can
// never be recycled for a different extent while its entry is live:
// identity collisions are impossible.
//
// An index lives as long as the extent it was built over: whoever
// caches extents tells the cache when it lets one go (DropExtent), and
// the indexes keyed on that element array go with it, so a retired
// extent version is not pinned by its indexes and an index over a
// surviving extent is the same *JoinIndex before and after an
// unrelated invalidation. An index over an array nobody caches — an
// intermediate bag, an extent a racing evaluation memoised second — is
// never hit again and is pushed out by the entry cap or the byte budget.
//
// The cache is safe for concurrent use; concurrent builders of the same
// index race benignly (last insert wins, both indexes are correct).
//
// Because an index (and its retained identity key) keeps the indexed
// extent alive, the cache participates in the system's memory budget:
// SetMaxBytes bounds the summed cost of cached indexes, evicting
// entries beyond it, so byte-budgeted deployments stay bounded even
// when the extent caches themselves have already evicted the source
// data.
type JoinIndexCache struct {
	mu       sync.Mutex
	max      int
	maxBytes int64
	bytes    int64
	entries  map[joinIndexKey]joinIndexEntry

	hits, misses, evicted, dropped, oversize, purges uint64
}

// joinIndexEntry pairs a cached index with its approximate byte cost.
type joinIndexEntry struct {
	idx  *JoinIndex
	cost int64
}

// joinIndexKey identifies a source extent (by retained element-array
// identity and length) and a join-key component spec.
type joinIndexKey struct {
	data *Value
	n    int
	spec string
}

// defaultJoinIndexCap bounds a cache to roughly this many indexes; an
// index retains its rows, so the cap also bounds retained extents.
const defaultJoinIndexCap = 128

// NewJoinIndexCache returns a cache holding at most max indexes
// (<= 0 uses a default cap). The entry map is allocated on first
// insert, so an idle cache costs one struct.
func NewJoinIndexCache(max int) *JoinIndexCache {
	if max <= 0 {
		max = defaultJoinIndexCap
	}
	return &JoinIndexCache{max: max}
}

// SetMaxBytes bounds the summed cost of cached indexes (an index's
// cost is its own footprint plus that of the rows it retains), evicting
// entries while over budget; budget <= 0 removes the bound.
func (c *JoinIndexCache) SetMaxBytes(budget int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maxBytes = budget
	c.evictLocked()
}

// get returns the cached index for the keyed extent and spec.
func (c *JoinIndexCache) get(key joinIndexKey) (*JoinIndex, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	en, ok := c.entries[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return en.idx, ok
}

// put inserts a built index with its byte cost, evicting arbitrary
// entries while either bound is exceeded (entries are cheap to
// rebuild; map iteration order supplies the victims). An index whose
// cost alone exceeds the byte budget is not cached.
func (c *JoinIndexCache) put(key joinIndexKey, idx *JoinIndex, cost int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.maxBytes > 0 && cost > c.maxBytes {
		c.oversize++
		return
	}
	if c.entries == nil {
		c.entries = make(map[joinIndexKey]joinIndexEntry)
	}
	if old, ok := c.entries[key]; ok {
		c.bytes -= old.cost
	}
	c.entries[key] = joinIndexEntry{idx: idx, cost: cost}
	c.bytes += cost
	c.evictLocked()
}

// evictLocked drops arbitrary entries until the cache respects its
// entry cap and byte budget. Deleting while ranging is safe, and the
// arbitrary iteration order supplies the victims.
func (c *JoinIndexCache) evictLocked() {
	for k, en := range c.entries {
		if len(c.entries) <= c.max && (c.maxBytes <= 0 || c.bytes <= c.maxBytes) {
			break
		}
		delete(c.entries, k)
		c.bytes -= en.cost
		c.evicted++
	}
}

// DropExtent discards the indexes built over extent's element array,
// whatever their spec: the call an extent cache makes for every extent
// it lets go of. Anything but a collection, and a collection too small
// to have had its indexes cached, is ignored.
func (c *JoinIndexCache) DropExtent(extent Value) {
	if extent.Kind != KindBag || extent.n < joinIndexCacheMin {
		return
	}
	data := &extent.Items()[0]
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, en := range c.entries {
		if k.data == data {
			delete(c.entries, k)
			c.bytes -= en.cost
			c.dropped++
		}
	}
}

// Purge discards every cached index.
func (c *JoinIndexCache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = nil
	c.bytes = 0
	c.purges++
}

// Len returns the number of cached indexes.
func (c *JoinIndexCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the summed cost of cached indexes.
func (c *JoinIndexCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats snapshots the cache in the shape of the other cache layers: a
// hit is an evaluation that found its index built and a miss one that
// built it, an invalidation an index that went with its extent
// (DropExtent), an eviction one dropped for the entry cap or the byte
// budget, an oversize one never cached because it alone exceeded the
// budget.
func (c *JoinIndexCache) Stats() cache.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cache.Stats{
		Len:           len(c.entries),
		Capacity:      c.max,
		Bytes:         c.bytes,
		MaxBytes:      c.maxBytes,
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evicted,
		Invalidations: c.dropped,
		Oversize:      c.oversize,
		Purges:        c.purges,
	}
}
