package iql

import (
	"sync"
	"sync/atomic"
	"unsafe"

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
// The cache keeps join runs' records too (see joinrun.go), keyed by the
// run and its first member's element array, and holding the arrays of
// the other members the recorded walk reached. A run's entry leaves with
// any of those extents (whatever its size), counts against the entry
// cap, and is charged its record's bytes against the byte budget: the
// arrays it keeps alive are the extent caches' own, and an entry that
// only remembers which arrays a walk went over — before there is a
// record — is charged nothing.
//
// The cache is safe for concurrent use; concurrent builders of the same
// index, or recorders of the same run, race benignly (last insert wins,
// both are correct).
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
	runs     map[runKey]runEntry

	hits, misses, evicted, dropped, oversize, purges uint64
	// replays counts join runs evaluated from their records.
	replays atomic.Uint64
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

// extentID is an element array's identity: its first element's
// address, which keeps the array alive, and its length. Every empty
// array is the zero extentID.
type extentID struct {
	data *Value
	n    int
}

func idOf(els []Value) extentID {
	if len(els) == 0 {
		return extentID{}
	}
	return extentID{&els[0], len(els)}
}

// runKey identifies a join run's entry: the run and its first member's
// elements.
type runKey struct {
	run   *joinRun
	first extentID
}

// runEntry is a join run's entry: the arrays of the members the last
// walk reached, the first member's first, and its record — nil when it
// was not recorded, and never to be when unrecordable (the record
// outgrew maxRunRecord or the byte budget).
type runEntry struct {
	members      []extentID
	rec          *runRecord
	unrecordable bool
	cost         int64
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

// getRun returns the entry of join run rp whose first member's elements
// are els.
func (c *JoinIndexCache) getRun(rp *joinRun, els []Value) (runEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	en, ok := c.runs[runKey{rp, idOf(els)}]
	return en, ok
}

// putRun leaves join run rp's entry for a walk that reached the arrays
// members, with its record when it was recorded.
func (c *JoinIndexCache) putRun(rp *joinRun, members []extentID, rec *runRecord, unrecordable bool) {
	en := runEntry{members: members, rec: rec, unrecordable: unrecordable}
	if rec != nil {
		en.cost = rec.footprint() + int64(cap(members))*int64(unsafe.Sizeof(extentID{}))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.maxBytes > 0 && en.cost > c.maxBytes {
		c.oversize++
		en = runEntry{members: members, unrecordable: true}
	}
	if c.runs == nil {
		c.runs = make(map[runKey]runEntry)
	}
	key := runKey{rp, members[0]}
	if old, ok := c.runs[key]; ok {
		c.bytes -= old.cost
	}
	c.runs[key] = en
	c.bytes += en.cost
	c.evictLocked()
}

// evictLocked drops arbitrary entries until the cache respects its
// entry cap and byte budget: first the runs that have no record — an
// evaluation of a plan that is parsed afresh every time leaves one that
// nothing will find — then indexes, then records. Deleting while ranging
// is safe, and the arbitrary iteration order supplies the victims.
func (c *JoinIndexCache) evictLocked() {
	over := func() bool {
		return len(c.entries)+len(c.runs) > c.max || (c.maxBytes > 0 && c.bytes > c.maxBytes)
	}
	for k, en := range c.runs {
		if len(c.entries)+len(c.runs) <= c.max {
			break // what is left over is bytes, which a run without a record has none of
		}
		if en.rec == nil {
			delete(c.runs, k)
			c.evicted++
		}
	}
	for k, en := range c.entries {
		if !over() {
			return
		}
		delete(c.entries, k)
		c.bytes -= en.cost
		c.evicted++
	}
	for k, en := range c.runs {
		if !over() {
			return
		}
		delete(c.runs, k)
		c.bytes -= en.cost
		c.evicted++
	}
}

// DropExtent discards the indexes built over extent's element array,
// whatever their spec, and the join runs with a member over it: the call
// an extent cache makes for every extent it lets go of. Anything but a
// non-empty collection is ignored.
func (c *JoinIndexCache) DropExtent(extent Value) {
	if extent.Kind != KindBag || extent.n == 0 {
		return
	}
	data := &extent.Items()[0]
	c.mu.Lock()
	defer c.mu.Unlock()
	if extent.n >= joinIndexCacheMin {
		for k, en := range c.entries {
			if k.data == data {
				delete(c.entries, k)
				c.bytes -= en.cost
				c.dropped++
			}
		}
	}
	for k, en := range c.runs {
		for _, m := range en.members {
			if m.data == data {
				delete(c.runs, k)
				c.bytes -= en.cost
				c.dropped++
				break
			}
		}
	}
}

// Purge discards every cached index and join run.
func (c *JoinIndexCache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries, c.runs = nil, nil
	c.bytes = 0
	c.purges++
}

// Len returns the number of cached indexes and join runs.
func (c *JoinIndexCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries) + len(c.runs)
}

// Bytes returns the summed cost of cached indexes.
func (c *JoinIndexCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats snapshots the cache in the shape of the other cache layers: a
// hit is an evaluation that found its index built and a miss one that
// built it, a replay a join run evaluated from its record (which looks
// up no index), an invalidation an index or a run that went with its
// extent (DropExtent), an eviction one dropped for the entry cap or the
// byte budget, an oversize one never cached — or a run never recorded —
// because it alone exceeded the budget.
func (c *JoinIndexCache) Stats() cache.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cache.Stats{
		Len:           len(c.entries) + len(c.runs),
		Capacity:      c.max,
		Bytes:         c.bytes,
		MaxBytes:      c.maxBytes,
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evicted,
		Invalidations: c.dropped,
		Oversize:      c.oversize,
		Purges:        c.purges,
		Replays:       c.replays.Load(),
	}
}
