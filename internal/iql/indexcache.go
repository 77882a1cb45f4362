package iql

import (
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
// The cache keeps join runs' entries too (see joinrun.go), keyed by the
// run and its first member's element array, and holding the arrays of
// the other members the recorded walk reached. A run's entry is charged
// its record's bytes: the arrays it keeps alive are the extent caches'
// own, and an entry that only remembers which arrays a walk went over —
// before there is a record — is charged nothing, so the entry cap is
// what bounds those.
//
// Indexes and runs are entries of one cache.Map, with one entry cap and
// one byte budget (SetMaxBytes), evicted least recently used first. Each
// entry is tagged with the first element's address of every array it
// was built over, and an entry lives as long as those extents: whoever
// caches extents tells the cache when it lets one go (DropExtent), and
// the entries tagged with that array go with it, so a retired extent
// version is not pinned by its indexes and an index over a surviving
// extent is the same *JoinIndex before and after an unrelated
// invalidation. An index over an array nobody caches — an intermediate
// bag, an extent a racing evaluation memoised second — is never hit
// again and is pushed out by the entry cap or the byte budget.
//
// The cache is safe for concurrent use; concurrent builders of the same
// index, or recorders of the same run, race benignly (last insert wins,
// both are correct).
type JoinIndexCache struct {
	entries *cache.Map[joinKey, *Value, joinEntry]
	// hits and misses count index lookups (a run's lookup is neither);
	// replays counts join runs evaluated from their records.
	hits, misses, replays atomic.Uint64
}

// joinKey identifies an entry: an index by the array it was built over
// and its join-key spec, a join run's by the run and its first member's
// array.
type joinKey struct {
	id   extentID
	spec string
	run  *joinRun
}

// joinEntry is an index, or a join run's entry: the arrays of the
// members the last walk reached, the first member's first, and its
// record — nil when it was not recorded, and never to be when
// unrecordable (the record outgrew maxRunRecord or the byte budget).
type joinEntry struct {
	idx          *JoinIndex
	members      []extentID
	rec          *runRecord
	unrecordable bool
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

// defaultJoinIndexCap bounds a cache to roughly this many entries; an
// index retains its rows, so the cap also bounds retained extents.
const defaultJoinIndexCap = 128

// NewJoinIndexCache returns a cache holding at most max indexes and
// join runs (<= 0 uses a default cap).
func NewJoinIndexCache(max int) *JoinIndexCache {
	if max <= 0 {
		max = defaultJoinIndexCap
	}
	return &JoinIndexCache{entries: cache.NewMap[joinKey, *Value, joinEntry](cache.Options{MaxEntries: max})}
}

// SetMaxBytes bounds the summed cost of cached indexes (an index's
// cost is its own footprint plus that of the rows it retains) and run
// records, evicting entries while over budget; budget <= 0 removes the
// bound.
func (c *JoinIndexCache) SetMaxBytes(budget int64) { c.entries.SetMaxBytes(budget) }

// index returns the cached index over els on the join-key spec.
func (c *JoinIndexCache) index(els []Value, spec string) (*JoinIndex, bool) {
	en, ok := c.entries.Get(joinKey{id: idOf(els), spec: spec})
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return en.idx, ok
}

// putIndex caches an index built over the non-empty els on the join-key
// spec, with its byte cost. An index whose cost alone exceeds the byte
// budget is not cached.
func (c *JoinIndexCache) putIndex(els []Value, spec string, idx *JoinIndex, cost int64) {
	c.entries.Put(joinKey{id: idOf(els), spec: spec}, joinEntry{idx: idx}, cost, []*Value{&els[0]})
}

// run returns the entry of join run rp whose first member's elements
// are els.
func (c *JoinIndexCache) run(rp *joinRun, els []Value) (joinEntry, bool) {
	return c.entries.Get(joinKey{id: idOf(els), run: rp})
}

// putRun leaves join run rp's entry for a walk that reached the arrays
// members, with its record when it was recorded. A record whose cost
// alone exceeds the byte budget leaves the run unrecordable instead.
func (c *JoinIndexCache) putRun(rp *joinRun, members []extentID, rec *runRecord, unrecordable bool) {
	key := joinKey{id: members[0], run: rp}
	deps := make([]*Value, 0, len(members))
	for _, m := range members {
		if m.data != nil {
			deps = append(deps, m.data)
		}
	}
	var cost int64
	if rec != nil {
		cost = rec.footprint() + int64(cap(members))*int64(unsafe.Sizeof(extentID{}))
	}
	if !c.entries.Put(key, joinEntry{members: members, rec: rec, unrecordable: unrecordable}, cost, deps) {
		c.entries.Put(key, joinEntry{members: members, unrecordable: true}, 0, deps)
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
	c.entries.InvalidateDeps(&extent.Items()[0])
}

// Purge discards every cached index and join run.
func (c *JoinIndexCache) Purge() { c.entries.Purge() }

// Stats snapshots the cache in the shape of the other cache layers: a
// hit is an evaluation that found its index built and a miss one that
// built it, a replay a join run evaluated from its record (which looks
// up no index), an invalidation an index or a run that went with its
// extent (DropExtent), an eviction one dropped for the entry cap or the
// byte budget, an oversize one never cached — or a run never recorded —
// because it alone exceeded the budget.
func (c *JoinIndexCache) Stats() cache.Stats {
	st := c.entries.Stats()
	st.Hits, st.Misses, st.Replays = c.hits.Load(), c.misses.Load(), c.replays.Load()
	return st
}
