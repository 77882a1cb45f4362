package iql

import (
	"math"
	"unsafe"
)

// Structural hashing for IQL values. Hash is the constant-factor
// engine behind the value runtime: Distinct, bag equality, and the
// comprehension hash-join index all bucket values by their 64-bit
// structural hash and confirm candidates with Equal, instead of
// building canonical key strings per value (the old Key()-based hot
// path, which allocated on every probe).
//
// The invariant is the usual one: v.Equal(w) implies
// v.Hash() == w.Hash(). Equality of numbers is cross-kind (an integral
// float equals the same-valued int), so all numbers hash through their
// float64 image; bags compare as multisets, so bag element hashes are
// combined with a commutative fold.

// hashSeed is the fixed FNV-64a offset basis. Hashing is deliberately
// deterministic across processes: hashes never leave the process, but
// determinism keeps test failures reproducible.
const hashSeed uint64 = 14695981039346656037

// hashPrime is the FNV-64 prime, used for the string byte fold.
const hashPrime uint64 = 1099511628211

// Per-kind tag words, fed into the fold so that values of different
// structure (e.g. Void vs the empty bag, 1 vs "1") land in different
// hash families.
const (
	hashTagNull uint64 = 0x9e3779b97f4a7c15 + iota
	hashTagBool
	hashTagNum
	hashTagString
	hashTagTuple
	hashTagBag
	hashTagVoid
	hashTagAny
)

// hashMix finalises a word with the SplitMix64 mixer; it is the
// avalanche step between structural folds.
func hashMix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// hashWord folds one word into a running hash.
func hashWord(h, x uint64) uint64 { return hashMix(h ^ x) }

// Hash returns a 64-bit structural hash of the value, consistent with
// Equal: equal values (bags as multisets, integral floats equal to
// same-valued ints) hash identically. It allocates nothing.
func (v Value) Hash() uint64 { return v.hash(hashSeed) }

func (v Value) hash(h uint64) uint64 {
	switch v.Kind {
	case KindNull:
		return hashWord(h, hashTagNull)
	case KindBool:
		return hashWord(hashWord(h, hashTagBool), v.word)
	case KindInt, KindFloat:
		// All numbers hash through their float64 image because an int
		// Equals the float of exactly its value. Ints beyond 2^53
		// collide with their float neighbours, which Equal then
		// resolves; -0.0 is normalised to 0.0 so it matches Int(0).
		f := v.AsFloat()
		if f == 0 {
			f = 0
		}
		return hashWord(hashWord(h, hashTagNum), math.Float64bits(f))
	case KindString:
		h = hashWord(h, hashTagString)
		s := v.S()
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * hashPrime
		}
		return hashWord(h, uint64(len(s)))
	case KindTuple:
		h = hashWord(h, hashTagTuple)
		items := v.Items()
		for _, it := range items {
			h = it.hash(h)
		}
		return hashWord(h, uint64(len(items)))
	case KindBag:
		// Order-insensitive: each element is hashed from the fixed seed
		// and the (already mixed) element hashes are summed, so any
		// permutation of the same multiset folds to the same word.
		var sum uint64
		items := v.Items()
		for _, it := range items {
			sum += it.hash(hashSeed)
		}
		h = hashWord(h, hashTagBag)
		h = hashWord(h, uint64(len(items)))
		return hashWord(h, sum)
	case KindVoid:
		return hashWord(h, hashTagVoid)
	case KindAny:
		return hashWord(h, hashTagAny)
	}
	return hashWord(h, uint64(v.Kind))
}

// ValueSet is a set of IQL values bucketed by structural hash and
// confirmed by Equal. It replaces the map[string]bool-of-canonical-keys
// idiom: membership tests allocate nothing, and the entries live in one
// flat slice chained through a scalar-valued map, so a set of n values
// costs O(1) allocations instead of O(n) bucket slices for the garbage
// collector to trace. The zero ValueSet is not ready to use; call
// NewValueSet. Not safe for concurrent use.
type ValueSet struct {
	slots   map[uint64]int32
	entries []setEntry
}

// setEntry is one distinct value; next chains entries whose hashes
// collide (-1 ends the chain).
type setEntry struct {
	val  Value
	next int32
}

// NewValueSet returns an empty set sized for about sizeHint elements.
func NewValueSet(sizeHint int) *ValueSet {
	if sizeHint < 0 {
		sizeHint = 0
	}
	return &ValueSet{
		slots:   make(map[uint64]int32, sizeHint),
		entries: make([]setEntry, 0, sizeHint),
	}
}

// Add inserts v and reports whether it was absent (true = newly added).
func (s *ValueSet) Add(v Value) bool {
	h := v.Hash()
	head, ok := s.slots[h]
	if ok {
		for i := head; i >= 0; i = s.entries[i].next {
			if s.entries[i].val.Equal(v) {
				return false
			}
		}
	} else {
		head = -1
	}
	s.entries = append(s.entries, setEntry{val: v, next: head})
	s.slots[h] = int32(len(s.entries) - 1)
	return true
}

// Contains reports whether an Equal value is in the set.
func (s *ValueSet) Contains(v Value) bool {
	head, ok := s.slots[v.Hash()]
	if !ok {
		return false
	}
	for i := head; i >= 0; i = s.entries[i].next {
		if s.entries[i].val.Equal(v) {
			return true
		}
	}
	return false
}

// Len returns the number of distinct values in the set.
func (s *ValueSet) Len() int { return len(s.entries) }

// JoinIndex is the hash-join index of the comprehension evaluator: the
// rows of one extent filed under a key made of one or more of their
// components. It holds no key and no row. A slot of an open-addressed
// table (linear probing, at most half full) carries the upper half of a
// key's hash and the first row that has the key; next chains the rows
// that share it, in extent order. A key is read from the row it belongs
// to, and a composite key is hashed and compared component by component,
// so no tuple is built for it on either side. Value.hash and Value.Equal
// are the only definition of key equality. An index is immutable once
// built: evaluations share one through the JoinIndexCache.
type JoinIndex struct {
	els   []Value
	slots []joinSlot
	// comps and next are one array: the key's component positions
	// (wholeElement is the row itself), then for every row the row after
	// it in its chain, -1 at the end.
	comps, next []int32
}

// joinSlot is one distinct key: head is its first row plus one, so that
// the zero slot is an empty one.
type joinSlot struct {
	tag  uint32
	head int32
}

// NewJoinIndex indexes els on the components at the positions comps, -1
// standing for the row itself. A row whose shape has no such component
// is filed nowhere (the generator's pattern would not bind it either).
// Rows are filed last to first, each at the head of its chain, which is
// what puts a chain in extent order. Three allocations, whatever the row
// count or the arity.
func NewJoinIndex(els []Value, comps []int) *JoinIndex {
	size := 2
	for size < 2*len(els) {
		size <<= 1
	}
	links := make([]int32, len(comps)+len(els))
	for n, c := range comps {
		links[n] = int32(c)
	}
	ix := &JoinIndex{els: els, slots: make([]joinSlot, size), comps: links[:len(comps):len(comps)], next: links[len(comps):]}
	mask := uint64(size - 1)
rows:
	for r := len(els) - 1; r >= 0; r-- {
		el := els[r]
		h := hashSeed
		for _, c := range ix.comps {
			k := el
			if c != wholeElement {
				if el.Kind != KindTuple || int(c) >= el.n {
					continue rows
				}
				k = el.Items()[c]
			}
			h = k.hash(h)
		}
		tag, i := uint32(h>>32), h&mask
		for s := ix.slots[i]; s.head != 0 && (s.tag != tag || !ix.sameKey(els[s.head-1], el)); s = ix.slots[i] {
			i = (i + 1) & mask
		}
		// The slot of el's key, or an empty one: el goes before the rows
		// filed there so far.
		ix.next[r] = ix.slots[i].head - 1
		ix.slots[i] = joinSlot{tag: tag, head: int32(r) + 1}
	}
	return ix
}

// component returns key component c of a filed row.
func component(el Value, c int32) Value {
	if c == wholeElement {
		return el
	}
	return el.Items()[c]
}

// sameKey reports whether two filed rows have Equal keys.
func (ix *JoinIndex) sameKey(a, b Value) bool {
	for _, c := range ix.comps {
		if !component(a, c).Equal(component(b, c)) {
			return false
		}
	}
	return true
}

// Probe returns the first row (an index into the extent) whose key
// components Equal key's, one value per component, or -1 when no row
// has; Next continues from there. key is only read.
func (ix *JoinIndex) Probe(key []Value) int32 {
	h := hashSeed
	for _, k := range key {
		h = k.hash(h)
	}
	tag := uint32(h >> 32)
	mask := uint64(len(ix.slots) - 1)
slots:
	for i := h & mask; ; i = (i + 1) & mask {
		s := ix.slots[i]
		if s.head == 0 {
			return -1
		}
		if s.tag != tag {
			continue
		}
		el := ix.els[s.head-1]
		for n, c := range ix.comps {
			if !component(el, c).Equal(key[n]) {
				continue slots
			}
		}
		return s.head - 1
	}
}

// Next returns the row after r in its chain, -1 after the last.
func (ix *JoinIndex) Next(r int32) int32 { return ix.next[r] }

// Footprint is the heap the index itself holds — the slots and the
// chain links — not the rows it points into.
func (ix *JoinIndex) Footprint() int64 {
	return int64(unsafe.Sizeof(*ix)) +
		int64(cap(ix.slots))*int64(unsafe.Sizeof(joinSlot{})) + int64(len(ix.comps)+cap(ix.next))*4
}

// bagEqual reports multiset equality of two bags' element slices: every
// element of a must occur in b with the same multiplicity. It buckets
// a's elements by hash with counts, then consumes the counts with b's
// elements — no canonical strings, no sorting.
func bagEqual(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return true
	}
	type slot struct {
		val   Value
		count int
	}
	buckets := make(map[uint64][]slot, len(a))
	for _, v := range a {
		h := v.Hash()
		bucket := buckets[h]
		found := false
		for i := range bucket {
			if bucket[i].val.Equal(v) {
				bucket[i].count++
				found = true
				break
			}
		}
		if !found {
			buckets[h] = append(bucket, slot{val: v, count: 1})
		}
	}
	for _, v := range b {
		h := v.Hash()
		bucket := buckets[h]
		found := false
		for i := range bucket {
			if bucket[i].val.Equal(v) {
				if bucket[i].count == 0 {
					return false
				}
				bucket[i].count--
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
