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
		// All numbers hash through their float64 image because Equal
		// compares int and float cross-kind via AsFloat. Ints beyond
		// 2^53 collide with their float neighbours, which Equal then
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

// indexEntry is one distinct key of a ValueIndex. The first row is
// stored inline — joins on near-unique keys (the common case) then
// build the whole index without one rows-slice allocation per key —
// and further rows spill into rest. next chains entries whose hashes
// collide (-1 ends the chain).
type indexEntry struct {
	key   Value
	first Value
	rest  []Value
	next  int32
}

// ValueIndex maps IQL values to the rows filed under them, bucketing by
// structural hash and confirming candidate keys with Equal — the
// hash-join index of the comprehension evaluator. Entries live in one
// flat slice chained through a scalar-valued map (cheap to build, cheap
// for the garbage collector to trace). Add retains key; Probe/Get only
// read it, so probe keys may live in reused scratch buffers. Not safe
// for concurrent use.
type ValueIndex struct {
	slots   map[uint64]int32
	entries []indexEntry
}

// NewValueIndex returns an empty index sized for about sizeHint rows.
func NewValueIndex(sizeHint int) *ValueIndex {
	if sizeHint < 0 {
		sizeHint = 0
	}
	return &ValueIndex{
		slots:   make(map[uint64]int32, sizeHint),
		entries: make([]indexEntry, 0, sizeHint),
	}
}

// Add files row under key. The index retains key, so it must not be
// mutated afterwards.
func (ix *ValueIndex) Add(key, row Value) {
	h := key.Hash()
	head, ok := ix.slots[h]
	if ok {
		for i := head; i >= 0; i = ix.entries[i].next {
			if ix.entries[i].key.Equal(key) {
				ix.entries[i].rest = append(ix.entries[i].rest, row)
				return
			}
		}
	} else {
		head = -1
	}
	ix.entries = append(ix.entries, indexEntry{key: key, first: row, next: head})
	ix.slots[h] = int32(len(ix.entries) - 1)
}

// Probe returns the rows filed under an Equal key without allocating:
// the first row inline and any further rows as a slice; ok reports
// whether the key is present. The key is only read, never retained.
func (ix *ValueIndex) Probe(key Value) (first Value, rest []Value, ok bool) {
	head, found := ix.slots[key.Hash()]
	if !found {
		return Value{}, nil, false
	}
	for i := head; i >= 0; i = ix.entries[i].next {
		if ix.entries[i].key.Equal(key) {
			return ix.entries[i].first, ix.entries[i].rest, true
		}
	}
	return Value{}, nil, false
}

// Get returns all rows filed under an Equal key (nil when absent). It
// allocates the combined slice; the evaluator hot path uses Probe.
func (ix *ValueIndex) Get(key Value) []Value {
	first, rest, ok := ix.Probe(key)
	if !ok {
		return nil
	}
	out := make([]Value, 0, 1+len(rest))
	out = append(out, first)
	return append(out, rest...)
}

// Len returns the number of distinct keys in the index.
func (ix *ValueIndex) Len() int { return len(ix.entries) }

// indexSlotBytes is what one row of the size hint costs in slots. Go
// 1.24's map keeps a uint64 → int32 pair in 16 bytes beside one control
// byte, in tables of a power-of-two number of slots at most 7/8 full: a
// map made for n keys holds between 8/7 n and 16/7 n slots of 17 bytes,
// 1.9 n in the middle. TestValueIndexFootprint is what flags it when the
// map's layout moves.
const indexSlotBytes = 32

// Footprint estimates the heap the index itself holds — the entry array
// and the slots, both allocated for the size hint, and the spill slices
// of keys with several rows — not the keys and rows it points into.
func (ix *ValueIndex) Footprint() int64 {
	n := int64(cap(ix.entries)) * (int64(unsafe.Sizeof(indexEntry{})) + indexSlotBytes)
	for i := range ix.entries {
		n += int64(cap(ix.entries[i].rest)) * valueOverhead
	}
	return n
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
