package query

import (
	"encoding/binary"
	"hash/maphash"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/dataspace/automed/internal/iql"
)

// Addresses. A cached extent or answer is keyed by a fingerprint of
// what derives it, so it cannot go stale: a change gives whatever it
// touched a new address, and the old entry is unreachable until the LRU
// lets it go. No fill needs guarding against a change that overlapped
// it: the fill lands under the address its evaluation started at, which
// the change retired, and epochs never recur.
//
// A source object's address is its source instance's identity and
// epoch and its scheme key. A virtual object's is a 128-bit digest of
// every object it reaches, itself first: each one's key, every field of
// every derivation, and what each reference of a derivation resolves to
// from its scope — unknown and ambiguous included, so a later
// definition of the name changes it — a source object by its address.
// Objects on an id cycle reach each other, so each covers the cycle.
//
// What a step or a query pays follows what changed, not the session
// before it. A registration (DefineAll) publishes a new version of each
// key its batch names, stamped with the registration's generation, and
// leaves every other key as it was: it costs its batch, and digests
// nothing. A table is a generation, the sources' epochs, and the index
// of versions as it stood: taking one costs the sources. Every digest
// is computed when a query first reaches the object: a derivation's
// own (derivSum), once, kept in a cell that every later version of the
// key shares (lazySum); a version's under a table, once per table, kept
// on the version (tableSums), where the next lookup under the same
// table finds them without a lock.

// Fingerprint is a 128-bit digest of what a cached value derives from:
// two 64-bit hashes under independent seeds drawn when the process
// starts. An address never leaves the process.
type Fingerprint [16]byte

var seeds = [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()}

func fingerprint(b []byte) (fp Fingerprint) {
	binary.LittleEndian.PutUint64(fp[:8], maphash.Bytes(seeds[0], b))
	binary.LittleEndian.PutUint64(fp[8:], maphash.Bytes(seeds[1], b))
	return fp
}

// extentAddr is a source object's address.
type extentAddr struct {
	id, epoch uint64
	key       string
}

// addr is the source object key's address at the current epoch.
func (s source) addr(key string) extentAddr { return extentAddr{s.id, s.inst.Epoch(), key} }

// object names the source object key whatever its epoch.
func (s source) object(key string) extentAddr { return extentAddr{id: s.id, key: key} }

// defVersion is a virtual object's definition as one registration left
// it: its derivations in registration order, the cells that hold what
// each contributes to its fingerprint on its own, the registration
// generation that made it, and the version it replaced. The scheme key
// is the string a resolution carries, so resolving a reference to it
// allocates none. Nothing of a version changes once its generation is
// published but what its cells and memo hold: the derivations' digests,
// and its digests under the last table that computed them.
type defVersion struct {
	key    string
	gen    uint64
	derivs []Derivation
	sums   []*lazySum
	prev   *defVersion
	memo   atomic.Pointer[tableSums]
}

// lazySum holds one derivation's derivSum once a table has needed it.
// Its version and every later version of the key share the cell, as
// they share the derivation.
type lazySum struct{ p atomic.Pointer[derivSum] }

// of returns the digest of d, the derivation the cell is for, computing
// it the first time. Goroutines that compute it at once compute the
// same, and all of them return the one stored first.
func (c *lazySum) of(d Derivation) *derivSum {
	if s := c.p.Load(); s != nil {
		return s
	}
	s := sumOf(d)
	if c.p.CompareAndSwap(nil, &s) {
		return &s
	}
	return c.p.Load()
}

// tableSums are a version's digests under one table: its own digest
// (its key, its derivations, and what their references resolve to),
// the versions those references name, and — once a query has reached
// it — its fingerprint.
type tableSums struct {
	table uint64
	own   Fingerprint
	names []*defVersion
	// fp holds the fingerprint's halves once set says so. Whoever
	// computes it stores the same words, so the words are written
	// atomically rather than by one owner.
	fp  [2]atomic.Uint64
	set atomic.Bool
}

// defSlot holds one scheme key's latest version.
type defSlot struct {
	key  string
	head atomic.Pointer[defVersion]
}

// defIndex finds a key's slot without a lock: an open-addressed table
// whose slots are published atomically and never move or leave. It is
// written under Processor.mu only; a write that would fill it past half
// builds a larger index over the same slots, which the processor takes
// in its place, while a table that holds the old one still finds every
// key its generation knows.
type defIndex struct {
	slots []atomic.Pointer[defSlot]
	n     int
}

func newDefIndex(size int) *defIndex {
	return &defIndex{slots: make([]atomic.Pointer[defSlot], size)}
}

// probe returns key's slot, or nil and the empty slot it would take.
func probe[K string | []byte](ix *defIndex, h uint64, key K) (*defSlot, uint64) {
	mask := uint64(len(ix.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if s := ix.slots[i].Load(); s == nil || s.key == string(key) {
			return s, i
		}
	}
}

// slot returns key's slot, adding one when it has none; it returns the
// index the slot is in, which is ix or a larger one.
func (ix *defIndex) slot(key string) (*defSlot, *defIndex) {
	h := maphash.String(seeds[0], key)
	s, i := probe(ix, h, key)
	if s != nil {
		return s, ix
	}
	if 2*(ix.n+1) > len(ix.slots) {
		grown := newDefIndex(2 * len(ix.slots))
		for j := range ix.slots {
			if old := ix.slots[j].Load(); old != nil {
				_, k := probe(grown, maphash.String(seeds[0], old.key), old.key)
				grown.slots[k].Store(old)
			}
		}
		grown.n = ix.n
		ix = grown
		_, i = probe(ix, h, key)
	}
	s = &defSlot{key: key}
	ix.slots[i].Store(s)
	ix.n++
	return s, ix
}

// latest returns key's latest version, or nil when it has none.
func (ix *defIndex) latest(key string) *defVersion {
	if s, _ := probe(ix, maphash.String(seeds[0], key), key); s != nil {
		return s.head.Load()
	}
	return nil
}

// addresses is one state of the processor: its registrations (gen) —
// the sources, and the virtual objects as of gen — and its sources'
// epochs, as read when the table was taken. An evaluation resolves
// against the table it took, which never changes: a later registration
// publishes versions of a later generation, which the table passes
// over, and digests are kept per table.
type addresses struct {
	serial uint64
	gen    uint64
	srcs   []source
	epochs []uint64
	defs   *defIndex
	// computed lists the fingerprints this table has given, so retire
	// looks at those and no others.
	mu       sync.Mutex
	computed []givenFP
}

// givenFP is a fingerprint a table gave a key.
type givenFP struct {
	key string
	fp  Fingerprint
}

// tables numbers every table taken, so a version's digests name the
// table they were computed under.
var tables atomic.Uint64

// addresses returns the current table, taken afresh when a registration
// or one of the processor's sources' epochs has moved since the last. A
// source due a fresh epoch after its recovery takes it here, between
// evaluations.
func (p *Processor) addresses() *addresses {
	t := p.addr.Load()
	if t != nil {
		for _, s := range t.srcs {
			s.inst.Settle()
		}
		if t.current(p.gen.Load()) {
			return t
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if t = p.addr.Load(); t != nil && t.current(p.gen.Load()) {
		return t
	}
	t = &addresses{serial: tables.Add(1), gen: p.gen.Load(), srcs: p.sources[:len(p.sources):len(p.sources)], defs: p.defs}
	for _, s := range t.srcs {
		s.inst.Settle()
		t.epochs = append(t.epochs, s.inst.Epoch())
	}
	p.addr.Store(t)
	return t
}

// current reports whether t is the table of registration gen at its
// sources' current epochs.
func (t *addresses) current(gen uint64) bool {
	if t.gen != gen {
		return false
	}
	for i, s := range t.srcs {
		if s.inst.Epoch() != t.epochs[i] {
			return false
		}
	}
	return true
}

// lookup returns the version of the object key, whose hash is h, that
// the table's generation defines, or nil when it defines none.
func lookup[K string | []byte](t *addresses, h uint64, key K) *defVersion {
	s, _ := probe(t.defs, h, key)
	if s == nil {
		return nil
	}
	v := s.head.Load()
	for v != nil && v.gen > t.gen {
		v = v.prev
	}
	return v
}

// resolve is Processor.resolve against the table: a virtual object's
// resolution carries its fingerprint.
func (t *addresses) resolve(scope string, parts []string) (r resolution) {
	if v := t.find(&r, scope, parts); v != nil {
		r.fp = t.fingerprint(v)
	}
	return r
}

// fingerprint returns v's fingerprint under the table, computing it when
// the table has not yet.
func (t *addresses) fingerprint(v *defVersion) (fp Fingerprint) {
	m := t.sums(v)
	if m.set.Load() {
		binary.LittleEndian.PutUint64(fp[:8], m.fp[0].Load())
		binary.LittleEndian.PutUint64(fp[8:], m.fp[1].Load())
		return fp
	}
	// The objects v reaches, itself first and the rest in key order,
	// each by its own digest.
	var rbuf [32]*defVersion
	reach := append(rbuf[:0], v)
	for i := 0; i < len(reach); i++ {
		for _, n := range t.sums(reach[i]).names {
			if !slices.Contains(reach, n) {
				reach = append(reach, n)
			}
		}
	}
	slices.SortFunc(reach[1:], func(a, b *defVersion) int { return strings.Compare(a.key, b.key) })
	var buf [512]byte
	b := buf[:0]
	for _, o := range reach {
		b = append(b, t.sums(o).own[:]...)
	}
	fp = fingerprint(b)
	m.fp[0].Store(binary.LittleEndian.Uint64(fp[:8]))
	m.fp[1].Store(binary.LittleEndian.Uint64(fp[8:]))
	m.set.Store(true)
	t.mu.Lock()
	t.computed = append(t.computed, givenFP{v.key, fp})
	t.mu.Unlock()
	return fp
}

// fingerprintOf returns the fingerprint the table gives the object key,
// which it defines.
func (t *addresses) fingerprintOf(key string) Fingerprint {
	return t.fingerprint(lookup(t, maphash.String(seeds[0], key), key))
}

// sums returns v's own digest and the versions it names under the
// table, computing them when the table has not yet. A virtual reference
// adds its key (and a zero fingerprint) to the digest: what it reaches
// is in the fingerprint's other digests.
func (t *addresses) sums(v *defVersion) *tableSums {
	old := v.memo.Load()
	if old != nil && old.table == t.serial {
		return old
	}
	m := &tableSums{table: t.serial}
	var buf [512]byte
	b := appendString(buf[:0], v.key)
	for i, d := range v.derivs {
		ds := v.sums[i].of(d)
		b = append(b, ds.fields[:]...)
		for _, ref := range ds.refs {
			var r resolution
			n := t.find(&r, d.Scope, ref)
			if b = appendTarget(b, r); n != nil {
				m.names = append(m.names, n)
			}
		}
	}
	m.own = fingerprint(b)
	if !v.memo.CompareAndSwap(old, m) {
		if cur := v.memo.Load(); cur != nil && cur.table == t.serial {
			return cur // another goroutine's, which a fingerprint is kept on
		}
	}
	return m
}

// giveAll gives every object the table defines its fingerprint.
func (t *addresses) giveAll() {
	for i := range t.defs.slots {
		if s := t.defs.slots[i].Load(); s != nil {
			if v := lookup(t, maphash.String(seeds[0], s.key), s.key); v != nil {
				t.fingerprint(v)
			}
		}
	}
}

// given returns the fingerprints the table has given so far.
func (t *addresses) given() []givenFP {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.computed
}

// derivSum is what a derivation contributes to a fingerprint by itself:
// a digest of its fields, and its distinct scheme references.
type derivSum struct {
	fields Fingerprint
	refs   [][]string
}

func sumOf(d Derivation) derivSum {
	var buf [512]byte
	b := appendString(appendString(appendString(buf[:0], d.Query.String()), d.Scope), d.Via)
	if d.Lower {
		b = append(b, 1)
	}
	return derivSum{fields: fingerprint(b), refs: iql.UniqueSchemeRefs(d.Query)}
}

// appendTarget appends what r names: a source object's address, and the
// name its warnings give the source; a virtual object, and its
// fingerprint if r carries one; or the sources an ambiguous reference is
// found in.
func appendTarget(b []byte, r resolution) []byte {
	b = append(b, byte(r.kind))
	switch r.kind {
	case refScoped, refGlobal:
		b = binary.LittleEndian.AppendUint64(b, r.src.id)
		b = binary.LittleEndian.AppendUint64(b, r.epoch)
		b = appendString(appendString(b, r.src.name), r.sc.Key())
	case refVirtual:
		b = append(appendString(b, r.key), r.fp[:]...)
	case refAmbiguous:
		for _, n := range r.names {
			b = appendString(b, n)
		}
	}
	return b
}

// appendString appends s and its length, so that no two sequences of
// strings append alike.
func appendString(b []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint64(b, uint64(len(s))), s...)
}

// Address is what the answer to a query with the distinct scheme
// references refs derives from, at the top level: what each reference
// resolves to and its address. With the query's resolved text it
// addresses the answer.
func (p *Processor) Address(refs [][]string) Fingerprint {
	t := p.addresses()
	var buf [512]byte
	b := buf[:0]
	for _, parts := range refs {
		b = appendTarget(b, t.resolve("", parts))
	}
	return fingerprint(b)
}
