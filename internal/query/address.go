package query

import (
	"encoding/binary"
	"hash/maphash"
	"slices"

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

// addresses is one state of the processor: its registrations (gen) —
// the sources, and the virtual objects, each with its fingerprint — and
// its sources' epochs, as read when the table was built. An evaluation
// resolves against the table it took, which never changes.
type addresses struct {
	gen    uint64
	srcs   []source
	epochs []uint64
	defs   map[string]virtualObject
}

// addresses returns the current table, rebuilt when a registration or
// one of the processor's sources' epochs has moved since the last. A
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
	t = p.fingerprintLocked()
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

// resolve is Processor.resolve against the table.
func (t *addresses) resolve(scope string, parts []string) resolution {
	return resolveIn(t.srcs, t.defs, scope, parts)
}

// derivSum is what a derivation contributes to a fingerprint by itself:
// a digest of its fields, and its distinct scheme references.
type derivSum struct {
	fields Fingerprint
	refs   [][]string
}

func sumOf(d Derivation) derivSum {
	b := appendString(appendString(appendString(nil, d.Query.String()), d.Scope), d.Via)
	if d.Lower {
		b = append(b, 1)
	}
	return derivSum{fields: fingerprint(b), refs: iql.UniqueSchemeRefs(d.Query)}
}

// fingerprintLocked builds the table of the current state; p.mu is held.
func (p *Processor) fingerprintLocked() *addresses {
	t := &addresses{gen: p.gen.Load(), srcs: p.sources[:len(p.sources):len(p.sources)], defs: make(map[string]virtualObject, len(p.defs))}
	for _, s := range t.srcs {
		s.inst.Settle()
		t.epochs = append(t.epochs, s.inst.Epoch())
	}
	// Each object's own digest, and the virtual objects it names.
	own := make(map[string]Fingerprint, len(p.defs))
	names := make(map[string][]string, len(p.defs))
	var b []byte
	for k, vo := range p.defs {
		b = appendString(b[:0], k)
		for i, d := range vo.derivs {
			b = append(b, vo.sums[i].fields[:]...)
			for _, ref := range vo.sums[i].refs {
				r := resolveIn(t.srcs, p.defs, d.Scope, ref)
				if b = appendTarget(b, r); r.kind == refVirtual {
					names[k] = append(names[k], r.key)
				}
			}
		}
		own[k] = fingerprint(b)
	}
	var reach []string
	for k, vo := range p.defs {
		reach = append(reach[:0], k)
		for i := 0; i < len(reach); i++ {
			for _, n := range names[reach[i]] {
				if !slices.Contains(reach, n) {
					reach = append(reach, n)
				}
			}
		}
		slices.Sort(reach[1:])
		b = b[:0]
		for _, o := range reach {
			fp := own[o]
			b = append(b, fp[:]...)
		}
		vo.fp = fingerprint(b)
		t.defs[k] = vo
	}
	return t
}

// appendTarget appends what r names: a source object's address, and the
// name its warnings give the source; a virtual object, and its
// fingerprint if r was resolved against a table; or the sources an
// ambiguous reference is found in.
func appendTarget(b []byte, r resolution) []byte {
	b = append(b, byte(r.kind))
	switch r.kind {
	case refScoped, refGlobal:
		b = binary.LittleEndian.AppendUint64(b, r.src.id)
		b = binary.LittleEndian.AppendUint64(b, r.src.inst.Epoch())
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
