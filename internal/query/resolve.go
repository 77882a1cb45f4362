package query

import (
	"hash/maphash"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
)

// refKind says what a scheme reference turned out to name.
type refKind int

const (
	refUnknown   refKind = iota // no source schema or definition knows the reference
	refScoped                   // an object of the enclosing derivation's own source
	refVirtual                  // a virtual object, answered by unfolding its derivations
	refGlobal                   // a source object found in exactly one registered source
	refAmbiguous                // found in several sources; evaluation refuses to pick
)

// resolution is the one answer to "what does this reference mean from
// inside this scope": every consumer asks resolve and switches on kind,
// so none can disagree about which source object a name reaches.
type resolution struct {
	kind   refKind
	key    string       // the reference's own scheme key (unset for refScoped)
	src    source       // refScoped, refGlobal
	epoch  uint64       // refScoped, refGlobal: src's epoch in the table resolved against
	sc     hdm.Scheme   // refScoped, refGlobal: the source object's full scheme
	derivs []Derivation // refVirtual
	fp     Fingerprint  // refVirtual, resolved against an addresses table
	names  []string     // refGlobal, refAmbiguous: the sources the reference resolves in
}

// appendDeps appends the dependency keys the resolution implies: the
// source object's key, preceded for a global hit by the reference's own
// key (a derivation later registered under it turns the reference
// virtual), or a virtual object's own key.
func (r resolution) appendDeps(log []string) []string {
	switch r.kind {
	case refScoped:
		return append(log, r.sc.Key())
	case refVirtual:
		return append(log, r.key)
	case refGlobal:
		return append(log, r.key, r.sc.Key())
	}
	return log
}

// resolve resolves a reference in the paper's order: the current
// scope's source schema first (the per-pathway query context), then
// virtual objects by exact scheme key, then every registered source,
// where one hit is authoritative and several are ambiguous. It resolves
// against the current table of addresses (addresses.resolve).
func (p *Processor) resolve(scope string, parts []string) resolution {
	return p.addresses().resolve(scope, parts)
}

// find resolves a reference against the table into r, and returns the
// version a virtual object resolves to: its resolution carries no
// fingerprint (resolve adds it), a source object's the epoch the table
// read.
func (t *addresses) find(r *resolution, scope string, parts []string) *defVersion {
	if scope != "" {
		for i := range t.srcs {
			if t.srcs[i].name != scope {
				continue
			}
			if obj, err := t.srcs[i].schema.Resolve(parts); err == nil {
				r.kind, r.src, r.epoch, r.sc = refScoped, t.srcs[i], t.epochs[i], obj.Scheme
				return nil
			}
			break
		}
	}
	// The key is built on the stack: a virtual object's is the one its
	// versions are kept under, so only a source object's is copied.
	var buf [128]byte
	key := buf[:0]
	for i, part := range parts {
		if i > 0 {
			key = append(key, '|')
		}
		key = append(key, part...)
	}
	if v := lookup(t, maphash.Bytes(seeds[0], key), key); v != nil {
		r.kind, r.key, r.derivs = refVirtual, v.key, v.derivs
		return v
	}
	r.key = string(key)
	for i := range t.srcs {
		obj, err := t.srcs[i].schema.Resolve(parts)
		if err != nil {
			continue
		}
		if r.names = append(r.names, t.srcs[i].name); len(r.names) > 1 {
			r.kind = refAmbiguous
			continue
		}
		r.kind, r.src, r.epoch, r.sc = refGlobal, t.srcs[i], t.epochs[i], obj.Scheme
	}
	return nil
}

// maxRenameHops bounds the rename chase in chase; longer (or cyclic)
// chains take the materialised path, whose recursion cut owns cycles.
const maxRenameHops = 8

// bareRename reports the reference a virtual object aliases: its sole
// derivation is a full-extent bare scheme reference — the shape
// federation's include and rename transforms produce.
func bareRename(derivs []Derivation) (*iql.SchemeRef, bool) {
	if len(derivs) != 1 || derivs[0].Lower {
		return nil, false
	}
	ref, ok := derivs[0].Query.(*iql.SchemeRef)
	return ref, ok
}

// chase resolves a reference down to the one source object a stream
// position would scan, following bare renames that are not memoised so
// federated names stream like the objects they alias. Anything else
// reports ok=false and is left to the materialised path, which owns
// unfolding, memo replay and error reporting. log comes back extended
// with the dependency keys that path would record for the same chain.
func (p *Processor) chase(t *addresses, scope string, parts []string, log []string) (r resolution, deps []string, ok bool) {
	for hop := 0; hop <= maxRenameHops; hop++ {
		r = t.resolve(scope, parts)
		log = r.appendDeps(log)
		if r.kind == refScoped || r.kind == refGlobal {
			return r, log, true
		}
		ref, bare := bareRename(r.derivs)
		if !bare || p.st.memo.Peek(r.fp) {
			break
		}
		parts, scope = ref.Parts, r.derivs[0].Scope
	}
	return r, log, false
}
