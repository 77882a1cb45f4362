package query

import (
	"fmt"
	"hash/maphash"
	"maps"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/wrapper"
)

// The reference: how a table was built before it filled lazily — every
// virtual object resolved, digested and reached from scratch whenever a
// registration or an epoch moved. The table is held to it: over any
// history, the fingerprint a table gives an object is the one this
// gives it.

// virtualObject is a virtual object's derivations, in registration
// order, what each contributes to its fingerprint on its own — digested
// here, eagerly, not read from the processor's cells — and its scheme
// key; in a refAddresses table it carries its fingerprint too.
type virtualObject struct {
	key    string
	derivs []Derivation
	sums   []derivSum
	fp     Fingerprint
}

// refAddresses is a table built from scratch.
type refAddresses struct {
	gen    uint64
	srcs   []source
	epochs []uint64
	defs   map[string]virtualObject
}

// resolve is Processor.resolve against the reference table.
func (t *refAddresses) resolve(scope string, parts []string) resolution {
	return resolveIn(t.srcs, t.defs, scope, parts)
}

// definitionsLocked returns the latest version of every virtual object
// as a virtualObject, without its fingerprint; p.mu is held.
func (p *Processor) definitionsLocked() map[string]virtualObject {
	defs := make(map[string]virtualObject, p.defs.n)
	for i := range p.defs.slots {
		if s := p.defs.slots[i].Load(); s != nil {
			v := s.head.Load()
			vo := virtualObject{key: v.key, derivs: v.derivs}
			for _, d := range v.derivs {
				vo.sums = append(vo.sums, sumOf(d))
			}
			defs[v.key] = vo
		}
	}
	return defs
}

// reference builds the reference table of the processor's state.
func (p *Processor) reference() *refAddresses {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fingerprintLocked()
}

// fingerprintLocked builds the table of the current state; p.mu is held.
func (p *Processor) fingerprintLocked() *refAddresses {
	pdefs := p.definitionsLocked()
	t := &refAddresses{gen: p.gen.Load(), srcs: p.sources[:len(p.sources):len(p.sources)], defs: make(map[string]virtualObject, len(pdefs))}
	for _, s := range t.srcs {
		s.inst.Settle()
		t.epochs = append(t.epochs, s.inst.Epoch())
	}
	// Each object's own digest, and the virtual objects it names.
	own := make(map[string]Fingerprint, len(pdefs))
	names := make(map[string][]string, len(pdefs))
	var b []byte
	for k, vo := range pdefs {
		b = appendString(b[:0], k)
		for i, d := range vo.derivs {
			b = append(b, vo.sums[i].fields[:]...)
			for _, ref := range vo.sums[i].refs {
				r := resolveIn(t.srcs, pdefs, d.Scope, ref)
				if b = appendTarget(b, r); r.kind == refVirtual {
					names[k] = append(names[k], r.key)
				}
			}
		}
		own[k] = fingerprint(b)
	}
	var reach []string
	for k, vo := range pdefs {
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

// resolveIn is resolve over the sources srcs and the definitions defs.
func resolveIn(srcs []source, defs map[string]virtualObject, scope string, parts []string) resolution {
	if scope != "" {
		for i := range srcs {
			if srcs[i].name != scope {
				continue
			}
			if obj, err := srcs[i].schema.Resolve(parts); err == nil {
				return resolution{kind: refScoped, src: srcs[i], epoch: srcs[i].inst.Epoch(), sc: obj.Scheme}
			}
			break
		}
	}
	var buf [128]byte
	key := buf[:0]
	for i, part := range parts {
		if i > 0 {
			key = append(key, '|')
		}
		key = append(key, part...)
	}
	if vo, virtual := defs[string(key)]; virtual {
		return resolution{kind: refVirtual, key: vo.key, derivs: vo.derivs, fp: vo.fp}
	}
	r := resolution{key: string(key)}
	for i := range srcs {
		obj, err := srcs[i].schema.Resolve(parts)
		if err != nil {
			continue
		}
		if r.names = append(r.names, srcs[i].name); len(r.names) > 1 {
			r.kind = refAmbiguous
			continue
		}
		r.kind, r.src, r.epoch, r.sc = refGlobal, srcs[i], srcs[i].inst.Epoch(), obj.Scheme
	}
	return r
}

// keys returns the keys of every virtual object the table defines.
func (t *addresses) keys() []string {
	var out []string
	for i := range t.defs.slots {
		if s := t.defs.slots[i].Load(); s != nil && lookup(t, maphash.String(seeds[0], s.key), s.key) != nil {
			out = append(out, s.key)
		}
	}
	return out
}

// instanceSource is a static source that every processor over it knows
// by one instance.
type instanceSource struct {
	*wrapper.Static
	inst wrapper.Instance
}

func (s *instanceSource) Instance() *wrapper.Instance { return &s.inst }

// history drives processors through a generated history of
// registrations and epoch moves, over three sources that share some
// object names: <<a>> is in S0 alone, <<b>> in S0 and S1, <<c>> in S2
// alone, <<s0only>> in S0 alone; <<v0>>…<<v39>> start unknown, more
// than the processor's first index of definitions holds.
type history struct {
	rng   *rand.Rand
	srcs  []Sourcer
	procs []*Processor
	names []string
}

func newHistory(t *testing.T, seed uint64, procs int) *history {
	t.Helper()
	one := iql.Bag(iql.Int(1))
	srcs := []map[string]iql.Value{
		{"<<a>>": one, "<<b>>": one, "<<s0only>>": one},
		{"<<b>>": one},
		{"<<c>>": one},
	}
	h := &history{rng: rand.New(rand.NewPCG(seed, 0)), names: []string{"a", "b", "c", "s0only"}}
	for i := range 40 {
		h.names = append(h.names, fmt.Sprint("v", i))
	}
	for i, ext := range srcs {
		h.srcs = append(h.srcs, &instanceSource{Static: staticSource(t, fmt.Sprintf("S%d", i), ext)})
	}
	for range procs {
		h.procs = append(h.procs, h.newProcessor(t))
	}
	return h
}

// newProcessor returns a processor over the history's sources, sharing
// the first processor's stores if there is one.
func (h *history) newProcessor(t *testing.T) *Processor {
	t.Helper()
	p := New()
	if len(h.procs) > 0 {
		p.UseStores(h.procs[0].st)
	}
	for _, w := range h.srcs {
		if err := p.AddSource(w); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// query returns a derivation body over one to three of the names.
func (h *history) query() iql.Expr {
	ref := func() string { return "<<" + h.names[h.rng.IntN(len(h.names))] + ">>" }
	switch h.rng.IntN(3) {
	case 0:
		return iql.MustParse(ref())
	case 1:
		return iql.MustParse("[x | x <- " + ref() + "; y <- " + ref() + "; x = y]")
	}
	return iql.MustParse(ref() + " ++ " + ref() + " ++ " + ref())
}

// step takes one step of the history on every processor alike and
// names it.
func (h *history) step() string {
	scopes := []string{"", "S0", "S1", "S2"}
	switch n := h.rng.IntN(10); {
	case n < 6: // a batch that adds keys or appends derivations
		var defs []ObjectDef
		for range 1 + h.rng.IntN(4) {
			name := h.names[h.rng.IntN(len(h.names))]
			defs = append(defs, ObjectDef{Scheme: hdm.NewScheme(name), Derivation: Derivation{
				Query: h.query(), Lower: h.rng.IntN(4) == 0, Via: "gen", Scope: scopes[h.rng.IntN(len(scopes))],
			}})
		}
		for _, p := range h.procs {
			p.DefineAll(defs)
		}
		return fmt.Sprintf("define %d", len(defs))
	case n < 7: // an id cycle
		x, y := h.names[h.rng.IntN(len(h.names))], h.names[h.rng.IntN(len(h.names))]
		defs := []ObjectDef{
			{Scheme: hdm.NewScheme(x), Derivation: Derivation{Query: iql.Ref(y), Via: "id"}},
			{Scheme: hdm.NewScheme(y), Derivation: Derivation{Query: iql.Ref(x), Via: "id"}},
		}
		for _, p := range h.procs {
			p.DefineAll(defs)
		}
		return "id " + x + " " + y
	case n < 8:
		h.procs[h.rng.IntN(len(h.procs))].InvalidateCache()
		return "invalidate"
	case n < 9: // a source recovers, and is due a fresh epoch
		inst := h.procs[0].sources[h.rng.IntN(len(h.procs[0].sources))].inst
		inst.MarkStale()
		inst.ReadWell()
		return "recover"
	}
	return "none"
}

// checkAgainstReference holds every processor's current table to the
// reference, asking for the objects in a random order, half of them
// first through a resolution.
func (h *history) checkAgainstReference(t *testing.T, step string) {
	t.Helper()
	var first map[string]Fingerprint
	for pi, p := range h.procs {
		tab := p.addresses()
		ref := p.reference()
		if tab.gen != ref.gen || !slices.Equal(tab.epochs, ref.epochs) {
			t.Fatalf("after %s: processor %d: table at gen %d epochs %v, reference at %d %v", step, pi, tab.gen, tab.epochs, ref.gen, ref.epochs)
		}
		keys := make([]string, 0, len(ref.defs))
		for k := range ref.defs {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		h.rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		got := make(map[string]Fingerprint, len(keys))
		for i, k := range keys {
			if i%2 == 0 {
				got[k] = tab.resolve("", hdm.MustScheme("<<"+k+">>").Parts()).fp
			} else {
				got[k] = tab.fingerprintOf(k)
			}
		}
		if tk := tab.keys(); len(tk) != len(keys) {
			t.Fatalf("after %s: processor %d: table defines %d objects, reference %d", step, pi, len(tk), len(keys))
		}
		for _, k := range keys {
			if got[k] != ref.defs[k].fp {
				t.Fatalf("after %s: processor %d: <<%s>> fingerprint %x, reference %x", step, pi, k, got[k], ref.defs[k].fp)
			}
		}
		for _, name := range h.names {
			parts := []string{name}
			var b []byte
			want := fingerprint(appendTarget(b, ref.resolve("", parts)))
			if got := p.Address([][]string{parts}); got != want {
				t.Fatalf("after %s: processor %d: address of <<%s>> %x, reference %x", step, pi, name, got, want)
			}
		}
		if first == nil {
			first = got
		} else if !maps.Equal(first, got) {
			t.Fatalf("after %s: processors sharing stores give one state different fingerprints", step)
		}
	}
}

// TestAddressTableMatchesReference holds the lazily filled table to the
// table built from scratch over generated histories: batches that add
// keys and that append derivations, later definitions of names that
// resolved as global, ambiguous or unknown, id cycles, InvalidateCache,
// a source's recovery epoch, and two processors sharing stores. A table
// taken earlier still gives what it gave.
func TestAddressTableMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			h := newHistory(t, seed, 2)
			var held *addresses
			var heldFPs map[string]Fingerprint
			for i := 0; i < 40; i++ {
				step := h.step()
				h.checkAgainstReference(t, fmt.Sprintf("step %d (%s)", i, step))
				if i%10 == 3 {
					held = h.procs[0].addresses()
					heldFPs = make(map[string]Fingerprint)
					for _, k := range held.keys() {
						heldFPs[k] = held.fingerprintOf(k)
					}
				}
				if held != nil {
					for k, fp := range heldFPs {
						if got := held.fingerprintOf(k); got != fp {
							t.Fatalf("step %d (%s): a table taken earlier now gives <<%s>> %x, not %x", i, step, k, got, fp)
						}
					}
				}
			}
		})
	}
}

// TestAddressTableConcurrentFill has several goroutines ask one fresh
// table for every object at once, each in its own order: every one gets
// the reference's fingerprints, and the table gives each object one.
// The processor is a restore's: every derivation of a history
// registered in one batch, then a step that appends derivations to keys
// it defined, so that no derivation has been digested and the two
// versions of each appended key share the cells of the first's. Half
// the goroutines ask the table taken before the step, half the one
// after, so whichever reaches a shared derivation first digests it for
// both; afterwards each cell holds its own derivation's digest.
func TestAddressTableConcurrentFill(t *testing.T) {
	h := newHistory(t, 7, 1)
	for range 30 {
		h.step()
	}
	p := h.newProcessor(t)
	var defs []ObjectDef
	for _, od := range h.procs[0].AllDerivations() {
		for _, d := range od.Derivs {
			defs = append(defs, ObjectDef{Scheme: hdm.NewScheme(strings.Split(od.Key, "|")...), Derivation: d})
		}
	}
	p.DefineAll(defs)
	before, beforeRef := p.addresses(), p.reference()
	p.DefineAll([]ObjectDef{
		{Scheme: defs[0].Scheme, Derivation: Derivation{Query: iql.MustParse("<<v0>> ++ <<a>>"), Via: "fill"}},
		{Scheme: defs[len(defs)-1].Scheme, Derivation: Derivation{Query: iql.MustParse("<<b>>"), Via: "fill", Scope: "S1"}},
		{Scheme: hdm.NewScheme("fresh"), Derivation: Derivation{Query: iql.MustParse("<<v0>> ++ <<a>>"), Via: "fill"}},
	})
	after, afterRef := p.addresses(), p.reference()
	tabs := []*addresses{before, after}
	refs := []*refAddresses{beforeRef, afterRef}
	var wg sync.WaitGroup
	for g := range 6 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tab, ref := tabs[g%2], refs[g%2]
			order := tab.keys()
			rand.New(rand.NewPCG(uint64(g), 1)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			for _, k := range order {
				if got := tab.resolve("", []string{k}).fp; got != ref.defs[k].fp {
					t.Errorf("goroutine %d: <<%s>> fingerprint %x, reference %x", g, k, got, ref.defs[k].fp)
				}
			}
		}()
	}
	wg.Wait()
	shared := 0
	for i, tab := range tabs {
		for _, k := range tab.keys() {
			if got := tab.fingerprintOf(k); got != refs[i].defs[k].fp {
				t.Errorf("<<%s>> fingerprint %x after the fill, reference %x", k, got, refs[i].defs[k].fp)
			}
			v := lookup(tab, maphash.String(seeds[0], k), k)
			for j, d := range v.derivs {
				if got := v.sums[j].p.Load(); got == nil || !reflect.DeepEqual(*got, sumOf(d)) {
					t.Errorf("<<%s>> derivation %d: the fill left its cell %v, not its digest", k, j, got)
				}
			}
			if i == 1 && v.prev != nil && v.prev == lookup(before, maphash.String(seeds[0], k), k) {
				for j := range v.prev.sums {
					if v.sums[j] != v.prev.sums[j] {
						t.Errorf("<<%s>> derivation %d: the step's version has a cell of its own", k, j)
					}
				}
				shared++
			}
		}
	}
	if shared != 2 {
		t.Errorf("%d keys have a version on each side of the step, want 2", shared)
	}
}

// TestInvalidateRetiresWhatASharingProcessorFilled: InvalidateCache
// deletes the extents another processor sharing the stores memoised at
// the state it invalidates, though its own table has given none of
// their fingerprints, so they do not wait for the LRU.
func TestInvalidateRetiresWhatASharingProcessorFilled(t *testing.T) {
	h := newHistory(t, 3, 2)
	for _, p := range h.procs {
		p.Define(hdm.NewScheme("w"), iql.MustParse("<<a>> ++ <<c>>"), "test", "")
	}
	filler, invalidator := h.procs[1], h.procs[0]
	if _, err := filler.Eval(iql.MustParse("<<w>>")); err != nil {
		t.Fatal(err)
	}
	fp := filler.addresses().fingerprintOf("w")
	if !filler.st.memo.Peek(fp) {
		t.Fatal("<<w>> was not memoised")
	}
	invalidator.InvalidateCache()
	if invalidator.st.memo.Peek(fp) {
		t.Error("an invalidation left what a processor sharing the stores memoised at the state it invalidated")
	}
}
