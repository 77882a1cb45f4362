package core

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/rel"
	"github.com/dataspace/automed/internal/wrapper"
)

// The reference: how a global schema version was built before versions
// shared their structure — from scratch, every intersection target,
// derived object and federated object added to a schema of its own. The
// versions are held to it: over any history, each holds the objects, in
// the order, and resolves every reference as the schema this builds from
// the integrator's state at its step, and goes on doing so while later
// versions are published.

// referenceGlobal builds the global schema named name that ig's state
// makes under drop, from scratch, registering nothing.
func referenceGlobal(ig *Integrator, name string, drop bool) (*hdm.Schema, error) {
	g := hdm.NewSchema(name)
	// Intersection objects first.
	for _, in := range ig.intersections {
		for _, tsc := range in.Targets {
			if g.Has(tsc) {
				continue
			}
			obj, _ := in.Schema.Object(tsc)
			if obj == nil {
				obj = hdm.NewObject(tsc, hdm.Nodal, "", "")
			}
			if err := g.Add(obj); err != nil {
				return nil, err
			}
		}
	}
	// Refinement and derived concepts.
	for _, om := range ig.derivedObjs {
		if g.Has(om.scheme) {
			continue
		}
		if err := g.Add(hdm.NewObject(om.scheme, om.kind, "", "")); err != nil {
			return nil, err
		}
	}
	// Redundant source objects, by their federated keys: deleted
	// (semantically mapped) in some intersection pathway.
	redundant := make(map[string]bool)
	if drop {
		for _, in := range ig.intersections {
			for src, objs := range in.DeletedBySource {
				for _, sc := range objs {
					redundant[sc.WithPrefix(ig.prefix[src]).Key()] = true
				}
			}
		}
	}
	// Federated remainder per source.
	for _, w := range ig.sources {
		for _, o := range ig.federatedObjects(w) {
			if redundant[o.Scheme.Key()] {
				continue
			}
			if err := g.Add(o); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// versionView is what a global schema shows a reader: its objects, in
// order, and the outcome of resolving each probe, each object written
// out whole (describe).
type versionView struct {
	objects  []string
	resolved []string
}

// describe writes o out whole.
func describe(o *hdm.Object) string {
	return fmt.Sprintf("%v %s %s %s", o.Scheme, o.Kind, o.Model, o.Construct)
}

// probes are the references a view of a history's versions resolves:
// every scheme a version may hold, exactly and by its last part alone
// (a suffix, often ambiguous), and one no version has.
func probes(fed *hdm.Schema) [][]string {
	schemes := fed.Schemes()
	for e := range 5 {
		schemes = append(schemes, hdm.NewScheme(fmt.Sprintf("E%d", e)),
			hdm.NewScheme(fmt.Sprintf("E%d", e), "a"), hdm.NewScheme(fmt.Sprintf("E%d", e), "b"))
	}
	for d := range 4 {
		schemes = append(schemes, hdm.NewScheme(fmt.Sprintf("D%d", d)))
	}
	var out [][]string
	for _, sc := range schemes {
		out = append(out, sc.Parts(), []string{sc.Last()})
	}
	return append(out, []string{"nowhere"})
}

// view reads s as a reader would, resolving ps; it also checks that a
// lookup of each object finds the very object s yields in order.
func view(t *testing.T, s *hdm.Schema, ps [][]string) versionView {
	t.Helper()
	var v versionView
	for _, o := range s.All() {
		v.objects = append(v.objects, describe(o))
		if got, ok := s.Object(o.Scheme); !ok || got != o {
			t.Errorf("%s: a lookup of %s finds %v, not the object in its order", s.Name(), o.Scheme, got)
		}
	}
	if s.Len() != len(v.objects) {
		t.Errorf("%s: Len is %d, its order holds %d", s.Name(), s.Len(), len(v.objects))
	}
	for _, p := range ps {
		o, err := s.Resolve(p)
		switch {
		case err != nil:
			v.resolved = append(v.resolved, err.Error())
		default:
			v.resolved = append(v.resolved, describe(o))
		}
	}
	return v
}

// referenceSources are three relational sources of four tables of two
// columns, their keys shared, so that intersections over any two of
// them line up.
func referenceSources(t *testing.T) []wrapper.Wrapper {
	t.Helper()
	var out []wrapper.Wrapper
	for _, name := range []string{"A", "B", "C"} {
		db := rel.NewDB(name)
		for j := range 4 {
			tb := db.MustCreateTable(fmt.Sprintf("t%d", j), []rel.Column{
				{Name: "id", Type: rel.Int}, {Name: "a", Type: rel.String}, {Name: "b", Type: rel.String},
			}, "id")
			for k := range 3 {
				tb.MustInsert(int64(k), fmt.Sprintf("%s%d", name, k), fmt.Sprintf("b%d", j))
			}
		}
		w, err := wrapper.NewRelational(name, db)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, w)
	}
	return out
}

// TestVersionsMatchTheReference takes random step histories —
// intersections of entities and attributes, refinements from a source,
// derived concepts (some later intersected), explicit rebuilds dropping
// or not, auto-drop switched on and off, restores from a checkpoint
// part-way, and in every other history a federation that skips source C
// and a backfill of it later — and holds every published version to the
// reference built at its step: its objects, their order, and every
// probe's resolution (exact, by suffix, ambiguous, unknown); then, once
// the history is done, every version again, which no later version may
// have changed.
func TestVersionsMatchTheReference(t *testing.T) {
	srcs := []string{"A", "B", "C"}
	full, err := New(referenceSources(t)...)
	if err != nil {
		t.Fatal(err)
	}
	fed, err := full.Federate("F")
	if err != nil {
		t.Fatal(err)
	}
	ps := probes(fed)
	for seed := range uint64(40) {
		r := rand.New(rand.NewPCG(seed, 45))
		ws := referenceSources(t)
		degraded := seed%2 == 1
		if degraded {
			if ws[2], err = wrapper.NewFault(ws[2], wrapper.FaultConfig{ErrorRate: 1}); err != nil {
				t.Fatal(err)
			}
		}
		ig, err := New(ws...)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := ig.FederateReachable(context.Background(), "F", 1); err != nil {
			t.Fatal(err)
		}
		if (len(ig.Skipped()) == 1) != degraded {
			t.Fatalf("seed %d: federation skipped %v", seed, ig.Skipped())
		}
		ig.SetAutoDrop(r.IntN(2) == 0)
		want := map[int]versionView{}
		record := func(step string, drop bool) {
			t.Helper()
			g := ig.Global()
			ref, err := referenceGlobal(ig, g.Name(), drop)
			if err != nil {
				t.Fatalf("seed %d, %s: the reference fails: %v", seed, step, err)
			}
			w := view(t, ref, ps)
			if got := view(t, g, ps); !slices.Equal(got.objects, w.objects) || !slices.Equal(got.resolved, w.resolved) {
				t.Fatalf("seed %d, %s: %s holds\n%v\nresolving\n%v\nthe reference\n%v\nresolving\n%v",
					seed, step, g.Name(), got.objects, got.resolved, w.objects, w.resolved)
			}
			want[ig.GlobalVersion()] = w
		}
		record("federate", false)
		table := func() string { return fmt.Sprintf("t%d", r.IntN(4)) }
		pair := func() (string, string) {
			i := r.IntN(3)
			return srcs[i], srcs[(i+1+r.IntN(2))%3]
		}
		for step := range 12 {
			before := ig.GlobalVersion()
			var desc string
			var drop bool
			var err error
			switch op := r.IntN(10); {
			case op < 4:
				a, b := pair()
				e := fmt.Sprintf("E%d", r.IntN(5))
				ms := []Mapping{Entity("<<"+e+">>",
					From(a, fmt.Sprintf("[{'%s', k} | k <- <<%s>>]", a, table())),
					From(b, fmt.Sprintf("[{'%s', k} | k <- <<%s>>]", b, table())))}
				if r.IntN(2) == 0 {
					ms = append(ms, Attribute("<<"+e+", a>>",
						From(a, fmt.Sprintf("[{'%s', k, x} | {k, x} <- <<%s, a>>]", a, table()))))
				}
				if r.IntN(3) == 0 {
					ms = append(ms, Mapping{Target: fmt.Sprintf("<<D%d>>", r.IntN(4)),
						Forward: []SourceQuery{Derived("[k | k <- <<" + e + ">>]")}})
				}
				if r.IntN(4) == 0 {
					// An earlier derived concept becomes an intersection target.
					ms = append(ms, Entity(fmt.Sprintf("<<D%d>>", r.IntN(4)),
						From(a, fmt.Sprintf("[{'%s', k} | k <- <<%s>>]", a, table()))))
				}
				desc, drop = fmt.Sprintf("step %d: intersect %v", step, ms), ig.autoDrop
				_, err = ig.Intersect(fmt.Sprintf("I%d", step), ms)
			case op < 6:
				a, _ := pair()
				m := Attribute(fmt.Sprintf("<<E%d, b>>", r.IntN(5)),
					From(a, fmt.Sprintf("[{'%s', k, x} | {k, x} <- <<%s, b>>]", a, table())))
				if r.IntN(2) == 0 {
					m = Mapping{Target: fmt.Sprintf("<<D%d>>", r.IntN(4)),
						Forward: []SourceQuery{Derived(fmt.Sprintf("[k | k <- <<E%d>>]", r.IntN(5)))}}
				}
				desc, drop = fmt.Sprintf("step %d: refine %v", step, m), ig.autoDrop
				err = ig.Refine(fmt.Sprintf("r%d", step), m)
			case op < 7:
				drop = r.IntN(2) == 0
				desc = fmt.Sprintf("step %d: build global dropping %v", step, drop)
				_, err = ig.BuildGlobal(drop)
			case op < 8:
				ig.SetAutoDrop(!ig.autoDrop)
				continue
			case op == 8 && len(ig.Skipped()) > 0:
				for _, w := range ig.Sources() {
					if f, ok := w.(*wrapper.Fault); ok {
						f.Set(wrapper.FaultConfig{})
					}
				}
				desc, drop = fmt.Sprintf("step %d: backfill", step), ig.autoDrop
				_, err = ig.Backfill(context.Background())
			default:
				snap, err := ig.Export()
				if err != nil {
					t.Fatal(err)
				}
				if ig, err = Import(decodeSnapshot(t, exportJSONOf(t, snap))); err != nil {
					t.Fatalf("seed %d, step %d: restore: %v", seed, step, err)
				}
				for v, w := range want {
					if s, ok := ig.SchemaAt(v); ok {
						if got := view(t, s, ps); !slices.Equal(got.objects, w.objects) {
							t.Fatalf("seed %d, step %d: restored version %d holds %v, want %v", seed, step, v, got.objects, w.objects)
						}
					}
				}
				continue
			}
			if ig.GlobalVersion() == before {
				if err == nil {
					t.Fatalf("seed %d, %s: published nothing", seed, desc)
				}
				continue
			}
			record(desc, drop)
		}
		for _, sv := range ig.Versions() {
			w, ok := want[sv.Version]
			if !ok {
				continue
			}
			if got := view(t, sv.Schema, ps); !slices.Equal(got.objects, w.objects) || !slices.Equal(got.resolved, w.resolved) {
				t.Fatalf("seed %d: once the history is done, %s holds\n%v\nresolving\n%v\nnot\n%v\nresolving\n%v",
					seed, sv.Schema.Name(), got.objects, got.resolved, w.objects, w.resolved)
			}
		}
	}
}
