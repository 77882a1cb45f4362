package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/transform"
)

func TestExplicitReverseQueryCountsManual(t *testing.T) {
	ig := newIntegrator(t)
	if _, err := ig.Federate("F"); err != nil {
		t.Fatal(err)
	}
	// A complex (non-invertible) forward query with a user-supplied
	// reverse: the delete is manual per the paper (user input needed).
	in, err := ig.Intersect("I1", []Mapping{
		{
			Target: "<<UBook>>",
			Forward: []SourceQuery{
				From("Library", "[{'LIB', k} | k <- <<books>>; k > 0]"),
			},
			Reverse: []ReverseQuery{
				{Source: "Library", Object: "<<books>>",
					Query: "[k | {'LIB', k} <- <<UBook>>]"},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if in.Counts.ManualAdds != 1 || in.Counts.ManualDeletes != 1 {
		t.Errorf("counts = %+v", in.Counts)
	}
	// The delete makes books redundant.
	if len(in.DeletedBySource["Library"]) != 1 {
		t.Errorf("deleted = %v", in.DeletedBySource)
	}
	// And the explicit reverse actually works.
	if _, err := ig.BuildGlobal(true); err != nil {
		t.Fatal(err)
	}
	rp, err := ig.ReverseProcessor()
	if err != nil {
		t.Fatal(err)
	}
	v, err := rp.Query("count(<<books>>)")
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(iql.Int(3)) {
		t.Errorf("reverse books = %s", v)
	}
}

func TestGLAVStyleJoinMapping(t *testing.T) {
	// BAV subsumes GLAV: a forward query may join several source
	// objects (complex add). No delete is derivable, so the consumed
	// objects contract and remain in the global schema.
	ig := newIntegrator(t)
	if _, err := ig.Federate("F"); err != nil {
		t.Fatal(err)
	}
	in, err := ig.Intersect("I1", []Mapping{
		{
			Target: "<<UBookShelf>>",
			Forward: []SourceQuery{
				From("Library",
					"[{'LIB', k, i, sh} | {k, i} <- <<books, isbn>>; {k2, sh} <- <<books, shelf>>; k2 = k]"),
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if in.Counts.ManualAdds != 1 || in.Counts.AutoDeletes != 0 {
		t.Errorf("counts = %+v", in.Counts)
	}
	res, err := ig.Query("count(<<UBookShelf>>)")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Value.Equal(iql.Int(3)) {
		t.Errorf("count = %s", res.Value)
	}
	// Nothing deleted, so with drop the source objects all survive.
	g, err := ig.BuildGlobal(true)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Has(hdm.NewScheme("library_books", "isbn")) {
		t.Error("contracted-only object was dropped")
	}
}

func TestAutoDropRebuildsDropping(t *testing.T) {
	ig := newIntegrator(t)
	ig.SetAutoDrop(true)
	if _, err := ig.Federate("F"); err != nil {
		t.Fatal(err)
	}
	if _, err := ig.Intersect("I1", bookMappings()); err != nil {
		t.Fatal(err)
	}
	// The automatically rebuilt global schema already dropped the
	// mapped source objects.
	if ig.Global().Has(hdm.NewScheme("library_books")) {
		t.Error("autoDrop did not drop redundant objects")
	}
	if _, err := ig.Query("count(<<library_books>>)"); err == nil {
		t.Error("query over dropped object succeeded")
	}
	// Neither SetAutoDrop nor BuildGlobal is a step: the steps since a
	// checkpoint taken before either do not continue it, and those since
	// one taken after do.
	before := mustExport(t, ig).Steps
	ig.SetAutoDrop(false)
	if _, ok := ig.StepsSince(before); ok {
		t.Error("StepsSince is true across SetAutoDrop")
	}
	after := mustExport(t, ig).Steps
	if err := ig.Refine("late", Attribute("<<UBook, late>>",
		From("Library", "[{'LIB', k, x} | {k, x} <- <<books, title>>]"))); err != nil {
		t.Fatal(err)
	}
	if got, ok := ig.StepsSince(after); !ok || len(got) != 1 || got[0].Name != "late" {
		t.Errorf("StepsSince(a checkpoint after SetAutoDrop) = %+v, %v; want the one refinement", got, ok)
	}
	if _, err := ig.BuildGlobal(true); err != nil {
		t.Fatal(err)
	}
	if _, ok := ig.StepsSince(after); ok {
		t.Error("StepsSince is true across BuildGlobal")
	}
}

// TestRedundantObjectsListing: an intersection records, per source, the
// objects its delete steps made redundant — what autoDrop then drops.
func TestRedundantObjectsListing(t *testing.T) {
	ig := newIntegrator(t)
	if _, err := ig.Federate("F"); err != nil {
		t.Fatal(err)
	}
	in, err := ig.Intersect("I1", bookMappings())
	if err != nil {
		t.Fatal(err)
	}
	if red := in.DeletedBySource; len(red["Library"]) != 3 || len(red["Shop"]) != 3 {
		t.Errorf("redundant = %v", red)
	}
}

func TestPrefixAndSourceNames(t *testing.T) {
	ig := newIntegrator(t)
	names := ig.SourceNames()
	if len(names) != 3 || names[0] != "Library" {
		t.Errorf("SourceNames = %v", names)
	}
	if len(ig.Sources()) != 3 {
		t.Error("Sources wrong")
	}
	if sanitizePrefix("My DB-2") != "my_db_2" {
		t.Errorf("sanitizePrefix = %q", sanitizePrefix("My DB-2"))
	}
}

func TestQueryErrors(t *testing.T) {
	ig := newIntegrator(t)
	if _, err := ig.Query("count(<<x>>)"); err == nil {
		t.Error("query before federate succeeded")
	}
	if _, err := ig.Federate("F"); err != nil {
		t.Fatal(err)
	}
	if _, err := ig.Query("[bad"); err == nil {
		t.Error("bad IQL accepted")
	}
	if _, err := ig.Query("count(<<no_such_object>>)"); err == nil {
		t.Error("unknown object accepted")
	}
	if _, err := ig.Extent("<<bogus scheme"); err == nil {
		t.Error("bad scheme accepted by Extent")
	}
}

func TestRefineErrors(t *testing.T) {
	ig := newIntegrator(t)
	m := Mapping{Target: "<<U, d>>", Forward: []SourceQuery{From("Library", "<<books>>")}}
	if err := ig.Refine("r", m); err == nil {
		t.Error("refine before federate succeeded")
	}
	if _, err := ig.Federate("F"); err != nil {
		t.Fatal(err)
	}
	if err := ig.Refine("r", Mapping{Target: "<<U, d>>"}); err == nil {
		t.Error("refine without forwards succeeded")
	}
	if err := ig.Refine("r", Mapping{Target: "<<U, d>>",
		Forward: []SourceQuery{From("Nope", "<<books>>")}}); err == nil {
		t.Error("refine with unknown source succeeded")
	}
	if err := ig.Refine("r", Mapping{Target: "<<U, d>>",
		Forward: []SourceQuery{From("Library", "[bad")}}); err == nil {
		t.Error("refine with bad IQL succeeded")
	}
}

func TestReportRendering(t *testing.T) {
	ig := newIntegrator(t)
	if _, err := ig.Federate("F"); err != nil {
		t.Fatal(err)
	}
	if _, err := ig.Intersect("I1", bookMappings(), "Q1"); err != nil {
		t.Fatal(err)
	}
	rep := ig.Report()
	s := rep.String()
	for _, want := range []string{"federate", "intersection", "Q1", "TOTAL"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
	if cum := rep.CumulativeManual(); cum[len(cum)-1] != rep.TotalManual() {
		t.Errorf("cumulative inconsistent: %v vs %d", cum, rep.TotalManual())
	}
	counts := rep.Totals()
	if !strings.Contains(counts.String(), "manual=6") {
		t.Errorf("counts string = %s", counts)
	}
}

func TestRepoRecordsPathwaysAndSchemas(t *testing.T) {
	ig := newIntegrator(t)
	if _, err := ig.Federate("F"); err != nil {
		t.Fatal(err)
	}
	in, err := ig.Intersect("I1", bookMappings())
	if err != nil {
		t.Fatal(err)
	}
	r := ig.Repo()
	// Intersection schema and per-source images stored.
	if _, ok := r.Schema("I1"); !ok {
		t.Error("intersection schema not stored")
	}
	for _, src := range in.Sources {
		img := "I1~" + ig.prefix[src]
		if _, ok := r.Schema(img); !ok {
			t.Errorf("image schema %s not stored", img)
		}
	}
	// Library → I1 is stored as Library → I1~library plus an ident.
	if findPathway(r, "I1~library", "I1") == nil {
		t.Error("no ident pathway I1~library→I1 stored")
	}
	p := findPathway(r, "Library", "I1~library")
	if p == nil || p.Len() == 0 {
		t.Fatalf("no pathway Library→I1~library stored: %v", p)
	}
	// Applying the stored pathway reproduces the intersection objects.
	src, _ := r.Schema("Library")
	derived, err := transform.ApplyPathway(src, p, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range in.Targets {
		if !derived.Has(sc) {
			t.Errorf("derived schema missing %s", sc)
		}
	}
}

func TestManyIterationsGlobalVersioning(t *testing.T) {
	ig := newIntegrator(t)
	if _, err := ig.Federate("F"); err != nil {
		t.Fatal(err)
	}
	if _, err := ig.Intersect("I1", bookMappings()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := ig.Refine(fmt.Sprintf("r%d", i), Mapping{
			Target: fmt.Sprintf("<<UBook, extra%d>>", i),
			Forward: []SourceQuery{
				From("Library", "[{'LIB', k, x} | {k, x} <- <<books, shelf>>]"),
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Each iteration produced a fresh global version; all stored.
	name := ig.Global().Name()
	if name != "GS4" {
		t.Errorf("global version = %q, want GS4", name)
	}
	for _, v := range []string{"GS1", "GS2", "GS3", "GS4"} {
		if _, ok := ig.Repo().Schema(v); !ok {
			t.Errorf("version %s not stored", v)
		}
	}
}

// TestMinusPathwaysAreStoredOnce: the first rebuild that drops stores a
// minus pathway for each intersection and source, and later rebuilds,
// a restored integrator's too, find them stored and store none.
func TestMinusPathwaysAreStoredOnce(t *testing.T) {
	ig := multiIterationIntegrator(t)
	rebuild := func(g *Integrator) []int {
		t.Helper()
		var counts []int
		for range 5 {
			if _, err := g.BuildGlobal(true); err != nil {
				t.Fatal(err)
			}
			counts = append(counts, len(g.Repo().Pathways()))
		}
		return counts
	}
	want := len(ig.Repo().Pathways())
	for _, in := range ig.Intersections() {
		want += len(in.Sources)
	}
	other := func(n int) bool { return n != want }
	if counts := rebuild(ig); slices.ContainsFunc(counts, other) {
		t.Errorf("five rebuilds dropping leave the repository %v pathways; want %d each time", counts, want)
	}
	restored, err := Import(decodeSnapshot(t, exportJSONOf(t, mustExport(t, ig))))
	if err != nil {
		t.Fatal(err)
	}
	if counts := rebuild(restored); slices.ContainsFunc(counts, other) {
		t.Errorf("after a restore, five rebuilds dropping leave the repository %v pathways; want %d each time", counts, want)
	}
}

func TestSourceErrorPropagates(t *testing.T) {
	// A wrapper whose extents fail mid-query surfaces the error.
	bad := &failingWrapper{name: "Bad"}
	ig, err := New(bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ig.Federate("F"); err != nil {
		t.Fatal(err)
	}
	if _, err := ig.Query("count(<<bad_t>>)"); err == nil ||
		!strings.Contains(err.Error(), "synthetic failure") {
		t.Errorf("wrapper failure not propagated: %v", err)
	}
}

type failingWrapper struct{ name string }

func (w *failingWrapper) SchemaName() string { return w.name }
func (w *failingWrapper) Schema() *hdm.Schema {
	s := hdm.NewSchema(w.name)
	s.MustAdd(hdm.NewObject(hdm.MustScheme("<<t>>"), hdm.Nodal, "", ""))
	return s
}
func (w *failingWrapper) Extent(parts []string) (iql.Value, error) {
	return iql.Value{}, fmt.Errorf("synthetic failure reading %v", parts)
}

// TestGlobalVersionsShareFederatedObjects: every global schema version
// adds the federated objects federation made, by pointer, and no step
// writes to an object once it is in a schema — the values of every
// object of every version are the ones it had when it was first seen.
func TestGlobalVersionsShareFederatedObjects(t *testing.T) {
	ig := newIntegrator(t)
	fed, err := ig.Federate("F")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[*hdm.Object]hdm.Object)
	look := func() {
		for _, v := range ig.Versions() {
			for _, o := range v.Schema.Objects() {
				if was, ok := seen[o]; !ok {
					seen[o] = *o
				} else if !reflect.DeepEqual(was, *o) {
					t.Errorf("%s of %s changed in place: %+v, was %+v", o.Scheme, v.Schema.Name(), *o, was)
				}
			}
		}
	}
	look()
	if _, err := ig.Intersect("I1", bookMappings()); err != nil {
		t.Fatal(err)
	}
	look()
	if err := ig.Refine("r", Attribute("<<UBook, r>>", From("Library", "[{'LIB', k, x} | {k, x} <- <<books, shelf>>]"))); err != nil {
		t.Fatal(err)
	}
	look()
	if _, err := ig.BuildGlobal(true); err != nil {
		t.Fatal(err)
	}
	look()
	for _, v := range ig.Versions()[1:] {
		shared := 0
		for _, o := range v.Schema.Objects() {
			if f, ok := fed.Object(o.Scheme); ok {
				if f != o {
					t.Errorf("%s adds a copy of the federated %s", v.Schema.Name(), o.Scheme)
				}
				shared++
			}
		}
		if shared == 0 {
			t.Errorf("%s adds no federated object", v.Schema.Name())
		}
	}
}

// TestIntersectSizesPathwaysOnce: each per-source pathway's steps are
// allocated once, at their final number, and each image schema adds the
// intersection schema's objects, not copies.
func TestIntersectSizesPathwaysOnce(t *testing.T) {
	ig := newIntegrator(t)
	if _, err := ig.Federate("F"); err != nil {
		t.Fatal(err)
	}
	in, err := ig.Intersect("I1", bookMappings())
	if err != nil {
		t.Fatal(err)
	}
	for src, pw := range in.PathwayBySource {
		if cap(pw.Steps) != len(pw.Steps) {
			t.Errorf("%s's pathway has %d steps in room for %d", src, len(pw.Steps), cap(pw.Steps))
		}
		image, ok := ig.Repo().Schema(pw.Target)
		if !ok || image.Len() != in.Schema.Len() {
			t.Fatalf("%s's image %s is missing or not a copy of %s", src, pw.Target, in.Name)
		}
		for _, o := range image.All() {
			if io, _ := in.Schema.Object(o.Scheme); io != o {
				t.Errorf("image %s holds a copy of %s's %s", pw.Target, in.Name, o.Scheme)
			}
		}
	}
}

// TestSharedVoidAnyIsNeverWritten: the Range Void Any that every step
// built without bounds shares reaches an intersection's extends and
// contracts, their reverses, the minus pathways, a checkpoint and the
// reverse processor's lower-bound derivations, and is left as it was.
func TestSharedVoidAnyIsNeverWritten(t *testing.T) {
	shared := transform.NewContract(hdm.NewObject(hdm.MustScheme("<<x>>"), hdm.Nodal, "", ""), nil, nil).Query
	ig := newIntegrator(t)
	if _, err := ig.Federate("F"); err != nil {
		t.Fatal(err)
	}
	in, err := ig.Intersect("I1", append(bookMappings(), Entity("<<UScan>>", From("Archive", "[{'ARC', k} | k <- <<scans>>]"))))
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[transform.Kind]int)
	for _, pw := range in.PathwayBySource {
		for _, st := range pw.Reverse().Steps {
			if st.Query == shared {
				kinds[st.Kind]++
			}
		}
		if _, err := transform.MinusPathway(pw, "minus"); err != nil {
			t.Fatal(err)
		}
	}
	if kinds[transform.Extend] == 0 || kinds[transform.Contract] == 0 {
		t.Fatalf("the reversed pathways share Range Void Any in %v, want extends and contracts", kinds)
	}
	if _, err := ig.BuildGlobal(true); err != nil {
		t.Fatal(err)
	}
	restored, err := Import(mustExport(t, ig))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Intersect("I2", []Mapping{Attribute("<<UBook, shelf>>",
		From("Library", "[{'LIB', k, x} | {k, x} <- <<books, shelf>>]"))}); err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Integrator{ig, restored} {
		rp, err := g.ReverseProcessor()
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []string{"[{k, x} | {k, x} <- <<books, shelf>>]", "count(<<items, price>>)", "<<UBook>>"} {
			if _, _, _, err := rp.EvalContext(context.Background(), iql.MustParse(q)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := shared.String(); got != "Range Void Any" || !iql.IsVoidAnyRange(shared) {
		t.Errorf("the shared bounds now read %q", got)
	}
}
