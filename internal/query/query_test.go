package query

import (
	"context"
	"strings"
	"testing"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/transform"
	"github.com/dataspace/automed/internal/wrapper"
)

func staticSource(t *testing.T, name string, extents map[string]iql.Value) *wrapper.Static {
	t.Helper()
	w := wrapper.NewStatic(name)
	for scheme, v := range extents {
		kind := hdm.Nodal
		sc := hdm.MustScheme(scheme)
		if sc.Arity() > 1 {
			kind = hdm.Link
		}
		if err := w.Add(sc, kind, "", "", v); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func TestSourceExtentAndSuffix(t *testing.T) {
	p := New()
	src := staticSource(t, "S", map[string]iql.Value{
		"<<sql, table, protein>>": iql.Bag(iql.Int(1), iql.Int(2)),
	})
	if err := p.AddSource(src); err != nil {
		t.Fatal(err)
	}
	if err := p.AddSource(src); err == nil {
		t.Error("duplicate source accepted")
	}
	v, err := p.Extent([]string{"protein"})
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 2 {
		t.Errorf("extent = %s", v)
	}
	if _, err := p.Extent([]string{"nope"}); err == nil {
		t.Error("unknown object resolved")
	}
}

func TestAmbiguousAcrossSources(t *testing.T) {
	p := New()
	p.AddSource(staticSource(t, "A", map[string]iql.Value{"<<t>>": iql.Bag(iql.Int(1))}))
	p.AddSource(staticSource(t, "B", map[string]iql.Value{"<<t>>": iql.Bag(iql.Int(2))}))
	if _, err := p.Extent([]string{"t"}); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguity not detected: %v", err)
	}
}

func TestScopedDerivations(t *testing.T) {
	// Two sources with same-named objects; the virtual object unions
	// per-scope derivations, mirroring the paper's per-pathway query
	// contexts.
	p := New()
	p.AddSource(staticSource(t, "A", map[string]iql.Value{"<<t>>": iql.Bag(iql.Int(1))}))
	p.AddSource(staticSource(t, "B", map[string]iql.Value{"<<t>>": iql.Bag(iql.Int(2), iql.Int(3))}))
	p.Define(hdm.MustScheme("<<U>>"), iql.MustParse("[{'A', k} | k <- <<t>>]"), "test", "A")
	p.Define(hdm.MustScheme("<<U>>"), iql.MustParse("[{'B', k} | k <- <<t>>]"), "test", "B")
	v, err := p.Extent([]string{"U"})
	if err != nil {
		t.Fatal(err)
	}
	want := iql.Bag(
		iql.Tuple(iql.Str("A"), iql.Int(1)),
		iql.Tuple(iql.Str("B"), iql.Int(2)),
		iql.Tuple(iql.Str("B"), iql.Int(3)),
	)
	if !v.Equal(want) {
		t.Errorf("U = %s, want %s", v, want)
	}
}

func TestRegisterPathwayKinds(t *testing.T) {
	p := New()
	p.AddSource(staticSource(t, "S", map[string]iql.Value{
		"<<t>>": iql.Bag(iql.Int(1), iql.Int(2)),
	}))
	pw := transform.NewPathway("S", "G",
		transform.NewAdd(hdm.NewObject(hdm.MustScheme("<<u>>"), hdm.Nodal, "", ""), iql.MustParse("[k | k <- <<t>>; k > 1]")),
		transform.NewRename(hdm.NewObject(hdm.MustScheme("<<u>>"), hdm.Nodal, "", ""), hdm.NewObject(hdm.MustScheme("<<v>>"), hdm.Nodal, "", "")),
		transform.NewExtend(hdm.NewObject(hdm.MustScheme("<<w>>"), hdm.Nodal, "", ""),
			iql.MustParse("[9]"), &iql.Lit{Val: iql.Any()}),
	)
	if err := p.RegisterPathway(pw, "S"); err != nil {
		t.Fatal(err)
	}
	// add: derived extent.
	v, _ := p.Extent([]string{"u"})
	if !v.Equal(iql.Bag(iql.Int(2))) {
		t.Errorf("u = %s", v)
	}
	// rename: v defined by u.
	v, _ = p.Extent([]string{"v"})
	if !v.Equal(iql.Bag(iql.Int(2))) {
		t.Errorf("v = %s", v)
	}
	// extend: lower bound with warning.
	v, warns, _, err := p.EvalContext(context.Background(), iql.MustParse("<<w>>"))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(iql.Bag(iql.Int(9))) {
		t.Errorf("w = %s", v)
	}
	if len(warns) == 0 {
		t.Error("no incompleteness warning for extend")
	}
	// Warnings belong to the evaluation that raised them.
	if _, warns, _, err := p.EvalContext(context.Background(), iql.MustParse("<<u>>")); err != nil || len(warns) != 0 {
		t.Errorf("<<u>>: warnings = %v, err = %v; want none", warns, err)
	}
}

func TestIdentChainUnionsExactlyOnce(t *testing.T) {
	// US1 ~ US2 ~ US3 ident chain: querying any of them yields the bag
	// union of all three derivations exactly once (cycle cut).
	p := New()
	p.AddSource(staticSource(t, "S1", map[string]iql.Value{"<<a>>": iql.Bag(iql.Int(1))}))
	p.AddSource(staticSource(t, "S2", map[string]iql.Value{"<<b>>": iql.Bag(iql.Int(2))}))
	p.AddSource(staticSource(t, "S3", map[string]iql.Value{"<<c>>": iql.Bag(iql.Int(3))}))
	p.Define(hdm.MustScheme("<<us1, x>>"), iql.MustParse("<<a>>"), "t", "S1")
	p.Define(hdm.MustScheme("<<us2, x>>"), iql.MustParse("<<b>>"), "t", "S2")
	p.Define(hdm.MustScheme("<<us3, x>>"), iql.MustParse("<<c>>"), "t", "S3")
	ident12 := transform.NewPathway("US1", "US2",
		transform.NewID(hdm.NewObject(hdm.MustScheme("<<us1, x>>"), hdm.Nodal, "", ""), hdm.NewObject(hdm.MustScheme("<<us2, x>>"), hdm.Nodal, "", "")))
	ident23 := transform.NewPathway("US2", "US3",
		transform.NewID(hdm.NewObject(hdm.MustScheme("<<us2, x>>"), hdm.Nodal, "", ""), hdm.NewObject(hdm.MustScheme("<<us3, x>>"), hdm.Nodal, "", "")))
	if err := p.RegisterPathway(ident12, ""); err != nil {
		t.Fatal(err)
	}
	if err := p.RegisterPathway(ident23, ""); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"us1, x", "us2, x", "us3, x"} {
		v, err := p.Extent(strings.Split(name, ", "))
		if err != nil {
			t.Fatal(err)
		}
		if !v.Equal(iql.Bag(iql.Int(1), iql.Int(2), iql.Int(3))) {
			t.Errorf("<<%s>> = %s, want [1, 2, 3]", name, v)
		}
	}
}

func TestSelfIDRegistersNothing(t *testing.T) {
	p := New()
	pw := transform.NewPathway("A", "B",
		transform.NewID(hdm.NewObject(hdm.MustScheme("<<x>>"), hdm.Nodal, "", ""), hdm.NewObject(hdm.MustScheme("<<x>>"), hdm.Nodal, "", "")))
	if err := p.RegisterPathway(pw, ""); err != nil {
		t.Fatal(err)
	}
	if ds := p.AllDerivations(); len(ds) != 0 {
		t.Errorf("self-id created definitions: %v", ds)
	}
}

func TestRecursiveUnfoldingThroughLayers(t *testing.T) {
	// G defined over I defined over source: two levels of unfolding.
	p := New()
	p.AddSource(staticSource(t, "S", map[string]iql.Value{
		"<<t, c>>": iql.Bag(
			iql.Tuple(iql.Int(1), iql.Str("x")),
			iql.Tuple(iql.Int(2), iql.Str("y")),
		),
	}))
	p.Define(hdm.MustScheme("<<I, c>>"), iql.MustParse("[{'S', k, v} | {k, v} <- <<t, c>>]"), "t", "S")
	p.Define(hdm.MustScheme("<<G>>"), iql.MustParse("[v | {s, k, v} <- <<I, c>>]"), "t", "")
	v, err := p.Extent([]string{"G"})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(iql.Bag(iql.Str("x"), iql.Str("y"))) {
		t.Errorf("G = %s", v)
	}
}

func TestCacheInvalidation(t *testing.T) {
	p := New()
	calls := 0
	sch := hdm.NewSchema("S")
	sch.MustAdd(hdm.NewObject(hdm.MustScheme("<<t>>"), hdm.Nodal, "", ""))
	p.AddExtents("S", sch, iql.ExtentsFunc(func(parts []string) (iql.Value, error) {
		calls++
		return iql.Bag(iql.Int(int64(calls))), nil
	}))
	p.Define(hdm.MustScheme("<<u>>"), iql.MustParse("<<t>>"), "t", "S")
	p.Extent([]string{"u"})
	p.Extent([]string{"u"})
	if calls != 1 {
		t.Errorf("extent fetched %d times, want 1 (cached)", calls)
	}
	p.InvalidateCache()
	p.Extent([]string{"u"})
	if calls != 2 {
		t.Errorf("cache not invalidated: %d calls", calls)
	}
}

func TestEvalAndQuery(t *testing.T) {
	p := New()
	p.AddSource(staticSource(t, "S", map[string]iql.Value{"<<t>>": iql.Bag(iql.Int(1), iql.Int(2))}))
	v, err := p.Query("count(<<t>>)")
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(iql.Int(2)) {
		t.Errorf("Query = %s", v)
	}
	if _, err := p.Query("[bad"); err == nil {
		t.Error("bad IQL accepted")
	}
	v, err = p.EvalScoped(iql.MustParse("count(<<t>>)"), "S")
	if err != nil || !v.Equal(iql.Int(2)) {
		t.Errorf("EvalScoped = %s %v", v, err)
	}
}

func TestMaterialize(t *testing.T) {
	p := New()
	p.AddSource(staticSource(t, "S", map[string]iql.Value{"<<t>>": iql.Bag(iql.Int(1))}))
	p.Define(hdm.MustScheme("<<u>>"), iql.MustParse("<<t>>"), "t", "S")
	g := hdm.NewSchema("G")
	g.MustAdd(hdm.NewObject(hdm.MustScheme("<<u>>"), hdm.Nodal, "", ""))
	m, err := p.Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	if !m["u"].Equal(iql.Bag(iql.Int(1))) {
		t.Errorf("materialized = %v", m)
	}
	bad := hdm.NewSchema("B")
	bad.MustAdd(hdm.NewObject(hdm.MustScheme("<<missing>>"), hdm.Nodal, "", ""))
	if _, err := p.Materialize(bad); err == nil {
		t.Error("materializing unknown object succeeded")
	}
}

func TestDerivationsAndDefinedObjects(t *testing.T) {
	p := New()
	p.Define(hdm.MustScheme("<<u>>"), iql.MustParse("<<t>>"), "via1", "S")
	p.Define(hdm.MustScheme("<<u>>"), iql.MustParse("<<t2>>"), "via2", "S2")
	all := p.AllDerivations()
	if len(all) != 1 || all[0].Key != "u" {
		t.Fatalf("AllDerivations = %+v", all)
	}
	if ds := all[0].Derivs; len(ds) != 2 || ds[0].Via != "via1" || ds[1].Scope != "S2" {
		t.Errorf("derivations of <<u>> = %+v", ds)
	}
	if !p.HasDefinition(hdm.MustScheme("<<u>>")) || p.HasDefinition(hdm.MustScheme("<<z>>")) {
		t.Error("HasDefinition wrong")
	}
}

func TestDerivationErrorPropagates(t *testing.T) {
	p := New()
	p.Define(hdm.MustScheme("<<u>>"), iql.MustParse("[k | k <- <<missing>>]"), "t", "")
	if _, err := p.Extent([]string{"u"}); err == nil {
		t.Error("dangling derivation evaluated")
	}
	// Non-collection derivation.
	p.Define(hdm.MustScheme("<<w>>"), iql.MustParse("42"), "t", "")
	if _, err := p.Extent([]string{"w"}); err == nil {
		t.Error("scalar derivation accepted as extent")
	}
}

func TestConcurrentQueries(t *testing.T) {
	p := New()
	p.AddSource(staticSource(t, "S", map[string]iql.Value{"<<t>>": iql.Bag(iql.Int(1), iql.Int(2))}))
	p.Define(hdm.MustScheme("<<u>>"), iql.MustParse("[k | k <- <<t>>]"), "t", "S")
	done := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func() {
			v, err := p.Query("count(<<u>>)")
			if err == nil && !v.Equal(iql.Int(2)) {
				err = &mismatchError{}
			}
			done <- err
		}()
	}
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

type mismatchError struct{}

func (*mismatchError) Error() string { return "wrong count" }

// TestUnfoldSharesASingleDerivation: a virtual object with one
// derivation — every federated object — is its derivation's elements as
// they stand, not a copy of them; with several it is their union, sized
// once.
func TestUnfoldSharesASingleDerivation(t *testing.T) {
	rows := iql.Bag(iql.Int(1), iql.Int(2), iql.Int(3))
	p := New()
	if err := p.AddSource(staticSource(t, "S", map[string]iql.Value{"<<t>>": rows, "<<u>>": iql.Bag(iql.Int(4))})); err != nil {
		t.Fatal(err)
	}
	p.Define(hdm.MustScheme("<<one>>"), iql.MustParse("<<t>>"), "rename", "S")
	p.Define(hdm.MustScheme("<<both>>"), iql.MustParse("<<t>>"), "rename", "S")
	p.Define(hdm.MustScheme("<<both>>"), iql.MustParse("<<u>>"), "rename", "S")

	one, err := p.Extent([]string{"one"})
	if err != nil {
		t.Fatal(err)
	}
	if !one.Equal(rows) || &one.Items()[0] != &rows.Items()[0] {
		t.Errorf("<<one>> = %s, shares its derivation's array: %v", one, &one.Items()[0] == &rows.Items()[0])
	}
	both, err := p.Extent([]string{"both"})
	if err != nil {
		t.Fatal(err)
	}
	if want := iql.Bag(iql.Int(1), iql.Int(2), iql.Int(3), iql.Int(4)); both.String() != want.String() {
		t.Errorf("<<both>> = %s, want %s", both, want)
	}
	if !one.Equal(rows) || rows.Len() != 3 {
		t.Errorf("the union wrote through a shared array: <<one>> = %s, <<t>> = %s", one, rows)
	}
}
