package core

import (
	"testing"

	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/rel"
	"github.com/dataspace/automed/internal/wrapper"
)

// TestDropInvariance: answers to queries over integrated objects are
// identical whether or not redundant source objects are dropped — the
// − operator only removes objects whose extents the intersection
// subsumes (paper §2.2).
func TestDropInvariance(t *testing.T) {
	queries := []string{
		"count(<<UBook>>)",
		"sort([{s, k, x} | {s, k, x} <- <<UBook, isbn>>])",
		"sort([{s, k} | {s, k, x} <- <<UBook, title>>; contains(x, 'Matching')])",
	}
	answers := func(drop bool) []iql.Value {
		ig := newIntegrator(t)
		ig.SetAutoDrop(drop)
		if _, err := ig.Federate("F"); err != nil {
			t.Fatal(err)
		}
		if _, err := ig.Intersect("I1", bookMappings()); err != nil {
			t.Fatal(err)
		}
		var out []iql.Value
		for _, q := range queries {
			res, err := ig.Query(q)
			if err != nil {
				t.Fatalf("drop=%v %q: %v", drop, q, err)
			}
			out = append(out, res.Value)
		}
		return out
	}
	kept := answers(false)
	dropped := answers(true)
	for i := range queries {
		if !kept[i].Equal(dropped[i]) {
			t.Errorf("%q differs under drop: %s vs %s", queries[i], kept[i], dropped[i])
		}
	}
}

// TestGlobalExtentIsUnionOfSourceDerivations: the bag-union semantics —
// an integrated object's extent equals the concatenation of evaluating
// each source's forward query directly against its wrapper.
func TestGlobalExtentIsUnionOfSourceDerivations(t *testing.T) {
	ig := newIntegrator(t)
	if _, err := ig.Federate("F"); err != nil {
		t.Fatal(err)
	}
	if _, err := ig.Intersect("I1", bookMappings()); err != nil {
		t.Fatal(err)
	}
	got, err := ig.Extent("<<UBook, isbn>>")
	if err != nil {
		t.Fatal(err)
	}
	// Recompute independently, straight off the wrappers.
	var manual []iql.Value
	for _, w := range ig.Sources() {
		var q string
		switch w.SchemaName() {
		case "Library":
			q = "[{'LIB', k, x} | {k, x} <- <<books, isbn>>]"
		case "Shop":
			q = "[{'SHOP', k, x} | {k, x} <- <<items, barcode>>]"
		default:
			continue
		}
		ev := iql.NewEvaluator(iql.ExtentsFunc(w.Extent))
		v, err := ev.Eval(iql.MustParse(q), nil)
		if err != nil {
			t.Fatal(err)
		}
		manual = append(manual, v.Items()...)
	}
	if !got.Equal(iql.BagOf(manual)) {
		t.Errorf("union semantics violated: %s vs %s", got, iql.BagOf(manual))
	}
}

// TestKAryIntersection exercises the k=3 generalisation (the paper's
// future work, needed by its own case study) directly at the core API:
// one intersection over three sources, with one source not contributing
// to one attribute (auto extend placeholder).
func TestKAryIntersection(t *testing.T) {
	third := rel.NewDB("Depot")
	tbl := third.MustCreateTable("stock", []rel.Column{
		{Name: "code", Type: rel.String},
		{Name: "ean", Type: rel.String},
	}, "code")
	tbl.MustInsert("D1", "978-1")
	tbl.MustInsert("D2", "978-9")
	wd, err := wrapper.NewRelational("Depot", third)
	if err != nil {
		t.Fatal(err)
	}
	wl, _ := wrapper.NewRelational("Library", libraryDB(t))
	ws, _ := wrapper.NewRelational("Shop", shopDB(t))
	ig, err := New(wl, ws, wd)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ig.Federate("F"); err != nil {
		t.Fatal(err)
	}
	in, err := ig.Intersect("I1", []Mapping{
		Entity("<<UBook>>",
			From("Library", "[{'LIB', k} | k <- <<books>>]"),
			From("Shop", "[{'SHOP', k} | k <- <<items>>]"),
			From("Depot", "[{'DEPOT', k} | k <- <<stock>>]"),
		),
		Attribute("<<UBook, isbn>>",
			From("Library", "[{'LIB', k, x} | {k, x} <- <<books, isbn>>]"),
			From("Shop", "[{'SHOP', k, x} | {k, x} <- <<items, barcode>>]"),
			From("Depot", "[{'DEPOT', k, x} | {k, x} <- <<stock, ean>>]"),
		),
		// Only two of the three sources support titles.
		Attribute("<<UBook, title>>",
			From("Library", "[{'LIB', k, x} | {k, x} <- <<books, title>>]"),
			From("Shop", "[{'SHOP', k, x} | {k, x} <- <<items, name>>]"),
		),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Sources) != 3 {
		t.Fatalf("sources = %v", in.Sources)
	}
	// Depot's pathway carries an extend placeholder for title.
	var extends int
	for _, st := range in.PathwayBySource["Depot"].Steps {
		if st.Kind.String() == "extend" {
			extends++
		}
	}
	if extends != 1 {
		t.Errorf("Depot extends = %d, want 1", extends)
	}
	// All three images are union-compatible (same object set), so the
	// idents were injected pairwise: 2 pairs × 3 objects.
	if in.Counts.AutoIDs != 6 {
		t.Errorf("AutoIDs = %d, want 6", in.Counts.AutoIDs)
	}
	// Three-way union.
	res, err := ig.Query("count(<<UBook>>)")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Value.Equal(iql.Int(7)) { // 3 + 2 + 2
		t.Errorf("count = %s", res.Value)
	}
	// The shared ISBN appears from two sources.
	res, err = ig.Query("[s | {s, k, x} <- <<UBook, isbn>>; x = '978-1']")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Value.Equal(iql.Bag(iql.Str("LIB"), iql.Str("DEPOT"))) {
		t.Errorf("978-1 owners = %s", res.Value)
	}
}
