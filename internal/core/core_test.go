package core

import (
	"context"
	"strings"
	"testing"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/rel"
	"github.com/dataspace/automed/internal/transform"
	"github.com/dataspace/automed/internal/wrapper"
)

// Toy scenario: two book catalogues with overlapping content plus a
// third source left un-integrated, mirroring Figs. 2-4 of the paper.

func libraryDB(t *testing.T) *rel.DB {
	t.Helper()
	db := rel.NewDB("Library")
	books := db.MustCreateTable("books", []rel.Column{
		{Name: "id", Type: rel.Int},
		{Name: "isbn", Type: rel.String},
		{Name: "title", Type: rel.String},
		{Name: "shelf", Type: rel.String},
	}, "id")
	books.MustInsert(int64(1), "978-1", "Dataspaces", "A1")
	books.MustInsert(int64(2), "978-2", "Schema Matching", "A2")
	books.MustInsert(int64(3), "978-3", "Query Rewriting", "B1")
	return db
}

func shopDB(t *testing.T) *rel.DB {
	t.Helper()
	db := rel.NewDB("Shop")
	items := db.MustCreateTable("items", []rel.Column{
		{Name: "sku", Type: rel.String},
		{Name: "barcode", Type: rel.String},
		{Name: "name", Type: rel.String},
		{Name: "price", Type: rel.Float},
	}, "sku")
	items.MustInsert("S1", "978-2", "Schema Matching", 30.0)
	items.MustInsert("S2", "978-4", "Data Integration", 40.0)
	return db
}

func archiveDB(t *testing.T) *rel.DB {
	t.Helper()
	db := rel.NewDB("Archive")
	scans := db.MustCreateTable("scans", []rel.Column{
		{Name: "scan_id", Type: rel.Int},
		{Name: "format", Type: rel.String},
	}, "scan_id")
	scans.MustInsert(int64(100), "pdf")
	return db
}

func newIntegrator(t *testing.T) *Integrator {
	t.Helper()
	wl, err := wrapper.NewRelational("Library", libraryDB(t))
	if err != nil {
		t.Fatal(err)
	}
	ws, err := wrapper.NewRelational("Shop", shopDB(t))
	if err != nil {
		t.Fatal(err)
	}
	wa, err := wrapper.NewRelational("Archive", archiveDB(t))
	if err != nil {
		t.Fatal(err)
	}
	ig, err := New(wl, ws, wa)
	if err != nil {
		t.Fatal(err)
	}
	return ig
}

func bookMappings() []Mapping {
	return []Mapping{
		Entity("<<UBook>>",
			From("Library", "[{'LIB', k} | k <- <<books>>]"),
			From("Shop", "[{'SHOP', k} | k <- <<items>>]"),
		),
		Attribute("<<UBook, isbn>>",
			From("Library", "[{'LIB', k, x} | {k, x} <- <<books, isbn>>]"),
			From("Shop", "[{'SHOP', k, x} | {k, x} <- <<items, barcode>>]"),
		),
		Attribute("<<UBook, title>>",
			From("Library", "[{'LIB', k, x} | {k, x} <- <<books, title>>]"),
			From("Shop", "[{'SHOP', k, x} | {k, x} <- <<items, name>>]"),
		),
	}
}

func TestFederateExposesPrefixedObjects(t *testing.T) {
	ig := newIntegrator(t)
	fed, err := ig.Federate("F")
	if err != nil {
		t.Fatal(err)
	}
	// 3 sources: (1 table + 4 cols) + (1 + 4) + (1 + 2) = 13 objects.
	if fed.Len() != 13 {
		t.Fatalf("federated schema has %d objects, want 13", fed.Len())
	}
	for _, want := range []string{"library_books", "shop_items", "archive_scans"} {
		if !fed.Has(hdm.NewScheme(want)) {
			t.Errorf("federated schema missing <<%s>>", want)
		}
	}
	// Data services immediately available over the federation.
	res, err := ig.Query("count(<<library_books>>)")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Value.Equal(iql.Int(3)) {
		t.Errorf("count(library_books) = %s, want 3", res.Value)
	}
	// Column extents reachable with suffix resolution.
	res, err = ig.Query("[x | {k, x} <- <<shop_items, price>>]")
	if err != nil {
		t.Fatal(err)
	}
	if res.Value.Len() != 2 {
		t.Errorf("price extent = %s", res.Value)
	}
}

func TestFederateTwiceFails(t *testing.T) {
	ig := newIntegrator(t)
	if _, err := ig.Federate("F"); err != nil {
		t.Fatal(err)
	}
	if _, err := ig.Federate("F2"); err == nil {
		t.Fatal("second Federate succeeded, want error")
	}
}

func TestIntersectBagUnionSemantics(t *testing.T) {
	ig := newIntegrator(t)
	if _, err := ig.Federate("F"); err != nil {
		t.Fatal(err)
	}
	in, err := ig.Intersect("I1", bookMappings(), "Q1")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(in.Sources); got != 2 {
		t.Fatalf("intersection sources = %v", in.Sources)
	}
	// UBook = 3 library + 2 shop = 5 (bag union, duplicates kept).
	res, err := ig.Query("count(<<UBook>>)")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Value.Equal(iql.Int(5)) {
		t.Errorf("count(UBook) = %s, want 5", res.Value)
	}
	// The overlapping ISBN appears twice, once per source.
	res, err = ig.Query("[{s, k} | {s, k, x} <- <<UBook, isbn>>; x = '978-2']")
	if err != nil {
		t.Fatal(err)
	}
	want := iql.Bag(
		iql.Tuple(iql.Str("LIB"), iql.Int(2)),
		iql.Tuple(iql.Str("SHOP"), iql.Str("S1")),
	)
	if !res.Value.Equal(want) {
		t.Errorf("isbn 978-2 owners = %s, want %s", res.Value, want)
	}
}

func TestIntersectionPathwayNormalForm(t *testing.T) {
	ig := newIntegrator(t)
	if _, err := ig.Federate("F"); err != nil {
		t.Fatal(err)
	}
	in, err := ig.Intersect("I1", bookMappings())
	if err != nil {
		t.Fatal(err)
	}
	for src, pw := range in.PathwayBySource {
		if err := pw.IsIntersectionForm(); err != nil {
			t.Errorf("pathway for %s not in normal form: %v", src, err)
		}
		// Applying the pathway to the source schema must yield exactly
		// the intersection schema's objects.
		srcSchema := ig.sourceSchema(src)
		derived, err := applyForTest(srcSchema, pw)
		if err != nil {
			t.Fatalf("applying pathway for %s: %v", src, err)
		}
		if derived.Len() != in.Schema.Len() {
			t.Errorf("pathway for %s yields %d objects, intersection has %d",
				src, derived.Len(), in.Schema.Len())
		}
		for _, sc := range in.Targets {
			if !derived.Has(sc) {
				t.Errorf("pathway for %s missing target %s", src, sc)
			}
		}
	}
	// Effort: 6 manual adds (3 mappings × 2 sources), each source
	// deletes its mapped table+2 columns, contracts the remainder.
	if in.Counts.ManualAdds != 6 {
		t.Errorf("ManualAdds = %d, want 6", in.Counts.ManualAdds)
	}
	if in.Counts.AutoDeletes != 6 { // books,isbn,title + items,barcode,name
		t.Errorf("AutoDeletes = %d, want 6", in.Counts.AutoDeletes)
	}
	// Library: 5 objects − 3 deleted = 2 contracts; Shop: 5 − 3 = 2.
	if in.Counts.AutoContracts != 4 {
		t.Errorf("AutoContracts = %d, want 4", in.Counts.AutoContracts)
	}
	// Ident between the two images: one id per intersection object.
	if in.Counts.AutoIDs != 3 {
		t.Errorf("AutoIDs = %d, want 3", in.Counts.AutoIDs)
	}
}

func TestGlobalSchemaWithRedundancyDrop(t *testing.T) {
	ig := newIntegrator(t)
	if _, err := ig.Federate("F"); err != nil {
		t.Fatal(err)
	}
	if _, err := ig.Intersect("I1", bookMappings()); err != nil {
		t.Fatal(err)
	}
	g, err := ig.BuildGlobal(true)
	if err != nil {
		t.Fatal(err)
	}
	// G = 3 intersection objects + (13 federated − 6 redundant) = 10.
	if g.Len() != 10 {
		t.Fatalf("global schema has %d objects, want 10:\n%s", g.Len(), g.Describe())
	}
	// Redundant objects are gone...
	if g.Has(hdm.NewScheme("library_books")) {
		t.Error("library_books should have been dropped as redundant")
	}
	// ...but non-mapped ones stay.
	for _, keep := range []string{"library_books_shelf", "shop_items_price", "archive_scans"} {
		_ = keep
	}
	if !g.Has(hdm.NewScheme("library_books", "shelf")) {
		t.Error("library_books.shelf should remain")
	}
	if !g.Has(hdm.NewScheme("shop_items", "price")) {
		t.Error("shop_items.price should remain")
	}
	if !g.Has(hdm.NewScheme("archive_scans")) {
		t.Error("archive_scans should remain")
	}
	// Queries over dropped objects now fail...
	if _, err := ig.Query("count(<<library_books>>)"); err == nil {
		t.Error("query over dropped object succeeded")
	}
	// ...while the intersection subsumes their extents.
	res, err := ig.Query("count(<<UBook>>)")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Value.Equal(iql.Int(5)) {
		t.Errorf("count(UBook) = %s, want 5", res.Value)
	}
	// Un-dropped source data still reachable through the federation
	// remainder, joined with intersection data.
	res, err = ig.Query("[x | {s, k, ttl} <- <<UBook, title>>; s = 'LIB'; {k2, x} <- <<library_books, shelf>>; k = k2]")
	if err != nil {
		t.Fatal(err)
	}
	if res.Value.Len() != 3 {
		t.Errorf("shelf join = %s, want 3 shelves", res.Value)
	}
}

func TestGlobalSchemaWithoutDropKeepsEverything(t *testing.T) {
	ig := newIntegrator(t)
	if _, err := ig.Federate("F"); err != nil {
		t.Fatal(err)
	}
	if _, err := ig.Intersect("I1", bookMappings()); err != nil {
		t.Fatal(err)
	}
	g, err := ig.BuildGlobal(false)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 16 { // 3 + 13
		t.Fatalf("global schema has %d objects, want 16", g.Len())
	}
	res, err := ig.Query("count(<<library_books>>)")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Value.Equal(iql.Int(3)) {
		t.Errorf("count(library_books) = %s, want 3", res.Value)
	}
}

func TestRefineAddsConceptFromSingleSource(t *testing.T) {
	ig := newIntegrator(t)
	if _, err := ig.Federate("F"); err != nil {
		t.Fatal(err)
	}
	if _, err := ig.Intersect("I1", bookMappings()); err != nil {
		t.Fatal(err)
	}
	err := ig.Refine("add-price", Mapping{
		Target:  "<<UBook, price>>",
		Forward: []SourceQuery{From("Shop", "[{'SHOP', k, x} | {k, x} <- <<items, price>>]")},
	}, "Q2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ig.BuildGlobal(true); err != nil {
		t.Fatal(err)
	}
	res, err := ig.Query("[x | {s, k, x} <- <<UBook, price>>]")
	if err != nil {
		t.Fatal(err)
	}
	if res.Value.Len() != 2 {
		t.Errorf("UBook.price = %s", res.Value)
	}
	rep := ig.Report()
	found := false
	for _, it := range rep.Iterations {
		if it.Kind == "refinement" && it.Counts.ManualAdds == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("refinement iteration not recorded: %+v", rep.Iterations)
	}
}

func TestDerivedConcept(t *testing.T) {
	ig := newIntegrator(t)
	if _, err := ig.Federate("F"); err != nil {
		t.Fatal(err)
	}
	mappings := append(bookMappings(), Mapping{
		Target: "<<UBookPair>>",
		Forward: []SourceQuery{Derived(
			"[{k1, k2} | {s1, k1, x} <- <<UBook, isbn>>; {s2, k2, y} <- <<UBook, isbn>>; x = y; s1 = 'LIB'; s2 = 'SHOP']",
		)},
	})
	in, err := ig.Intersect("I1", mappings)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Derived) != 1 {
		t.Fatalf("derived concepts = %v", in.Derived)
	}
	// The derived join finds the one overlapping book.
	res, err := ig.Query("count(<<UBookPair>>)")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Value.Equal(iql.Int(1)) {
		t.Errorf("count(UBookPair) = %s, want 1", res.Value)
	}
	// Derived concepts are global-level: not part of the
	// union-compatible images.
	for src, pw := range in.PathwayBySource {
		for _, st := range pw.Steps {
			if st.Object.Scheme.Equal(hdm.NewScheme("UBookPair")) {
				t.Errorf("derived concept leaked into pathway for %s", src)
			}
		}
	}
}

func TestAutoParentEntity(t *testing.T) {
	ig := newIntegrator(t)
	if _, err := ig.Federate("F"); err != nil {
		t.Fatal(err)
	}
	// Map only attributes; the tool must create <<UBook>> itself.
	mappings := []Mapping{
		Attribute("<<UBook, isbn>>",
			From("Library", "[{'LIB', k, x} | {k, x} <- <<books, isbn>>]"),
			From("Shop", "[{'SHOP', k, x} | {k, x} <- <<items, barcode>>]"),
		),
	}
	in, err := ig.Intersect("I1", mappings)
	if err != nil {
		t.Fatal(err)
	}
	if in.Counts.ManualAdds != 2 {
		t.Errorf("ManualAdds = %d, want 2 (parents are automatic)", in.Counts.ManualAdds)
	}
	if in.Counts.AutoAdds != 2 {
		t.Errorf("AutoAdds = %d, want 2", in.Counts.AutoAdds)
	}
	res, err := ig.Query("count(<<UBook>>)")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Value.Equal(iql.Int(5)) {
		t.Errorf("count(UBook) = %s, want 5", res.Value)
	}
}

func TestReverseProcessorAnswersSourceQueries(t *testing.T) {
	ig := newIntegrator(t)
	if _, err := ig.Federate("F"); err != nil {
		t.Fatal(err)
	}
	if _, err := ig.Intersect("I1", bookMappings()); err != nil {
		t.Fatal(err)
	}
	if _, err := ig.BuildGlobal(true); err != nil {
		t.Fatal(err)
	}
	rp, err := ig.ReverseProcessor()
	if err != nil {
		t.Fatal(err)
	}
	// The original Library <<books>> extent is recoverable from the
	// global schema via the reversed pathway (LAV direction).
	v, err := rp.Query("[k | k <- <<books>>]")
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(iql.Bag(iql.Int(1), iql.Int(2), iql.Int(3))) {
		t.Errorf("reverse books = %s", v)
	}
	// Column extents too.
	v, err = rp.Query("[{k, x} | {k, x} <- <<books, isbn>>]")
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 3 {
		t.Errorf("reverse books.isbn = %s", v)
	}
	// A contracted object has no information: empty with a warning.
	v, warns, _, err := rp.EvalContext(context.Background(), iql.MustParse("[{k, x} | {k, x} <- <<books, shelf>>]"))
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 0 {
		t.Errorf("reverse books.shelf = %s, want empty", v)
	}
	warned := false
	for _, w := range warns {
		if strings.Contains(w, "books, shelf") {
			warned = true
		}
	}
	if !warned {
		t.Errorf("no incompleteness warning for contracted object; warnings: %v", warns)
	}
}

func TestIntersectErrors(t *testing.T) {
	ig := newIntegrator(t)
	// Before federation.
	if _, err := ig.Intersect("I1", bookMappings()); err == nil {
		t.Error("Intersect before Federate succeeded")
	}
	if _, err := ig.Federate("F"); err != nil {
		t.Fatal(err)
	}
	// No mappings.
	if _, err := ig.Intersect("I1", nil); err == nil {
		t.Error("empty mappings succeeded")
	}
	// Unknown source.
	_, err := ig.Intersect("I1", []Mapping{
		Entity("<<U>>", From("NoSuch", "[k | k <- <<books>>]")),
	})
	if err == nil {
		t.Error("unknown source succeeded")
	}
	// Bad IQL.
	_, err = ig.Intersect("I1", []Mapping{
		Entity("<<U>>", From("Library", "[k | <-")),
	})
	if err == nil {
		t.Error("bad IQL succeeded")
	}
	// Bad target scheme.
	_, err = ig.Intersect("I1", []Mapping{
		Entity("<<>>", From("Library", "[k | k <- <<books>>]")),
	})
	if err == nil {
		t.Error("bad target succeeded")
	}
}

// applyForTest applies a pathway to a schema clone.
func applyForTest(src *hdm.Schema, pw *transform.Pathway) (*hdm.Schema, error) {
	return transform.ApplyPathway(src, pw, false)
}
