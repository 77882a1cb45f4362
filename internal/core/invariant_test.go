package core

import (
	"fmt"
	"strings"
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

// TestRejectedIterationLeavesNothing: a mappings table is written by
// hand per iteration, so a rejected one is the normal case — and it must
// be harmless. An Intersect refused at its second source and a Refine
// refused at its second forward entry leave repository, derivations,
// versions, report and answers as they were, and the corrected call
// under the same name then succeeds with nothing counted twice.
func TestRejectedIterationLeavesNothing(t *testing.T) {
	answer := func(t *testing.T, ig *Integrator, q string) string {
		t.Helper()
		res, err := ig.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return res.Value.String()
	}
	state := func(t *testing.T, ig *Integrator, probe string) string {
		t.Helper()
		var b strings.Builder
		fmt.Fprintln(&b, ig.Repo().Stats(), ig.Repo().SchemaNames())
		for _, od := range ig.Processor().AllDerivations() {
			for _, d := range od.Derivs {
				fmt.Fprintln(&b, od.Key, d.Query, d.Lower, d.Via, d.Scope)
			}
		}
		for _, v := range ig.Versions() {
			fmt.Fprintln(&b, v.Version, v.Schema.Name(), v.Schema.Len())
		}
		fmt.Fprintf(&b, "%+v\n%s = %s\n", ig.Report(), probe, answer(t, ig, probe))
		return b.String()
	}
	// Shop contributes two items and Archive one scan.
	ubook := func(scans string) []Mapping {
		return []Mapping{Entity("<<UBook>>",
			From("Shop", "[{'SHOP', k} | k <- <<items>>]"),
			From("Archive", "[{'ARC', k} | k <- <<"+scans+">>]"),
		)}
	}

	t.Run("Intersect", func(t *testing.T) {
		ig := newIntegrator(t)
		if _, err := ig.Federate("F"); err != nil {
			t.Fatal(err)
		}
		const probe = "count(<<shop_items>>) + count(<<archive_scans>>)"
		before := state(t, ig, probe)
		// Archive's entry names an object it does not have.
		if _, err := ig.Intersect("I1", ubook("scanz")); err == nil {
			t.Fatal("an intersection whose second source names a missing object succeeded")
		}
		if after := state(t, ig, probe); after != before {
			t.Errorf("the rejected intersection left residue:\nbefore:\n%s\nafter:\n%s", before, after)
		}
		if _, err := ig.Intersect("I1", ubook("scans")); err != nil {
			t.Fatalf("the corrected intersection under the same name: %v", err)
		}
		if got := answer(t, ig, "count(<<UBook>>)"); got != "3" {
			t.Errorf("count(<<UBook>>) = %s, want 3: Shop's two and Archive's one, each once", got)
		}
	})

	t.Run("Refine", func(t *testing.T) {
		ig := newIntegrator(t)
		if _, err := ig.Federate("F"); err != nil {
			t.Fatal(err)
		}
		if _, err := ig.Intersect("I1", ubook("scans")); err != nil {
			t.Fatal(err)
		}
		format := func(second string) Mapping {
			return Attribute("<<UBook, format>>",
				From("Archive", "[{'ARC', k, x} | {k, x} <- <<scans, format>>]"),
				From("Shop", second),
			)
		}
		const probe = "count(<<UBook>>)"
		before := state(t, ig, probe)
		if err := ig.Refine("formats", format("[{'SHOP', k, x} | {k, x} <- ")); err == nil {
			t.Fatal("a refinement whose second entry does not parse succeeded")
		}
		if after := state(t, ig, probe); after != before {
			t.Errorf("the rejected refinement left residue:\nbefore:\n%s\nafter:\n%s", before, after)
		}
		if err := ig.Refine("formats", format("[{'SHOP', k, 'print'} | k <- <<items>>]")); err != nil {
			t.Fatalf("the corrected refinement under the same name: %v", err)
		}
		if got := answer(t, ig, "count(<<UBook, format>>)"); got != "3" {
			t.Errorf("count(<<UBook, format>>) = %s, want 3: Archive's one and Shop's two, each once", got)
		}
	})
}
