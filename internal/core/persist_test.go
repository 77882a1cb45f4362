package core

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/wrapper"
)

var updateGolden = flag.Bool("update", false, "rewrite golden snapshot files")

// multiIterationIntegrator drives a deterministic multi-iteration
// session exercising every snapshotted feature: two intersections (the
// second with a non-contributing source, so extends and warnings
// appear), a derived concept, a refinement, auto-derived deletes, and
// a static source alongside the relational ones.
func multiIterationIntegrator(t *testing.T) *Integrator {
	t.Helper()
	wl, err := wrapper.NewRelational("Library", libraryDB(t))
	if err != nil {
		t.Fatal(err)
	}
	ws, err := wrapper.NewRelational("Shop", shopDB(t))
	if err != nil {
		t.Fatal(err)
	}
	st := wrapper.NewStatic("Curated")
	if err := st.Add(hdm.MustScheme("<<picks>>"), hdm.Nodal, "sql", "table",
		iql.Bag(iql.Str("978-2"), iql.Str("978-9"))); err != nil {
		t.Fatal(err)
	}
	ig, err := New(wl, ws, st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ig.Federate("F"); err != nil {
		t.Fatal(err)
	}
	if _, err := ig.Intersect("I1", bookMappings(), "Q1", "Q2"); err != nil {
		t.Fatal(err)
	}
	if err := ig.Refine("shelves", Attribute("<<UBook, shelf>>",
		From("Library", "[{'LIB', k, x} | {k, x} <- <<books, shelf>>]")), "Q3"); err != nil {
		t.Fatal(err)
	}
	// I2: Shop alone contributes prices, so Library's image extends
	// <<UPriced, price>> with Range Void Any — the warning-raising path.
	// UExpensive is a derived concept over the integrated namespace.
	if _, err := ig.Intersect("I2", []Mapping{
		Entity("<<UPriced>>",
			From("Library", "[{'LIB', k} | k <- <<books>>]"),
			From("Shop", "[{'SHOP', k} | k <- <<items>>]"),
		),
		Attribute("<<UPriced, price>>",
			From("Shop", "[{'SHOP', k, x} | {k, x} <- <<items, price>>]"),
		),
		Mapping{Target: "<<UExpensive>>", Forward: []SourceQuery{
			Derived("[k | {k, x} <- <<UPriced, price>>; x > 35.0]"),
		}},
	}, "Q4"); err != nil {
		t.Fatal(err)
	}
	return ig
}

// exportJSON marshals a snapshot with stable indentation.
func exportJSON(t *testing.T, ig *Integrator) []byte {
	t.Helper()
	snap, err := ig.Export()
	if err != nil {
		t.Fatal(err)
	}
	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(buf, '\n')
}

// decodeSnapshot is the load path the server store uses: UseNumber
// keeps int64 row cells exact.
func decodeSnapshot(t *testing.T, data []byte) *Snapshot {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var snap Snapshot
	if err := dec.Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return &snap
}

// queriesForVersions answers a fixed query workload against every
// published version, returning rendered values plus warnings, to
// compare integrators behaviourally.
func versionedAnswers(t *testing.T, ig *Integrator) map[string][]string {
	t.Helper()
	workload := map[int][]string{
		0: {"count(<<library_books>>)", "count(<<curated_picks>>)", "[x | {k, x} <- <<shop_items, price>>]"},
		1: {"count(<<UBook>>)", "[x | {k, x} <- <<UBook, isbn>>]"},
		2: {"count(<<UBook, shelf>>)"},
		3: {"count(<<UPriced>>)", "[x | {k, x} <- <<UPriced, price>>]", "count(<<UExpensive>>)"},
	}
	out := make(map[string][]string)
	for _, sv := range ig.Versions() {
		for _, q := range workload[sv.Version] {
			res, err := ig.QueryAt(context.Background(), sv.Version, q)
			if err != nil {
				t.Fatalf("version %d query %q: %v", sv.Version, q, err)
			}
			sorted := res.Value
			if s, err := iql.SortBag(res.Value); err == nil {
				sorted = s
			}
			key := "v" + res.Schema + "|" + q
			out[key] = append([]string{sorted.String()}, res.Warnings...)
		}
	}
	return out
}

// TestExportImportRoundTrip is the deep-equality guard: exporting,
// JSON-encoding, importing and re-exporting must reproduce the
// snapshot byte for byte, and the restored integrator must answer the
// whole versioned workload (values and warnings) identically and keep
// accepting iterations.
func TestExportImportRoundTrip(t *testing.T) {
	ig := multiIterationIntegrator(t)
	first := exportJSON(t, ig)

	restored, err := Import(decodeSnapshot(t, first))
	if err != nil {
		t.Fatal(err)
	}
	second := exportJSON(t, restored)
	if !bytes.Equal(first, second) {
		t.Fatalf("Export(Import(Export(x))) differs from Export(x):\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}

	if got, want := versionedAnswers(t, restored), versionedAnswers(t, ig); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored answers differ:\ngot  %v\nwant %v", got, want)
	}
	if got, want := restored.Report(), ig.Report(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored report differs:\ngot  %+v\nwant %+v", got, want)
	}
	if got, want := restored.GlobalVersion(), ig.GlobalVersion(); got != want {
		t.Fatalf("restored version = %d, want %d", got, want)
	}

	// Integration continues on the restored session.
	if err := restored.Refine("post-restore", Attribute("<<UBook, price2>>",
		From("Shop", "[{'SHOP', k, x} | {k, x} <- <<items, price>>]")), "Q9"); err != nil {
		t.Fatal(err)
	}
	if got := restored.GlobalVersion(); got != ig.GlobalVersion()+1 {
		t.Fatalf("post-restore iteration published version %d, want %d", got, ig.GlobalVersion()+1)
	}
	res, err := restored.Query("count(<<UBook, price2>>)")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Value.Equal(iql.Int(2)) {
		t.Fatalf("post-restore query = %s, want 2", res.Value)
	}
}

// TestGoldenSnapshot is the format-stability guard: the committed
// golden file must match a fresh export byte for byte (regenerate
// deliberately with -update when the format version is bumped), and —
// independently of today's export — the golden file must keep loading
// and answering queries.
func TestGoldenSnapshot(t *testing.T) {
	golden := filepath.Join("testdata", "golden_session.json")
	got := exportJSON(t, multiIterationIntegrator(t))
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("export differs from %s — the snapshot format changed; bump core.SnapshotFormat and regenerate with -update", golden)
	}

	ig, err := Import(decodeSnapshot(t, want))
	if err != nil {
		t.Fatalf("golden file no longer loads: %v", err)
	}
	res, err := ig.Query("count(<<UBook>>)")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Value.Equal(iql.Int(5)) {
		t.Fatalf("golden session count(<<UBook>>) = %s, want 5", res.Value)
	}
	res, err = ig.QueryAt(context.Background(), 3, "[x | {k, x} <- <<UPriced, price>>]")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) == 0 {
		t.Fatal("golden session lost its incompleteness warnings")
	}
}

// TestImportRejectsCorruptSnapshots checks malformed snapshots error
// out instead of panicking or silently half-loading.
func TestImportRejectsCorruptSnapshots(t *testing.T) {
	good, err := multiIterationIntegrator(t).Export()
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(*Snapshot)) *Snapshot {
		// Deep-copy through JSON so mutations don't alias.
		buf, err := json.Marshal(good)
		if err != nil {
			t.Fatal(err)
		}
		var snap Snapshot
		if err := json.Unmarshal(buf, &snap); err != nil {
			t.Fatal(err)
		}
		f(&snap)
		return &snap
	}
	cases := map[string]*Snapshot{
		"nil":        nil,
		"bad format": mutate(func(s *Snapshot) { s.Format = 99 }),
		"no sources": mutate(func(s *Snapshot) { s.Sources = nil }),
		"bad repo": mutate(func(s *Snapshot) {
			if err := json.Unmarshal([]byte(`{"version":1,"schemas":[{"name":"X","objects":[{"scheme":"<<","kind":"nodal"}]}]}`), &s.Repo); err != nil {
				t.Fatal(err)
			}
		}),
		"missing fed":    mutate(func(s *Snapshot) { s.FedName = "Elsewhere" }),
		"bad definition": mutate(func(s *Snapshot) { s.Definitions[0].Query = "[ <-" }),
		"bad def object": mutate(func(s *Snapshot) { s.Definitions[0].Object = "<<" }),
		"missing version schema": mutate(func(s *Snapshot) {
			s.Versions[1].Schema = "GS99"
		}),
		"missing intersection schema": mutate(func(s *Snapshot) {
			s.Intersections[0].Name = "I9"
		}),
		"bad derived kind": mutate(func(s *Snapshot) {
			s.Derived[0].Kind = "banana"
		}),
	}
	for name, snap := range cases {
		if _, err := Import(snap); err == nil {
			t.Errorf("%s: corrupt snapshot imported without error", name)
		}
	}
}

// TestSecondExportSharesTheFirst: a save costs what the step before it
// added. Every schema and pathway the first Export encoded stands byte
// for byte in the repository document of the Export after a Refine, every
// definition the first held is in the second with the very same query
// text (one string, rendered once), and an Export with nothing new to
// encode allocates the snapshot's own small members and no copy of the
// document: its bytes do not grow with the repository's.
func TestSecondExportSharesTheFirst(t *testing.T) {
	ig := multiIterationIntegrator(t)
	first, err := ig.Export()
	if err != nil {
		t.Fatal(err)
	}
	firstRepo := repoBytes(t, first)
	if err := ig.Refine("titles", Attribute("<<UBook, heading>>",
		From("Library", "[{'LIB', k, x} | {k, x} <- <<books, title>>]")), "Q5"); err != nil {
		t.Fatal(err)
	}
	second, err := ig.Export()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Schemas, Pathways []json.RawMessage }
	if err := json.Unmarshal(firstRepo, &doc); err != nil {
		t.Fatal(err)
	}
	secondRepo := repoBytes(t, second)
	if len(doc.Schemas) == 0 || len(doc.Pathways) == 0 || len(secondRepo) <= len(firstRepo) {
		t.Fatalf("%d schemas, %d pathways, documents of %d then %d bytes", len(doc.Schemas), len(doc.Pathways), len(firstRepo), len(secondRepo))
	}
	for _, frag := range append(doc.Schemas, doc.Pathways...) {
		if !bytes.Contains(secondRepo, frag) {
			t.Errorf("the second document lacks %s", frag)
		}
	}
	texts := map[*byte]bool{}
	for _, d := range second.Definitions {
		texts[unsafe.StringData(d.Query)] = true
	}
	if len(second.Definitions) <= len(first.Definitions) {
		t.Fatalf("%d definitions, then %d", len(first.Definitions), len(second.Definitions))
	}
	for _, d := range first.Definitions {
		if !texts[unsafe.StringData(d.Query)] {
			t.Errorf("the query of %s was rendered again: %s", d.Object, d.Query)
		}
	}
	var third *Snapshot
	allocs := testing.AllocsPerRun(5, func() { third, err = ig.Export() })
	if err != nil || !bytes.Equal(repoBytes(t, third), secondRepo) || !reflect.DeepEqual(third.Definitions, second.Definitions) {
		t.Fatalf("a repeated Export differs (%v)", err)
	}
	// Three slices of fragments and names in Document; a handful per
	// definition, intersection, version and iteration (170 here, where
	// encoding the repository again made it 1,005).
	if bound := float64(100 + 6*len(third.Definitions)); allocs > bound {
		t.Errorf("an Export with nothing new to encode is %.0f allocations, want at most %.0f", allocs, bound)
	}
	t.Logf("%d schemas, %d pathways, %d definitions, %d B: %.0f allocations", len(doc.Schemas), len(doc.Pathways), len(third.Definitions), len(secondRepo), allocs)

	// The bytes of such an Export, against those of one over a repository
	// four times the size (schemas stored beside the plan's, so the
	// snapshot's other members stay as they were): a save holds no copy
	// of the document, so what grows is a slice header and a name a
	// schema.
	small, smallDoc := exportBytes(t, ig), len(secondRepo)
	for i := 0; len(repoBytes(t, mustExport(t, ig))) < 4*smallDoc; i++ {
		extra := hdm.NewSchema(fmt.Sprintf("Extra%d", i))
		for j := range 50 {
			extra.MustAdd(hdm.NewObject(hdm.MustScheme(fmt.Sprintf("<<extra%d, column%d>>", i, j)), hdm.Link, "sql", "column"))
		}
		if err := ig.Repo().AddSchema(extra); err != nil {
			t.Fatal(err)
		}
	}
	large, largeDoc := exportBytes(t, ig), len(repoBytes(t, mustExport(t, ig)))
	if large > small+uint64(largeDoc-smallDoc)/16 {
		t.Errorf("an Export with nothing new to encode allocates %d B over a %d B document and %d B over a %d B one: it grows with the document", small, smallDoc, large, largeDoc)
	}
	t.Logf("an Export with nothing new to encode: %d B over a %d B document, %d B over a %d B one", small, smallDoc, large, largeDoc)
}

// mustExport is ig.Export or the end of the test.
func mustExport(t *testing.T, ig *Integrator) *Snapshot {
	t.Helper()
	snap, err := ig.Export()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// repoBytes is the repository document of snap, joined.
func repoBytes(t *testing.T, snap *Snapshot) []byte {
	t.Helper()
	doc, err := snap.Repo.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// exportBytes is what an Export of ig allocates, in bytes, once its
// memo is warm: the least of several runs.
func exportBytes(t *testing.T, ig *Integrator) uint64 {
	t.Helper()
	mustExport(t, ig)
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range 5 {
		runtime.ReadMemStats(&before)
		mustExport(t, ig)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
