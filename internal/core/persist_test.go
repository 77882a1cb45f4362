package core

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/transform"
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
	ig := federatedLibrary(t)
	if _, err := ig.Intersect("I1", bookMappings(), "Q1", "Q2"); err != nil {
		t.Fatal(err)
	}
	if err := ig.Refine("shelves", Attribute("<<UBook, shelf>>",
		From("Library", "[{'LIB', k, x} | {k, x} <- <<books, shelf>>]")), "Q3"); err != nil {
		t.Fatal(err)
	}
	if _, err := ig.Intersect("I2", pricedMappings(), "Q4"); err != nil {
		t.Fatal(err)
	}
	return ig
}

// pricedMappings are multiIterationIntegrator's second intersection:
// Shop alone contributes prices, so Library's image extends <<UPriced,
// price>> with Range Void Any — the warning-raising path. UExpensive is
// a derived concept over the integrated namespace.
func pricedMappings() []Mapping {
	return []Mapping{
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
	}
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
	// So is a step record of no known kind, or a refinement without its
	// mapping.
	ig, err := Import(good)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []Step{{Kind: "merge", Name: "x"}, {Kind: StepRefine, Name: "x"}} {
		if err := ig.Apply(st); err == nil {
			t.Errorf("the step %+v was applied", st)
		}
	}
}

// federatedLibrary is multiIterationIntegrator's sources, federated.
func federatedLibrary(t *testing.T) *Integrator {
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
	return ig
}

// exportJSONOf is a snapshot as a session file holds it.
func exportJSONOf(t *testing.T, snap *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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

// TestImportsShareOneImage: every import of one snapshot shares the
// repository and definitions its first import decoded — first imports
// running at once included — each over a repository of its own: steps
// taken on one import, and a second import's own steps, leave the image
// encoding as the snapshot's repository and every later import
// answering as the first did.
func TestImportsShareOneImage(t *testing.T) {
	snap := decodeSnapshot(t, exportJSONOf(t, mustExport(t, federatedLibrary(t))))
	firsts := make([]*Integrator, 4)
	var wg sync.WaitGroup
	for i := range firsts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ig, err := Import(snap)
			if err != nil {
				t.Error(err)
			}
			firsts[i] = ig
		}()
	}
	wg.Wait()
	first, img := firsts[0], snap.image
	if first == nil || img == nil {
		t.Fatal("the first imports failed")
	}
	want := versionedAnswers(t, first)
	for i := range 2 {
		ig, err := Import(snap)
		if err != nil {
			t.Fatal(err)
		}
		if snap.image != img {
			t.Fatal("a second import made a second image")
		}
		if ig.Repo() == img.repo || ig.Repo() == first.Repo() {
			t.Fatal("an import shares its repository")
		}
		if got := versionedAnswers(t, ig); !reflect.DeepEqual(got, want) {
			t.Fatalf("import %d answers differently from the first:\ngot  %v\nwant %v", i+2, got, want)
		}
		if _, err := ig.Intersect("I1", bookMappings(), "Q1"); err != nil {
			t.Fatal(err)
		}
		if err := ig.Refine("shelves", Attribute("<<UBook, shelf>>",
			From("Library", "[{'LIB', k, x} | {k, x} <- <<books, shelf>>]")), "Q3"); err != nil {
			t.Fatal(err)
		}
		if doc, err := img.repo.MarshalJSON(); err != nil || !bytes.Equal(doc, snap.Repo) {
			t.Fatalf("after steps on import %d, the image encodes differently from the snapshot's repository (%v)", i+2, err)
		}
	}
}

// objectsOf is the schema's objects by value, in order.
func objectsOf(s *hdm.Schema) []hdm.Object {
	var out []hdm.Object
	for _, o := range s.All() {
		out = append(out, *o)
	}
	return out
}

// TestImportsTakeFederatedObjectsFromTheImage: two imports of one
// snapshot add the image's federated objects to their first global
// schema, by pointer — the federated schema's own — and that schema
// holds what the exporting integrator's holds after the same step.
func TestImportsTakeFederatedObjectsFromTheImage(t *testing.T) {
	ig := federatedLibrary(t)
	snap := decodeSnapshot(t, exportJSONOf(t, mustExport(t, ig)))
	step := func(g *Integrator) *hdm.Schema {
		t.Helper()
		if _, err := g.Intersect("I1", bookMappings()); err != nil {
			t.Fatal(err)
		}
		return g.Global()
	}
	want := objectsOf(step(ig))
	var firsts []map[string]*hdm.Object
	for range 2 {
		g, err := Import(snap)
		if err != nil {
			t.Fatal(err)
		}
		global := step(g)
		if got := objectsOf(global); !reflect.DeepEqual(got, want) {
			t.Fatalf("an import's first global schema holds\n%v\nwant\n%v", got, want)
		}
		byKey := make(map[string]*hdm.Object)
		for _, o := range global.All() {
			if f, ok := g.Federated().Object(o.Scheme); ok {
				if f != o {
					t.Errorf("%s adds a copy of the federated %s", global.Name(), o.Scheme)
				}
				byKey[o.Scheme.Key()] = o
			}
		}
		if len(byKey) == 0 {
			t.Fatalf("%s adds no federated object", global.Name())
		}
		firsts = append(firsts, byKey)
	}
	for k, o := range firsts[0] {
		if firsts[1][k] != o {
			t.Errorf("the two imports add different objects for %s", k)
		}
	}
}

// TestImportWithASkippedSourceBackfillsAndPrefixes: a checkpoint taken
// while federation had skipped a source is restored over the image's
// federated schema; once the source answers, Backfill publishes a
// version that adds it, leaving the image's federated schema as it was,
// and the next global schema holds every source's prefixed objects as
// the exporting integrator's does after the same steps.
func TestImportWithASkippedSourceBackfillsAndPrefixes(t *testing.T) {
	ig, down := degradedLibrary(t, false)
	snap := decodeSnapshot(t, exportJSONOf(t, mustExport(t, ig)))
	if len(snap.Skipped) != 1 {
		t.Fatalf("the snapshot skips %v, want [Shop]", snap.Skipped)
	}
	down.Set(wrapper.FaultConfig{})
	steps := func(g *Integrator) []hdm.Object {
		t.Helper()
		if got, err := g.Backfill(context.Background()); err != nil || len(got) != 1 {
			t.Fatalf("backfill recovered %v (%v), want [Shop]", got, err)
		}
		if _, err := g.Intersect("I1", bookMappings()); err != nil {
			t.Fatal(err)
		}
		return objectsOf(g.Global())
	}
	want := steps(ig)
	restored, err := Import(snap)
	if err != nil {
		t.Fatal(err)
	}
	imageFed, _ := snap.image.repo.Schema("F")
	if restored.Federated() != imageFed {
		t.Fatal("an import with a skipped source does not share the image's federated schema")
	}
	fedObjects := objectsOf(imageFed)
	for _, w := range restored.Sources() {
		if f, ok := w.(*wrapper.Fault); ok {
			f.Set(wrapper.FaultConfig{})
		}
	}
	if got := steps(restored); !reflect.DeepEqual(got, want) {
		t.Errorf("the restored integrator's global schema holds\n%v\nwant\n%v", got, want)
	}
	if got := objectsOf(imageFed); !reflect.DeepEqual(got, fedObjects) {
		t.Errorf("the restored integrator's backfill changed the image's federated schema to\n%v\nfrom\n%v", got, fedObjects)
	}
	for _, sc := range []string{"<<library_books>>", "<<shop_items, price>>"} {
		if !restored.Global().Has(hdm.MustScheme(sc)) {
			t.Errorf("the global schema lacks %s", sc)
		}
	}
}

// TestImportsStepAtOnce: several sessions restore one decoded
// checkpoint at once, and each takes the plan's next steps and asks
// queries while the others do. None of them writes what they share —
// the image's repository, definitions and federated objects, and the
// Range Void Any of the steps they build — and each answers every
// version as the integrator that took the same steps without a
// checkpoint. make flake runs it thirty times under the race detector.
func TestImportsStepAtOnce(t *testing.T) {
	ig := federatedLibrary(t)
	if _, err := ig.Intersect("I1", bookMappings(), "Q1", "Q2"); err != nil {
		t.Fatal(err)
	}
	snap := decodeSnapshot(t, exportJSONOf(t, mustExport(t, ig)))
	if _, err := Import(snap); err != nil {
		t.Fatal(err)
	}
	want := versionedAnswers(t, multiIterationIntegrator(t))
	sessions := make([]*Integrator, 4)
	var wg sync.WaitGroup
	for i := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, err := Import(snap)
			if err == nil {
				err = g.Refine("shelves", Attribute("<<UBook, shelf>>",
					From("Library", "[{'LIB', k, x} | {k, x} <- <<books, shelf>>]")), "Q3")
			}
			if err == nil {
				_, err = g.Intersect("I2", pricedMappings(), "Q4")
			}
			for _, q := range []string{"count(<<UBook, shelf>>)", "[x | {k, x} <- <<UPriced, price>>]", "count(<<library_books>>)"} {
				if err == nil {
					_, err = g.Query(q)
				}
			}
			if err != nil {
				t.Errorf("session %d: %v", i, err)
				return
			}
			sessions[i] = g
		}()
	}
	wg.Wait()
	for i, g := range sessions {
		if g == nil {
			continue
		}
		if got := versionedAnswers(t, g); !reflect.DeepEqual(got, want) {
			t.Errorf("session %d answers\n%v\nwant\n%v", i, got, want)
		}
	}
}

// TestRestoredPathwaysRecreateTheirSources: every intersection pathway
// of a restored session, reversed and applied to its image, gives back
// its source schema — objects, kinds, models and constructs — as the
// exporting session's does. A delete or a contract step is restored with
// the source object it removes, though the document records only its
// scheme.
func TestRestoredPathwaysRecreateTheirSources(t *testing.T) {
	ig := multiIterationIntegrator(t)
	restored, err := Import(decodeSnapshot(t, exportJSON(t, ig)))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Integrator{ig, restored} {
		for _, in := range g.Intersections() {
			for _, src := range in.Sources {
				pw := in.PathwayBySource[src]
				image, ok := g.Repo().Schema(pw.Target)
				if !ok {
					t.Fatalf("no image %s", pw.Target)
				}
				back, err := transform.ApplyPathway(image, pw.Reverse(), false)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := g.Repo().Schema(src)
				if !hdm.Identical(back, want) {
					t.Errorf("%s reversed onto %s does not recreate %s: got %v, want %v",
						pw.Source+"->"+pw.Target, pw.Target, src, back.Describe(), want.Describe())
				}
			}
		}
	}
}
