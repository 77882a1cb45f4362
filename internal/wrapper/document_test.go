package wrapper

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/iql/iqltest"
	"github.com/dataspace/automed/internal/rel"
)

// reference is the writer the document encoder replaced: encoding/json's
// reflection over the Snapshot (the defined type drops MarshalJSON).
func reference(t *testing.T, snap *Snapshot) []byte {
	t.Helper()
	type plain Snapshot
	b, err := json.Marshal((*plain)(snap))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func compact(t *testing.T, doc []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, doc); err != nil {
		t.Fatalf("document is not JSON: %v\n%s", err, doc)
	}
	return buf.Bytes()
}

// edgeDB holds every cell the row encoder has to agree with
// encoding/json about: NULLs, the int64 extremes, floats either side of
// JSON's exponent cutoffs (30, 1e21, -0), strings with <>&, U+2028,
// invalid UTF-8 — and an empty table.
func edgeDB(t *testing.T) *rel.DB {
	t.Helper()
	db := rel.NewDB("Edge<&>")
	cells := db.MustCreateTable("cells", []rel.Column{
		{Name: "id", Type: rel.Int},
		{Name: "s", Type: rel.String},
		{Name: "i", Type: rel.Int},
		{Name: "f", Type: rel.Float},
		{Name: "b", Type: rel.Bool},
	}, "id")
	floats := append([]float64{30, 1e21, math.Copysign(0, -1)}, iqltest.Floats...)
	n := max(len(iqltest.Strings), len(iqltest.Ints), len(floats))
	for k := 0; k < n; k++ {
		cells.MustInsert(int64(k), iqltest.Strings[k%len(iqltest.Strings)],
			iqltest.Ints[k%len(iqltest.Ints)], floats[k%len(floats)], k%2 == 0)
	}
	cells.MustInsert(int64(n), nil, nil, nil, nil)
	db.MustCreateTable("empty", []rel.Column{{Name: "k&", Type: rel.String}}, "")
	refs := db.MustCreateTable("refs", []rel.Column{{Name: "r", Type: rel.String}, {Name: "cell", Type: rel.Int}}, "")
	refs.MustInsert("r0", int64(0))
	if err := db.AddForeignKey("refs", "cell", "cells"); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestDocumentMatchesReference: for every in-memory kind, and for a
// snapshot as a decoder leaves it (rows as text, or none), the document
// is token for token what encoding/json writes.
func TestDocumentMatchesReference(t *testing.T) {
	relW, err := NewRelational("Edge<&>", edgeDB(t))
	if err != nil {
		t.Fatal(err)
	}
	st := NewStatic("Curated")
	if err := st.Add(hdm.MustScheme("<<picks>>"), hdm.Nodal, "sql", "table",
		iql.Bag(iql.Str("<a>"), iql.Tuple(iql.Int(math.MinInt64), iql.Float(1e21), iql.Null()))); err != nil {
		t.Fatal(err)
	}
	if err := st.Add(hdm.MustScheme("<<none>>"), hdm.Nodal, "", "", iql.Bag()); err != nil {
		t.Fatal(err)
	}
	xmlW, err := NewXML("Doc", strings.NewReader(`<lib><book id="b&amp;1"><title>T &lt; U</title></book><book/></lib>`))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []Wrapper{relW, st, xmlW} {
		snap, err := w.(Snapshotter).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		doc, err := Encode(w)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := compact(t, doc), reference(t, snap); !bytes.Equal(got, want) {
			t.Errorf("%s: document differs from the reference:\n got %s\nwant %s", w.SchemaName(), got, want)
		}
	}

	decoded := &Snapshot{Kind: "relational", Name: "D", Tables: []TableSnapshot{
		{Name: "t", Columns: []string{"a:int", "b:float"}, PrimaryKey: "a",
			Rows: json.RawMessage("[\n[9223372036854775807,1e21],\n[1,2]\n]")},
		{Name: "nil rows"},
	}}
	doc, err := decoded.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := compact(t, doc), reference(t, decoded); !bytes.Equal(got, want) {
		t.Errorf("decoded snapshot: document differs from the reference:\n got %s\nwant %s", got, want)
	}
}

// TestDocumentOneRowPerLine pins the layout people diff: a table's rows
// each on a line of their own, nothing indented.
func TestDocumentOneRowPerLine(t *testing.T) {
	w, err := NewRelational("Lib", snapshotDB(t))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := Encode(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`[1,"Dataspaces",10.5,true],`,
		`[1152921504606846983,null,null,null]`,
		`["L1",1]`,
	} {
		if !bytes.Contains(doc, []byte("\n"+line+"\n")) {
			t.Errorf("document lacks the line %s:\n%s", line, doc)
		}
	}
	if bytes.Contains(doc, []byte("\n ")) {
		t.Errorf("document is indented:\n%s", doc)
	}
}

// TestDocumentMemo: an unchanged wrapper hands out the document it
// already has; any mutation — through the wrapper's DB or Static.Add —
// shows in the next one without anyone having to say so.
func TestDocumentMemo(t *testing.T) {
	same := func(a, b []byte) bool { return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0] }

	w, err := NewRelational("Lib", snapshotDB(t))
	if err != nil {
		t.Fatal(err)
	}
	first, err := Encode(w)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := Encode(w); !same(first, again) {
		t.Error("unchanged relational wrapper was encoded twice")
	}
	books, _ := w.DB().Table("books")
	books.MustInsert(int64(3), "Late <arrival>", 1.0, true)
	second, err := Encode(w)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(second, []byte(`[3,"Late \u003carrival\u003e",1,true]`)) {
		t.Errorf("row inserted after a snapshot is missing from the next:\n%s", second)
	}
	w.DB().MustCreateTable("shelves", []rel.Column{{Name: "id", Type: rel.Int}}, "")
	third, _ := Encode(w)
	if !bytes.Contains(third, []byte(`"name":"shelves"`)) {
		t.Errorf("table created after a snapshot is missing from the next:\n%s", third)
	}
	if err := w.DB().AddForeignKey("loans", "book", "books"); err != nil {
		t.Fatal(err)
	}
	if fourth, _ := Encode(w); bytes.Equal(third, fourth) {
		t.Error("foreign key declared after a snapshot is missing from the next")
	}

	st := NewStatic("S")
	if err := st.Add(hdm.MustScheme("<<a>>"), hdm.Nodal, "", "", iql.Bag(iql.Int(1))); err != nil {
		t.Fatal(err)
	}
	s1, _ := Encode(st)
	if s1again, _ := Encode(st); !same(s1, s1again) {
		t.Error("unchanged static wrapper was encoded twice")
	}
	if err := st.Add(hdm.MustScheme("<<b>>"), hdm.Nodal, "", "", iql.Bag(iql.Int(2))); err != nil {
		t.Fatal(err)
	}
	if s2, _ := Encode(st); !bytes.Contains(s2, []byte(`\u003c\u003cb\u003e\u003e`)) {
		t.Errorf("object added after a snapshot is missing from the next:\n%s", s2)
	}
}

// TestDecodeKeepsDocument: a restored wrapper's memo is the bytes it
// was restored from — until it changes — while an indented document
// (an old file's) is re-encoded into the current layout, and trailing
// data is refused rather than kept.
func TestDecodeKeepsDocument(t *testing.T) {
	w, err := NewRelational("Lib", snapshotDB(t))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := Encode(w)
	if err != nil {
		t.Fatal(err)
	}
	mine := append(json.RawMessage(nil), doc...)
	restored, err := Decode(mine)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := Encode(restored); &again[0] != &mine[0] {
		t.Error("restored wrapper re-encoded instead of keeping its document")
	}
	loans, _ := restored.(*Relational).DB().Table("loans")
	loans.MustInsert("L2", int64(2))
	if after, _ := Encode(restored); !bytes.Contains(after, []byte(`["L2",2]`)) {
		t.Errorf("restored wrapper's memo outlived a mutation:\n%s", after)
	}

	var indented bytes.Buffer
	if err := json.Indent(&indented, doc, "", "  "); err != nil {
		t.Fatal(err)
	}
	old, err := Decode(indented.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if relaid, _ := Encode(old); !bytes.Equal(relaid, doc) {
		t.Errorf("an indented document was not re-encoded into the current layout:\n%s", relaid)
	}

	if _, err := Decode(append(append(json.RawMessage(nil), doc...), " {}"...)); err == nil {
		t.Error("Decode accepted a document with trailing data")
	}
}

// TestDecodeTakesHeldWrapper: Decode returns a held in-memory wrapper —
// relational, static, XML — as it is when its memoised document is the
// one decoded, whichever place it holds among the held; and decodes
// afresh a document held by no one, a held wrapper changed since it was
// encoded, and a fault wrapper, which is live.
func TestDecodeTakesHeldWrapper(t *testing.T) {
	rw, err := NewRelational("Lib", snapshotDB(t))
	if err != nil {
		t.Fatal(err)
	}
	st := NewStatic("Curated")
	if err := st.Add(hdm.MustScheme("<<a>>"), hdm.Nodal, "", "", iql.Bag(iql.Int(1))); err != nil {
		t.Fatal(err)
	}
	xw, err := NewXML("Doc", strings.NewReader(`<lib><book id="b1"><title>T</title></book></lib>`))
	if err != nil {
		t.Fatal(err)
	}
	fw, err := NewFault(rw, FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	held := []Wrapper{fw, rw, st, xw}
	docs := map[Wrapper]json.RawMessage{}
	for _, w := range held {
		doc, err := Encode(w)
		if err != nil {
			t.Fatal(err)
		}
		docs[w] = bytes.Clone(doc)
	}
	for _, w := range []Wrapper{rw, st, xw} {
		if got, err := Decode(bytes.Clone(docs[w]), held...); err != nil || got != w {
			t.Errorf("%s: Decode of its own document = %p (%v), want the held %p", w.SchemaName(), got, err, w)
		}
		if got, err := Decode(bytes.Clone(docs[w])); err != nil || got == w {
			t.Errorf("%s: Decode with nothing held = %p (%v), want a new wrapper", w.SchemaName(), got, err)
		}
	}
	if got, err := Decode(bytes.Clone(docs[fw]), held...); err != nil || got == fw {
		t.Errorf("a fault wrapper was taken from the held (%v)", err)
	}
	edited := bytes.Replace(docs[rw], []byte(`"L1"`), []byte(`"L9"`), 1)
	if bytes.Equal(edited, docs[rw]) {
		t.Fatal("the document has no loan L1 to edit")
	}
	if got, err := Decode(edited, held...); err != nil || got == rw {
		t.Errorf("an edited document was answered with the held wrapper (%v)", err)
	}
	if err := st.Add(hdm.MustScheme("<<b>>"), hdm.Nodal, "", "", iql.Bag(iql.Int(2))); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.Clone(docs[st]), held...)
	if err != nil || got == st {
		t.Fatalf("a static source changed since it was encoded was taken from the held (%v)", err)
	}
	if _, err := got.Extent([]string{"b"}); err == nil {
		t.Error("the decoded static source has the object added after its document was encoded")
	}
}

// TestDocumentNonFiniteCell: a NaN or infinite float cell (CSV parses
// them) is an error that says where the cell is.
func TestDocumentNonFiniteCell(t *testing.T) {
	for _, f := range iqltest.NonFinite {
		db := rel.NewDB("Readings")
		tb := db.MustCreateTable("samples", []rel.Column{{Name: "id", Type: rel.Int}, {Name: "level", Type: rel.Float}}, "id")
		tb.MustInsert(int64(1), 0.5)
		tb.MustInsert(int64(2), f)
		w, err := NewRelational("Readings", db)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Encode(w)
		if err == nil {
			t.Fatalf("a %v cell was encoded", f)
		}
		for _, want := range []string{`source "Readings"`, `table "samples"`, "row 1", `column "level"`} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error for a %v cell lacks %s: %v", f, want, err)
			}
		}
	}
}

// TestRelationalReadsAsItsDocument: an in-memory relational source reads
// alike before and after its document restores it — a string with
// invalid UTF-8 included, which JSON carries with each invalid byte a
// U+FFFD — while the table itself keeps its bytes.
func TestRelationalReadsAsItsDocument(t *testing.T) {
	db := rel.NewDB("D")
	tb := db.MustCreateTable("t", []rel.Column{{Name: "id", Type: rel.String}, {Name: "s", Type: rel.String}}, "id")
	tb.MustInsert("k\xff", "bad\xfe\xffutf8")
	live, err := NewRelational("D", db)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := Encode(live)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Decode(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range [][]string{{"t"}, {"t", "s"}} {
		want, err := restored.Extent(parts)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := live.Extent(parts); err != nil || !got.Equal(want) {
			t.Errorf("%v: live source reads %s (%v), restored %s", parts, got, err, want)
		}
	}
	if v, _ := tb.Value("k\xff", "s"); v != "bad\xfe\xffutf8" {
		t.Errorf("the table holds %q, not what was inserted", v)
	}
}
