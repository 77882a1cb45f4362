package wrapper

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/rel"
	"github.com/dataspace/automed/internal/sqlmem"
)

func snapshotDB(t *testing.T) *rel.DB {
	t.Helper()
	db := rel.NewDB("Lib")
	books := db.MustCreateTable("books", []rel.Column{
		{Name: "id", Type: rel.Int},
		{Name: "title", Type: rel.String},
		{Name: "price", Type: rel.Float},
		{Name: "instock", Type: rel.Bool},
	}, "")
	books.MustInsert(int64(1), "Dataspaces", 10.5, true)
	books.MustInsert(int64(2), "AutoMed", 0.0, false)
	books.MustInsert(int64(1<<60+7), nil, nil, nil)
	loans := db.MustCreateTable("loans", []rel.Column{
		{Name: "loan", Type: rel.String},
		{Name: "book", Type: rel.Int},
	}, "")
	loans.MustInsert("L1", int64(1))
	if err := db.AddForeignKey("loans", "book", "books"); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestRelationalSnapshotRoundTrip checks schema, keys, rows and foreign
// keys survive Snapshot → JSON → Restore, including int64 cells beyond
// float64 precision (the store decodes with UseNumber).
func TestRelationalSnapshotRoundTrip(t *testing.T) {
	w, err := NewRelational("Lib", snapshotDB(t))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	buf, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.UseNumber()
	if err := dec.Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	got, err := Restore(&decoded)
	if err != nil {
		t.Fatal(err)
	}
	if got.SchemaName() != "Lib" {
		t.Fatalf("SchemaName = %q", got.SchemaName())
	}
	if !hdm.Identical(got.Schema(), w.Schema()) {
		t.Fatalf("schemas differ: %s vs %s", got.Schema().Describe(), w.Schema().Describe())
	}
	for _, parts := range [][]string{{"books"}, {"books", "title"}, {"books", "price"}, {"books", "instock"}, {"loans", "book"}} {
		want, err := w.Extent(parts)
		if err != nil {
			t.Fatal(err)
		}
		have, err := got.Extent(parts)
		if err != nil {
			t.Fatal(err)
		}
		if !have.Equal(want) {
			t.Errorf("extent of %v = %s, want %s", parts, have, want)
		}
	}
	rw := got.(*Relational)
	lt, _ := rw.DB().Table("loans")
	if fks := lt.ForeignKeys(); len(fks) != 1 || fks[0].Column != "book" || fks[0].RefTable != "books" {
		t.Errorf("foreign keys not restored: %v", fks)
	}
}

// TestRelationalSnapshotPlainDecode checks a snapshot decoded without
// UseNumber restores: its rows stay text, whatever a decoder does with
// numbers.
func TestRelationalSnapshotPlainDecode(t *testing.T) {
	db := rel.NewDB("S")
	tb := db.MustCreateTable("t", []rel.Column{{Name: "id", Type: rel.Int}}, "")
	tb.MustInsert(int64(42))
	w, err := NewRelational("S", db)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	buf, _ := json.Marshal(snap)
	var decoded Snapshot
	if err := json.Unmarshal(buf, &decoded); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(&decoded); err != nil {
		t.Fatalf("plain-decoded snapshot did not restore: %v", err)
	}
}

func TestStaticSnapshotRoundTrip(t *testing.T) {
	st := NewStatic("Mat")
	if err := st.Add(hdm.MustScheme("<<p>>"), hdm.Nodal, "sql", "table",
		iql.Bag(iql.Int(1), iql.Int(2))); err != nil {
		t.Fatal(err)
	}
	if err := st.Add(hdm.MustScheme("<<p, name>>"), hdm.Link, "sql", "column",
		iql.Bag(iql.Tuple(iql.Int(1), iql.Str("a")))); err != nil {
		t.Fatal(err)
	}
	snap, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	buf, _ := json.Marshal(snap)
	var decoded Snapshot
	if err := json.Unmarshal(buf, &decoded); err != nil {
		t.Fatal(err)
	}
	got, err := Restore(&decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !hdm.Identical(got.Schema(), st.Schema()) {
		t.Fatal("static schema not restored")
	}
	want, _ := st.Extent([]string{"p", "name"})
	have, err := got.Extent([]string{"p", "name"})
	if err != nil {
		t.Fatal(err)
	}
	if !have.Equal(want) {
		t.Errorf("static extent = %s, want %s", have, want)
	}
}

func TestRestoreRejectsCorruptSnapshots(t *testing.T) {
	cases := []*Snapshot{
		nil,
		{Kind: "relational"},
		{Kind: "alien", Name: "x"},
		{Kind: "relational", Name: "x", Tables: []TableSnapshot{{Name: "t", Columns: []string{"c:integer"}}}},
		{Kind: "relational", Name: "x", Tables: []TableSnapshot{{Name: "t", Columns: []string{"c:int"}, Rows: json.RawMessage(`[["notInt"]]`)}}},
		{Kind: "relational", Name: "x", Tables: []TableSnapshot{{Name: "t", Columns: []string{"c:int"}, Rows: json.RawMessage(`[[1.0, 2.0]]`)}}},
		{Kind: "relational", Name: "x", Tables: []TableSnapshot{{Name: "t", Columns: []string{"c:int"}, Rows: json.RawMessage(`[[1]`)}}},
		{Kind: "fault", Name: "x", Fault: &FaultSnapshot{Inner: &Snapshot{Kind: "relational", Name: "x",
			Tables: []TableSnapshot{{Name: "t", Columns: []string{"c:int"}, Rows: json.RawMessage(`[[1]]]`)}}}}},
		{Kind: "static", Name: "x", Objects: []ObjectSnapshot{{Scheme: "<<", Kind: "nodal"}}},
		{Kind: "static", Name: "x", Objects: []ObjectSnapshot{{Scheme: "<<a>>", Kind: "banana"}}},
		{Kind: "static", Name: "x", Objects: []ObjectSnapshot{{Scheme: "<<a>>", Kind: "nodal", Extent: iql.ValueDTO{Kind: "?"}}}},
	}
	for i, snap := range cases {
		if _, err := Restore(snap); err == nil {
			t.Errorf("case %d: corrupt snapshot accepted", i)
		}
	}
}

// TestSQLSnapshotTypesBindNeitherSide: a table snapshot's "types" travel
// with it, so a restored wrapper still knows its integer columns and
// goes on having them compared at the source — and they bind neither
// reader nor writer. The decoder of the release before them — the same
// json.Unmarshal, into a table shape with no such member — reads today's
// document and ignores it; a document without them restores (the
// load-only golden file in internal/core says what it then answers); one
// whose types and columns disagree in number is corrupt.
func TestSQLSnapshotTypesBindNeitherSide(t *testing.T) {
	const dsn = "snapshot-types"
	sqlmem.Register(dsn, snapshotDB(t))
	t.Cleanup(func() { sqlmem.Unregister(dsn) })
	w, err := NewSQL("Lib", SQLConfig{Driver: sqlmem.DriverName, DSN: dsn})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := Encode(w)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(doc, []byte(`"types":["int","other","other","other"]`)) {
		t.Fatalf("document lacks the books table's types: %s", doc)
	}

	var parent struct {
		Kind string `json:"kind"`
		SQL  *struct {
			Tables []struct {
				Name       string   `json:"name"`
				PrimaryKey string   `json:"primary_key"`
				Columns    []string `json:"columns"`
			} `json:"tables"`
		} `json:"sql"`
	}
	if err := json.Unmarshal(doc, &parent); err != nil {
		t.Fatalf("the previous release's decoder rejects today's document: %v", err)
	}
	if parent.Kind != "sql" || len(parent.SQL.Tables) != 2 || len(parent.SQL.Tables[0].Columns) != 4 {
		t.Errorf("the previous release's decoder read %+v", parent)
	}

	keyAboveOne := iql.Selection{Conds: []iql.Cond{{Op: ">", Lit: 1}}}
	restored, err := Decode(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := restored.(CountSourcer).ExtentCounter([]string{"books"}, keyAboveOne); !ok {
		t.Error("the restored wrapper no longer knows the key for an integer column")
	}
	if _, ok := restored.(CountSourcer).ExtentCounter([]string{"loans"}, keyAboveOne); ok {
		t.Error("the restored wrapper takes the string key of loans for an integer column")
	}

	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap.SQL.Tables[0].Types = snap.SQL.Tables[0].Types[:2]
	if _, err := Restore(snap); err == nil {
		t.Error("a table with four columns and two types restored")
	}
}

// TestCSVColumnNameWithColonsRoundTrips: a CSV header's type follows its
// last colon, and so does a snapshot's, so a source with a column named
// with colons encodes and decodes to the same schema and rows.
func TestCSVColumnNameWithColonsRoundTrips(t *testing.T) {
	dir := t.TempDir()
	csv := "id:int!pk,rate:per:hour:float,note\n1,2.5,a:b\n2,,\n"
	if err := os.WriteFile(filepath.Join(dir, "rates.csv"), []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := NewCSVDir("Rates", dir)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := Encode(w)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(bytes.Clone(doc))
	if err != nil {
		t.Fatalf("a source's own document does not decode: %v\n%s", err, doc)
	}
	if !hdm.Identical(back.Schema(), w.Schema()) || !w.Schema().Has(hdm.NewScheme("rates", "rate:per:hour")) {
		t.Errorf("schemas differ:\n got %s\nwant %s", back.Schema().Describe(), w.Schema().Describe())
	}
	got, _ := back.(*Relational).DB().Table("rates")
	want, _ := w.DB().Table("rates")
	if !reflect.DeepEqual(got.Columns(), want.Columns()) || !reflect.DeepEqual(got.Rows(), want.Rows()) {
		t.Errorf("table is %v %v, want %v %v", got.Columns(), got.Rows(), want.Columns(), want.Rows())
	}
}
