package rel

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleTable(t *testing.T) *Table {
	t.Helper()
	tbl, err := NewTable("protein", []Column{
		{Name: "id", Type: Int},
		{Name: "acc", Type: String},
		{Name: "mass", Type: Float},
		{Name: "reviewed", Type: Bool},
	}, "id")
	if err != nil {
		t.Fatal(err)
	}
	tbl.MustInsert(int64(1), "P1", 100.5, true)
	tbl.MustInsert(int64(2), "P2", 200.0, false)
	tbl.MustInsert(int64(3), "P1", 300.25, true)
	return tbl
}

func TestTableBasics(t *testing.T) {
	tbl := sampleTable(t)
	if tbl.Len() != 3 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	if tbl.PrimaryKey() != "id" {
		t.Errorf("pk = %q", tbl.PrimaryKey())
	}
	row, ok := tbl.Lookup(int64(2))
	if !ok || row[1] != "P2" {
		t.Errorf("Lookup = %v %v", row, ok)
	}
	v, err := tbl.Value(int64(3), "mass")
	if err != nil || v != 300.25 {
		t.Errorf("Value = %v %v", v, err)
	}
	if _, err := tbl.Value(int64(9), "mass"); err == nil {
		t.Error("Value of missing row succeeded")
	}
	if _, err := tbl.Value(int64(1), "nope"); err == nil {
		t.Error("Value of missing column succeeded")
	}
	keys := tbl.Keys()
	if len(keys) != 3 || keys[0] != int64(1) {
		t.Errorf("Keys = %v", keys)
	}
}

func TestTableErrors(t *testing.T) {
	if _, err := NewTable("", []Column{{Name: "a"}}, ""); err == nil {
		t.Error("empty table name accepted")
	}
	if _, err := NewTable("t", nil, ""); err == nil {
		t.Error("no columns accepted")
	}
	if _, err := NewTable("t", []Column{{Name: "a"}, {Name: "a"}}, ""); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := NewTable("t", []Column{{Name: "a"}}, "zz"); err == nil {
		t.Error("bogus pk accepted")
	}
	tbl := sampleTable(t)
	if err := tbl.Insert(int64(1), "dup", 0.0, false); err == nil {
		t.Error("duplicate pk accepted")
	}
	if err := tbl.Insert(int64(9), "x", 1.0); err == nil {
		t.Error("short row accepted")
	}
	if err := tbl.Insert("str", "x", 1.0, false); err == nil {
		t.Error("wrongly typed pk accepted")
	}
	if err := tbl.Insert(nil, "x", 1.0, false); err == nil {
		t.Error("nil pk accepted")
	}
	if err := tbl.Insert(int64(9), "x", "notfloat", false); err == nil {
		t.Error("wrongly typed cell accepted")
	}
}

func TestNullableCells(t *testing.T) {
	tbl := sampleTable(t)
	if err := tbl.Insert(int64(4), nil, nil, nil); err != nil {
		t.Fatalf("nil non-key cells rejected: %v", err)
	}
	pairs, err := tbl.ColumnPairs("acc")
	if err != nil {
		t.Fatal(err)
	}
	// nil cells are absent from the column extent.
	if len(pairs) != 3 {
		t.Errorf("ColumnPairs = %d pairs, want 3", len(pairs))
	}
}

func TestJoin(t *testing.T) {
	db := NewDB("test")
	a := db.MustCreateTable("a", []Column{{Name: "id", Type: Int}, {Name: "ref", Type: Int}}, "id")
	b := db.MustCreateTable("b", []Column{{Name: "id", Type: Int}, {Name: "v", Type: String}}, "id")
	a.MustInsert(int64(1), int64(10))
	a.MustInsert(int64(2), int64(20))
	a.MustInsert(int64(3), nil)
	b.MustInsert(int64(10), "x")
	b.MustInsert(int64(20), "y")
	rows, err := Join(a, b, "ref", "id")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || len(rows[0]) != 4 {
		t.Fatalf("Join = %v", rows)
	}
	if _, err := Join(a, b, "nope", "id"); err == nil {
		t.Error("Join on missing column succeeded")
	}
}

func TestForeignKeys(t *testing.T) {
	db := NewDB("test")
	parent := db.MustCreateTable("parent", []Column{{Name: "id", Type: Int}}, "id")
	child := db.MustCreateTable("child", []Column{{Name: "id", Type: Int}, {Name: "pid", Type: Int}}, "id")
	parent.MustInsert(int64(1))
	child.MustInsert(int64(10), int64(1))
	if err := db.AddForeignKey("child", "pid", "parent"); err != nil {
		t.Fatal(err)
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	child.MustInsert(int64(11), int64(99)) // dangling
	if err := db.Validate(); err == nil {
		t.Error("dangling fk passed Validate")
	}
	if err := db.AddForeignKey("child", "pid", "missing"); err == nil {
		t.Error("fk to missing table accepted")
	}
	if err := db.AddForeignKey("missing", "pid", "parent"); err == nil {
		t.Error("fk on missing table accepted")
	}
}

func TestDBBasics(t *testing.T) {
	db := NewDB("d")
	db.MustCreateTable("t1", []Column{{Name: "id", Type: Int}}, "")
	if _, err := db.CreateTable("t1", []Column{{Name: "id", Type: Int}}, ""); err == nil {
		t.Error("duplicate table accepted")
	}
	db.MustCreateTable("t2", []Column{{Name: "id", Type: Int}}, "")
	if got := db.TableNames(); len(got) != 2 || got[0] != "t1" {
		t.Errorf("TableNames = %v", got)
	}
	if len(db.Stats()) != 2 {
		t.Errorf("Stats = %v", db.Stats())
	}
}

func TestCSVRoundTrip(t *testing.T) {
	db := NewDB("round")
	tbl := db.MustCreateTable("mixed", []Column{
		{Name: "k", Type: String},
		{Name: "i", Type: Int},
		{Name: "f", Type: Float},
		{Name: "b", Type: Bool},
	}, "k")
	tbl.MustInsert("a", int64(1), 1.5, true)
	tbl.MustInsert("b", int64(-2), 0.25, false)
	tbl.MustInsert("c", nil, nil, nil)
	// Values with CSV-hostile content.
	tbl.MustInsert("quote\"and,comma", int64(3), 3.0, true)

	dir := t.TempDir()
	if err := WriteCSVDir(db, dir); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCSVDir("round", dir)
	if err != nil {
		t.Fatal(err)
	}
	bt, ok := back.Table("mixed")
	if !ok {
		t.Fatal("table lost")
	}
	if bt.Len() != tbl.Len() {
		t.Fatalf("rows = %d, want %d", bt.Len(), tbl.Len())
	}
	if bt.PrimaryKey() != "k" {
		t.Errorf("pk lost: %q", bt.PrimaryKey())
	}
	for i := range tbl.Rows() {
		if !reflect.DeepEqual(tbl.Rows()[i], bt.Rows()[i]) {
			t.Errorf("row %d: %v != %v", i, tbl.Rows()[i], bt.Rows()[i])
		}
	}
	// Types preserved.
	ty, _ := bt.ColumnType("f")
	if ty != Float {
		t.Errorf("column type lost: %v", ty)
	}
}

// genRow generates a random typed row for the CSV round-trip property.
type genRows struct {
	rows [][]any
}

func (genRows) Generate(r *rand.Rand, size int) reflect.Value {
	n := 1 + r.Intn(20)
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{
			// Unique string key without problematic characters is not
			// required — CSV must quote anything.
			string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i/260)),
			int64(r.Intn(2000) - 1000),
			float64(r.Intn(1000)) / 8,
			r.Intn(2) == 0,
		}
	}
	return reflect.ValueOf(genRows{rows: rows})
}

func TestCSVRoundTripProperty(t *testing.T) {
	dir := t.TempDir()
	i := 0
	f := func(g genRows) bool {
		i++
		db := NewDB("p")
		tbl := db.MustCreateTable("t", []Column{
			{Name: "k", Type: String},
			{Name: "i", Type: Int},
			{Name: "f", Type: Float},
			{Name: "b", Type: Bool},
		}, "k")
		for _, row := range g.rows {
			if err := tbl.Insert(row...); err != nil {
				return true // duplicate key: skip case
			}
		}
		sub := filepath.Join(dir, string(rune('a'+i%26))+string(rune('a'+i/26%26)))
		var buf bytes.Buffer
		if err := WriteCSV(tbl, &buf); err != nil {
			return false
		}
		back := NewDB("q")
		if err := loadCSVInto(back, "t", &buf); err != nil {
			return false
		}
		bt, _ := back.Table("t")
		if bt.Len() != tbl.Len() {
			return false
		}
		for j := range tbl.Rows() {
			if !reflect.DeepEqual(tbl.Rows()[j], bt.Rows()[j]) {
				return false
			}
		}
		_ = sub
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTypeParseRoundTrip(t *testing.T) {
	for _, ty := range []Type{String, Int, Float, Bool} {
		rt, err := ParseType(ty.String())
		if err != nil || rt != ty {
			t.Errorf("type %v round trip failed", ty)
		}
	}
	if _, err := ParseType("decimal"); err == nil {
		t.Error("ParseType(decimal) succeeded")
	}
}
