package wrapper

import (
	"strings"
	"testing"
	"time"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/rel"
)

func sampleDB(t *testing.T) *rel.DB {
	t.Helper()
	db := rel.NewDB("S")
	tbl := db.MustCreateTable("protein", []rel.Column{
		{Name: "id", Type: rel.Int},
		{Name: "acc", Type: rel.String},
		{Name: "mass", Type: rel.Float},
	}, "id")
	tbl.MustInsert(int64(1), "P1", 10.5)
	tbl.MustInsert(int64(2), "P2", 20.5)
	tbl.MustInsert(int64(3), nil, 30.5)
	return db
}

func TestRelationalSchema(t *testing.T) {
	w, err := NewRelational("S", sampleDB(t))
	if err != nil {
		t.Fatal(err)
	}
	if w.SchemaName() != "S" {
		t.Errorf("name = %q", w.SchemaName())
	}
	// 1 table + 3 columns.
	if w.Schema().Len() != 4 {
		t.Errorf("schema objects = %d", w.Schema().Len())
	}
	obj, err := w.Schema().Resolve([]string{"protein", "acc"})
	if err != nil {
		t.Fatal(err)
	}
	if obj.Kind != hdm.Link || obj.Construct != "column" {
		t.Errorf("column object = %+v", obj)
	}
}

func TestRelationalExtents(t *testing.T) {
	w, err := NewRelational("S", sampleDB(t))
	if err != nil {
		t.Fatal(err)
	}
	// Table extent: bag of keys.
	v, err := w.Extent([]string{"protein"})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(iql.Bag(iql.Int(1), iql.Int(2), iql.Int(3))) {
		t.Errorf("table extent = %s", v)
	}
	// Column extent: {key, value} pairs, nils omitted.
	v, err = w.Extent([]string{"protein", "acc"})
	if err != nil {
		t.Fatal(err)
	}
	want := iql.Bag(
		iql.Tuple(iql.Int(1), iql.Str("P1")),
		iql.Tuple(iql.Int(2), iql.Str("P2")),
	)
	if !v.Equal(want) {
		t.Errorf("column extent = %s, want %s", v, want)
	}
	// Unknown object.
	if _, err := w.Extent([]string{"nope"}); err == nil {
		t.Error("extent of missing object succeeded")
	}
}

func TestCellValue(t *testing.T) {
	cases := []struct {
		in   any
		want iql.Value
	}{
		{nil, iql.Null()},
		{"s", iql.Str("s")},
		{int64(3), iql.Int(3)},
		{2.5, iql.Float(2.5)},
		{true, iql.Bool(true)},
		{[]byte("raw"), iql.Str("raw")},
		{time.Date(2014, 3, 24, 9, 30, 0, 5, time.UTC), iql.Str("2014-03-24T09:30:00.000000005Z")},
		{int32(7), iql.Str("7")},
	}
	for _, c := range cases {
		if got := CellValue(c.in); !got.Equal(c.want) && !(got.IsNull() && c.want.IsNull()) {
			t.Errorf("CellValue(%v) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestCSVDirWrapper(t *testing.T) {
	dir := t.TempDir()
	if err := rel.WriteCSVDir(sampleDB(t), dir); err != nil {
		t.Fatal(err)
	}
	w, err := NewCSVDir("S", dir)
	if err != nil {
		t.Fatal(err)
	}
	v, err := w.Extent([]string{"protein"})
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 3 {
		t.Errorf("extent = %s", v)
	}
}

func TestStaticWrapper(t *testing.T) {
	w := NewStatic("G")
	sc := hdm.MustScheme("<<UBook>>")
	if err := w.Add(sc, hdm.Nodal, "", "", iql.Bag(iql.Int(1))); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(sc, hdm.Nodal, "", "", iql.Bag()); err == nil {
		t.Error("duplicate Add succeeded")
	}
	v, err := w.Extent([]string{"UBook"})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(iql.Bag(iql.Int(1))) {
		t.Errorf("extent = %s", v)
	}
	if _, err := w.Extent([]string{"missing"}); err == nil {
		t.Error("extent of missing object succeeded")
	}
}

const sampleXML = `
<library>
  <book isbn="978-1" year="2005">
    <title>Dataspaces</title>
    <author>Franklin</author>
    <author>Halevy</author>
  </book>
  <book isbn="978-2">
    <title>Schema Matching</title>
  </book>
</library>`

func TestXMLWrapper(t *testing.T) {
	w, err := NewXML("X", strings.NewReader(sampleXML))
	if err != nil {
		t.Fatal(err)
	}
	// Element extents.
	v, err := w.Extent([]string{"book"})
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 2 {
		t.Errorf("book extent = %s", v)
	}
	v, err = w.Extent([]string{"author"})
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 2 {
		t.Errorf("author extent = %s", v)
	}
	// Attribute extent: {id, value} pairs.
	v, err = w.Extent([]string{"book", "@isbn"})
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 2 {
		t.Errorf("@isbn extent = %s", v)
	}
	// Text extent.
	v, err = w.Extent([]string{"title", "text"})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range v.Items() {
		if e.Items()[1].S() == "Dataspaces" {
			found = true
		}
	}
	if !found {
		t.Errorf("title text extent = %s", v)
	}
	// Nesting: author → book parent ids.
	v, err = w.Extent([]string{"author", "book"})
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 2 {
		t.Errorf("nest extent = %s", v)
	}
}

func TestXMLQueryThroughIQL(t *testing.T) {
	w, err := NewXML("X", strings.NewReader(sampleXML))
	if err != nil {
		t.Fatal(err)
	}
	ev := iql.NewEvaluator(iql.ExtentsFunc(w.Extent))
	// Titles of books published with an isbn attribute starting 978.
	v, err := ev.Eval(iql.MustParse(
		"[t | {tid, t} <- <<title, text>>; {tid2, b} <- <<title, book>>; tid2 = tid; {b2, i} <- <<book, @isbn>>; b2 = b; startswith(i, '978')]"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 2 {
		t.Errorf("xml join = %s", v)
	}
}

func TestXMLMalformed(t *testing.T) {
	if _, err := NewXML("X", strings.NewReader("<a><b></a>")); err == nil {
		t.Error("malformed XML accepted")
	}
}
