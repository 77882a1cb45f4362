package wrapper

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/rel"
)

// The reference the row walk (rows.go) is tested against: Decode as it
// stood before the walk replaced it. encoding/json, with UseNumber,
// decodes the whole document — a []any per row, a json.Number or string
// boxed per cell — and every cell is converted again through decodeCell.
// It is what made a restore cost what it did, which is why it is gone
// from Decode, and it is exactly the semantics the walk must keep: what
// it accepts, what it refuses, and the words it refuses a row in.

// refSnapshot is a Snapshot as the reference decodes it: a table's rows
// as [][]any, at any depth of fault wrapping.
type refSnapshot struct {
	Snapshot
	Tables []refTable `json:"tables"`
	Fault  *refFault  `json:"fault"`
}

type refTable struct {
	TableSnapshot
	Rows [][]any `json:"rows"`
}

type refFault struct {
	FaultSnapshot
	Inner *refSnapshot `json:"inner"`
}

// refDecode is the replaced Decode, memo and all.
func refDecode(doc json.RawMessage) (Wrapper, error) {
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	var snap refSnapshot
	if err := dec.Decode(&snap); err != nil {
		return nil, fmt.Errorf("wrapper: decoding snapshot document: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("wrapper: snapshot document of source %q has trailing data", snap.Name)
	}
	w, err := refRestore(&snap)
	if err != nil {
		return nil, err
	}
	if m, ok := w.(memoised); ok && !bytes.HasPrefix(doc, []byte("{\n ")) {
		memo, stamp := m.docMemo()
		memo.set(stamp, doc)
	}
	return w, nil
}

// refRestore is Restore of a refSnapshot: the relational and fault kinds
// as they were restored from rows held as [][]any, the others by Restore.
func refRestore(s *refSnapshot) (Wrapper, error) {
	if s == nil {
		return Restore(nil)
	}
	if s.Name == "" || (s.Kind != "relational" && s.Kind != "fault") || (s.Kind == "fault" && s.Fault == nil) {
		return Restore(&s.Snapshot)
	}
	if s.Kind == "fault" {
		inner, err := refRestore(s.Fault.Inner)
		if err != nil {
			return nil, fmt.Errorf("wrapper: source %q: restoring faulted inner source: %w", s.Name, err)
		}
		return NewFault(inner, s.Fault.Config)
	}
	db := rel.NewDB(s.Name)
	for _, ts := range s.Tables {
		cols := make([]rel.Column, len(ts.Columns))
		pk := ts.PrimaryKey
		for i, spec := range ts.Columns {
			col, isPK, err := rel.ParseColumn(spec)
			if err != nil {
				return nil, fmt.Errorf("wrapper: source %q table %q: %w", s.Name, ts.Name, err)
			}
			if cols[i] = col; isPK {
				pk = col.Name
			}
		}
		t, err := db.CreateTable(ts.Name, cols, pk)
		if err != nil {
			return nil, fmt.Errorf("wrapper: source %q: %w", s.Name, err)
		}
		in := rowInserter{source: s.Name, table: t, cols: cols}
		vals := make([]any, len(cols))
		for rn, row := range ts.Rows {
			if len(row) != len(cols) {
				return nil, in.widthErr(rn, len(row))
			}
			for cn, cell := range row {
				if vals[cn], err = decodeCell(cell, cols[cn].Type); err != nil {
					return nil, in.cellErr(rn, cn, err)
				}
			}
			if err := in.insert(rn, vals); err != nil {
				return nil, err
			}
		}
	}
	for _, ts := range s.Tables {
		for _, fk := range ts.ForeignKeys {
			if err := db.AddForeignKey(ts.Name, fk.Column, fk.RefTable); err != nil {
				return nil, fmt.Errorf("wrapper: source %q: %w", s.Name, err)
			}
		}
	}
	return NewRelational(s.Name, db)
}

// decodeCell maps a row cell decoded with json.Decoder.UseNumber back to
// the relational cell type: an int64 cell stays exact however the
// integer is spelt (1, 1.0, 1e3). textCell (rows.go) is the same mapping
// from JSON text.
func decodeCell(cell any, ty rel.Type) (any, error) {
	if cell == nil {
		return nil, nil
	}
	n, isNum := cell.(json.Number)
	switch ty {
	case rel.Int:
		if isNum {
			i, ok := exactInt64(n.String())
			if !ok {
				return nil, intRangeErr(n.String())
			}
			return i, nil
		}
	case rel.Float:
		if isNum {
			return n.Float64()
		}
	case rel.Bool:
		if b, ok := cell.(bool); ok {
			return b, nil
		}
	default:
		if s, ok := cell.(string); ok {
			return s, nil
		}
	}
	return nil, cellTypeErr(ty, fmt.Sprintf("%T", cell))
}

// refusedByJSON reports whether the reference's error is encoding/json's
// (or the trailing-data check's) rather than Restore's. Those the walk
// need only refuse too; what Restore says it must say word for word.
func refusedByJSON(err error) bool {
	return strings.HasPrefix(err.Error(), "wrapper: decoding snapshot document:") ||
		strings.HasSuffix(err.Error(), "has trailing data")
}

// agree decodes doc both ways and fails the test unless the two agree:
// both refuse — in the same words when it is a row, a cell or anything
// else Restore judges — or both build the same source.
func agree(t *testing.T, doc []byte) {
	t.Helper()
	// Each side owns its copy: Decode keeps the document it is given.
	want, refErr := refDecode(bytes.Clone(doc))
	got, err := Decode(bytes.Clone(doc))
	switch {
	case refErr != nil && err == nil:
		t.Errorf("Decode accepted what the reference refuses (%v):\n%s", refErr, doc)
	case refErr == nil && err != nil:
		t.Errorf("Decode refused what the reference accepts: %v\n%s", err, doc)
	case refErr != nil:
		if !refusedByJSON(refErr) && err.Error() != refErr.Error() {
			t.Errorf("Decode refused in other words:\n got %v\nwant %v\n%s", err, refErr, doc)
		}
	default:
		sameSource(t, got, want, doc)
	}
}

// sameSource compares two decoded sources: relational ones table by
// table and cell by cell with the cells' Go types, the in-memory kinds
// by their snapshot and by the document they would save, the live kinds
// by what a document gives them.
func sameSource(t *testing.T, got, want Wrapper, doc []byte) {
	t.Helper()
	if reflect.TypeOf(got) != reflect.TypeOf(want) || got.SchemaName() != want.SchemaName() {
		t.Fatalf("decoded a %T named %q, the reference a %T named %q\n%s", got, got.SchemaName(), want, want.SchemaName(), doc)
	}
	for {
		g, ok := got.(*Fault)
		if !ok {
			break
		}
		if g.Config() != want.(*Fault).Config() {
			t.Errorf("fault configuration differs\n%s", doc)
		}
		if got, want = g.Inner(), want.(*Fault).Inner(); reflect.TypeOf(got) != reflect.TypeOf(want) {
			t.Fatalf("a fault around a %T, the reference's around a %T\n%s", got, want, doc)
		}
	}
	if g, ok := got.(*Relational); ok {
		gt, wt := g.DB().Tables(), want.(*Relational).DB().Tables()
		if len(gt) != len(wt) {
			t.Fatalf("%d tables, the reference has %d\n%s", len(gt), len(wt), doc)
		}
		for i := range gt {
			g, w := gt[i], wt[i]
			if g.Name() != w.Name() || g.PrimaryKey() != w.PrimaryKey() ||
				!reflect.DeepEqual(g.Columns(), w.Columns()) || !reflect.DeepEqual(g.ForeignKeys(), w.ForeignKeys()) {
				t.Errorf("table %d is %s%v key %s fks %v, the reference's %s%v key %s fks %v\n%s", i,
					g.Name(), g.Columns(), g.PrimaryKey(), g.ForeignKeys(), w.Name(), w.Columns(), w.PrimaryKey(), w.ForeignKeys(), doc)
			}
			// DeepEqual tells int64(1) from float64(1), which is the point.
			if !reflect.DeepEqual(g.Rows(), w.Rows()) {
				t.Errorf("table %q rows differ:\n got %#v\nwant %#v\n%s", g.Name(), g.Rows(), w.Rows(), doc)
			}
		}
	}
	if !hdm.Identical(got.Schema(), want.Schema()) {
		t.Errorf("schemas differ:\n got %s\nwant %s\n%s", got.Schema().Describe(), want.Schema().Describe(), doc)
	}
	if _, ok := got.(memoised); !ok {
		// A live kind (SQL, REST): its snapshot would ask the backend. What
		// a document gives it is its configuration and fallback extents.
		type live interface {
			FallbackExtent(parts []string) (iql.Value, bool)
		}
		same := false
		switch g := got.(type) {
		case *SQL:
			same = reflect.DeepEqual(g.Config(), want.(*SQL).Config())
		case *REST:
			same = reflect.DeepEqual(g.Config(), want.(*REST).Config())
		}
		if !same {
			t.Errorf("configurations differ\n%s", doc)
		}
		for _, o := range got.Schema().Objects() {
			g, gok := got.(live).FallbackExtent(o.Scheme.Parts())
			w, wok := want.(live).FallbackExtent(o.Scheme.Parts())
			if gok != wok || !g.Equal(w) {
				t.Errorf("fallback extent of %s differs: %s (%v), want %s (%v)\n%s", o.Scheme, g, gok, w, wok, doc)
			}
		}
		return
	}
	gs, err1 := got.(Snapshotter).Snapshot()
	ws, err2 := want.(Snapshotter).Snapshot()
	if err1 != nil || err2 != nil {
		t.Fatalf("snapshotting the decoded sources: %v, %v", err1, err2)
	}
	if !reflect.DeepEqual(gs, ws) {
		t.Errorf("snapshots differ:\n got %+v\nwant %+v\n%s", gs, ws, doc)
	}
	gd, err1 := Encode(got)
	wd, err2 := Encode(want)
	if err1 != nil || err2 != nil || !bytes.Equal(gd, wd) {
		t.Errorf("memoised documents differ (%v, %v):\n got %s\nwant %s", err1, err2, gd, wd)
	}
}

// oneTable is a relational document with one table t, key id.
func oneTable(columns, rows string) string {
	return `{"kind":"relational","name":"S","tables":[{"name":"t","columns":[` + columns + `],"primary_key":"id","rows":` + rows + `}]}`
}

// snapshotDocuments are the documents the walk and the reference are
// held together on, and the fuzzer's seeds.
func snapshotDocuments(tb testing.TB) [][]byte {
	tb.Helper()
	var docs [][]byte
	add := func(doc string) { docs = append(docs, []byte(doc)) }
	indented := func(doc []byte) []byte {
		var buf bytes.Buffer
		if err := json.Indent(&buf, doc, "", "  "); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}

	// The committed golden files: the sources of a whole session
	// (indented, as every file was before the one-row-per-line layout)
	// and the two live kinds; each also as Encode lays it out today.
	golden := filepath.Join("..", "core", "testdata")
	var session struct {
		Sources []json.RawMessage `json:"sources"`
	}
	data, err := os.ReadFile(filepath.Join(golden, "golden_session.json"))
	if err != nil {
		tb.Fatal(err)
	}
	if err := json.Unmarshal(data, &session); err != nil || len(session.Sources) == 0 {
		tb.Fatalf("golden session: %v, %d sources", err, len(session.Sources))
	}
	for _, name := range []string{"golden_wrapper_sql.json", "golden_wrapper_sql_untyped.json", "golden_wrapper_rest.json"} {
		data, err := os.ReadFile(filepath.Join(golden, name))
		if err != nil {
			tb.Fatal(err)
		}
		session.Sources = append(session.Sources, data)
	}
	for _, doc := range session.Sources {
		docs = append(docs, indented(doc))
		var compact bytes.Buffer
		if err := json.Compact(&compact, doc); err != nil {
			tb.Fatal(err)
		}
		docs = append(docs, compact.Bytes())
	}

	// Every in-memory kind as Encode writes it, and indented; a fault
	// around a relational source.
	db := rel.NewDB("Edge<&>")
	cells := db.MustCreateTable("cells", []rel.Column{{Name: "id", Type: rel.Int}, {Name: "s", Type: rel.String},
		{Name: "f", Type: rel.Float}, {Name: "b", Type: rel.Bool}}, "id")
	cells.MustInsert(int64(1), "a\"\\\n\u00e9<&>\u2028", 1e21, true)
	cells.MustInsert(int64(-1<<63), nil, nil, nil)
	db.MustCreateTable("empty", []rel.Column{{Name: "k&", Type: rel.String}}, "")
	refs := db.MustCreateTable("refs", []rel.Column{{Name: "r", Type: rel.String}, {Name: "cell", Type: rel.Int}}, "")
	refs.MustInsert("r0", int64(1))
	if err := db.AddForeignKey("refs", "cell", "cells"); err != nil {
		tb.Fatal(err)
	}
	relW, err := NewRelational("Edge<&>", db)
	if err != nil {
		tb.Fatal(err)
	}
	st := NewStatic("Curated")
	if err := st.Add(hdm.MustScheme("<<picks>>"), hdm.Nodal, "sql", "table", iql.Bag(iql.Str("<a>"), iql.Int(1<<53+1))); err != nil {
		tb.Fatal(err)
	}
	faulty, err := NewFault(relW, FaultConfig{ErrorRate: 0.25, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	for _, w := range []Wrapper{relW, st, faulty} {
		doc, err := Encode(w)
		if err != nil {
			tb.Fatal(err)
		}
		docs = append(docs, doc, indented(doc))
	}

	// Members in any order, duplicated (the last wins; a duplicated
	// "tables" merges element by element, as encoding/json fills a slice
	// it has already filled), and under the names encoding/json folds
	// onto the fields.
	add(`{"tables":[{"rows":[[1,"a"]],"primary_key":"id","columns":["id:int","s:string"],"name":"t"}],"name":"S","kind":"relational"}`)
	add(`{"kind":"relational","name":"S","tables":[{"name":"t","rows":[[1,2,3]],"columns":["id:int","s:string"],"rows":[[1,"a"]],"rows":[[2,"b"],[3,null]]}]}`)
	add(`{"kind":"relational","name":"S","tables":[{"name":"t","columns":["id:int"],"rows":[[1]],"rows":null}]}`)
	add(`{"kind":"relational","name":"S","tables":[{"name":"t","columns":["id:int"],"rows":null,"rows":[[1]]}]}`)
	add(`{"kind":"relational","name":"S","tables":[{"name":"a","columns":["id:int"],"rows":[[1]]},{"name":"b","columns":["id:int"],"rows":[[2]]}],"tables":[{"name":"c"}]}`)
	add(`{"kind":"static","name":"X","kind":"relational","name":"S","tables":[{"name":"t","columns":["id:string"],"columns":["id:int"],"rows":[[1]]}]}`)
	add(`{"KIND":"relational","Name":"S","TABLES":[{"NAME":"t","Columns":["id:int","s:string"],"PRIMARY_KEY":"s","ROWS":[[1,"a"]]}]}`)
	add(`{"kind":"relational","name":"S","tables":[{"name":"t","columns":["id:int"],"row\u017f":[[1]]}]}`)
	add(`{"kind":"relational","name":"S","tables":[{"name":"t","columns":["id:int"],"ro\u0077s":[[1]],"extra":[[1,2],[3]]}],"extra":{"rows":[[1]]}}`)

	// No rows, one way or another.
	for _, rows := range []string{`null`, `[]`, ` [ ] `, `[[1]]`} {
		add(oneTable(`"id:int"`, rows))
	}
	add(`{"kind":"relational","name":"S","tables":[{"name":"t","columns":["id:int"]}]}`)
	add(`{"kind":"relational","name":"S","tables":null}`)
	add(`{"kind":"relational","name":"S"}`)

	// Every kind of cell in every type of column, with white space where
	// JSON allows it.
	kinds := []string{`null`, `1`, `-0`, `1.0`, `1e3`, `1E+2`, `1200e-2`, `1.5`, `1e19`, `1e-1`, `1e999`, `-1e999`, `1e99999999999`,
		`9223372036854775807`, `-9223372036854775808`, `9223372036854775808`, `9007199254740993`, `922337203685477580.7E1`,
		`0.1e0`, `2.5e-3`, `1.5e300`, `"one"`, `""`, `true`, `false`, `[2]`, `[]`, `{"a":[1,"]"]}`, `{}`, `"a]\"[,"`}
	for _, ty := range []string{"int", "float", "bool", "string"} {
		for _, cell := range kinds {
			add(oneTable(`"id:int","c:`+ty+`"`, "[\n[1,"+cell+"],\r\n\t[ 2 , "+cell+" ] ]"))
		}
	}
	// Strings: escapes, bytes beyond ASCII, invalid UTF-8, surrogates
	// alone and paired.
	for _, s := range []string{`"a\n\t\"\\\/\u00e9"`, `"é€𝄞"`, "\"\xff\xfe\"", "\"a\xc3\"", `"\ud800"`, `"\udc00x"`, `"\ud834\udd1e"`,
		`"\u003c\u0026\u2028"`, `"<&>"`, `"\u0000"`} {
		add(oneTable(`"id:string","s:string"`, `[[`+s+`,`+s+`]]`))
	}

	// Rows of the wrong width or shape; keys NULL or met twice.
	for _, rows := range []string{`[[1]]`, `[[1,"a","b"]]`, `[[]]`, `[null]`, `[[1,"a"],null]`, `[[1,"a"],[2]]`,
		`[["x","a","b"]]`, `[[1,2]]`, `[[1,"a"],["x",3],[4]]`, `[5]`, `["x"]`, `[{}]`, `[[1,"a"],true]`, `5`, `{}`, `"x"`, `true`,
		`[[null,"a"]]`, `[[1,"a"],[1,"b"]]`, `[[1,"a"],[1.0,"b"]]`, `[[1,"a"],[2,"a"]]`} {
		add(oneTable(`"id:int","s:string"`, rows))
	}

	// Descriptions Restore refuses.
	add(`{"kind":"relational","name":"S","tables":[{"name":"t","columns":["noType"],"rows":[[1]]}]}`)
	add(`{"kind":"relational","name":"S","tables":[{"name":"t","columns":["c:integer"],"rows":[[1]]}]}`)
	add(`{"kind":"relational","name":"S","tables":[{"name":"t","columns":["c:int"],"primary_key":"d","rows":[[1]]}]}`)
	add(`{"kind":"relational","name":"S","tables":[{"name":"t","columns":["c:int"],"foreign_keys":[{"column":"c","ref_table":"u"}],"rows":[[1]]}]}`)
	add(`{"kind":"relational","name":"S","tables":[{"name":"t","columns":[],"rows":[[]]}]}`)
	add(`{"kind":"relational","name":"S","tables":[{"name":"t","columns":["c:int"],"rows":[[1]]},{"name":"t","columns":["c:int"],"rows":[[1]]}]}`)
	add(`{"kind":"relational","name":"S","tables":[{"name":"t","columns":["c:int"],"rows":[["bad"]]},{"name":"u","columns":["c:int"],"rows":[5]}]}`)
	add(`{"kind":"relational","name":"S","tables":[5]}`)
	add(`{"kind":"relational","name":"S","tables":{"name":"t"}}`)
	add(`{"kind":"relational","tables":[]}`)
	add(`{"kind":"alien","name":"S"}`)
	add(`{"kind":"fault","name":"S"}`)
	add(`{"kind":"fault","name":"S","fault":{"config":{},"inner":null}}`)
	add(`{"kind":"fault","name":"S","fault":{"config":{"error_rate":2},"inner":` + oneTable(`"id:int"`, `[[1]]`) + `}}`)
	add(`{"kind":"fault","name":"S","fault":{"inner":` + oneTable(`"id:int"`, `[[1],[1]]`) + `,"inner":` + oneTable(`"id:int"`, `[[1],["x"]]`) + `}}`)
	add(`{"kind":"fault","name":"S","fault":{"inner":{"kind":"fault","name":"S","fault":{"inner":` + oneTable(`"id:int"`, `[[7]]`) + `}}}}`)
	for _, doc := range []string{`null`, `{}`, `[]`, `""`, `5`, ``, ` `} {
		add(doc)
	}

	// Bytes after the document, and a document cut short anywhere.
	whole := oneTable(`"id:int","s:string","f:float"`, "[\n[1,\"a\\\"]\",1.5],\n[2,null,-2e-2]\n]")
	for _, tail := range []string{" {}", "x", "\n", " \t\r\n", "]", ",", "\x00"} {
		add(whole + tail)
	}
	for cut := 0; cut < len(whole); cut++ {
		add(whole[:cut])
	}
	return docs
}

// TestRowWalkMatchesReference: on every document above the walk and the
// decoder it replaced agree — equal tables cell by cell with Go types,
// equal foreign keys, equal memoised document; every refusal shared, and
// a bad row or cell refused in the same words.
func TestRowWalkMatchesReference(t *testing.T) {
	docs := snapshotDocuments(t)
	accepted := 0
	for _, doc := range docs {
		agree(t, doc)
		if _, err := refDecode(bytes.Clone(doc)); err == nil {
			accepted++
		}
	}
	// The cases are only worth their number if both outcomes are common.
	if accepted < 60 || len(docs)-accepted < 60 {
		t.Errorf("%d of %d documents accepted; the cases have drifted to one side", accepted, len(docs))
	}
}

// TestRowWalkErrorsNameTheCell pins the words themselves, so that the
// reference and the walk cannot drift together: source, table, row and
// column, then what was expected and the Go type encoding/json would
// have decoded the cell into.
func TestRowWalkErrorsNameTheCell(t *testing.T) {
	for _, tc := range []struct{ columns, rows, want string }{
		{`"id:int","n:int"`, `[[1,2],[2,1.5]]`, `wrapper: source "S" table "t" row 1 column "n": expected an integer in the int64 range, got 1.5`},
		{`"id:int","n:int"`, `[[1,"one"]]`, `wrapper: source "S" table "t" row 0 column "n": expected number, got string`},
		{`"id:int","x:float"`, `[[1,true]]`, `wrapper: source "S" table "t" row 0 column "x": expected number, got bool`},
		{`"id:int","x:float"`, `[[1,1e999]]`, `wrapper: source "S" table "t" row 0 column "x": strconv.ParseFloat: parsing "1e999": value out of range`},
		{`"id:int","b:bool"`, `[[1,1]]`, `wrapper: source "S" table "t" row 0 column "b": expected boolean, got json.Number`},
		{`"id:int","s:string"`, `[[1,1]]`, `wrapper: source "S" table "t" row 0 column "s": expected string, got json.Number`},
		{`"id:int","s:string"`, `[[1,[1]]]`, `wrapper: source "S" table "t" row 0 column "s": expected string, got []interface {}`},
		{`"id:int","b:bool"`, `[[1,{}]]`, `wrapper: source "S" table "t" row 0 column "b": expected boolean, got map[string]interface {}`},
		{`"id:int","s:string"`, `[[1,"a"],[2]]`, `wrapper: source "S" table "t" row 1: 1 cells for 2 columns`},
		{`"id:int","s:string"`, `[["x","a","b"]]`, `wrapper: source "S" table "t" row 0: 3 cells for 2 columns`},
		{`"id:int","s:string"`, `[null]`, `wrapper: source "S" table "t" row 0: 0 cells for 2 columns`},
		{`"id:int","s:string"`, `[[null,"a"]]`, `wrapper: source "S" table "t" row 0: rel: table "t": nil primary key`},
		{`"id:int","s:string"`, `[[1,"a"],[1,"b"]]`, `wrapper: source "S" table "t" row 1: rel: table "t": duplicate primary key 1`},
	} {
		_, err := Decode([]byte(oneTable(tc.columns, tc.rows)))
		if err == nil || err.Error() != tc.want {
			t.Errorf("rows %s:\n got %v\nwant %s", tc.rows, err, tc.want)
		}
	}
}

// FuzzSnapshotDocument: whatever the bytes, Decode never panics and
// always agrees with the reference.
func FuzzSnapshotDocument(f *testing.F) {
	for _, doc := range snapshotDocuments(f) {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc []byte) { agree(t, doc) })
}
