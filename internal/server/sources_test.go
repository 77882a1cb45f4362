package server

import (
	"encoding/json"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/dataspace/automed/internal/wrapper"
)

// restoreJSON restores a relational snapshot from its JSON text, with
// numbers decoded the way the session store and the request decoder
// read them (useNumber: int64 cells stay exact) or as plain
// encoding/json does (float64).
func restoreJSON(t *testing.T, text string, useNumber bool) (wrapper.Wrapper, error) {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(text))
	if useNumber {
		dec.UseNumber()
	}
	var snap wrapper.Snapshot
	if err := dec.Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return wrapper.Restore(&snap)
}

// extents renders every object of a source with its extent.
func extents(t *testing.T, w wrapper.Wrapper) string {
	t.Helper()
	var b strings.Builder
	for _, o := range w.Schema().Objects() {
		v, err := w.Extent(o.Scheme.Parts())
		if err != nil {
			t.Fatalf("%s: %v", o.Scheme, err)
		}
		b.WriteString(o.Scheme.String() + " = " + v.String() + "\n")
	}
	return b.String()
}

// TestInlineTablesMatchRestoredSnapshot: a source registered through
// POST /sources "tables" is the source a relational snapshot of the same
// data restores to — same objects, same extents, same snapshot — with
// the request shape's conveniences resolved: a "!pk" suffix names the
// key, no suffix means the first column, no type means string, and a
// foreign key may point at a table declared later.
func TestInlineTablesMatchRestoredSnapshot(t *testing.T) {
	s, c := newTestClient(t, DefaultConfig())
	c.must("POST", "/sources", json.RawMessage(`{"name": "Lib", "tables": [
		{"name": "loans", "columns": ["copy:int", "member:int!pk", "days:float", "open:bool"],
		 "rows": [[7, 1, 2.5, true], [8, 2, 14, false]],
		 "foreign_keys": [{"column": "copy", "ref_table": "copies"}]},
		{"name": "copies", "columns": ["id:int", "shelf"],
		 "rows": [[7, "A"], [8, null]]}
	]}`), http.StatusCreated)
	sess, err := s.Sessions().Get("", false)
	if err != nil {
		t.Fatal(err)
	}
	inline, _ := sess.Wrapper("Lib")

	restored, err := restoreJSON(t, `{"kind": "relational", "name": "Lib", "tables": [
		{"name": "loans", "columns": ["copy:int", "member:int", "days:float", "open:bool"], "primary_key": "member",
		 "rows": [[7, 1, 2.5, true], [8, 2, 14, false]],
		 "foreign_keys": [{"column": "copy", "ref_table": "copies"}]},
		{"name": "copies", "columns": ["id:int", "shelf:string"], "primary_key": "id",
		 "rows": [[7, "A"], [8, null]]}
	]}`, true)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := extents(t, inline), extents(t, restored); got != want {
		t.Errorf("inline source differs from the restored snapshot:\n inline:\n%s restored:\n%s", got, want)
	}
	a, errA := inline.(wrapper.Snapshotter).Snapshot()
	b, errB := restored.(wrapper.Snapshotter).Snapshot()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Errorf("snapshots differ:\n inline   %s\n restored %s", ja, jb)
	}
}

// TestInlineTablesReportSnapshotCellErrors: a cell of the wrong type is
// refused with the same error whether it arrives inline or in a
// snapshot whose numbers were decoded alike, because one decoder reads
// both.
func TestInlineTablesReportSnapshotCellErrors(t *testing.T) {
	_, c := newTestClient(t, DefaultConfig())
	for _, tc := range []struct{ column, cell string }{
		{"n:int", "1.5"},
		{"n:int", "9223372036854775808"},
		{"n:int", "-9223372036854775809"},
		{"n:int", "1e19"},
		{"n:int", "1e-1"},
		{"n:int", "0.1e0"},
		{"n:int", "1e99999999999"},
		{"n:int", `"one"`},
		{"x:float", "true"},
		{"b:bool", "1"},
		{"s", "1"},
		{"n:integer", "1"},
	} {
		typed := tc.column
		if !strings.Contains(typed, ":") {
			typed += ":string"
		}
		_, want := restoreJSON(t, `{"kind": "relational", "name": "Bad", "tables": [
			{"name": "t", "columns": ["id:int", "`+typed+`"], "primary_key": "id", "rows": [[1, `+tc.cell+`]]}]}`, true)
		if want == nil {
			t.Fatalf("snapshot with %s cell %s restored", tc.column, tc.cell)
		}
		status, body := c.do("POST", "/sources", json.RawMessage(`{"name": "Bad", "tables": [
			{"name": "t", "columns": ["id:int", "`+tc.column+`"], "rows": [[1, `+tc.cell+`]]}]}`))
		if status != http.StatusBadRequest || body["error"] != want.Error() {
			t.Errorf("inline %s cell %s = %d %q, want 400 %q", tc.column, tc.cell, status, body["error"], want)
		}
	}
	// A source that cannot be built is refused before its session is
	// looked up, so the refusals above created no (empty) session.
	if got := c.must("GET", "/sessions", nil, http.StatusOK)["sessions"].([]any); len(got) != 0 {
		t.Errorf("refused registrations left sessions behind: %v", got)
	}
}

// TestInlineIntCellsAreExact: an int column takes every int64 exactly,
// and every spelling of an integer, from the request through a query,
// the autosaved session file and a restore — no cell passes through a
// float64 on the way.
func TestInlineIntCellsAreExact(t *testing.T) {
	dir := t.TempDir()
	_, c := newDurableClient(t, dir)
	c.must("POST", "/sources", json.RawMessage(`{"name": "Big", "tables": [{"name": "t", "columns": ["id:int", "n:int"], "rows": [
		[1, 9223372036854775807], [2, -9223372036854775808], [3, 9007199254740993],
		[4, 1.0], [5, 1e3], [6, 1200e-2], [7, -0.0], [8, 9223372036854775807.0], [9, 922337203685477580.7E1]]}]}`), http.StatusCreated)
	c.must("POST", "/federate", map[string]any{"name": "F"}, http.StatusCreated)

	want := `"value":{"bag":[`
	for i, n := range []string{"9223372036854775807", "-9223372036854775808", "9007199254740993",
		"1", "1000", "12", "0", "9223372036854775807", "9223372036854775807"} {
		if i > 0 {
			want += ","
		}
		want += `{"tuple":[` + strconv.Itoa(i+1) + "," + n + "]}"
	}
	want += "]}"
	for _, tc := range []struct {
		when string
		c    *testClient
	}{{"as registered", c}, {"restored from the session file", nil}} {
		if tc.c == nil {
			_, tc.c = newDurableClient(t, dir)
		}
		status, body := tc.c.post(map[string]any{"query": "<<big_t, n>>"})
		if status != http.StatusOK || !strings.Contains(string(body), want) {
			t.Errorf("%s: status %d, body %s\nwant %s", tc.when, status, body, want)
		}
	}
}

// TestInlineRowsAreSessionFileRows: inline rows and a session file's are
// read by one walk, so the same rows of an int column are accepted or
// refused alike — in the same words — and accepted ones become the same
// cells with the same Go types.
func TestInlineRowsAreSessionFileRows(t *testing.T) {
	s, c := newTestClient(t, DefaultConfig())
	for i, tc := range []struct {
		rows     string
		accepted bool
	}{
		{`[[1, 1.0]]`, true},
		{`[[1, 1e3]]`, true},
		{`[[1, 9007199254740993]]`, true},
		{`[[1, null]]`, true},
		{`[[1, "x"]]`, false},
		{`[[1, [1]]]`, false},
		{`[[1, 2], [2]]`, false},
		{`[[1, 2], [2, 3, 4]]`, false},
	} {
		restored, refused := wrapper.Decode([]byte(`{"kind": "relational", "name": "S", "tables": [
			{"name": "t", "columns": ["id:int", "n:int"], "primary_key": "id", "rows": ` + tc.rows + `}]}`))
		if (refused == nil) != tc.accepted {
			t.Fatalf("rows %s: the session file's are accepted %v (%v), want %v", tc.rows, refused == nil, refused, tc.accepted)
		}
		session := "rows" + strconv.Itoa(i)
		status, body := c.do("POST", "/sources", json.RawMessage(`{"session": "`+session+`", "name": "S", "tables": [
			{"name": "t", "columns": ["id:int", "n:int"], "rows": `+tc.rows+`}]}`))
		if refused != nil {
			if status != http.StatusBadRequest || body["error"] != refused.Error() {
				t.Errorf("inline rows %s = %d %q, want 400 %q", tc.rows, status, body["error"], refused)
			}
			continue
		}
		if status != http.StatusCreated {
			t.Fatalf("inline rows %s = %d %v, want 201", tc.rows, status, body)
		}
		sess, err := s.Sessions().Get(session, false)
		if err != nil {
			t.Fatal(err)
		}
		inline, _ := sess.Wrapper("S")
		got, _ := inline.(*wrapper.Relational).DB().Table("t")
		want, _ := restored.(*wrapper.Relational).DB().Table("t")
		// DeepEqual tells int64(1000) from float64(1000).
		if !reflect.DeepEqual(got.Rows(), want.Rows()) {
			t.Errorf("inline rows %s became %#v, the session file's %#v", tc.rows, got.Rows(), want.Rows())
		}
	}
}

// TestColumnNameWithColonsSavesAndRestores: a column spec's type follows
// its last colon wherever a spec is read, so a column named with colons
// is accepted inline, saved with its session and brought back by
// RestoreSessions — which a daemon started on the directory runs, and
// which fails on any file it cannot load.
func TestColumnNameWithColonsSavesAndRestores(t *testing.T) {
	dir := t.TempDir()
	s, c := newDurableClient(t, dir)
	c.must("POST", "/sources", json.RawMessage(`{"name": "Rates", "tables": [
		{"name": "t", "columns": ["id:int", "rate:per:hour:float", "unit:of:string"], "rows": [[1, 2.5, "h"], [2, null, "m"]]}]}`), http.StatusCreated)
	source := func(s *Server) wrapper.Wrapper {
		t.Helper()
		sess, err := s.Sessions().Get("", false)
		if err != nil {
			t.Fatal(err)
		}
		w, ok := sess.Wrapper("Rates")
		if !ok {
			t.Fatal("no source Rates")
		}
		return w
	}
	saved := extents(t, source(s))
	if !strings.Contains(saved, "<<t, rate:per:hour>>") || !strings.Contains(saved, "<<t, unit:of>>") {
		t.Fatalf("the inline columns are not rate:per:hour and unit:of:\n%s", saved)
	}
	s2, _ := newDurableClient(t, dir)
	if got := extents(t, source(s2)); got != saved {
		t.Errorf("restored source differs from the saved one:\n restored:\n%s saved:\n%s", got, saved)
	}
}
