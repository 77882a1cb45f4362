package wrapper_test

import (
	"bytes"
	"context"
	"database/sql"
	"database/sql/driver"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/obs"
	"github.com/dataspace/automed/internal/rel"
	"github.com/dataspace/automed/internal/sqlmem"
	"github.com/dataspace/automed/internal/wrapper"
)

var sqlTestDSN atomic.Int64

func newSQLFixture(t *testing.T, dialect string) (*wrapper.SQL, string) {
	t.Helper()
	dsn := fmt.Sprintf("sqltest-%d", sqlTestDSN.Add(1))
	sqlmem.Register(dsn, conformanceDB())
	w, err := wrapper.NewSQL("S", wrapper.SQLConfig{
		Driver:  sqlmem.DriverName,
		DSN:     dsn,
		Dialect: dialect,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, dsn
}

func TestSQLIntrospection(t *testing.T) {
	for _, dialect := range []string{wrapper.DialectSQLite, wrapper.DialectInformationSchema} {
		t.Run(dialect, func(t *testing.T) {
			w, _ := newSQLFixture(t, dialect)
			// 2 tables + 4 + 2 columns.
			if w.Schema().Len() != 8 {
				t.Errorf("schema objects = %d, want 8:\n%s", w.Schema().Len(), w.Schema().Describe())
			}
			obj, err := w.Schema().Resolve([]string{"books", "title"})
			if err != nil {
				t.Fatal(err)
			}
			if obj.Kind != hdm.Link || obj.Model != "sql" || obj.Construct != "column" {
				t.Errorf("column object = %+v", obj)
			}
		})
	}
}

func TestSQLExtents(t *testing.T) {
	w, _ := newSQLFixture(t, wrapper.DialectSQLite)
	// Table extent: bag of primary keys, int64-exact.
	v, err := w.Extent([]string{"books"})
	if err != nil {
		t.Fatal(err)
	}
	want := iql.Bag(iql.Int(1), iql.Int(2), iql.Int(1<<60+7))
	if !v.Equal(want) {
		t.Errorf("books extent = %s, want %s", v, want)
	}
	// Column extent: {key, value} pairs, NULLs absent.
	v, err = w.Extent([]string{"books", "title"})
	if err != nil {
		t.Fatal(err)
	}
	want = iql.Bag(
		iql.Tuple(iql.Int(1), iql.Str("Dataspaces")),
		iql.Tuple(iql.Int(1<<60+7), iql.Str("Precision")),
	)
	if !v.Equal(want) {
		t.Errorf("title extent = %s, want %s", v, want)
	}
	// Bool and float columns map losslessly.
	v, err = w.Extent([]string{"books", "instock"})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(iql.Bag(iql.Tuple(iql.Int(1), iql.Bool(true)), iql.Tuple(iql.Int(2), iql.Bool(false)))) {
		t.Errorf("instock extent = %s", v)
	}
}

func TestSQLContextCancellationMidQuery(t *testing.T) {
	w, dsn := newSQLFixture(t, wrapper.DialectSQLite)
	sqlmem.SetDelay(dsn, 5*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := w.ExtentContext(ctx, []string{"books"})
	if err == nil {
		t.Fatal("fetch against a slow backend ignored its deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v; the fetch was not interrupted", elapsed)
	}
}

// TestSQLOfflineRestoreServesFallback: a restored wrapper whose backend
// is gone does not pass its snapshot extent off as a fetch — Extent is
// the fetch's error — and holds it for the caller that asks for a stale
// one (FallbackExtent) and for the next snapshot.
func TestSQLOfflineRestoreServesFallback(t *testing.T) {
	w, dsn := newSQLFixture(t, wrapper.DialectSQLite)
	want, err := w.Extent([]string{"books", "title"})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a restored daemon whose backend is gone.
	sqlmem.Unregister(dsn)
	restored, err := wrapper.Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	assertHeldNotServed(t, restored, snap, want, dsn)
	// So does a binary that lacks the driver: the wrapper restores, and
	// every fetch says why it cannot be made.
	snap.SQL.Driver = "no-such-driver"
	if restored, err = wrapper.Restore(snap); err != nil {
		t.Fatal(err)
	}
	assertHeldNotServed(t, restored, snap, want, "no-such-driver")
	// The original wrapper has no fallback: losing the backend is an
	// error for it too, and so is its snapshot.
	if _, err := w.Extent([]string{"books", "title"}); err == nil {
		t.Error("live wrapper with a vanished backend succeeded")
	}
	if _, err := w.Snapshot(); err == nil {
		t.Error("snapshot of a live wrapper with a vanished backend succeeded")
	}
}

// assertHeldNotServed checks a wrapper restored from snap while its
// backend (named by backend in the fetch's error) is unreachable: Extent
// fails, FallbackExtent serves want, the <<books, title>> extent snap
// was taken with, and Snapshot re-emits snap.
func assertHeldNotServed(t *testing.T, restored wrapper.Wrapper, snap *wrapper.Snapshot, want iql.Value, backend string) {
	t.Helper()
	parts := []string{"books", "title"}
	if v, err := restored.Extent(parts); err == nil {
		t.Errorf("Extent of a restored wrapper with its backend gone = %s, want the fetch's error", v)
	} else if !strings.Contains(err.Error(), backend) {
		t.Errorf("Extent error %q does not name the backend %q", err, backend)
	}
	held, ok := restored.(interface {
		FallbackExtent([]string) (iql.Value, bool)
	}).FallbackExtent(parts)
	if !ok || !held.Equal(want) {
		t.Errorf("FallbackExtent = %s, %v; want the snapshot's %s", held, ok, want)
	}
	again, err := restored.(wrapper.Snapshotter).Snapshot()
	if err != nil {
		t.Fatalf("snapshot during the outage: %v", err)
	}
	wantDoc, _ := json.Marshal(snap)
	if got, _ := json.Marshal(again); !bytes.Equal(got, wantDoc) {
		t.Errorf("snapshot during the outage differs from the one restored from:\n got %s\nwant %s", got, wantDoc)
	}
}

// TestSQLExtentAndScannerWalkOneChain: a whole extent and a drained
// scanner send a SQL source the same statements in the same order. A
// keyed table is read in pages by key, each starting after the key the
// page before it scanned last — also when that row is absent from
// <<t, c>> for its NULL value. A keyless table is read in one unordered
// statement, by the wrapper introspected and by the one restored from
// its snapshot alike.
func TestSQLExtentAndScannerWalkOneChain(t *testing.T) {
	db := rel.NewDB("S")
	keyed := db.MustCreateTable("t", []rel.Column{{Name: "id", Type: rel.Int}, {Name: "c", Type: rel.String}}, "id")
	for i, c := range []any{"a", nil, "c", "d", "e"} {
		keyed.MustInsert(int64(i+1), c)
	}
	keyless := db.MustCreateTable("nk", []rel.Column{{Name: "a", Type: rel.Int}, {Name: "b", Type: rel.String}}, "b")
	keyless.MustInsert(int64(2), "x")
	keyless.MustInsert(nil, "y")
	keyless.MustInsert(int64(2), "z")
	dsn := fmt.Sprintf("sqltest-%d", sqlTestDSN.Add(1))
	sqlmem.Register(dsn, db)
	t.Cleanup(func() { sqlmem.Unregister(dsn) })
	sqlmem.SetNoPK(dsn, "nk")
	w, err := wrapper.NewSQL("S", wrapper.SQLConfig{Driver: sqlmem.DriverName, DSN: dsn, FetchPageRows: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, extent, scanned := sqlWalk(t, w, []string{"t", "c"})
	want := []string{
		`SELECT "id", "c" FROM "t" WHERE "id" IS NOT NULL ORDER BY "id" LIMIT 2`,
		`SELECT "id", "c" FROM "t" WHERE "id" > ? ORDER BY "id" LIMIT 2 2`,
		`SELECT "id", "c" FROM "t" WHERE "id" > ? ORDER BY "id" LIMIT 2 4`,
	}
	if !slices.Equal(extent, want) || !slices.Equal(scanned, want) {
		t.Errorf("<<t, c>>: Extent sent\n  %s\nthe scanner\n  %s\nwant\n  %s", strings.Join(extent, "\n  "),
			strings.Join(scanned, "\n  "), strings.Join(want, "\n  "))
	}

	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := wrapper.Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	want = []string{`SELECT "a", "b" FROM "nk"`}
	for name, w := range map[string]wrapper.Wrapper{"introspected": w, "restored": restored} {
		if _, extent, scanned := sqlWalk(t, w, []string{"nk", "b"}); !slices.Equal(extent, want) || !slices.Equal(scanned, want) {
			t.Errorf("<<nk, b>>, %s: Extent sent %q, the scanner %q; want %q", name, extent, scanned, want)
		}
	}
}

// sqlWalk reads parts of a SQL source both ways, whole and by a drained
// scanner, and returns the extent and the statements each read sent,
// with the cursor each was bound to.
func sqlWalk(t *testing.T, w wrapper.Wrapper, parts []string) (v iql.Value, extent, scanned []string) {
	t.Helper()
	sent := func(read func(ctx context.Context) error) []string {
		tr := obs.NewTrace("t", "", "")
		if err := read(obs.WithTrace(context.Background(), tr)); err != nil {
			t.Fatalf("%v: %v", parts, err)
		}
		var stmts []string
		for _, sp := range tr.Snapshot().Spans {
			if sp.Stage == "sql" {
				stmts = append(stmts, strings.TrimSpace(sp.Name+" "+sp.Detail))
			}
		}
		return stmts
	}
	extent = sent(func(ctx context.Context) (err error) {
		v, err = w.(interface {
			ExtentContext(context.Context, []string) (iql.Value, error)
		}).ExtentContext(ctx, parts)
		return err
	})
	scanned = sent(func(ctx context.Context) error {
		scn, err := w.(wrapper.ScanSourcer).ExtentScanner(ctx, parts)
		if err != nil {
			return err
		}
		for scn.Next(ctx) {
		}
		return scn.Err()
	})
	return v, extent, scanned
}

// TestSQLPagesOnlyByOneNonNullKey: over catalogs sqlmem cannot hold, a
// table keyed on two columns is read whole — a page ending inside a run
// of its first key column would lose the rest of the run — and a key
// column that holds NULLs (SQLite sorts them first) pages past them,
// never taking NULL for a cursor. Both catalog flavours.
func TestSQLPagesOnlyByOneNonNullKey(t *testing.T) {
	for _, dialect := range []string{wrapper.DialectSQLite, wrapper.DialectPostgres} {
		t.Run(dialect, func(t *testing.T) {
			dsn := fmt.Sprintf("catalog-%s", dialect)
			catalogs.Store(dsn, catalogDB{
				"tables":                    {{"ck"}, {"nul"}},
				`PRAGMA table_info("ck")`:   {{int64(0), "a", "INTEGER", int64(0), nil, int64(1)}, {int64(1), "b", "INTEGER", int64(0), nil, int64(2)}, {int64(2), "v", "TEXT", int64(0), nil, int64(0)}},
				`PRAGMA table_info("nul")`:  {{int64(0), "k", "TEXT", int64(0), nil, int64(1)}},
				"columns ck":                {{"a", "integer"}, {"b", "integer"}, {"v", "text"}},
				"columns nul":               {{"k", "text"}},
				"key ck":                    {{"a"}, {"b"}},
				"key nul":                   {{"k"}},
				`SELECT "a", "v" FROM "ck"`: {{int64(1), "x"}, {int64(2), "y"}, {int64(2), "z"}},
				`SELECT "k" FROM "nul" WHERE "k" IS NOT NULL ORDER BY "k" LIMIT 2`: {{"a"}, {"b"}},
				`SELECT "k" FROM "nul" WHERE "k" > ? ORDER BY "k" LIMIT 2 b`:       {{"c"}},
				// Without IS NOT NULL, SQLite's first page is its NULL keys.
				`SELECT "k" FROM "nul" ORDER BY "k" LIMIT 2`: {{nil}, {nil}},
			})
			t.Cleanup(func() { catalogs.Delete(dsn) })
			w, err := wrapper.NewSQL("S", wrapper.SQLConfig{Driver: catalogDriver, DSN: dsn, Dialect: dialect, FetchPageRows: 2})
			if err != nil {
				t.Fatal(err)
			}
			placeholder := map[string]string{wrapper.DialectSQLite: "?", wrapper.DialectPostgres: "$1"}[dialect]
			for _, c := range []struct {
				parts []string
				want  string
				stmts []string
			}{
				{[]string{"ck", "v"}, `[{1, 'x'}, {2, 'y'}, {2, 'z'}]`, []string{`SELECT "a", "v" FROM "ck"`}},
				{[]string{"nul"}, `['a', 'b', 'c']`, []string{
					`SELECT "k" FROM "nul" WHERE "k" IS NOT NULL ORDER BY "k" LIMIT 2`,
					`SELECT "k" FROM "nul" WHERE "k" > ` + placeholder + ` ORDER BY "k" LIMIT 2 b`,
				}},
			} {
				v, extent, scanned := sqlWalk(t, w, c.parts)
				if v.String() != c.want || !slices.Equal(extent, c.stmts) || !slices.Equal(scanned, c.stmts) {
					t.Errorf("%v: %v, by Extent\n  %s\nby the scanner\n  %s\nwant %s by\n  %s", c.parts, v,
						strings.Join(extent, "\n  "), strings.Join(scanned, "\n  "), c.want, strings.Join(c.stmts, "\n  "))
				}
			}
		})
	}
}

// catalogDriver serves the catalogDB stored in catalogs under the DSN.
const catalogDriver = "wrappertest-catalog"

var catalogs sync.Map

func init() { sql.Register(catalogDriver, catalogConn{}) }

// catalogDB answers a statement with the rows it holds under the
// statement's text — whitespace collapsed, $1 read as ?, the bound
// argument appended — or, for the introspection of either catalog
// flavour, under "tables", "columns <table>" and "key <table>".
type catalogDB map[string][][]driver.Value

// catalogConn is the driver and its connection.
type catalogConn struct{ db catalogDB }

func (catalogConn) Open(dsn string) (driver.Conn, error) {
	db, ok := catalogs.Load(dsn)
	if !ok {
		return nil, fmt.Errorf("no catalog %q", dsn)
	}
	return catalogConn{db.(catalogDB)}, nil
}

func (catalogConn) Prepare(string) (driver.Stmt, error) {
	return nil, errors.New("prepare: unsupported")
}
func (catalogConn) Close() error              { return nil }
func (catalogConn) Begin() (driver.Tx, error) { return nil, errors.New("begin: unsupported") }

func (c catalogConn) QueryContext(_ context.Context, q string, args []driver.NamedValue) (driver.Rows, error) {
	q = strings.ReplaceAll(strings.Join(strings.Fields(q), " "), "$1", "?")
	switch {
	case strings.Contains(q, "sqlite_master"), strings.Contains(q, "information_schema.tables"):
		q = "tables"
	case strings.Contains(q, "information_schema.columns"):
		q = "columns"
	case strings.Contains(q, "key_column_usage"):
		q = "key"
	}
	for _, a := range args {
		q += fmt.Sprint(" ", a.Value)
	}
	rows, ok := c.db[q]
	if !ok {
		return nil, fmt.Errorf("unexpected statement %q", q)
	}
	return &cannedRows{cols: make([]string, len(rows[0])), rows: rows}, nil
}

type cannedRows struct {
	cols []string
	rows [][]driver.Value
}

func (r *cannedRows) Columns() []string { return r.cols }

func (r *cannedRows) Close() error { return nil }

func (r *cannedRows) Next(dest []driver.Value) error {
	if len(r.rows) == 0 {
		return io.EOF
	}
	copy(dest, r.rows[0])
	r.rows = r.rows[1:]
	return nil
}

func TestSQLConstructionErrors(t *testing.T) {
	if _, err := wrapper.NewSQL("", wrapper.SQLConfig{Driver: "x", DSN: "y"}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := wrapper.NewSQL("S", wrapper.SQLConfig{Driver: sqlmem.DriverName}); err == nil {
		t.Error("missing DSN accepted")
	}
	if _, err := wrapper.NewSQL("S", wrapper.SQLConfig{Driver: sqlmem.DriverName, DSN: "x", Dialect: "oracle"}); err == nil {
		t.Error("unknown dialect accepted")
	}
	if _, err := wrapper.NewSQL("S", wrapper.SQLConfig{Driver: sqlmem.DriverName, DSN: "never-registered"}); err == nil {
		t.Error("unregistered DSN accepted")
	}
}

func TestRestoreUnknownKindNamesKinds(t *testing.T) {
	_, err := wrapper.Restore(&wrapper.Snapshot{Kind: "alien", Name: "x"})
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"alien"`) {
		t.Errorf("error %q does not name the offending kind", msg)
	}
	for _, kind := range wrapper.RestoreKinds() {
		if !strings.Contains(msg, kind) {
			t.Errorf("error %q does not list registered kind %q", msg, kind)
		}
	}
	if want := "fault, relational, rest, sql, static"; strings.Join(wrapper.RestoreKinds(), ", ") != want {
		t.Errorf("RestoreKinds() = %v, want %s", wrapper.RestoreKinds(), want)
	}
}
