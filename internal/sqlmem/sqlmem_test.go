package sqlmem

import (
	"context"
	"database/sql"
	"errors"
	"testing"
	"time"

	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/rel"
	"github.com/dataspace/automed/internal/wrapper"
)

func testDB(t *testing.T) *rel.DB {
	t.Helper()
	db := rel.NewDB("T")
	tb := db.MustCreateTable("t", []rel.Column{
		{Name: "id", Type: rel.Int},
		{Name: "name", Type: rel.String},
		{Name: "score", Type: rel.Float},
	}, "id")
	tb.MustInsert(int64(1), "a", 1.5)
	tb.MustInsert(int64(2), nil, 2.5)
	return db
}

func TestDriverIntrospectionAndScan(t *testing.T) {
	Register("drv-test", testDB(t))
	db, err := sql.Open(DriverName, "drv-test")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	var name string
	if err := db.QueryRow(`SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY name`).Scan(&name); err != nil {
		t.Fatal(err)
	}
	if name != "t" {
		t.Errorf("table name = %q", name)
	}

	// information_schema variant with a placeholder argument.
	rows, err := db.Query(`SELECT column_name, data_type FROM information_schema.columns WHERE table_schema = DATABASE() AND table_name = ? ORDER BY ordinal_position`, "t")
	if err != nil {
		t.Fatal(err)
	}
	var cols, types []string
	for rows.Next() {
		var c, typ string
		if err := rows.Scan(&c, &typ); err != nil {
			t.Fatal(err)
		}
		cols, types = append(cols, c), append(types, typ)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(cols) != 3 || cols[0] != "id" || cols[2] != "score" {
		t.Errorf("columns = %v", cols)
	}
	if len(types) != 3 || types[0] != "bigint" || types[1] != "text" || types[2] != "double precision" {
		t.Errorf("data types = %v", types)
	}

	// Projection with NULL and typed cells.
	var (
		id    int64
		nm    any
		score float64
	)
	r := db.QueryRow(`SELECT "id", "name", "score" FROM "t"`)
	if err := r.Scan(&id, &nm, &score); err != nil {
		t.Fatal(err)
	}
	if id != 1 || nm != "a" || score != 1.5 {
		t.Errorf("row = %v %v %v", id, nm, score)
	}
}

// TestDriverCount: the one aggregate the driver serves, over fuzzDB's
// integer column (3, NULL, -7, 3, the two ends of the range, 0 under the
// keys -3 … 3), and the shapes around it that it refuses.
func TestDriverCount(t *testing.T) {
	Register("drv-count", fuzzDB())
	db, err := sql.Open(DriverName, "drv-count")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, tc := range []struct {
		stmt string
		want int64 // -1: refused
	}{
		{`SELECT COUNT(*) FROM "t" WHERE "id" IS NOT NULL`, 7},
		{`SELECT COUNT(*) FROM "t" WHERE "id" IS NOT NULL AND "n" IS NOT NULL`, 6},
		{`SELECT COUNT(*) FROM "t" WHERE "id" IS NOT NULL AND "n" IS NOT NULL AND "n" = 3`, 2},
		{`SELECT COUNT(*) FROM "t" WHERE "n" < 3`, 3}, // a NULL is below nothing
		{`SELECT COUNT(*) FROM "t" WHERE "n" >= -9223372036854775808 AND "n" <= 9223372036854775807`, 6},
		{`SELECT COUNT(*) FROM "t" WHERE "n" > 0 AND "id" <= 0`, 2},
		{`SELECT  COUNT(*)  FROM t WHERE n > 9223372036854775806`, 1},
		{`SELECT COUNT(*) FROM "we""ird AND" WHERE "AND" IS NOT NULL AND "AND" = 1`, 1},

		{`SELECT COUNT(*) FROM "t"`, -1},
		{`SELECT COUNT(*) FROM "t" WHERE`, -1},
		{`SELECT COUNT(*) FROM "t" WHERE "n" <> 3`, -1},
		{`SELECT COUNT(*) FROM "t" WHERE "n" < 3 OR "n" > 5`, -1},
		{`SELECT COUNT(*) FROM "t" WHERE "n" < 3 AND`, -1},
		{`SELECT COUNT(*) FROM "t" WHERE "n" < 3.5`, -1},
		{`SELECT COUNT(*) FROM "t" WHERE "n" < 9223372036854775808`, -1},
		{`SELECT COUNT(*) FROM "t" WHERE "n" < "id"`, -1},
		{`SELECT COUNT(*) FROM "t" WHERE "name" < 3`, -1},
		{`SELECT COUNT(*) FROM "t" WHERE "name" IS NULL`, -1},
		{`SELECT COUNT(*) FROM "t" WHERE "nosuch" IS NOT NULL`, -1},
		{`SELECT COUNT(*) FROM "nosuch" WHERE "n" < 3`, -1},
		{`SELECT COUNT(*) FROM "t" WHERE "n < 3`, -1},
		{`SELECT COUNT(*) FROM "t" WHERE "n" < 3; DROP TABLE t`, -1},
		{`SELECT COUNT("n") FROM "t" WHERE "n" < 3`, -1},
	} {
		var n int64
		err := db.QueryRow(tc.stmt).Scan(&n)
		switch {
		case tc.want < 0 && err == nil:
			t.Errorf("%s: accepted, counting %d", tc.stmt, n)
		case tc.want >= 0 && (err != nil || n != tc.want):
			t.Errorf("%s = %d, %v, want %d", tc.stmt, n, err, tc.want)
		}
	}
}

// TestDriverServesQuotedNames: a table whose name holds a space, or two
// in a row, is served through the SQL wrapper like any other — its own
// rows, not its neighbour's.
func TestDriverServesQuotedNames(t *testing.T) {
	db := rel.NewDB("Q")
	names, cols := []string{"my table", "my  table"}, []string{"the v", "the  w"}
	for i, name := range names {
		tb := db.MustCreateTable(name, []rel.Column{{Name: "id", Type: rel.Int}, {Name: cols[i], Type: rel.String}}, "id")
		tb.MustInsert(int64(1), name)
	}
	Register("drv-quoted", db)
	t.Cleanup(func() { Unregister("drv-quoted") })
	w, err := wrapper.NewSQL("Q", wrapper.SQLConfig{Driver: DriverName, DSN: "drv-quoted"})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		v, err := w.Extent([]string{name, cols[i]})
		if want := iql.Bag(iql.Tuple(iql.Int(1), iql.Str(name))); err != nil || !v.Equal(want) {
			t.Errorf("<<%s, %s>> = %s, %v; want %s", name, cols[i], v, err, want)
		}
	}
}

// TestDriverRefusesOffset: a page is read by key; the LIMIT … OFFSET
// window is no statement the wrapper sends, and the driver serves none.
func TestDriverRefusesOffset(t *testing.T) {
	Register("drv-offset", testDB(t))
	t.Cleanup(func() { Unregister("drv-offset") })
	db, err := sql.Open(DriverName, "drv-offset")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Query(`SELECT "id" FROM "t" ORDER BY "id" LIMIT 1 OFFSET 1`); err == nil {
		t.Error("an OFFSET window accepted")
	}
}

func TestDriverRejections(t *testing.T) {
	Register("drv-rej", testDB(t))
	db, err := sql.Open(DriverName, "drv-rej")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Query("DROP TABLE t"); err == nil {
		t.Error("arbitrary SQL accepted")
	}
	if _, err := db.Exec(`SELECT "id" FROM "t"`); err == nil {
		t.Error("Exec accepted on a read-only driver")
	}
	if _, err := sql.Open(DriverName, "never-registered"); err == nil {
		// sql.Open is lazy for most drivers but ours validates the DSN;
		// either way a query must fail.
		if _, err := db.Query(`SELECT "id" FROM "missing"`); err == nil {
			t.Error("unknown table accepted")
		}
	}
}

func TestDriverDelayAndCancellation(t *testing.T) {
	Register("drv-slow", testDB(t))
	SetDelay("drv-slow", 5*time.Second)
	db, err := sql.Open(DriverName, "drv-slow")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = db.QueryContext(ctx, `SELECT "id" FROM "t"`)
	if err == nil {
		t.Fatal("slow query beat its deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error = %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("cancellation did not interrupt the artificial delay")
	}
}
