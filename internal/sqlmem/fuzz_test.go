package sqlmem

import (
	"context"
	"database/sql/driver"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/rel"
	"github.com/dataspace/automed/internal/wrapper"
)

// fuzzDB is testDB with an integer column that holds NULLs, duplicates
// and the ends of the range, and a table whose names need quoting.
func fuzzDB() *rel.DB {
	db := rel.NewDB("F")
	tb := db.MustCreateTable("t", []rel.Column{
		{Name: "id", Type: rel.Int}, {Name: "n", Type: rel.Int}, {Name: "name", Type: rel.String}}, "id")
	for i, n := range []any{int64(3), nil, int64(-7), int64(3), int64(1<<63 - 1), int64(-1 << 63), int64(0)} {
		tb.MustInsert(int64(i-3), n, "r")
	}
	weird := db.MustCreateTable(`we"ird AND`, []rel.Column{{Name: "AND", Type: rel.Int}}, "AND")
	weird.MustInsert(int64(1))
	return db
}

// FuzzSelect: the driver parses a WHERE clause out of statement text, so
// whatever text arrives it answers with rows or with an error, never a
// panic, and its rows can be read to the end. And it accepts what it
// exists to serve: every COUNT statement wrapper.SQL renders for a
// selection over the table — the fuzzer's component, operator and
// literal — comes back as the number a walk over the rows gives.
func FuzzSelect(f *testing.F) {
	dir := filepath.Join("testdata", "select")
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		f.Fatalf("reading seed corpus: %v, %d files", err, len(entries))
	}
	for i, e := range entries {
		stmt, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(stmt), uint8(i), uint8(i/2), []int64{3, -7, 0, 1<<63 - 1, -1 << 63}[i%5])
	}
	f.Add("SELECT COUNT(*) FROM \"t\" WHERE \"n\" < 3\x00", uint8(1), uint8(0), int64(1))
	f.Add(strings.Repeat(`"`, 101), uint8(0), uint8(4), int64(-1))

	db := fuzzDB()
	const dsn = "fuzz-select"
	Register(dsn, db)
	w, err := wrapper.NewSQL("F", wrapper.SQLConfig{Driver: DriverName, DSN: dsn})
	if err != nil {
		f.Fatal(err)
	}
	tb, _ := db.Table("t")
	ops := []string{"=", "<", "<=", ">", ">="}
	f.Fuzz(func(t *testing.T, stmt string, comp, op uint8, lit int64) {
		if rows, err := dispatch(db, stmt, nil, nil); err == nil {
			dest := make([]driver.Value, len(rows.Columns()))
			for err = rows.Next(dest); err == nil; err = rows.Next(dest) {
			}
			if err != io.EOF {
				t.Fatalf("%q: reading the rows: %v", stmt, err)
			}
		}

		cond := iql.Cond{Comp: int(comp % 2), Op: ops[int(op)%len(ops)], Lit: lit}
		count, ok := w.ExtentCounter([]string{"t", "n"}, iql.Selection{Arity: 2, Conds: []iql.Cond{cond}})
		if !ok {
			t.Fatalf("%+v over two integer columns: the wrapper declined", cond)
		}
		got, err := count(context.Background())
		if err != nil {
			t.Fatalf("%+v: the driver refused the wrapper's statement: %v", cond, err)
		}
		var want int64
		for _, row := range tb.Rows() {
			cell, isInt := row[cond.Comp].(int64)
			keep := isInt && row[1] != nil
			switch cond.Op {
			case "=":
				keep = keep && cell == lit
			case "<":
				keep = keep && cell < lit
			case "<=":
				keep = keep && cell <= lit
			case ">":
				keep = keep && cell > lit
			case ">=":
				keep = keep && cell >= lit
			}
			if keep {
				want++
			}
		}
		if got != want {
			t.Errorf("%+v: the driver counted %d rows, a walk over them %d", cond, got, want)
		}
	})
}
