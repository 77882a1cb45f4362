package sqlmem

import (
	"cmp"
	"context"
	"database/sql/driver"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/obs"
	"github.com/dataspace/automed/internal/rel"
	"github.com/dataspace/automed/internal/wrapper"
)

// fuzzDB is testDB with an integer column that holds NULLs, duplicates
// and the ends of the range, a table whose names need quoting, and one
// whose name holds a space and whose rows were inserted out of key order.
func fuzzDB() *rel.DB {
	db := rel.NewDB("F")
	tb := db.MustCreateTable("t", []rel.Column{
		{Name: "id", Type: rel.Int}, {Name: "n", Type: rel.Int}, {Name: "name", Type: rel.String}}, "id")
	for i, n := range []any{int64(3), nil, int64(-7), int64(3), int64(1<<63 - 1), int64(-1 << 63), int64(0)} {
		tb.MustInsert(int64(i-3), n, "r")
	}
	weird := db.MustCreateTable(`we"ird AND`, []rel.Column{{Name: "AND", Type: rel.Int}}, "AND")
	weird.MustInsert(int64(1))
	shuffled := db.MustCreateTable("out of order", []rel.Column{{Name: "k", Type: rel.Int}, {Name: "v", Type: rel.String}}, "k")
	for i, k := range []int64{5, -2, 1<<63 - 1, 0, 9, -1 << 63, 3, 7} {
		shuffled.MustInsert(k, []any{"a", nil, "b"}[i%3])
	}
	return db
}

// FuzzSelect: the driver parses a WHERE clause out of statement text, so
// whatever text arrives it answers with rows or with an error, never a
// panic, and its rows can be read to the end. And it accepts what it
// exists to serve: every COUNT statement wrapper.SQL renders for a
// selection over the table — the fuzzer's component, operator and
// literal — comes back as the number a walk over the rows gives, and
// every keyset page it renders — the fuzzer's literal the cursor, a page
// size and a dialect from its component byte, a table from its operator
// byte — comes back as the rows a walk over the table sorted by key gives.
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
	e, err := lookup(dsn)
	if err != nil {
		f.Fatal(err)
	}
	w, err := wrapper.NewSQL("F", wrapper.SQLConfig{Driver: DriverName, DSN: dsn})
	if err != nil {
		f.Fatal(err)
	}
	// The keyset pages: the statement of a scan's second page, read off its
	// trace, by page size, dialect and table.
	dialects, tables := []string{wrapper.DialectSQLite, wrapper.DialectPostgres}, [][]string{{"t", "n"}, {"out of order", "v"}}
	pages := map[[3]int]string{}
	for size := 1; size <= 7; size++ {
		for d, dialect := range dialects {
			pw, err := wrapper.NewSQL("F", wrapper.SQLConfig{Driver: DriverName, DSN: dsn, Dialect: dialect, FetchPageRows: size})
			if err != nil {
				f.Fatal(err)
			}
			for tn, parts := range tables {
				tr := obs.NewTrace("f", "", "")
				ctx := obs.WithTrace(context.Background(), tr)
				scn, err := pw.ExtentScanner(ctx, parts)
				if err != nil {
					f.Fatal(err)
				}
				for scn.Next(ctx) {
				}
				var stmts []string
				for _, sp := range tr.Snapshot().Spans {
					if sp.Stage == "sql" {
						stmts = append(stmts, sp.Name)
					}
				}
				if scn.Err() != nil || len(stmts) < 2 {
					f.Fatalf("scan of %v in pages of %d: %v, statements %q", parts, size, scn.Err(), stmts)
				}
				pages[[3]int{size, d, tn}] = stmts[1]
			}
		}
	}
	tb, _ := db.Table("t")
	ops := []string{"=", "<", "<=", ">", ">="}
	f.Fuzz(func(t *testing.T, stmt string, comp, op uint8, lit int64) {
		read := func(stmt string) ([][]driver.Value, error) {
			rows, err := dispatch(e, stmt, []driver.Value{lit})
			if err != nil {
				return nil, err
			}
			var all [][]driver.Value
			for {
				dest := make([]driver.Value, len(rows.Columns()))
				if err := rows.Next(dest); err == io.EOF {
					return all, nil
				} else if err != nil {
					t.Fatalf("%q: reading the rows: %v", stmt, err)
				}
				all = append(all, dest)
			}
		}
		read(stmt)

		size, tn := 1+int(comp>>1)%7, int(op>>3)%2
		page := pages[[3]int{size, int(comp>>4) % 2, tn}]
		paged, err := read(page)
		if err != nil {
			t.Fatalf("%s after %d: the driver refused the wrapper's page: %v", page, lit, err)
		}
		pt, _ := db.Table(tables[tn][0])
		var walked [][]driver.Value
		for _, row := range slices.SortedFunc(slices.Values(pt.Rows()), func(a, b []any) int { return cmp.Compare(a[0].(int64), b[0].(int64)) }) {
			if row[0].(int64) > lit && len(walked) < size {
				walked = append(walked, []driver.Value{row[0], row[1]})
			}
		}
		if !slices.EqualFunc(paged, walked, slices.Equal) {
			t.Errorf("%s after %d: the driver read %v, a walk over the rows by key %v", page, lit, paged, walked)
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
