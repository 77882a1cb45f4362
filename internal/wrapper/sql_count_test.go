package wrapper_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/iql/iqltest"
	"github.com/dataspace/automed/internal/obs"
	"github.com/dataspace/automed/internal/rel"
	"github.com/dataspace/automed/internal/sqlmem"
	"github.com/dataspace/automed/internal/wrapper"
)

// A count taken at the SQL source must be the number the evaluator
// reaches by scanning the extent, or not be taken. These tests hold
// wrapper.SQL's ExtentCounter to count(…) as the reference evaluator,
// iqltest.Eval, reads it over the rows ExtentContext returns, across
// the dialects, on tables that hold what
// separates the two when the statement is wrong: NULL values, NULL keys,
// negative and extreme integers, duplicates, no rows at all, and float
// and string columns, which must decline.

// countDB generates the tables: t(id, n, f, s) keyed by id, with NULLs
// in every other column; nk(a, b, label), served without a declared key
// so that the wrapper keys it by a, which holds NULLs; and e(id, n),
// empty.
func countDB(r *rand.Rand) *rel.DB {
	edges := []int64{0, 1, -1, 7, -7, 1<<53 + 1, -(1 << 53) - 1, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1}
	integer := func() any {
		switch r.Intn(6) {
		case 0:
			return nil
		case 1:
			return edges[r.Intn(len(edges))]
		}
		return int64(r.Intn(10) - 5) // few values: duplicates
	}
	db := rel.NewDB("C")
	t := db.MustCreateTable("t", []rel.Column{
		{Name: "id", Type: rel.Int}, {Name: "n", Type: rel.Int},
		{Name: "f", Type: rel.Float}, {Name: "s", Type: rel.String}}, "id")
	for i := 0; i < 60; i++ {
		id := int64(i - 20)
		if i < len(edges) {
			id = edges[i] // 0, 1, -1, 7 and -7 among them: the rest start at 8
		} else if id >= -7 && id <= 7 {
			id += 100
		}
		var f, s any
		if r.Intn(5) > 0 {
			f = float64(r.Intn(10)-5) + 0.5*float64(r.Intn(2))
		}
		if r.Intn(5) > 0 {
			s = fmt.Sprint(r.Intn(10) - 5)
		}
		t.MustInsert(id, integer(), f, s)
	}
	nk := db.MustCreateTable("nk", []rel.Column{
		{Name: "a", Type: rel.Int}, {Name: "b", Type: rel.Int}, {Name: "label", Type: rel.String}}, "label")
	for i := 0; i < 40; i++ {
		nk.MustInsert(integer(), integer(), "L"+fmt.Sprint(i))
	}
	db.MustCreateTable("e", []rel.Column{{Name: "id", Type: rel.Int}, {Name: "n", Type: rel.Int}}, "id")
	return db
}

// countedExtents evaluates over one wrapper as a session does: Extent
// reads the object whole, ExtentCount has the source count when the
// wrapper says it can.
type countedExtents struct {
	w        *wrapper.SQL
	ctx      context.Context
	answered int
}

func (c *countedExtents) Extent(parts []string) (iql.Value, error) {
	return c.w.ExtentContext(c.ctx, parts)
}

func (c *countedExtents) ExtentCount(parts []string, sel iql.Selection) (int64, bool, error) {
	count, ok := c.w.ExtentCounter(parts, sel)
	if !ok {
		return 0, false, nil
	}
	c.answered++
	n, err := count(c.ctx)
	return n, true, err
}

var sqlDialects = []string{wrapper.DialectSQLite, wrapper.DialectInformationSchema, wrapper.DialectPostgres}

func newCountSQL(t *testing.T, dialect string, db *rel.DB) *wrapper.SQL {
	t.Helper()
	dsn := fmt.Sprintf("sqlcount-%d", sqlTestDSN.Add(1))
	sqlmem.Register(dsn, db)
	sqlmem.SetNoPK(dsn, "nk")
	t.Cleanup(func() { sqlmem.Unregister(dsn) })
	w, err := wrapper.NewSQL("C", wrapper.SQLConfig{Driver: sqlmem.DriverName, DSN: dsn, Dialect: dialect})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSQLCountMatchesLocalCount holds counts over every kind of object —
// keys with and without NULLs, integer, float and string columns, an
// empty table, a pair over keys that binds nothing — with every operator
// at and beside a boundary the rows hold, to the reference, and asserts
// which the source answered: those that compare only integer columns.
func TestSQLCountMatchesLocalCount(t *testing.T) {
	objects := []struct {
		ref, pat string
		answers  bool
	}{
		{"t", "v", true}, {"t, n", "{k, v}", true}, {"t, id", "{k, v}", true}, {"t, f", "{k, v}", false},
		{"t, s", "{k, v}", false}, {"nk", "v", true}, {"nk, b", "{k, v}", true}, {"nk, label", "{k, v}", false},
		{"e, n", "{k, v}", true}, {"t", "{k, v}", false},
	}
	conds := []string{"v < 3", "3 > v", "v <= -1", "-1 <= v", "v = 0", "7 = v", "v > 9007199254740993",
		"v >= -9223372036854775807", "v < 9223372036854775807", "v >= 2; v < 4"}
	for _, dialect := range sqlDialects {
		t.Run(dialect, func(t *testing.T) {
			w := newCountSQL(t, dialect, countDB(rand.New(rand.NewSource(20))))
			for _, o := range objects {
				for _, cond := range conds {
					query := "count([v | " + o.pat + " <- <<" + o.ref + ">>; " + cond + "])"
					want, wantErr := iqltest.Eval(iql.MustParse(query), iql.ExtentsFunc(w.Extent), nil)
					ce := &countedExtents{w: w, ctx: context.Background()}
					got, err := iql.NewEvaluator(ce).Eval(iql.MustParse(query), nil)
					if d := iqltest.Mismatch(got, err, want, wantErr); d != "" {
						t.Errorf("%s: counted at the source %s", query, d)
					}
					if (ce.answered == 1) != o.answers {
						t.Errorf("%s: the source answered %d times, want an answer: %v", query, ce.answered, o.answers)
					}
				}
			}
		})
	}
}

// TestSQLCountStatements pins the statement text per dialect (they
// quote alike today), and with it what is never rendered: a pattern of
// the wrong shape, a comparison of a column that is not an integer, an
// operator or a component out of range.
func TestSQLCountStatements(t *testing.T) {
	cond := func(comp int, op string, lit int64) iql.Cond { return iql.Cond{Comp: comp, Op: op, Lit: lit} }
	cases := []struct {
		parts []string
		sel   iql.Selection
		want  string // "": declined
	}{
		{[]string{"t", "n"}, iql.Selection{Arity: 2, Conds: []iql.Cond{cond(1, "<", 300)}},
			`SELECT COUNT(*) FROM "t" WHERE "id" IS NOT NULL AND "n" IS NOT NULL AND "n" < 300`},
		{[]string{"t", "n"}, iql.Selection{Arity: 2, Conds: []iql.Cond{cond(1, ">=", -5), cond(0, "=", math.MinInt64), cond(1, "<=", math.MaxInt64)}},
			`SELECT COUNT(*) FROM "t" WHERE "id" IS NOT NULL AND "n" IS NOT NULL AND "n" >= -5 AND "id" = -9223372036854775808 AND "n" <= 9223372036854775807`},
		{[]string{"t", "n"}, iql.Selection{Arity: 2}, `SELECT COUNT(*) FROM "t" WHERE "id" IS NOT NULL AND "n" IS NOT NULL`},
		{[]string{"t", "n"}, iql.Selection{}, `SELECT COUNT(*) FROM "t" WHERE "id" IS NOT NULL AND "n" IS NOT NULL`},
		{[]string{"t", "id"}, iql.Selection{Arity: 2, Conds: []iql.Cond{cond(1, ">", 0)}},
			`SELECT COUNT(*) FROM "t" WHERE "id" IS NOT NULL AND "id" > 0`},
		{[]string{"t", "s"}, iql.Selection{Arity: 2, Conds: []iql.Cond{cond(0, ">", 0)}},
			`SELECT COUNT(*) FROM "t" WHERE "id" IS NOT NULL AND "s" IS NOT NULL AND "id" > 0`},
		{[]string{"t"}, iql.Selection{Conds: []iql.Cond{cond(0, "=", 7)}}, `SELECT COUNT(*) FROM "t" WHERE "id" IS NOT NULL AND "id" = 7`},
		{[]string{"nk"}, iql.Selection{}, `SELECT COUNT(*) FROM "nk" WHERE "a" IS NOT NULL`},
		{[]string{"we\"ird"}, iql.Selection{Conds: []iql.Cond{cond(0, "<", 1)}},
			`SELECT COUNT(*) FROM "we""ird" WHERE "the key" IS NOT NULL AND "the key" < 1`},

		{[]string{"t"}, iql.Selection{Arity: 2}, ""},                                           // a pair over keys
		{[]string{"t"}, iql.Selection{Arity: 1}, ""},                                           // a 1-tuple over keys
		{[]string{"t", "n"}, iql.Selection{Arity: 3}, ""},                                      // a triple over pairs
		{[]string{"t", "n"}, iql.Selection{Conds: []iql.Cond{cond(0, "<", 1)}}, ""},            // a pair compared whole
		{[]string{"t", "f"}, iql.Selection{Arity: 2, Conds: []iql.Cond{cond(1, "<", 1)}}, ""},  // a float column
		{[]string{"t", "s"}, iql.Selection{Arity: 2, Conds: []iql.Cond{cond(1, "=", 1)}}, ""},  // a string column
		{[]string{"t", "n"}, iql.Selection{Arity: 2, Conds: []iql.Cond{cond(1, "<>", 1)}}, ""}, // not an operator of a Selection
		{[]string{"t", "n"}, iql.Selection{Arity: 2, Conds: []iql.Cond{cond(1, "< 1 OR 1 =", 1)}}, ""},
		{[]string{"t", "n"}, iql.Selection{Arity: 2, Conds: []iql.Cond{cond(2, "<", 1)}}, ""}, // no such component
		{[]string{"t", "n"}, iql.Selection{Arity: 2, Conds: []iql.Cond{cond(-1, "<", 1)}}, ""},
		{[]string{"nosuch"}, iql.Selection{}, ""},
	}
	for _, dialect := range sqlDialects {
		t.Run(dialect, func(t *testing.T) {
			db := countDB(rand.New(rand.NewSource(1)))
			weird := db.MustCreateTable(`we"ird`, []rel.Column{{Name: "the key", Type: rel.Int}}, "the key")
			weird.MustInsert(int64(0))
			w := newCountSQL(t, dialect, db)
			for _, tc := range cases {
				count, ok := w.ExtentCounter(tc.parts, tc.sel)
				if !ok {
					if tc.want != "" {
						t.Errorf("%v %+v: declined, want %s", tc.parts, tc.sel, tc.want)
					}
					continue
				}
				tr := obs.NewTrace("t", "", "")
				if _, err := count(obs.WithTrace(context.Background(), tr)); err != nil {
					t.Errorf("%v %+v: %v", tc.parts, tc.sel, err)
				}
				var stmts []string
				for _, sp := range tr.Snapshot().Spans {
					if sp.Stage == "sql" {
						stmts = append(stmts, sp.Name)
					}
				}
				if len(stmts) != 1 || stmts[0] != tc.want {
					t.Errorf("%v %+v: the backend was sent\n  %s\nwant\n  %s", tc.parts, tc.sel, strings.Join(stmts, "\n  "), tc.want)
				}
			}
		})
	}
}

// TestSQLCountOnlyWhilePaging: an offline wrapper is read whole from
// what it holds, and counts nothing at its source.
func TestSQLCountOnlyWhilePaging(t *testing.T) {
	db := countDB(rand.New(rand.NewSource(1)))
	snap, err := newCountSQL(t, wrapper.DialectSQLite, db).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap.SQL.Driver = "no-such-driver"
	offline, err := wrapper.Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := offline.(wrapper.CountSourcer).ExtentCounter([]string{"t"}, iql.Selection{}); ok {
		t.Error("an offline wrapper offers to count at its source")
	}
}
