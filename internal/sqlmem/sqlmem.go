// Package sqlmem is an in-process database/sql driver backed by the
// rel in-memory engine. It exists so the SQL wrapper (and every test
// that needs a live database/sql backend) can run without cgo, network
// access, or external driver modules: a rel.DB is registered under a
// DSN, and database/sql connections to that DSN introspect and scan it
// through the standard driver interfaces.
//
// The driver is deliberately not a SQL engine. It understands exactly
// the statement shapes the wrapper's dialects emit — the sqlite_master
// / PRAGMA table_info introspection queries, their information_schema
// equivalents, simple column projections with an optional LIMIT/OFFSET
// window, and the one aggregate `SELECT COUNT(*) FROM t WHERE …` over a
// conjunction of `col IS NOT NULL` and `col <op> <integer>` terms — and
// rejects everything else. Registered databases are read-only through
// this driver.
//
// A per-DSN artificial latency (SetDelay) makes connections slow on
// demand, which is how tests exercise prefetch overlap and context
// cancellation against a "remote" SQL backend.
package sqlmem

import (
	"cmp"
	"context"
	"database/sql"
	"database/sql/driver"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/dataspace/automed/internal/rel"
)

// DriverName is the name this package registers with database/sql.
const DriverName = "sqlmem"

func init() {
	sql.Register(DriverName, drv{})
}

var (
	mu      sync.Mutex
	sources = make(map[string]*entry)
)

type entry struct {
	db    *rel.DB
	delay time.Duration
	noPK  map[string]bool
}

// Register installs (or replaces) the database served for a DSN.
func Register(dsn string, db *rel.DB) {
	mu.Lock()
	defer mu.Unlock()
	sources[dsn] = &entry{db: db}
}

// SetDelay makes every query against the DSN block for d first
// (cancellable via the query context); it simulates a slow remote
// backend. Registering the DSN again resets the delay.
func SetDelay(dsn string, d time.Duration) {
	mu.Lock()
	defer mu.Unlock()
	if e, ok := sources[dsn]; ok {
		e.delay = d
	}
}

// SetNoPK makes the introspection queries report no primary key for
// the named tables, as catalogs do for keyless tables. The wrapper
// then falls back to keying on the first column, which (unlike a rel
// primary key) admits NULLs — how tests stage NULL-key rows.
// Registering the DSN again resets the set.
func SetNoPK(dsn string, tables ...string) {
	mu.Lock()
	defer mu.Unlock()
	e, ok := sources[dsn]
	if !ok {
		return
	}
	m := make(map[string]bool, len(tables))
	for _, t := range tables {
		m[t] = true
	}
	e.noPK = m
}

// Unregister removes a DSN; live connections start failing, which is
// how tests simulate a vanished backend.
func Unregister(dsn string) {
	mu.Lock()
	defer mu.Unlock()
	delete(sources, dsn)
}

func lookup(dsn string) (*rel.DB, time.Duration, map[string]bool, error) {
	mu.Lock()
	defer mu.Unlock()
	e, ok := sources[dsn]
	if !ok {
		return nil, 0, nil, fmt.Errorf("sqlmem: no database registered for DSN %q", dsn)
	}
	// e.noPK is replaced wholesale by SetNoPK, never mutated, so the
	// reference is safe to use outside the lock.
	return e.db, e.delay, e.noPK, nil
}

type drv struct{}

// Open implements driver.Driver. The DSN is resolved per query, so a
// database registered (or replaced) after sql.Open is still picked up.
func (drv) Open(dsn string) (driver.Conn, error) {
	if _, _, _, err := lookup(dsn); err != nil {
		return nil, err
	}
	return &conn{dsn: dsn}, nil
}

type conn struct{ dsn string }

func (c *conn) Prepare(q string) (driver.Stmt, error) { return &stmt{c: c, q: q}, nil }
func (c *conn) Close() error                          { return nil }
func (c *conn) Begin() (driver.Tx, error) {
	return nil, fmt.Errorf("sqlmem: transactions are not supported")
}

// QueryContext implements driver.QueryerContext, the path database/sql
// prefers; the artificial per-DSN delay is applied here under the
// caller's context so cancellation interrupts a "slow" backend.
func (c *conn) QueryContext(ctx context.Context, q string, args []driver.NamedValue) (driver.Rows, error) {
	vals := make([]driver.Value, len(args))
	for i, a := range args {
		vals[i] = a.Value
	}
	return c.query(ctx, q, vals)
}

type stmt struct {
	c *conn
	q string
}

func (s *stmt) Close() error  { return nil }
func (s *stmt) NumInput() int { return -1 }
func (s *stmt) Exec(args []driver.Value) (driver.Result, error) {
	return nil, fmt.Errorf("sqlmem: the driver is read-only")
}
func (s *stmt) Query(args []driver.Value) (driver.Rows, error) {
	return s.c.query(context.Background(), s.q, args)
}

func (c *conn) query(ctx context.Context, q string, args []driver.Value) (driver.Rows, error) {
	db, delay, noPK, err := lookup(c.dsn)
	if err != nil {
		return nil, err
	}
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return dispatch(db, q, args, noPK)
}

// normalize collapses runs of whitespace so statement matching is
// insensitive to the formatting of the emitting dialect.
func normalize(q string) string {
	return strings.Join(strings.Fields(strings.TrimSpace(q)), " ")
}

// The introspection statements the wrapper dialects emit, normalized.
// sqlmem hosts a single database per DSN, so the DATABASE() scoping of
// the information_schema dialect and the current_schema() scoping of
// the postgres dialect are trivially satisfied.
const (
	qSQLiteTables = `SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY name`
	qInfoTables   = `SELECT table_name FROM information_schema.tables WHERE table_type = 'BASE TABLE' AND table_schema = DATABASE() ORDER BY table_name`
	qInfoColumns  = `SELECT column_name, data_type FROM information_schema.columns WHERE table_schema = DATABASE() AND table_name = ? ORDER BY ordinal_position`
	qInfoPK       = `SELECT kcu.column_name FROM information_schema.table_constraints tc JOIN information_schema.key_column_usage kcu ON kcu.constraint_name = tc.constraint_name AND kcu.table_schema = tc.table_schema AND kcu.table_name = tc.table_name WHERE tc.constraint_type = 'PRIMARY KEY' AND tc.table_schema = DATABASE() AND tc.table_name = ? ORDER BY kcu.ordinal_position`
	qPGTables     = `SELECT table_name FROM information_schema.tables WHERE table_type = 'BASE TABLE' AND table_schema = current_schema() ORDER BY table_name`
	qPGColumns    = `SELECT column_name, data_type FROM information_schema.columns WHERE table_schema = current_schema() AND table_name = $1 ORDER BY ordinal_position`
	qPGPK         = `SELECT kcu.column_name FROM information_schema.table_constraints tc JOIN information_schema.key_column_usage kcu ON kcu.constraint_name = tc.constraint_name AND kcu.table_schema = tc.table_schema AND kcu.table_name = tc.table_name WHERE tc.constraint_type = 'PRIMARY KEY' AND tc.table_schema = current_schema() AND tc.table_name = $1 ORDER BY kcu.ordinal_position`
)

func dispatch(db *rel.DB, rawQ string, args []driver.Value, noPK map[string]bool) (driver.Rows, error) {
	q := normalize(rawQ)
	switch q {
	case qSQLiteTables, qInfoTables, qPGTables:
		names := db.TableNames()
		sort.Strings(names)
		rows := make([][]driver.Value, len(names))
		for i, n := range names {
			rows[i] = []driver.Value{n}
		}
		return &memRows{cols: []string{"name"}, data: rows}, nil
	case qInfoColumns, qPGColumns:
		t, err := argTable(db, args)
		if err != nil {
			return nil, err
		}
		var rows [][]driver.Value
		for _, c := range t.Columns() {
			rows = append(rows, []driver.Value{c.Name, infoTypeName(c.Type)})
		}
		return &memRows{cols: []string{"column_name", "data_type"}, data: rows}, nil
	case qInfoPK, qPGPK:
		t, err := argTable(db, args)
		if err != nil {
			return nil, err
		}
		data := [][]driver.Value{{t.PrimaryKey()}}
		if noPK[t.Name()] {
			data = nil
		}
		return &memRows{cols: []string{"column_name"}, data: data}, nil
	}
	if name, ok := strings.CutPrefix(q, "PRAGMA table_info("); ok {
		name = strings.TrimSuffix(name, ")")
		t, ok := db.Table(unquoteIdent(name))
		if !ok {
			return nil, fmt.Errorf("sqlmem: no such table: %s", name)
		}
		var rows [][]driver.Value
		for i, c := range t.Columns() {
			pk := int64(0)
			if c.Name == t.PrimaryKey() && !noPK[t.Name()] {
				pk = 1
			}
			rows = append(rows, []driver.Value{
				int64(i), c.Name, sqliteTypeName(c.Type), int64(0), nil, pk,
			})
		}
		return &memRows{
			cols: []string{"cid", "name", "type", "notnull", "dflt_value", "pk"},
			data: rows,
		}, nil
	}
	if rest, ok := strings.CutPrefix(q, "SELECT COUNT(*) FROM "); ok {
		return countRows(db, q, rest)
	}
	return selectRows(db, q)
}

func argTable(db *rel.DB, args []driver.Value) (*rel.Table, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("sqlmem: want 1 argument, got %d", len(args))
	}
	name, ok := args[0].(string)
	if !ok {
		return nil, fmt.Errorf("sqlmem: table-name argument must be a string, got %T", args[0])
	}
	t, ok := db.Table(name)
	if !ok {
		return nil, fmt.Errorf("sqlmem: no such table: %s", name)
	}
	return t, nil
}

// selectRows serves `SELECT <idents> FROM <table>` projections with an
// optional trailing `LIMIT n OFFSET m`, the only data statements the
// wrapper emits. Identifiers may be double-quoted. The window is
// sliced off the table's row slice before any driver values are
// materialised, so a paged scan over a large table stays O(page), not
// O(table), per round trip.
func selectRows(db *rel.DB, q string) (driver.Rows, error) {
	rest, ok := strings.CutPrefix(q, "SELECT ")
	if !ok {
		return nil, fmt.Errorf("sqlmem: unsupported statement %q", q)
	}
	colPart, table, ok := strings.Cut(rest, " FROM ")
	if !ok {
		return nil, fmt.Errorf("sqlmem: unsupported statement %q", q)
	}
	limit, offset := -1, 0
	if name, clause, paged := strings.Cut(table, " "); paged {
		f := strings.Fields(clause)
		if len(f) != 4 || f[0] != "LIMIT" || f[2] != "OFFSET" {
			return nil, fmt.Errorf("sqlmem: unsupported statement %q", q)
		}
		var err error
		if limit, err = strconv.Atoi(f[1]); err != nil || limit < 0 {
			return nil, fmt.Errorf("sqlmem: unsupported statement %q", q)
		}
		if offset, err = strconv.Atoi(f[3]); err != nil || offset < 0 {
			return nil, fmt.Errorf("sqlmem: unsupported statement %q", q)
		}
		table = name
	}
	t, found := db.Table(unquoteIdent(table))
	if !found {
		return nil, fmt.Errorf("sqlmem: no such table: %s", table)
	}
	var cols []string
	for _, c := range strings.Split(colPart, ",") {
		cols = append(cols, unquoteIdent(strings.TrimSpace(c)))
	}
	idx := make([]int, len(cols))
	for i, c := range cols {
		j, ok := t.ColIndex(c)
		if !ok {
			return nil, fmt.Errorf("sqlmem: table %q has no column %q", t.Name(), c)
		}
		idx[i] = j
	}
	rows := t.Rows()
	if limit >= 0 {
		if offset > len(rows) {
			offset = len(rows)
		}
		rows = rows[offset:]
		if limit < len(rows) {
			rows = rows[:limit]
		}
	}
	data := make([][]driver.Value, len(rows))
	for rn, row := range rows {
		out := make([]driver.Value, len(idx))
		for i, j := range idx {
			out[i] = row[j] // rel cells are int64/float64/string/bool/nil: all driver.Values
		}
		data[rn] = out
	}
	return &memRows{cols: cols, data: data}, nil
}

// countRows serves `SELECT COUNT(*) FROM <table> WHERE <term> [AND
// <term>]…`, rest being what follows FROM: a term is `<col> IS NOT NULL`
// or `<col> <op> <integer>` with op one of = < <= > >=, and a comparison
// is only taken on an integer column (a NULL cell satisfies none, as in
// SQL).
func countRows(db *rel.DB, q, rest string) (driver.Rows, error) {
	unsupported := fmt.Errorf("sqlmem: unsupported statement %q", q)
	toks, ok := sqlTokens(rest)
	if !ok || len(toks) < 2 || toks[1] != "WHERE" {
		return nil, unsupported
	}
	t, found := db.Table(unquoteIdent(toks[0]))
	if !found {
		return nil, fmt.Errorf("sqlmem: no such table: %s", toks[0])
	}
	type term struct {
		col int
		op  string // "" for IS NOT NULL
		lit int64
	}
	var terms []term
	for toks = toks[2:]; ; toks = toks[1:] {
		if len(toks) < 3 {
			return nil, unsupported
		}
		col := unquoteIdent(toks[0])
		j, found := t.ColIndex(col)
		if !found {
			return nil, fmt.Errorf("sqlmem: table %q has no column %q", t.Name(), col)
		}
		tm := term{col: j}
		if len(toks) >= 4 && toks[1] == "IS" && toks[2] == "NOT" && toks[3] == "NULL" {
			toks = toks[4:]
		} else {
			switch tm.op = toks[1]; tm.op {
			case "=", "<", "<=", ">", ">=":
			default:
				return nil, unsupported
			}
			var err error
			if tm.lit, err = strconv.ParseInt(toks[2], 10, 64); err != nil {
				return nil, unsupported
			}
			if typ, _ := t.ColumnType(col); typ != rel.Int {
				return nil, fmt.Errorf("sqlmem: column %q of table %q is not an integer column", col, t.Name())
			}
			toks = toks[3:]
		}
		terms = append(terms, tm)
		if len(toks) == 0 {
			break
		}
		if toks[0] != "AND" {
			return nil, unsupported
		}
	}
	var n int64
rows:
	for _, row := range t.Rows() {
		for _, tm := range terms {
			cell := row[tm.col]
			if cell == nil {
				continue rows
			}
			if tm.op == "" {
				continue
			}
			c := cmp.Compare(cell.(int64), tm.lit)
			var holds bool
			switch tm.op {
			case "=":
				holds = c == 0
			case "<":
				holds = c < 0
			case "<=":
				holds = c <= 0
			case ">":
				holds = c > 0
			case ">=":
				holds = c >= 0
			}
			if !holds {
				continue rows
			}
		}
		n++
	}
	return &memRows{cols: []string{"COUNT(*)"}, data: [][]driver.Value{{n}}}, nil
}

// sqlTokens splits a normalized statement tail at its single spaces,
// keeping a double-quoted identifier (a doubled quote inside stands for
// one) whole and quoted, so that "AND" is a column and AND a keyword.
func sqlTokens(s string) ([]string, bool) {
	var toks []string
	for {
		end := strings.IndexByte(s, ' ')
		if strings.HasPrefix(s, `"`) {
			end = 1
			for ; end < len(s); end++ {
				if s[end] != '"' {
					continue
				}
				if end+1 == len(s) || s[end+1] != '"' {
					break
				}
				end++
			}
			if end == len(s) {
				return nil, false // no closing quote
			}
			end++
		}
		if end < 0 || end == len(s) {
			return append(toks, s), s != ""
		}
		if end == 0 || s[end] != ' ' {
			return nil, false
		}
		toks = append(toks, s[:end])
		s = s[end+1:]
	}
}

func unquoteIdent(s string) string {
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		return strings.ReplaceAll(s[1:len(s)-1], `""`, `"`)
	}
	return s
}

func sqliteTypeName(t rel.Type) string {
	switch t {
	case rel.Int:
		return "INTEGER"
	case rel.Float:
		return "REAL"
	case rel.Bool:
		return "BOOLEAN"
	}
	return "TEXT"
}

// infoTypeName is the information_schema data_type of a rel column.
func infoTypeName(t rel.Type) string {
	switch t {
	case rel.Int:
		return "bigint"
	case rel.Float:
		return "double precision"
	case rel.Bool:
		return "boolean"
	}
	return "text"
}

// memRows streams a materialised result set.
type memRows struct {
	cols []string
	data [][]driver.Value
	i    int
}

func (r *memRows) Columns() []string { return r.cols }
func (r *memRows) Close() error      { return nil }
func (r *memRows) Next(dest []driver.Value) error {
	if r.i >= len(r.data) {
		return io.EOF
	}
	copy(dest, r.data[r.i])
	r.i++
	return nil
}
