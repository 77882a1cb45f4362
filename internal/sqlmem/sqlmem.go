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
// equivalents, column projections of a whole table or of one page of it
// in primary-key order (`… WHERE k > ? ORDER BY k LIMIT n`, with ? or
// $1), and the one aggregate `SELECT COUNT(*) FROM t WHERE …` over a
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
	"slices"
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
	// byKey holds each table's rows in key order as keyOrder last read
	// them; it is shared by the entry's copies and guarded by mu.
	byKey map[*rel.Table][][]any
}

// Register installs (or replaces) the database served for a DSN.
func Register(dsn string, db *rel.DB) {
	mu.Lock()
	defer mu.Unlock()
	sources[dsn] = &entry{db: db, byKey: make(map[*rel.Table][][]any)}
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

// lookup returns a copy of the DSN's entry, safe to read outside the
// lock: e.noPK is replaced wholesale by SetNoPK, never mutated.
func lookup(dsn string) (entry, error) {
	mu.Lock()
	defer mu.Unlock()
	e, ok := sources[dsn]
	if !ok {
		return entry{}, fmt.Errorf("sqlmem: no database registered for DSN %q", dsn)
	}
	return *e, nil
}

type drv struct{}

// Open implements driver.Driver. The DSN is resolved per query, so a
// database registered (or replaced) after sql.Open is still picked up.
func (drv) Open(dsn string) (driver.Conn, error) {
	if _, err := lookup(dsn); err != nil {
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
	e, err := lookup(c.dsn)
	if err != nil {
		return nil, err
	}
	if e.delay > 0 {
		select {
		case <-time.After(e.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return dispatch(e, q, args)
}

// normalize collapses runs of whitespace so statement matching is
// insensitive to the formatting of the emitting dialect. Only the
// introspection statements are matched so: one that names a table in
// its text — PRAGMA table_info and the data statements — is read as it
// came, for "a  b" is a name of its own.
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

func dispatch(e entry, rawQ string, args []driver.Value) (driver.Rows, error) {
	db, noPK := e.db, e.noPK
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
	if name, ok := strings.CutPrefix(strings.TrimSpace(rawQ), "PRAGMA table_info("); ok {
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
	return selectRows(e, rawQ, args)
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

// selectRows serves the data statements, read word by word (sqlTokens):
//
//	SELECT COUNT(*) FROM t WHERE term [AND term]…
//	SELECT c[, c]… FROM t [WHERE term [AND term]…] [ORDER BY k LIMIT n]
//
// A term is `col IS NOT NULL` or `col <op> <lit>` with op one of = < <=
// > >=, and lit an integer, compared only with an integer column, or a
// placeholder (? or $1: the first argument), compared only with a column
// of its type; a NULL cell satisfies no term, as in SQL. ORDER BY names
// the primary key, and rows come in its order: a term `k > x` or
// `k >= x` starts them by binary search, so a keyset page over a table
// already in key order costs its own rows, not the table's (keyOrder).
func selectRows(e entry, q string, args []driver.Value) (driver.Rows, error) {
	unsupported := fmt.Errorf("sqlmem: unsupported statement %q", q)
	toks, ok := sqlTokens(q)
	w := words(toks)
	if !ok || !w.take("SELECT") {
		return nil, unsupported
	}
	var cols []string // nil: COUNT(*)
	if !w.take("COUNT(*)") {
		for cols = []string{unquoteIdent(w.next())}; w.take(","); {
			cols = append(cols, unquoteIdent(w.next()))
		}
	}
	if !w.take("FROM") {
		return nil, unsupported
	}
	name := w.next()
	t, found := e.db.Table(unquoteIdent(name))
	if !found {
		return nil, fmt.Errorf("sqlmem: no such table: %s", name)
	}
	var terms []term
	for more := w.take("WHERE"); more; more = w.take("AND") {
		tm, err := parseTerm(t, &w, args, unsupported)
		if err != nil {
			return nil, err
		}
		terms = append(terms, tm)
	}
	rows, limit := t.Rows(), -1
	if w.take("ORDER", "BY") {
		var err error
		if unquoteIdent(w.next()) != t.PrimaryKey() || !w.take("LIMIT") {
			return nil, unsupported
		}
		if limit, err = strconv.Atoi(w.next()); err != nil || limit < 0 {
			return nil, unsupported
		}
		rows = e.keyOrder(t)
		pk, _ := t.ColIndex(t.PrimaryKey())
		for _, tm := range terms {
			if tm.col == pk && (tm.op == ">" || tm.op == ">=") {
				rows = rows[sort.Search(len(rows), func(i int) bool { return tm.holds(rows[i]) }):]
			}
		}
	}
	if len(w) > 0 || cols == nil && (terms == nil || limit >= 0) {
		return nil, unsupported
	}
	idx := make([]int, len(cols))
	for i, c := range cols {
		j, ok := t.ColIndex(c)
		if !ok {
			return nil, fmt.Errorf("sqlmem: table %q has no column %q", t.Name(), c)
		}
		idx[i] = j
	}
	if limit < 0 || limit > len(rows) {
		limit = len(rows)
	}
	var data [][]driver.Value
	if cols != nil {
		data = make([][]driver.Value, 0, limit)
	}
	n := 0
scan:
	for _, row := range rows {
		if n == limit {
			break
		}
		for _, tm := range terms {
			if !tm.holds(row) {
				continue scan
			}
		}
		if n++; cols != nil {
			out := make([]driver.Value, len(idx))
			for i, j := range idx {
				out[i] = row[j] // rel cells are int64/float64/string/bool/nil: all driver.Values
			}
			data = append(data, out)
		}
	}
	if cols == nil {
		return &memRows{cols: []string{"COUNT(*)"}, data: [][]driver.Value{{int64(n)}}}, nil
	}
	return &memRows{cols: cols, data: data}, nil
}

// words reads a statement's tokens front to back.
type words []string

// next takes the next word, "" at the end.
func (w *words) next() string {
	if len(*w) == 0 {
		return ""
	}
	t := (*w)[0]
	*w = (*w)[1:]
	return t
}

// take takes the words ws if they come next.
func (w *words) take(ws ...string) bool {
	if len(*w) < len(ws) || !slices.Equal((*w)[:len(ws)], ws) {
		return false
	}
	*w = (*w)[len(ws):]
	return true
}

// term is one conjunct of a WHERE clause over a row's cell col: IS NOT
// NULL when op is "", else a comparison with lit.
type term struct {
	col int
	op  string
	lit any
}

// parseTerm reads one term over t's columns.
func parseTerm(t *rel.Table, w *words, args []driver.Value, unsupported error) (term, error) {
	col := unquoteIdent(w.next())
	j, found := t.ColIndex(col)
	if !found {
		return term{}, fmt.Errorf("sqlmem: table %q has no column %q", t.Name(), col)
	}
	tm := term{col: j}
	if w.take("IS", "NOT", "NULL") {
		return tm, nil
	}
	switch tm.op = w.next(); tm.op {
	case "=", "<", "<=", ">", ">=":
	default:
		return term{}, unsupported
	}
	switch lit := w.next(); lit {
	case "?", "$1":
		if len(args) == 0 {
			return term{}, fmt.Errorf("sqlmem: %s has no argument", lit)
		}
		tm.lit = args[0]
	default:
		n, err := strconv.ParseInt(lit, 10, 64)
		if err != nil {
			return term{}, unsupported
		}
		tm.lit = n
	}
	if typ, _ := t.ColumnType(col); goTypes[typ] != fmt.Sprintf("%T", tm.lit) {
		return term{}, fmt.Errorf("sqlmem: column %q of table %q cannot be compared with %T", col, t.Name(), tm.lit)
	}
	return tm, nil
}

// goTypes names the Go type rel keeps each column type's cells in.
var goTypes = map[rel.Type]string{rel.Int: "int64", rel.Float: "float64", rel.String: "string", rel.Bool: "bool"}

func (tm term) holds(row []any) bool {
	cell := row[tm.col]
	if cell == nil || tm.op == "" {
		return cell != nil
	}
	c := compareCells(cell, tm.lit)
	switch tm.op {
	case "=":
		return c == 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	}
	return c >= 0
}

// compareCells orders two non-NULL cells of one column: rel holds a
// column's cells to one Go type.
func compareCells(a, b any) int {
	switch x := a.(type) {
	case int64:
		return cmp.Compare(x, b.(int64))
	case float64:
		return cmp.Compare(x, b.(float64))
	case string:
		return strings.Compare(x, b.(string))
	}
	return strings.Compare(fmt.Sprint(a), fmt.Sprint(b)) // bools: false, then true
}

// keyOrder returns t's rows in primary-key order: the table's own when it
// holds them so, as every table built in key order does, else a sorted
// copy. rel tables only grow, so what was read at one row count holds
// until the count changes, and only the first statement after a change
// walks the table.
func (e entry) keyOrder(t *rel.Table) [][]any {
	mu.Lock()
	defer mu.Unlock()
	rows := t.Rows()
	if held, ok := e.byKey[t]; ok && len(held) == len(rows) {
		return held
	}
	pk, _ := t.ColIndex(t.PrimaryKey())
	byKey := func(a, b []any) int { return compareCells(a[pk], b[pk]) }
	if !slices.IsSortedFunc(rows, byKey) {
		rows = slices.SortedFunc(slices.Values(rows), byKey)
	}
	e.byKey[t] = rows
	return rows
}

// sqlTokens splits a statement into its words at whitespace: a comma is
// a word of its own, and a double-quoted identifier (a doubled quote
// inside stands for one) is kept whole and quoted, so that "AND" is a
// column and AND a keyword, and "my  table" is one name.
func sqlTokens(s string) ([]string, bool) {
	const space = " \t\n\r"
	var toks []string
	for s = strings.TrimLeft(s, space); s != ""; s = strings.TrimLeft(s, space) {
		end := strings.IndexAny(s, space+",")
		switch {
		case s[0] == ',':
			end = 1
		case s[0] == '"':
			for end = 1; end < len(s) && (s[end] != '"' || strings.HasPrefix(s[end:], `""`)); end++ {
				if s[end] == '"' {
					end++ // a doubled quote
				}
			}
			if end++; end > len(s) || end < len(s) && !strings.ContainsAny(s[end:end+1], space+",") {
				return nil, false // no closing quote, or a word run on after it
			}
		case end < 0:
			end = len(s)
		}
		toks, s = append(toks, s[:end]), s[end:]
	}
	return toks, len(toks) > 0
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
