package wrapper

import (
	"context"
	"database/sql"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/obs"
)

// SQLConfig configures a SQL-over-the-wire data source.
type SQLConfig struct {
	// Driver is the database/sql driver name; the hosting binary must
	// import (and thereby register) the driver itself.
	Driver string
	// DSN is the driver-specific connection string.
	DSN string
	// Dialect selects the schema-introspection strategy: "sqlite"
	// (sqlite_master + PRAGMA table_info, the default) or
	// "information_schema" (standard information_schema views with ?
	// placeholders).
	Dialect string
	// Timeout bounds every introspection query and extent fetch; it
	// combines with (never extends) the caller's context. Defaults to
	// 30s.
	Timeout time.Duration
	// FetchPageRows bounds how many rows each page of a keyed table —
	// one SELECT … ORDER BY key LIMIT n, of a scan and of an Extent
	// alike — fetches per round trip. 0 or less uses
	// DefaultFetchPageRows.
	FetchPageRows int
}

// withDefaults gives the settings left at zero their defaults: a
// constructed wrapper's and a restored one's alike.
func (c SQLConfig) withDefaults() SQLConfig {
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	return c
}

// DefaultFetchPageRows is the scanner page size when
// SQLConfig.FetchPageRows is unset.
const DefaultFetchPageRows = 4096

// sqlTable is the introspected shape of one table. pk is the catalog's
// primary key when that is one column, "" for a table without one or
// with a key of several columns, which is keyed on its first column
// (key). kinds is parallel to cols: what the catalog's declared
// type says a column holds, reduced to what a counted read needs to know
// (sqlKindInt or sqlKindOther). A table restored from a snapshot written
// before kinds were kept has none, and no column of it is then known to
// be an integer.
type sqlTable struct {
	name  string
	pk    string
	cols  []string
	kinds []string
}

// key is the column whose values are the table's extent.
func (t sqlTable) key() string {
	if t.pk == "" {
		return t.cols[0]
	}
	return t.pk
}

// The column kinds. Only an integer column is compared at the source:
// there the backend orders int against int exactly as the evaluator
// does, where strings go by collation and floats by their own rules.
const (
	sqlKindInt   = "int"
	sqlKindOther = "other"
)

// isInt reports whether the catalog types col as an integer.
func (t sqlTable) isInt(col string) bool {
	i := slices.Index(t.cols, col)
	return i >= 0 && i < len(t.kinds) && t.kinds[i] == sqlKindInt
}

// SQL wraps a live relational database reached through database/sql:
// the schema is introspected from the catalog at construction, and
// extents are streamed from the backend on every fetch, so the wrapper
// always reflects the current contents. A wrapper restored from a
// snapshot additionally carries the snapshot's materialised extents,
// which FallbackExtent serves while the backend is unreachable.
type SQL struct {
	remote
	cfg     SQLConfig
	dialect sqlDialect
	db      *sql.DB // nil when restored without a usable driver
	tables  map[string]sqlTable
}

// NewSQL opens the configured database, introspects its tables and
// columns through the dialect, and exposes them exactly like the
// in-memory relational wrapper: nodal <<t>> objects whose extent is
// the bag of primary-key values, link <<t, c>> objects whose extent is
// the bag of {key, value} pairs.
func NewSQL(name string, cfg SQLConfig) (*SQL, error) {
	return NewSQLContext(context.Background(), name, cfg)
}

// NewSQLContext is NewSQL under a caller-supplied context: the
// introspection queries abort as soon as ctx is cancelled, so a server
// handler opening a source against an unreachable database stops when
// its client disconnects instead of pinning the request for the full
// introspection timeout.
func NewSQLContext(ctx context.Context, name string, cfg SQLConfig) (*SQL, error) {
	if name == "" {
		return nil, fmt.Errorf("wrapper: sql: source name is required")
	}
	if cfg.Driver == "" || cfg.DSN == "" {
		return nil, fmt.Errorf("wrapper: sql: source %q: driver and dsn are required", name)
	}
	cfg = cfg.withDefaults()
	d, err := sqlDialectFor(cfg.Dialect)
	if err != nil {
		return nil, fmt.Errorf("wrapper: sql: source %q: %w", name, err)
	}
	cfg.Dialect = d.name()
	db, err := sql.Open(cfg.Driver, cfg.DSN)
	if err != nil {
		return nil, fmt.Errorf("wrapper: sql: source %q: %w", name, err)
	}
	ctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
	defer cancel()
	tables, err := d.tables(ctx, db)
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("wrapper: sql: source %q: introspecting schema: %w", name, err)
	}
	w := &SQL{remote: remote{name: name}, cfg: cfg, dialect: d, db: db}
	if err := w.buildSchema(tables); err != nil {
		db.Close()
		return nil, err
	}
	return w, nil
}

// buildSchema installs the introspected tables as HDM objects, using
// the same scheme conventions as the in-memory relational wrapper.
func (w *SQL) buildSchema(tables []sqlTable) error {
	s := hdm.NewSchema(w.name)
	byName := make(map[string]sqlTable, len(tables))
	for _, t := range tables {
		if t.name == "" || len(t.cols) == 0 {
			return fmt.Errorf("wrapper: sql: source %q: introspected table %q has no columns", w.name, t.name)
		}
		if !slices.Contains(t.cols, t.key()) {
			return fmt.Errorf("wrapper: sql: source %q table %q: primary key %q is not a column",
				w.name, t.name, t.pk)
		}
		if err := s.Add(hdm.NewObject(hdm.NewScheme(t.name), hdm.Nodal, "sql", "table")); err != nil {
			return fmt.Errorf("wrapper: sql: source %q: %w", w.name, err)
		}
		for _, c := range t.cols {
			if err := s.Add(hdm.NewObject(hdm.NewScheme(t.name, c), hdm.Link, "sql", "column")); err != nil {
				return fmt.Errorf("wrapper: sql: source %q: %w", w.name, err)
			}
		}
		byName[t.name] = t
	}
	w.schema = s
	w.tables = byName
	return nil
}

// Config returns the wrapper's connection configuration.
func (w *SQL) Config() SQLConfig { return w.cfg }

// Kind labels the wrapper flavour in metrics and traces.
func (w *SQL) Kind() string { return "sql" }

// Ping probes the backend connection, reporting reachability without
// fetching data. It is the federation-time liveness probe
// (query.Pinger). An offline wrapper reports unreachable.
func (w *SQL) Ping(ctx context.Context) error {
	if w.db == nil {
		return fmt.Errorf("wrapper: sql: source %q is offline", w.name)
	}
	ctx, cancel := context.WithTimeout(ctx, w.cfg.Timeout)
	defer cancel()
	return w.db.PingContext(ctx)
}

// Extent implements Wrapper.
func (w *SQL) Extent(parts []string) (iql.Value, error) {
	return w.ExtentContext(context.Background(), parts)
}

// ExtentContext is Extent under a caller-supplied context: the fetch is
// abandoned as soon as ctx is cancelled (the per-wrapper Timeout still
// applies to each page). A fetch that fails is an error, also from a
// restored wrapper: the extent it holds is served by FallbackExtent, to a
// caller that says so. The extent is the concatenation of exactly the
// pages ExtentScanner would stream.
func (w *SQL) ExtentContext(ctx context.Context, parts []string) (iql.Value, error) {
	s, err := w.scanner(parts)
	if err != nil {
		return iql.Value{}, err
	}
	return s.collect(ctx)
}

// StreamingScans reports whether ExtentScanner pages rows incrementally
// from the backend: whether the wrapper is online. The query pipeline
// streams only such sources — local wrappers gain nothing from the
// streaming path.
func (w *SQL) StreamingScans() bool { return w.db != nil }

// ExtentScanner implements ScanSourcer: it reads the extent a page at a
// time, so only one page of rows is resident at once. An offline
// wrapper's scan fails as its fetch does.
func (w *SQL) ExtentScanner(ctx context.Context, parts []string) (Scanner, error) {
	return w.scanner(parts)
}

// scanner returns the pages of the object parts names, not yet read. A
// keyed table is read in key order, each page starting after the key of
// the last row the page before it scanned — a row of <<t, c>> dropped
// for its NULL value included —
//
//	SELECT "id", "val" FROM "items" WHERE "id" IS NOT NULL ORDER BY "id" LIMIT 4096
//	SELECT "id", "val" FROM "items" WHERE "id" > ? ORDER BY "id" LIMIT 4096
//
// with the key bound to the dialect's placeholder ($1 for postgres). A
// NULL key is no row of the extent, and never a cursor: SQLite lets a
// key that is not an INTEGER PRIMARY KEY hold NULLs, and sorts them
// first. The key of a table without a one-column catalog key, its first
// column, may repeat or hold NULLs and orders nothing, so such a table is
// read as one page of one unordered SELECT.
func (w *SQL) scanner(parts []string) (*pagedScanner, error) {
	obj, err := w.schema.Resolve(parts)
	if err != nil {
		return nil, err
	}
	if w.db == nil {
		return nil, fmt.Errorf("wrapper: sql: source %q is offline: driver %q is not registered", w.name, w.cfg.Driver)
	}
	sc := obj.Scheme
	t := w.tables[sc.Part(0)]
	key := quoteIdent(t.key())
	p := sqlPages{w: w, pair: sc.Arity() == 2, first: "SELECT " + key}
	if p.pair {
		p.first += ", " + quoteIdent(sc.Part(1))
	}
	p.first += " FROM " + quoteIdent(t.name)
	if t.pk != "" {
		p.limit = w.cfg.FetchPageRows
		if p.limit <= 0 {
			p.limit = DefaultFetchPageRows
		}
		order := " ORDER BY " + key + " LIMIT " + strconv.Itoa(p.limit)
		p.first, p.after = p.first+" WHERE "+key+" IS NOT NULL"+order, p.first+" WHERE "+key+" > "+w.dialect.placeholder()+order
	}
	return &pagedScanner{page: p.page, wrap: func(err error) error {
		return fmt.Errorf("wrapper: sql: source %q: fetching %s: %w", w.name, sc, err)
	}}, nil
}

// sqlPages are the statements of one object's pages: first, and after
// with the cursor bound, for a table paged by key; first alone, with no
// LIMIT (limit 0), for one read unpaged.
type sqlPages struct {
	w            *SQL
	pair         bool // <<t, c>>: {key, value} rows
	first, after string
	limit        int
}

// page runs one page's SELECT under the wrapper's Timeout and appends
// its rows, mapped onto extent items, to items. Rows with NULL keys are
// absent from both arities (a table's extent is the bag of its key
// values, and NULL is not a key), and NULL values are absent from column
// extents — both matching the relational wrapper, which never yields
// them. The page is allocated once at its LIMIT (a short one keeps the
// spare capacity; whoever caches it cuts it to its length, see
// Processor.scan); an unbounded SELECT grows by append. A page of fewer
// rows than its LIMIT is the last.
func (p sqlPages) page(ctx context.Context, cursor any, items []iql.Value) (_ []iql.Value, next any, done bool, err error) {
	stmt, args := p.first, []any(nil)
	if cursor != nil {
		stmt, args = p.after, []any{cursor}
	}
	ctx, cancel := context.WithTimeout(ctx, p.w.cfg.Timeout)
	defer cancel()
	sp, ctx := obs.StartSpan(ctx, "sql", stmt)
	if sp != nil && cursor != nil {
		sp.SetDetail(fmt.Sprint(cursor))
	}
	defer func() { sp.End(err) }()
	rows, err := p.w.db.QueryContext(ctx, stmt, args...)
	if err != nil {
		return nil, nil, false, err
	}
	defer rows.Close()
	// The destinations escape through Scan's interface arguments:
	// declared per row they would cost two allocations a row.
	var key, val any
	dest := []any{&key}
	if p.pair {
		dest = append(dest, &val)
	}
	var tuples pairs
	if items == nil && p.limit > 0 {
		items = make([]iql.Value, 0, p.limit)
	}
	scanned := 0
	for rows.Next() {
		scanned++
		if err = rows.Scan(dest...); err != nil {
			return nil, nil, false, fmt.Errorf("scanning: %w", err)
		}
		switch {
		case key == nil || (p.pair && val == nil):
			// NULL: absent from the extent.
		case p.pair:
			items = append(items, tuples.tuple(CellValue(key), CellValue(val)))
		default:
			items = append(items, CellValue(key))
		}
	}
	if err = rows.Err(); err != nil {
		return nil, nil, false, err
	}
	return items, key, p.limit == 0 || scanned < p.limit, nil
}

// ExtentCounter implements CountSourcer: how many rows of one object's
// extent sel keeps is one statement at the backend,
//
//	SELECT COUNT(*) FROM "items" WHERE "id" IS NOT NULL AND "val" IS NOT NULL AND "val" < 300
//
// in place of every row paged across to be counted here. The wrapper
// answers only where that number is the one the evaluator would reach
// (countStmt) and only while it is online: an offline wrapper has
// nothing to ask.
func (w *SQL) ExtentCounter(parts []string, sel iql.Selection) (func(context.Context) (int64, error), bool) {
	if w.db == nil {
		return nil, false
	}
	obj, err := w.schema.Resolve(parts)
	if err != nil {
		return nil, false
	}
	sc := obj.Scheme
	stmt, ok := w.countStmt(sc, sel)
	if !ok {
		return nil, false
	}
	return func(ctx context.Context) (int64, error) {
		ctx, cancel := context.WithTimeout(ctx, w.cfg.Timeout)
		defer cancel()
		sp, ctx := obs.StartSpan(ctx, "sql", stmt)
		var n int64
		err := w.db.QueryRowContext(ctx, stmt).Scan(&n)
		sp.End(err)
		if err != nil {
			return 0, fmt.Errorf("wrapper: sql: source %q: counting %s: %w", w.name, sc, err)
		}
		return n, nil
	}, true
}

// countStmt renders sel over one object's extent as a COUNT statement,
// or declines. The pattern must have the shape of the object's
// elements: a bare variable over either kind of object, or a pair over
// a link object <<t, c>>, whose components are the key and the column
// (a pair over a nodal object binds nothing, and the evaluator answers
// 0 without help). A compared component must be a column the catalog
// types as an integer — the key, for a bare variable over a nodal
// object; a bare variable over a link object is a tuple and compares
// with nothing. IS NOT NULL on key and column is the extent's own NULL
// skipping (sqlPages.page). Identifiers are quoted, operators come from a
// fixed set and literals are int64 digits, so there is nothing to bind
// and nothing of the query's text in the statement.
func (w *SQL) countStmt(sc hdm.Scheme, sel iql.Selection) (string, bool) {
	t := w.tables[sc.Part(0)]
	key := t.key()
	var comps []string // the column behind each comparable component
	switch {
	case sc.Arity() == 1 && sel.Arity == 0:
		comps = []string{key}
	case sc.Arity() == 2 && sel.Arity == 0:
	case sc.Arity() == 2 && sel.Arity == 2:
		comps = []string{key, sc.Part(1)}
	default:
		return "", false
	}
	stmt := make([]byte, 0, 128)
	stmt = append(stmt, "SELECT COUNT(*) FROM "...)
	stmt = append(stmt, quoteIdent(t.name)...)
	stmt = append(stmt, " WHERE "...)
	stmt = append(stmt, quoteIdent(key)...)
	stmt = append(stmt, " IS NOT NULL"...)
	if sc.Arity() == 2 && sc.Part(1) != key {
		stmt = append(stmt, " AND "...)
		stmt = append(stmt, quoteIdent(sc.Part(1))...)
		stmt = append(stmt, " IS NOT NULL"...)
	}
	for _, c := range sel.Conds {
		if c.Comp < 0 || c.Comp >= len(comps) || !t.isInt(comps[c.Comp]) {
			return "", false
		}
		switch c.Op {
		case "=", "<", "<=", ">", ">=":
		default:
			return "", false
		}
		stmt = append(stmt, " AND "...)
		stmt = append(stmt, quoteIdent(comps[c.Comp])...)
		stmt = append(stmt, ' ')
		stmt = append(stmt, c.Op...)
		stmt = append(stmt, ' ')
		stmt = strconv.AppendInt(stmt, c.Lit, 10)
	}
	return string(stmt), true
}

func quoteIdent(s string) string {
	out := make([]byte, 0, len(s)+2)
	out = append(out, '"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			out = append(out, '"')
		}
		out = append(out, s[i])
	}
	return string(append(out, '"'))
}

// sortedTables returns the wrapper's table metadata in schema order.
func (w *SQL) sortedTables() []sqlTable {
	names := make([]string, 0, len(w.tables))
	for n := range w.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]sqlTable, 0, len(names))
	for _, n := range names {
		out = append(out, w.tables[n])
	}
	return out
}

// ---- Introspection dialects ----

// sqlDialect lists a database's tables (name, primary key, ordered
// columns) through catalog queries, and names the placeholder a
// statement's one argument is bound to.
type sqlDialect interface {
	name() string
	placeholder() string
	tables(ctx context.Context, db *sql.DB) ([]sqlTable, error)
}

// DialectSQLite, DialectInformationSchema and DialectPostgres are the
// supported values of SQLConfig.Dialect.
const (
	DialectSQLite            = "sqlite"
	DialectInformationSchema = "information_schema"
	DialectPostgres          = "postgres"
)

func sqlDialectFor(name string) (sqlDialect, error) {
	switch name {
	case "", DialectSQLite:
		return sqliteDialect{}, nil
	case DialectInformationSchema:
		return infoSchemaDialect{}, nil
	case DialectPostgres:
		return postgresDialect{}, nil
	}
	return nil, fmt.Errorf("unknown dialect %q (want %s, %s or %s)",
		name, DialectSQLite, DialectInformationSchema, DialectPostgres)
}

// sqliteDialect introspects through sqlite_master and PRAGMA
// table_info, as SQLite (and this module's sqlmem test driver) serve.
type sqliteDialect struct{}

func (sqliteDialect) name() string        { return DialectSQLite }
func (sqliteDialect) placeholder() string { return "?" }

func (sqliteDialect) tables(ctx context.Context, db *sql.DB) ([]sqlTable, error) {
	names, err := stringColumn(ctx, db, `SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY name`)
	if err != nil {
		return nil, err
	}
	out := make([]sqlTable, 0, len(names))
	for _, n := range names {
		rows, err := db.QueryContext(ctx, fmt.Sprintf("PRAGMA table_info(%s)", quoteIdent(n)))
		if err != nil {
			return nil, fmt.Errorf("table %q: %w", n, err)
		}
		t := sqlTable{name: n}
		var keys []string
		for rows.Next() {
			var (
				cid, notnull, pk int64
				col, typ         string
				dflt             any
			)
			if err := rows.Scan(&cid, &col, &typ, &notnull, &dflt, &pk); err != nil {
				rows.Close()
				return nil, fmt.Errorf("table %q: %w", n, err)
			}
			t.cols = append(t.cols, col)
			// SQLite's affinity rule: a declared type containing "INT"
			// is an integer column.
			t.kinds = append(t.kinds, sqlKind(strings.Contains(strings.ToUpper(typ), "INT")))
			if pk > 0 {
				keys = append(keys, col)
			}
		}
		if err := rows.Close(); err != nil {
			return nil, fmt.Errorf("table %q: %w", n, err)
		}
		if err := rows.Err(); err != nil {
			return nil, fmt.Errorf("table %q: %w", n, err)
		}
		t.pk = oneKey(keys)
		out = append(out, t)
	}
	return out, nil
}

// infoSchemaDialect introspects through the standard
// information_schema views with ? placeholders (MySQL-compatible; see
// postgresDialect for the $1-placeholder variant). Every query is
// scoped to the connected database — DATABASE() on MySQL — so
// same-named tables in other databases on the server don't bleed in,
// and the primary-key join matches key_column_usage rows on table as
// well as constraint name (on MySQL every table's primary key is
// named "PRIMARY", so joining on constraint_name alone would match
// every table's key columns).
type infoSchemaDialect struct{}

func (infoSchemaDialect) name() string        { return DialectInformationSchema }
func (infoSchemaDialect) placeholder() string { return "?" }

func (infoSchemaDialect) tables(ctx context.Context, db *sql.DB) ([]sqlTable, error) {
	return infoSchemaTables(ctx, db,
		`SELECT table_name FROM information_schema.tables WHERE table_type = 'BASE TABLE' AND table_schema = DATABASE() ORDER BY table_name`,
		`SELECT column_name, data_type FROM information_schema.columns WHERE table_schema = DATABASE() AND table_name = ? ORDER BY ordinal_position`,
		`SELECT kcu.column_name FROM information_schema.table_constraints tc
		 JOIN information_schema.key_column_usage kcu
		   ON kcu.constraint_name = tc.constraint_name
		  AND kcu.table_schema = tc.table_schema
		  AND kcu.table_name = tc.table_name
		 WHERE tc.constraint_type = 'PRIMARY KEY' AND tc.table_schema = DATABASE() AND tc.table_name = ?
		 ORDER BY kcu.ordinal_position`)
}

// postgresDialect is the information_schema strategy with PostgreSQL's
// $1 ordinal placeholders and current_schema() scoping (PostgreSQL
// scopes namespaces per schema within one database, where MySQL scopes
// per database).
type postgresDialect struct{}

func (postgresDialect) name() string        { return DialectPostgres }
func (postgresDialect) placeholder() string { return "$1" }

func (postgresDialect) tables(ctx context.Context, db *sql.DB) ([]sqlTable, error) {
	return infoSchemaTables(ctx, db,
		`SELECT table_name FROM information_schema.tables WHERE table_type = 'BASE TABLE' AND table_schema = current_schema() ORDER BY table_name`,
		`SELECT column_name, data_type FROM information_schema.columns WHERE table_schema = current_schema() AND table_name = $1 ORDER BY ordinal_position`,
		`SELECT kcu.column_name FROM information_schema.table_constraints tc
		 JOIN information_schema.key_column_usage kcu
		   ON kcu.constraint_name = tc.constraint_name
		  AND kcu.table_schema = tc.table_schema
		  AND kcu.table_name = tc.table_name
		 WHERE tc.constraint_type = 'PRIMARY KEY' AND tc.table_schema = current_schema() AND tc.table_name = $1
		 ORDER BY kcu.ordinal_position`)
}

// infoSchemaTables introspects through the standard information_schema
// views, parameterised by the dialect-specific query text (placeholder
// style and schema-scoping function differ across backends).
func infoSchemaTables(ctx context.Context, db *sql.DB, tablesQ, colsQ, pkQ string) ([]sqlTable, error) {
	names, err := stringColumn(ctx, db, tablesQ)
	if err != nil {
		return nil, err
	}
	out := make([]sqlTable, 0, len(names))
	for _, n := range names {
		cols, err := stringRows(ctx, db, 2, colsQ, n)
		if err != nil {
			return nil, fmt.Errorf("table %q: %w", n, err)
		}
		pks, err := stringColumn(ctx, db, pkQ, n)
		if err != nil {
			return nil, fmt.Errorf("table %q: %w", n, err)
		}
		t := sqlTable{name: n}
		for _, c := range cols {
			t.cols = append(t.cols, c[0])
			t.kinds = append(t.kinds, sqlKind(integerDataTypes[strings.ToLower(c[1])]))
		}
		t.pk = oneKey(pks)
		out = append(out, t)
	}
	return out, nil
}

// oneKey is the primary key a table is paged by: its one key column, or
// "" when the catalog names none or several. A column of a composite key
// repeats, so the table is then read whole, keyed on its first column.
func oneKey(keys []string) string {
	if len(keys) != 1 {
		return ""
	}
	return keys[0]
}

// integerDataTypes is the integer family of information_schema's
// data_type, across MySQL and PostgreSQL.
var integerDataTypes = map[string]bool{
	"tinyint": true, "smallint": true, "mediumint": true, "int": true, "integer": true, "bigint": true,
}

func sqlKind(isInt bool) string {
	if isInt {
		return sqlKindInt
	}
	return sqlKindOther
}

// stringColumn runs a query expected to yield one string column.
func stringColumn(ctx context.Context, db *sql.DB, q string, args ...any) ([]string, error) {
	rows, err := stringRows(ctx, db, 1, q, args...)
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r[0]
	}
	return out, err
}

// stringRows runs a query expected to yield width string columns.
func stringRows(ctx context.Context, db *sql.DB, width int, q string, args ...any) ([][]string, error) {
	rows, err := db.QueryContext(ctx, q, args...)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var out [][]string
	for rows.Next() {
		row := make([]string, width)
		dest := make([]any, width)
		for i := range row {
			dest[i] = &row[i]
		}
		if err := rows.Scan(dest...); err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, rows.Err()
}
