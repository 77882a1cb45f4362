package wrapper

import (
	"database/sql"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/rel"
)

// Snapshotter is the serialisation hook for wrappers: implementations
// can capture their full state (schema and data) as a Snapshot that
// Restore turns back into an equivalent in-memory wrapper. Wrappers
// over external systems need not implement it; sessions containing such
// sources cannot be persisted and report a clear error instead.
//
// A Snapshot is the logical form; what session files hold is its
// encoding, the snapshot document — see Encode and Decode.
type Snapshotter interface {
	Snapshot() (*Snapshot, error)
}

// Snapshot is the JSON form of a serialisable wrapper. Exactly one of
// the kind-specific payloads is populated, selected by Kind.
type Snapshot struct {
	// Kind is "relational", "static", "sql", "rest" or "fault".
	Kind string `json:"kind"`
	// Name is the data source schema name.
	Name string `json:"name"`
	// Tables is the relational payload: every table with its rows, so
	// snapshots of CSV-loaded sources are self-contained.
	Tables []TableSnapshot `json:"tables,omitempty"`
	// Objects is the static payload: schema objects with their extents.
	Objects []ObjectSnapshot `json:"objects,omitempty"`
	// SQL is the SQL-backend payload: connection configuration plus
	// the introspected schema and materialised fallback extents.
	SQL *SQLSnapshot `json:"sql,omitempty"`
	// REST is the JSON/REST payload: endpoint configuration plus the
	// collection schema and materialised fallback extents.
	REST *RESTSnapshot `json:"rest,omitempty"`
	// Fault is the fault-injection payload: the injected-fault
	// configuration plus the wrapped source's own snapshot.
	Fault *FaultSnapshot `json:"fault,omitempty"`
}

// FaultSnapshot is the durable form of a fault-injection wrapper.
type FaultSnapshot struct {
	Config FaultConfig `json:"config"`
	Inner  *Snapshot   `json:"inner"`
}

// TableSnapshot serialises one relational table.
type TableSnapshot struct {
	Name string `json:"name"`
	// Columns are "name:type" specs (rel.ParseColumn), as in CSV headers
	// and the server's inline table API.
	Columns     []string     `json:"columns"`
	PrimaryKey  string       `json:"primary_key"`
	ForeignKeys []FKSnapshot `json:"foreign_keys,omitempty"`
	// Rows is the rows' JSON text, an array of rows of cells in column
	// order: Relational.Snapshot writes one row per line, MarshalJSON
	// writes it as it is and Restore walks it by column type (rows.go).
	Rows json.RawMessage `json:"rows"`
}

// FKSnapshot serialises a foreign-key declaration.
type FKSnapshot struct {
	Column   string `json:"column"`
	RefTable string `json:"ref_table"`
}

// ObjectSnapshot serialises one static-wrapper object and its extent.
type ObjectSnapshot struct {
	Scheme    string       `json:"scheme"`
	Kind      string       `json:"kind"`
	Model     string       `json:"model,omitempty"`
	Construct string       `json:"construct,omitempty"`
	Extent    iql.ValueDTO `json:"extent"`
}

// ExtentSnapshot pairs a scheme with its materialised extent; the
// remote-backend snapshot kinds use it for their fallback extents (the
// schema itself is rebuilt from their table/collection metadata).
type ExtentSnapshot struct {
	Scheme string       `json:"scheme"`
	Extent iql.ValueDTO `json:"extent"`
}

// SQLSnapshot is the durable form of a SQL wrapper: enough connection
// configuration to reattach to the live backend, the introspected
// table shapes to rebuild the schema without touching it, and the
// extents materialised at snapshot time as an offline fallback.
type SQLSnapshot struct {
	Driver    string             `json:"driver"`
	DSN       string             `json:"dsn"`
	Dialect   string             `json:"dialect,omitempty"`
	TimeoutMs int64              `json:"timeout_ms,omitempty"`
	PageRows  int                `json:"page_rows,omitempty"`
	Tables    []SQLTableSnapshot `json:"tables"`
	Extents   []ExtentSnapshot   `json:"extents,omitempty"`
}

// SQLTableSnapshot is one introspected table shape. Types is parallel to
// Columns: the kind the catalog's declared type gives each column ("int"
// or "other"), which a restored wrapper needs to go on answering counts
// at the source. A snapshot written before it existed has none: it
// loads, and no comparison is sent to its source until the source is
// registered (and so introspected) again.
type SQLTableSnapshot struct {
	Name       string   `json:"name"`
	PrimaryKey string   `json:"primary_key"`
	Columns    []string `json:"columns"`
	Types      []string `json:"types,omitempty"`
}

// RESTSnapshot is the durable form of a REST wrapper: the endpoint
// configuration, the resolved collection shapes, and the extents
// materialised at snapshot time as an offline fallback.
type RESTSnapshot struct {
	Endpoint    string                   `json:"endpoint"`
	TimeoutMs   int64                    `json:"timeout_ms,omitempty"`
	MaxBytes    int64                    `json:"max_bytes,omitempty"`
	Collections []RESTCollectionSnapshot `json:"collections"`
	Extents     []ExtentSnapshot         `json:"extents,omitempty"`
}

// RESTCollectionSnapshot is one resolved collection shape.
type RESTCollectionSnapshot struct {
	Name   string   `json:"name"`
	Key    string   `json:"key"`
	Path   string   `json:"path"`
	Fields []string `json:"fields"`
}

// Snapshot implements Snapshotter for relational sources: tables in
// creation order, rows in insertion order, written as text (appendRows).
func (w *Relational) Snapshot() (*Snapshot, error) {
	snap := &Snapshot{Kind: "relational", Name: w.name}
	for _, t := range w.db.Tables() {
		ts := TableSnapshot{Name: t.Name(), PrimaryKey: t.PrimaryKey()}
		for _, c := range t.Columns() {
			ts.Columns = append(ts.Columns, c.Name+":"+c.Type.String())
		}
		for _, fk := range t.ForeignKeys() {
			ts.ForeignKeys = append(ts.ForeignKeys, FKSnapshot{Column: fk.Column, RefTable: fk.RefTable})
		}
		var err error
		if ts.Rows, err = appendRows(nil, w.name, t); err != nil {
			return nil, err
		}
		snap.Tables = append(snap.Tables, ts)
	}
	return snap, nil
}

// Snapshot implements Snapshotter for static sources, in schema object
// order.
func (w *Static) Snapshot() (*Snapshot, error) {
	snap := &Snapshot{Kind: "static", Name: w.name}
	for _, o := range w.schema.Objects() {
		ext, ok := w.extents[o.Scheme.Key()]
		if !ok {
			return nil, fmt.Errorf("wrapper: %s: no extent for %s", w.name, o.Scheme)
		}
		snap.Objects = append(snap.Objects, ObjectSnapshot{
			Scheme:    o.Scheme.String(),
			Kind:      o.Kind.String(),
			Model:     o.Model,
			Construct: o.Construct,
			Extent:    iql.EncodeValue(ext),
		})
	}
	return snap, nil
}

// Snapshot implements Snapshotter for XML sources. XML wrappers hold
// fully materialised extents, so they serialise as the "static" kind:
// the restored wrapper serves identical extents without reparsing the
// document.
func (w *XML) Snapshot() (*Snapshot, error) {
	snap := &Snapshot{Kind: "static", Name: w.name}
	for _, o := range w.schema.Objects() {
		snap.Objects = append(snap.Objects, ObjectSnapshot{
			Scheme:    o.Scheme.String(),
			Kind:      o.Kind.String(),
			Model:     o.Model,
			Construct: o.Construct,
			Extent:    iql.EncodeValue(iql.BagOf(append([]iql.Value(nil), w.extents[o.Scheme.Key()]...))),
		})
	}
	return snap, nil
}

// Snapshot implements Snapshotter for SQL sources: the connection
// configuration plus the introspected schema, with every extent
// materialised through the live backend as the restore-time fallback
// (liveOrHeldExtents: an unreachable backend's held extents are
// re-emitted).
func (w *SQL) Snapshot() (*Snapshot, error) {
	sqlSnap := &SQLSnapshot{
		Driver:    w.cfg.Driver,
		DSN:       w.cfg.DSN,
		Dialect:   w.cfg.Dialect,
		TimeoutMs: w.cfg.Timeout.Milliseconds(),
		PageRows:  w.cfg.FetchPageRows,
	}
	for _, t := range w.sortedTables() {
		sqlSnap.Tables = append(sqlSnap.Tables, SQLTableSnapshot{
			Name:       t.name,
			PrimaryKey: t.pk,
			Columns:    append([]string(nil), t.cols...),
			Types:      append([]string(nil), t.kinds...),
		})
	}
	var err error
	if sqlSnap.Extents, err = liveOrHeldExtents("sql", w); err != nil {
		return nil, err
	}
	return &Snapshot{Kind: "sql", Name: w.name, SQL: sqlSnap}, nil
}

// remote is the part of the SQL and REST wrappers that needs no
// backend: the source's name, its schema, and the extents materialised
// in the snapshot it was restored from (none for a wrapper opened
// against its backend).
type remote struct {
	name     string
	schema   *hdm.Schema
	fallback map[string]iql.Value // scheme key → materialised extent
	inst     Instance
}

// Instance returns what caches know the wrapper by.
func (r *remote) Instance() *Instance { return &r.inst }

// SchemaName implements Wrapper.
func (r *remote) SchemaName() string { return r.name }

// Schema implements Wrapper.
func (r *remote) Schema() *hdm.Schema { return r.schema }

// FallbackExtent serves the snapshot-materialised extent of one object,
// if this wrapper carries one (restored wrappers do). It implements the
// processor's stale-fallback extension (query.FallbackSourcer).
func (r *remote) FallbackExtent(parts []string) (iql.Value, bool) {
	obj, err := r.schema.Resolve(parts)
	if err != nil {
		return iql.Value{}, false
	}
	v, ok := r.fallback[obj.Scheme.Key()]
	return v, ok
}

// liveOrHeldExtents materialises every object of a remote source for
// its snapshot. An object the backend does not serve re-emits the extent
// the wrapper was restored with, so snapshots stay stable across
// outages; with none held, the fetch's error stands.
func liveOrHeldExtents(kind string, w interface {
	Wrapper
	FallbackExtent(parts []string) (iql.Value, bool)
}) ([]ExtentSnapshot, error) {
	var out []ExtentSnapshot
	for _, o := range w.Schema().Objects() {
		ext, err := w.Extent(o.Scheme.Parts())
		if err != nil {
			held, ok := w.FallbackExtent(o.Scheme.Parts())
			if !ok {
				return nil, fmt.Errorf("wrapper: %s: source %q: materialising %s: %w", kind, w.SchemaName(), o.Scheme, err)
			}
			ext = held
		}
		out = append(out, ExtentSnapshot{Scheme: o.Scheme.String(), Extent: iql.EncodeValue(ext)})
	}
	return out, nil
}

// Snapshot implements Snapshotter for REST sources, mirroring the SQL
// strategy: endpoint configuration, collection shapes, and live-
// materialised fallback extents (liveOrHeldExtents).
func (w *REST) Snapshot() (*Snapshot, error) {
	restSnap := &RESTSnapshot{
		Endpoint:  w.cfg.Endpoint,
		TimeoutMs: w.cfg.Timeout.Milliseconds(),
		MaxBytes:  w.cfg.MaxBytes,
	}
	for _, n := range w.order {
		c := w.colls[n]
		restSnap.Collections = append(restSnap.Collections, RESTCollectionSnapshot{
			Name:   c.name,
			Key:    c.key,
			Path:   c.path,
			Fields: append([]string(nil), c.fields...),
		})
	}
	var err error
	if restSnap.Extents, err = liveOrHeldExtents("rest", w); err != nil {
		return nil, err
	}
	return &Snapshot{Kind: "rest", Name: w.name, REST: restSnap}, nil
}

// restorers maps each snapshot kind to its restore function; the keys
// double as the authoritative list of supported kinds for error
// reporting. decoded says the snapshot is Decode's, whose rows
// encoding/json has already found to be JSON.
var restorers = map[string]func(snap *Snapshot, decoded bool) (Wrapper, error){
	"relational": restoreRelational,
	"static":     restoreStatic,
	"sql":        restoreSQL,
	"rest":       restoreREST,
}

// The fault kind registers in init: restoreFault recursively calls
// restore for the wrapped source, which a map-literal entry would turn
// into an initialization cycle.
func init() { restorers["fault"] = restoreFault }

// RestoreKinds returns the snapshot kinds Restore understands, sorted.
func RestoreKinds() []string {
	kinds := make([]string, 0, len(restorers))
	for k := range restorers {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// Restore rebuilds a wrapper from its snapshot. It is the inverse of
// Snapshot for every supported kind and validates as it goes, so a
// corrupted snapshot yields an error, never a panic.
func Restore(snap *Snapshot) (Wrapper, error) { return restore(snap, false) }

func restore(snap *Snapshot, decoded bool) (Wrapper, error) {
	if snap == nil {
		return nil, fmt.Errorf("wrapper: nil snapshot")
	}
	if snap.Name == "" {
		return nil, fmt.Errorf("wrapper: snapshot has no source name")
	}
	fn, ok := restorers[snap.Kind]
	if !ok {
		return nil, fmt.Errorf("wrapper: unknown snapshot kind %q (registered kinds: %s)",
			snap.Kind, strings.Join(RestoreKinds(), ", "))
	}
	return fn(snap, decoded)
}

// restoreRelational rebuilds a relational source. A column spec's "!pk"
// names the primary key in place of the table's own.
func restoreRelational(snap *Snapshot, decoded bool) (Wrapper, error) {
	db := rel.NewDB(snap.Name)
	for _, ts := range snap.Tables {
		cols := make([]rel.Column, len(ts.Columns))
		pk := ts.PrimaryKey
		for i, spec := range ts.Columns {
			col, isPK, err := rel.ParseColumn(spec)
			if err != nil {
				return nil, fmt.Errorf("wrapper: source %q table %q: %w", snap.Name, ts.Name, err)
			}
			if cols[i] = col; isPK {
				pk = col.Name
			}
		}
		t, err := db.CreateTable(ts.Name, cols, pk)
		if err != nil {
			return nil, fmt.Errorf("wrapper: source %q: %w", snap.Name, err)
		}
		if len(ts.Rows) == 0 {
			continue // no "rows" member: no rows, as with null
		}
		if !decoded && !json.Valid(ts.Rows) {
			return nil, fmt.Errorf("wrapper: source %q table %q: rows are not JSON", snap.Name, ts.Name)
		}
		in := rowInserter{source: snap.Name, table: t, cols: cols}
		if err := in.insertText(ts.Rows); err != nil {
			return nil, err
		}
	}
	// Foreign keys after all tables exist, since they may point forward.
	for _, ts := range snap.Tables {
		for _, fk := range ts.ForeignKeys {
			if err := db.AddForeignKey(ts.Name, fk.Column, fk.RefTable); err != nil {
				return nil, fmt.Errorf("wrapper: source %q: %w", snap.Name, err)
			}
		}
	}
	return NewRelational(snap.Name, db)
}

// exactInt64 returns the int64 a JSON number denotes, however it is
// spelt (1, 1.0, 1e3, 1200e-2), and whether it denotes one. It works on
// the digits, in time linear in the text: no float64 to round 2^53+1
// through, no power of ten to compute for 1e-999999.
func exactInt64(num string) (int64, bool) {
	if i, err := strconv.ParseInt(num, 10, 64); err == nil {
		return i, true
	}
	mant, expText, hasExp := strings.Cut(strings.ToLower(num), "e")
	var exp int64
	if hasExp {
		var err error
		if exp, err = strconv.ParseInt(expText, 10, 32); err != nil {
			return 0, false
		}
	}
	mant, neg := strings.CutPrefix(mant, "-")
	whole, frac, _ := strings.Cut(mant, ".")
	exp -= int64(len(frac))
	// The number is digits × 10^exp, with the zeros at either end of
	// digits taken off.
	digits := strings.TrimLeft(whole+frac, "0")
	n := len(digits)
	digits = strings.TrimRight(digits, "0")
	exp += int64(n - len(digits))
	if digits == "" {
		return 0, true
	}
	if exp < 0 || int64(len(digits))+exp > 19 {
		return 0, false
	}
	digits += strings.Repeat("0", int(exp))
	if neg {
		digits = "-" + digits
	}
	i, err := strconv.ParseInt(digits, 10, 64)
	return i, err == nil
}

// decodeFallback rebuilds a fallback extent map, validating every
// scheme against the restored schema.
func decodeFallback(sourceName string, schema *hdm.Schema, exts []ExtentSnapshot) (map[string]iql.Value, error) {
	out := make(map[string]iql.Value, len(exts))
	for _, es := range exts {
		sc, err := hdm.ParseScheme(es.Scheme)
		if err != nil {
			return nil, fmt.Errorf("wrapper: source %q: %w", sourceName, err)
		}
		if !schema.Has(sc) {
			return nil, fmt.Errorf("wrapper: source %q: snapshot extent for %s, which the schema lacks", sourceName, sc)
		}
		v, err := iql.DecodeValue(es.Extent)
		if err != nil {
			return nil, fmt.Errorf("wrapper: source %q extent %s: %w", sourceName, sc, err)
		}
		out[sc.Key()] = v
	}
	return out, nil
}

// restoreSQL rebuilds a SQL wrapper without touching the backend: the
// schema comes from the snapshot's table metadata and connections stay
// lazy, so restore succeeds even while the database is down. If the
// driver is not compiled into this binary the wrapper starts offline:
// every fetch fails, and FallbackExtent serves the snapshot's
// materialised extents.
func restoreSQL(snap *Snapshot, _ bool) (Wrapper, error) {
	s := snap.SQL
	if s == nil {
		return nil, fmt.Errorf("wrapper: source %q: sql snapshot has no sql payload", snap.Name)
	}
	if s.Driver == "" || s.DSN == "" {
		return nil, fmt.Errorf("wrapper: source %q: sql snapshot needs driver and dsn", snap.Name)
	}
	d, err := sqlDialectFor(s.Dialect)
	if err != nil {
		return nil, fmt.Errorf("wrapper: source %q: %w", snap.Name, err)
	}
	cfg := SQLConfig{Driver: s.Driver, DSN: s.DSN, Dialect: s.Dialect, Timeout: time.Duration(s.TimeoutMs) * time.Millisecond, FetchPageRows: s.PageRows}.withDefaults()
	w := &SQL{remote: remote{name: snap.Name}, cfg: cfg, dialect: d}
	tables := make([]sqlTable, 0, len(s.Tables))
	for _, ts := range s.Tables {
		if len(ts.Types) != 0 && len(ts.Types) != len(ts.Columns) {
			return nil, fmt.Errorf("wrapper: source %q: sql snapshot table %q has %d columns and %d types",
				snap.Name, ts.Name, len(ts.Columns), len(ts.Types))
		}
		tables = append(tables, sqlTable{name: ts.Name, pk: ts.PrimaryKey,
			cols: append([]string(nil), ts.Columns...), kinds: append([]string(nil), ts.Types...)})
	}
	if err := w.buildSchema(tables); err != nil {
		return nil, err
	}
	fb, err := decodeFallback(snap.Name, w.schema, s.Extents)
	if err != nil {
		return nil, err
	}
	w.fallback = fb
	// sql.Open fails only for unregistered drivers; that leaves the
	// wrapper offline (FallbackExtent only) rather than failing the
	// whole session restore.
	if db, err := sql.Open(cfg.Driver, cfg.DSN); err == nil {
		w.db = db
	}
	return w, nil
}

// restoreREST rebuilds a REST wrapper without touching the endpoint:
// the schema comes from the snapshot's collection metadata, live
// fetches resume lazily, and FallbackExtent serves the snapshot's
// materialised extents while the endpoint is unreachable.
func restoreREST(snap *Snapshot, _ bool) (Wrapper, error) {
	r := snap.REST
	if r == nil {
		return nil, fmt.Errorf("wrapper: source %q: rest snapshot has no rest payload", snap.Name)
	}
	if r.Endpoint == "" {
		return nil, fmt.Errorf("wrapper: source %q: rest snapshot needs an endpoint", snap.Name)
	}
	cfg := RESTConfig{Endpoint: r.Endpoint, Timeout: time.Duration(r.TimeoutMs) * time.Millisecond, MaxBytes: r.MaxBytes}.withDefaults()
	w := &REST{remote: remote{name: snap.Name}, cfg: cfg, client: &http.Client{}, colls: make(map[string]restColl)}
	colls := make([]restColl, 0, len(r.Collections))
	for _, cs := range r.Collections {
		if cs.Name == "" || cs.Key == "" {
			return nil, fmt.Errorf("wrapper: source %q: rest snapshot collection needs name and key", snap.Name)
		}
		colls = append(colls, restColl{name: cs.Name, key: cs.Key, path: normalizePath(cs.Path, cs.Name), fields: append([]string(nil), cs.Fields...)})
	}
	if err := w.buildSchema(colls); err != nil {
		return nil, err
	}
	fb, err := decodeFallback(snap.Name, w.schema, r.Extents)
	if err != nil {
		return nil, err
	}
	w.fallback = fb
	return w, nil
}

func restoreStatic(snap *Snapshot, _ bool) (Wrapper, error) {
	st := NewStatic(snap.Name)
	for _, os := range snap.Objects {
		sc, err := hdm.ParseScheme(os.Scheme)
		if err != nil {
			return nil, fmt.Errorf("wrapper: source %q: %w", snap.Name, err)
		}
		kind, err := hdm.ParseObjectKind(os.Kind)
		if err != nil {
			return nil, fmt.Errorf("wrapper: source %q object %s: %w", snap.Name, sc, err)
		}
		ext, err := iql.DecodeValue(os.Extent)
		if err != nil {
			return nil, fmt.Errorf("wrapper: source %q object %s: %w", snap.Name, sc, err)
		}
		if err := st.Add(sc, kind, os.Model, os.Construct, ext); err != nil {
			return nil, fmt.Errorf("wrapper: source %q: %w", snap.Name, err)
		}
	}
	return st, nil
}
