// Package wrapper implements AutoMed-style data source wrappers: each
// wrapper extracts metadata from a data source to produce a data source
// schema in the common data model, and serves the extents of that
// schema's objects to the query processor (paper §2.1, Fig. 1, step 1).
//
// Extent conventions follow the paper's IQL examples: the extent of a
// relational table <<t>> is the bag of its primary-key values, and the
// extent of a column <<t, c>> is the bag of {key, value} pairs.
package wrapper

import (
	"fmt"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/rel"
)

// Wrapper exposes a data source as a schema plus extents.
type Wrapper interface {
	// SchemaName returns the name of the data source schema.
	SchemaName() string
	// Schema returns the data source schema.
	Schema() *hdm.Schema
	// Extent returns the extent of the object referenced by parts,
	// resolved against the wrapper's schema (suffix matching allowed).
	Extent(parts []string) (iql.Value, error)
}

// Instance is what caches know a source instance by: an identity,
// unique within the process and never an address (a freed wrapper's
// can be reused), and an epoch, which moves when what the instance
// serves may have changed. An extent cached under both is shared by
// every session over the instance and unreachable after a bump. An
// instance that served a stale copy in a source's place is marked, so
// that whichever session next reads it well retires what was derived
// from the copy. The zero value is ready: the identity is drawn on
// first use.
type Instance struct {
	id, epoch  atomic.Uint64
	stale, due atomic.Bool
}

// clock is the one counter identities and epochs are drawn from, so
// none is ever reused.
var clock atomic.Uint64

// ID returns the instance's identity.
func (x *Instance) ID() uint64 {
	if id := x.id.Load(); id != 0 {
		return id
	}
	x.id.CompareAndSwap(0, clock.Add(1))
	return x.id.Load()
}

// Epoch returns the instance's current epoch.
func (x *Instance) Epoch() uint64 { return x.epoch.Load() }

// Bump moves the instance to a fresh epoch.
func (x *Instance) Bump() { x.epoch.Store(clock.Add(1)) }

// MarkStale records that a stale copy was served in the instance's
// place; Stale reports whether one was since its last good read.
func (x *Instance) MarkStale()  { x.stale.Store(true) }
func (x *Instance) Stale() bool { return x.stale.Load() }

// ReadWell records a good read of the instance. The first after a stale
// copy was served makes it due a fresh epoch, which it takes when the
// next evaluation or answer lookup over it starts (Settle): one in
// flight keeps the addresses it started at.
func (x *Instance) ReadWell() {
	if x.stale.Load() && x.stale.CompareAndSwap(true, false) {
		x.due.Store(true)
	}
}

// Settle bumps the instance if it is due a fresh epoch.
func (x *Instance) Settle() {
	if x.due.Load() && x.due.CompareAndSwap(true, false) {
		x.Bump()
	}
}

// Relational wraps an in-memory relational database.
type Relational struct {
	name   string
	db     *rel.DB
	schema *hdm.Schema
	memo   docMemo
	inst   Instance
}

// Instance returns what caches know the wrapper by.
func (w *Relational) Instance() *Instance { return &w.inst }

// NewRelational builds a wrapper and its data source schema: one
// <<sql, table, t>>-style object per table (stored with the short
// scheme <<t>>) and one <<t, c>> object per column. Primary-key and
// foreign-key constraints become constraint objects.
func NewRelational(name string, db *rel.DB) (*Relational, error) {
	if db == nil {
		return nil, fmt.Errorf("wrapper: nil database")
	}
	s := hdm.NewSchema(name)
	for _, t := range db.Tables() {
		if err := s.Add(hdm.NewObject(hdm.NewScheme(t.Name()), hdm.Nodal, "sql", "table")); err != nil {
			return nil, err
		}
		for _, c := range t.Columns() {
			sc := hdm.NewScheme(t.Name(), c.Name)
			if err := s.Add(hdm.NewObject(sc, hdm.Link, "sql", "column")); err != nil {
				return nil, err
			}
		}
	}
	return &Relational{name: name, db: db, schema: s}, nil
}

// SchemaName implements Wrapper.
func (w *Relational) SchemaName() string { return w.name }

// Kind labels the wrapper flavour in metrics and traces.
func (w *Relational) Kind() string { return "relational" }

// Schema implements Wrapper.
func (w *Relational) Schema() *hdm.Schema { return w.schema }

// DB exposes the wrapped database (for direct verification in tests).
func (w *Relational) DB() *rel.DB { return w.db }

// Extent implements Wrapper.
func (w *Relational) Extent(parts []string) (iql.Value, error) {
	obj, err := w.schema.Resolve(parts)
	if err != nil {
		return iql.Value{}, err
	}
	sc := obj.Scheme
	switch sc.Arity() {
	case 1:
		t, ok := w.db.Table(sc.Part(0))
		if !ok {
			return iql.Value{}, fmt.Errorf("wrapper: %s: no table %q", w.name, sc.Part(0))
		}
		keys := t.Keys()
		items := make([]iql.Value, len(keys))
		for i, k := range keys {
			items[i] = documentCell(k)
		}
		return iql.BagOf(items), nil
	case 2:
		t, ok := w.db.Table(sc.Part(0))
		if !ok {
			return iql.Value{}, fmt.Errorf("wrapper: %s: no table %q", w.name, sc.Part(0))
		}
		pairs, err := t.ColumnPairs(sc.Part(1))
		if err != nil {
			return iql.Value{}, fmt.Errorf("wrapper: %s: %w", w.name, err)
		}
		items := make([]iql.Value, len(pairs))
		for i, p := range pairs {
			items[i] = iql.Tuple(documentCell(p[0]), documentCell(p[1]))
		}
		return iql.BagOf(items), nil
	}
	return iql.Value{}, fmt.Errorf("wrapper: %s: unsupported scheme %s", w.name, sc)
}

// CellValue converts a relational cell — an in-memory table's or one
// scanned from a database — to an IQL value without losing precision:
// int64 and float64 stay exact, []byte columns become strings,
// timestamps render as RFC 3339. A float64 carries its shortest digits
// (iql.SourceFloat), found here once for every answer it reaches.
func CellValue(v any) iql.Value {
	switch x := v.(type) {
	case nil:
		return iql.Null()
	case int64:
		return iql.Int(x)
	case float64:
		return iql.SourceFloat(x)
	case bool:
		return iql.Bool(x)
	case string:
		return iql.Str(x)
	case []byte:
		return iql.Str(string(x))
	case time.Time:
		return iql.Str(x.Format(time.RFC3339Nano))
	}
	return iql.Str(fmt.Sprintf("%v", v))
}

// documentCell is CellValue for an in-memory table, which a session
// file carries: a string as the file holds it, each byte of invalid
// UTF-8 a U+FFFD, so that the source reads alike before and after the
// file is restored. The table keeps its own bytes: another reader of it
// (a database served over it) sees them.
func documentCell(v any) iql.Value {
	if s, ok := v.(string); ok && !utf8.ValidString(s) {
		v = string([]rune(s))
	}
	return CellValue(v)
}

// NewCSVDir loads a directory of typed-header CSV files (see package
// rel) and wraps it as a relational source named name.
func NewCSVDir(name, dir string) (*Relational, error) {
	db, err := rel.LoadCSVDir(name, dir)
	if err != nil {
		return nil, err
	}
	return NewRelational(name, db)
}

// Static is a wrapper over fixed extents, useful for tests and for
// sources already materialised elsewhere.
type Static struct {
	name    string
	schema  *hdm.Schema
	extents map[string]iql.Value
	memo    docMemo
}

// NewStatic builds a static wrapper. Extents are keyed by scheme key.
func NewStatic(name string) *Static {
	return &Static{
		name:    name,
		schema:  hdm.NewSchema(name),
		extents: make(map[string]iql.Value),
	}
}

// Add registers an object and its extent.
func (w *Static) Add(sc hdm.Scheme, kind hdm.ObjectKind, model, construct string, extent iql.Value) error {
	if err := w.schema.Add(hdm.NewObject(sc, kind, model, construct)); err != nil {
		return err
	}
	w.extents[sc.Key()] = extent
	return nil
}

// SchemaName implements Wrapper.
func (w *Static) SchemaName() string { return w.name }

// Kind labels the wrapper flavour in metrics and traces.
func (w *Static) Kind() string { return "static" }

// Schema implements Wrapper.
func (w *Static) Schema() *hdm.Schema { return w.schema }

// Extent implements Wrapper.
func (w *Static) Extent(parts []string) (iql.Value, error) {
	obj, err := w.schema.Resolve(parts)
	if err != nil {
		return iql.Value{}, err
	}
	v, ok := w.extents[obj.Scheme.Key()]
	if !ok {
		return iql.Value{}, fmt.Errorf("wrapper: %s: no extent for %s", w.name, obj.Scheme)
	}
	return v, nil
}
