// Package rel implements a small in-memory relational engine that serves
// as the data-source substrate for the integration experiments: the
// paper's case study integrates three relational proteomics databases
// (Pedro, gpmDB, PepSeeker), which this package simulates.
//
// The engine supports typed columns, primary and foreign keys, row
// insertion with validation, scans, selection/projection/join helpers
// and CSV import/export. It is intentionally not a SQL engine: sources
// are accessed through AutoMed-style wrappers (package wrapper), which
// only need key and column extents.
package rel

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Type is a column type.
type Type int

// Column types.
const (
	String Type = iota
	Int
	Float
	Bool
)

// String names the type (used in CSV headers).
func (t Type) String() string {
	switch t {
	case String:
		return "string"
	case Int:
		return "int"
	case Float:
		return "float"
	case Bool:
		return "bool"
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// ParseType converts a type name back to a Type.
func ParseType(s string) (Type, error) {
	switch s {
	case "string":
		return String, nil
	case "int":
		return Int, nil
	case "float":
		return Float, nil
	case "bool":
		return Bool, nil
	}
	return 0, fmt.Errorf("rel: unknown type %q", s)
}

// ParseColumn reads a column spec, name:type[!pk] — as in CSV headers,
// relational snapshots and the daemon's inline tables: the type follows
// the last colon, so a name may hold colons of its own; with no colon
// at all the spec is a name and the type is string; a "!pk" suffix
// marks the primary key.
func ParseColumn(spec string) (col Column, pk bool, err error) {
	spec, pk = strings.CutSuffix(spec, "!pk")
	name, typ := spec, "string"
	if j := strings.LastIndexByte(spec, ':'); j >= 0 {
		name, typ = spec[:j], spec[j+1:]
	}
	ty, err := ParseType(typ)
	if err != nil {
		return Column{}, false, err
	}
	return Column{Name: name, Type: ty}, pk, nil
}

// Column describes a table column.
type Column struct {
	Name string
	Type Type
}

// ForeignKey declares that values of Column reference the primary key of
// RefTable.
type ForeignKey struct {
	Column   string
	RefTable string
}

// Table is a relation with a mandatory single-column primary key (the
// first declared column by convention, unless overridden).
type Table struct {
	name    string
	cols    []Column
	colIdx  map[string]int
	pk      string
	fks     []ForeignKey
	rows    [][]any
	pkIndex map[string]int // primary-key value key → row index
}

// NewTable creates a table. pk must name one of cols; if pk is empty the
// first column is the primary key.
func NewTable(name string, cols []Column, pk string) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("rel: empty table name")
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("rel: table %q needs at least one column", name)
	}
	t := &Table{
		name:    name,
		cols:    append([]Column(nil), cols...),
		colIdx:  make(map[string]int, len(cols)),
		pkIndex: make(map[string]int),
	}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("rel: table %q: column %d has empty name", name, i)
		}
		if _, dup := t.colIdx[c.Name]; dup {
			return nil, fmt.Errorf("rel: table %q: duplicate column %q", name, c.Name)
		}
		t.colIdx[c.Name] = i
	}
	if pk == "" {
		pk = cols[0].Name
	}
	if _, ok := t.colIdx[pk]; !ok {
		return nil, fmt.Errorf("rel: table %q: primary key %q is not a column", name, pk)
	}
	t.pk = pk
	return t, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Columns returns a copy of the column descriptors.
func (t *Table) Columns() []Column { return append([]Column(nil), t.cols...) }

// HasColumn reports whether the table has the named column.
func (t *Table) HasColumn(name string) bool { _, ok := t.colIdx[name]; return ok }

// ColumnType returns the named column's type.
func (t *Table) ColumnType(name string) (Type, error) {
	i, ok := t.colIdx[name]
	if !ok {
		return 0, fmt.Errorf("rel: table %q has no column %q", t.name, name)
	}
	return t.cols[i].Type, nil
}

// PrimaryKey returns the primary key column name.
func (t *Table) PrimaryKey() string { return t.pk }

// ForeignKeys returns the declared foreign keys.
func (t *Table) ForeignKeys() []ForeignKey { return append([]ForeignKey(nil), t.fks...) }

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.rows) }

// valueKey canonicalises a cell value for keying.
func valueKey(v any) string {
	switch x := v.(type) {
	case nil:
		return "∅"
	case string:
		return "s" + x
	case int64:
		return "i" + strconv.FormatInt(x, 10)
	case float64:
		return "f" + strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		if x {
			return "b1"
		}
		return "b0"
	}
	return fmt.Sprintf("?%v", v)
}

// checkType verifies that a cell value matches a column type; nil is
// allowed in non-key columns.
func checkType(c Column, v any) error {
	if v == nil {
		return nil
	}
	ok := false
	switch c.Type {
	case String:
		_, ok = v.(string)
	case Int:
		_, ok = v.(int64)
	case Float:
		_, ok = v.(float64)
	case Bool:
		_, ok = v.(bool)
	}
	if !ok {
		return fmt.Errorf("rel: column %q expects %s, got %T", c.Name, c.Type, v)
	}
	return nil
}

// Insert appends a row given in column declaration order. Integer
// values must be int64 and floats float64. The primary key must be
// non-nil and unique.
func (t *Table) Insert(vals ...any) error {
	if len(vals) != len(t.cols) {
		return fmt.Errorf("rel: table %q expects %d values, got %d", t.name, len(t.cols), len(vals))
	}
	for i, v := range vals {
		if err := checkType(t.cols[i], v); err != nil {
			return fmt.Errorf("rel: table %q: %w", t.name, err)
		}
	}
	pkv := vals[t.colIdx[t.pk]]
	if pkv == nil {
		return fmt.Errorf("rel: table %q: nil primary key", t.name)
	}
	k := valueKey(pkv)
	if _, dup := t.pkIndex[k]; dup {
		return fmt.Errorf("rel: table %q: duplicate primary key %v", t.name, pkv)
	}
	row := append([]any(nil), vals...)
	t.pkIndex[k] = len(t.rows)
	t.rows = append(t.rows, row)
	return nil
}

// MustInsert is Insert that panics on error; for generators and tests.
func (t *Table) MustInsert(vals ...any) {
	if err := t.Insert(vals...); err != nil {
		panic(err)
	}
}

// Rows returns all rows (shared; callers must not mutate).
func (t *Table) Rows() [][]any { return t.rows }

// Lookup finds the row with the given primary key value.
func (t *Table) Lookup(pk any) ([]any, bool) {
	i, ok := t.pkIndex[valueKey(pk)]
	if !ok {
		return nil, false
	}
	return t.rows[i], true
}

// Value returns the named column's value in the row with the given
// primary key.
func (t *Table) Value(pk any, col string) (any, error) {
	row, ok := t.Lookup(pk)
	if !ok {
		return nil, fmt.Errorf("rel: table %q has no row with key %v", t.name, pk)
	}
	i, ok := t.colIdx[col]
	if !ok {
		return nil, fmt.Errorf("rel: table %q has no column %q", t.name, col)
	}
	return row[i], nil
}

// Keys returns the primary key values of every row, in insertion order.
func (t *Table) Keys() []any {
	out := make([]any, len(t.rows))
	pi := t.colIdx[t.pk]
	for i, r := range t.rows {
		out[i] = r[pi]
	}
	return out
}

// ColumnPairs returns {key, value} pairs for the named column across all
// rows whose value is non-nil, in insertion order. This is the AutoMed
// extent of a column construct.
func (t *Table) ColumnPairs(col string) ([][2]any, error) {
	ci, ok := t.colIdx[col]
	if !ok {
		return nil, fmt.Errorf("rel: table %q has no column %q", t.name, col)
	}
	pi := t.colIdx[t.pk]
	out := make([][2]any, 0, len(t.rows))
	for _, r := range t.rows {
		if r[ci] == nil {
			continue
		}
		out = append(out, [2]any{r[pi], r[ci]})
	}
	return out, nil
}

// ColIndex exposes the index of a column within rows, for join helpers.
func (t *Table) ColIndex(name string) (int, bool) {
	i, ok := t.colIdx[name]
	return i, ok
}

// DB is a named collection of tables.
type DB struct {
	name   string
	tables map[string]*Table
	order  []string
}

// NewDB returns an empty database.
func NewDB(name string) *DB {
	return &DB{name: name, tables: make(map[string]*Table)}
}

// Name returns the database name.
func (db *DB) Name() string { return db.name }

// CreateTable adds a table; duplicate names are an error.
func (db *DB) CreateTable(name string, cols []Column, pk string) (*Table, error) {
	if _, dup := db.tables[name]; dup {
		return nil, fmt.Errorf("rel: db %q already has table %q", db.name, name)
	}
	t, err := NewTable(name, cols, pk)
	if err != nil {
		return nil, err
	}
	db.tables[name] = t
	db.order = append(db.order, name)
	return t, nil
}

// MustCreateTable is CreateTable that panics on error.
func (db *DB) MustCreateTable(name string, cols []Column, pk string) *Table {
	t, err := db.CreateTable(name, cols, pk)
	if err != nil {
		panic(err)
	}
	return t
}

// Table returns the named table.
func (db *DB) Table(name string) (*Table, bool) {
	t, ok := db.tables[name]
	return t, ok
}

// Tables returns tables in creation order.
func (db *DB) Tables() []*Table {
	out := make([]*Table, 0, len(db.order))
	for _, n := range db.order {
		out = append(out, db.tables[n])
	}
	return out
}

// Mutations counts the changes made to the database so far: tables
// created, rows inserted, foreign keys declared. Nothing is ever
// updated or removed, so two equal readings mean nothing changed in
// between — what a cache of anything derived from the whole database
// (package wrapper's snapshot document) validates itself by. An update
// or delete operation, should one arrive, has to count here.
func (db *DB) Mutations() uint64 {
	n := uint64(len(db.order))
	for _, t := range db.tables {
		n += uint64(len(t.rows) + len(t.fks))
	}
	return n
}

// TableNames returns table names in creation order.
func (db *DB) TableNames() []string { return append([]string(nil), db.order...) }

// AddForeignKey declares and immediately validates a foreign key.
func (db *DB) AddForeignKey(table, column, refTable string) error {
	t, ok := db.tables[table]
	if !ok {
		return fmt.Errorf("rel: db %q has no table %q", db.name, table)
	}
	if !t.HasColumn(column) {
		return fmt.Errorf("rel: table %q has no column %q", table, column)
	}
	ref, ok := db.tables[refTable]
	if !ok {
		return fmt.Errorf("rel: db %q has no table %q", db.name, refTable)
	}
	ci, _ := t.ColIndex(column)
	for _, r := range t.rows {
		if r[ci] == nil {
			continue
		}
		if _, ok := ref.Lookup(r[ci]); !ok {
			return fmt.Errorf("rel: fk %s.%s -> %s: dangling value %v", table, column, refTable, r[ci])
		}
	}
	t.fks = append(t.fks, ForeignKey{Column: column, RefTable: refTable})
	return nil
}

// Validate re-checks all declared foreign keys (e.g. after bulk loads).
func (db *DB) Validate() error {
	for _, t := range db.Tables() {
		for _, fk := range t.fks {
			ref, ok := db.tables[fk.RefTable]
			if !ok {
				return fmt.Errorf("rel: fk %s.%s: missing table %q", t.name, fk.Column, fk.RefTable)
			}
			ci, _ := t.ColIndex(fk.Column)
			for _, r := range t.rows {
				if r[ci] == nil {
					continue
				}
				if _, ok := ref.Lookup(r[ci]); !ok {
					return fmt.Errorf("rel: fk %s.%s -> %s: dangling value %v",
						t.name, fk.Column, fk.RefTable, r[ci])
				}
			}
		}
	}
	return nil
}

// Stats summarises row counts per table, sorted by table name.
func (db *DB) Stats() []string {
	names := append([]string(nil), db.order...)
	sort.Strings(names)
	out := make([]string, 0, len(names))
	for _, n := range names {
		out = append(out, fmt.Sprintf("%s: %d rows", n, db.tables[n].Len()))
	}
	return out
}

// Join performs an equi-join of two tables on leftCol = rightCol and
// returns concatenated rows (left columns then right columns). A hash
// join over the right side keeps it roughly linear.
func Join(left, right *Table, leftCol, rightCol string) ([][]any, error) {
	li, ok := left.ColIndex(leftCol)
	if !ok {
		return nil, fmt.Errorf("rel: table %q has no column %q", left.Name(), leftCol)
	}
	ri, ok := right.ColIndex(rightCol)
	if !ok {
		return nil, fmt.Errorf("rel: table %q has no column %q", right.Name(), rightCol)
	}
	index := make(map[string][]int)
	for i, r := range right.rows {
		if r[ri] == nil {
			continue
		}
		k := valueKey(r[ri])
		index[k] = append(index[k], i)
	}
	var out [][]any
	for _, lr := range left.rows {
		if lr[li] == nil {
			continue
		}
		for _, j := range index[valueKey(lr[li])] {
			row := make([]any, 0, len(lr)+len(right.rows[j]))
			row = append(row, lr...)
			row = append(row, right.rows[j]...)
			out = append(out, row)
		}
	}
	return out, nil
}
