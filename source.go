package automed

import (
	"fmt"

	"github.com/dataspace/automed/internal/rel"
	"github.com/dataspace/automed/internal/wrapper"
)

// SourceBuilder assembles an in-memory relational data source for use
// with New. Column specifications are "name:type" strings with type one
// of string, int, float, bool (defaulting to string; the type follows
// the last colon); the first column is the primary key unless one
// carries a "!pk" suffix.
//
//	b := automed.NewSource("Library")
//	b.Table("books", "id:int", "isbn", "title")
//	b.Insert("books", int64(1), "978-1", "Dataspaces")
//	src, err := b.Wrap()
type SourceBuilder struct {
	db  *rel.DB
	err error
}

// NewSource starts building a source with the given schema name.
func NewSource(name string) *SourceBuilder {
	return &SourceBuilder{db: rel.NewDB(name)}
}

// Table declares a table from column specifications. Errors are
// deferred to Wrap.
func (b *SourceBuilder) Table(name string, colSpecs ...string) *SourceBuilder {
	if b.err != nil {
		return b
	}
	cols := make([]rel.Column, len(colSpecs))
	pk := ""
	for i, spec := range colSpecs {
		col, isPK, err := rel.ParseColumn(spec)
		if err != nil {
			b.err = fmt.Errorf("automed: table %q: %w", name, err)
			return b
		}
		cols[i] = col
		if isPK {
			pk = col.Name
		}
	}
	if _, err := b.db.CreateTable(name, cols, pk); err != nil {
		b.err = fmt.Errorf("automed: %w", err)
	}
	return b
}

// Insert appends a row in column order. Integer cells must be int64 and
// floating-point cells float64. Errors are deferred to Wrap.
func (b *SourceBuilder) Insert(table string, vals ...any) *SourceBuilder {
	if b.err != nil {
		return b
	}
	t, ok := b.db.Table(table)
	if !ok {
		b.err = fmt.Errorf("automed: no table %q", table)
		return b
	}
	if err := t.Insert(vals...); err != nil {
		b.err = fmt.Errorf("automed: %w", err)
	}
	return b
}

// ForeignKey declares and validates a foreign key. Errors are deferred
// to Wrap.
func (b *SourceBuilder) ForeignKey(table, column, refTable string) *SourceBuilder {
	if b.err != nil {
		return b
	}
	if err := b.db.AddForeignKey(table, column, refTable); err != nil {
		b.err = fmt.Errorf("automed: %w", err)
	}
	return b
}

// Wrap finalises the source, returning the first deferred error if any.
func (b *SourceBuilder) Wrap() (Wrapper, error) {
	if b.err != nil {
		return nil, b.err
	}
	return wrapper.NewRelational(b.db.Name(), b.db)
}

// ExportCSV writes the built source as a directory of typed-header CSV
// files loadable with OpenCSVDir.
func (b *SourceBuilder) ExportCSV(dir string) error {
	if b.err != nil {
		return b.err
	}
	return rel.WriteCSVDir(b.db, dir)
}
