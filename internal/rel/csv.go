package rel

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// CSV import/export. A database maps to a directory of <table>.csv
// files. The header row encodes column names and types as "name:type"
// (ParseColumn); a header cell carries a "!pk" suffix marker when the
// primary key is not the first column.

// WriteCSVDir writes every table of db into dir (created if needed) as
// <table>.csv.
func WriteCSVDir(db *DB, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("rel: %w", err)
	}
	for _, t := range db.Tables() {
		f, err := os.Create(filepath.Join(dir, t.Name()+".csv"))
		if err != nil {
			return fmt.Errorf("rel: %w", err)
		}
		err = WriteCSV(t, f)
		cerr := f.Close()
		if err != nil {
			return err
		}
		if cerr != nil {
			return fmt.Errorf("rel: %w", cerr)
		}
	}
	return nil
}

// WriteCSV writes one table in the typed-header CSV format.
func WriteCSV(t *Table, w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, len(t.cols))
	for i, c := range t.cols {
		h := c.Name + ":" + c.Type.String()
		if c.Name == t.pk {
			h += "!pk"
		}
		header[i] = h
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("rel: %w", err)
	}
	for _, row := range t.rows {
		rec := make([]string, len(row))
		for i, v := range row {
			rec[i] = formatCell(v)
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("rel: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatCell(v any) string {
	switch x := v.(type) {
	case nil:
		return ""
	case string:
		return x
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		return strconv.FormatBool(x)
	}
	return fmt.Sprintf("%v", v)
}

// LoadCSVDir reads every *.csv file in dir into a new database named
// name. Files load in sorted order for determinism.
func LoadCSVDir(name, dir string) (*DB, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("rel: %w", err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".csv") {
			files = append(files, e.Name())
		}
	}
	sort.Strings(files)
	db := NewDB(name)
	for _, fn := range files {
		f, err := os.Open(filepath.Join(dir, fn))
		if err != nil {
			return nil, fmt.Errorf("rel: %w", err)
		}
		table := strings.TrimSuffix(fn, ".csv")
		err = loadCSVInto(db, table, f)
		cerr := f.Close()
		if err != nil {
			return nil, fmt.Errorf("rel: %s: %w", fn, err)
		}
		if cerr != nil {
			return nil, fmt.Errorf("rel: %w", cerr)
		}
	}
	return db, nil
}

func loadCSVInto(db *DB, table string, r io.Reader) error {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("reading header: %w", err)
	}
	cols := make([]Column, len(header))
	pk := ""
	for i, h := range header {
		col, isPK, err := ParseColumn(h)
		if err != nil {
			return fmt.Errorf("column %q: %w", strings.TrimSuffix(h, "!pk"), err)
		}
		cols[i] = col
		if isPK {
			pk = col.Name
		}
	}
	t, err := db.CreateTable(table, cols, pk)
	if err != nil {
		return err
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("reading rows: %w", err)
		}
		if len(rec) != len(cols) {
			return fmt.Errorf("row has %d cells, want %d", len(rec), len(cols))
		}
		vals := make([]any, len(rec))
		for i, cell := range rec {
			v, err := parseCell(cols[i], cell)
			if err != nil {
				return err
			}
			vals[i] = v
		}
		if err := t.Insert(vals...); err != nil {
			return err
		}
	}
}

func parseCell(c Column, cell string) (any, error) {
	if cell == "" && c.Type != String {
		return nil, nil
	}
	switch c.Type {
	case String:
		return cell, nil
	case Int:
		i, err := strconv.ParseInt(cell, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("column %q: bad int %q", c.Name, cell)
		}
		return i, nil
	case Float:
		f, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			return nil, fmt.Errorf("column %q: bad float %q", c.Name, cell)
		}
		return f, nil
	case Bool:
		b, err := strconv.ParseBool(cell)
		if err != nil {
			return nil, fmt.Errorf("column %q: bad bool %q", c.Name, cell)
		}
		return b, nil
	}
	return nil, fmt.Errorf("column %q: unknown type", c.Name)
}
