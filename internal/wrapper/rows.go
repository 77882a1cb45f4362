package wrapper

import (
	"fmt"
	"strconv"

	"github.com/dataspace/automed/internal/rel"
)

// A table's rows reach restoreRelational in one form: the JSON text of
// TableSnapshot.Rows, whether Decode read it from a session file, the
// daemon took it from a request or Relational.Snapshot wrote it. The
// text is walked here once, each cell read by its column's type
// straight into the row rel.Table.Insert takes — no []any per row, no
// json.Number and interface per cell — and what the walk accepts,
// refuses and says is what decoding the same text with UseNumber and
// converting cell by cell accepted, refused and said
// (rows_reference_test.go holds it to that).

// rowInserter is the table being filled, and the words an unusable row
// is refused in.
type rowInserter struct {
	source string
	table  *rel.Table
	cols   []rel.Column
}

func (in *rowInserter) widthErr(rn, cells int) error {
	return fmt.Errorf("wrapper: source %q table %q row %d: %d cells for %d columns",
		in.source, in.table.Name(), rn, cells, len(in.cols))
}

func (in *rowInserter) cellErr(rn, cn int, err error) error {
	return fmt.Errorf("wrapper: source %q table %q row %d column %q: %w",
		in.source, in.table.Name(), rn, in.cols[cn].Name, err)
}

func (in *rowInserter) insert(rn int, vals []any) error {
	if err := in.table.Insert(vals...); err != nil {
		return fmt.Errorf("wrapper: source %q table %q row %d: %w", in.source, in.table.Name(), rn, err)
	}
	return nil
}

// insertText inserts rows held as JSON text that encoding/json has
// found valid. A row is checked for its width, then its cells left to
// right, then for what the table says.
func (in *rowInserter) insertText(text []byte) error {
	i := skipSpace(text, 0)
	if text[i] == 'n' {
		return nil
	}
	if text[i] != '[' {
		return fmt.Errorf("wrapper: source %q table %q: rows are %s, not an array", in.source, in.table.Name(), jsonKind(text[i]))
	}
	if i = skipSpace(text, i+1); text[i] == ']' {
		return nil
	}
	vals := make([]any, len(in.cols))
	for rn := 0; ; rn++ {
		cells := 0
		bad, badErr := -1, error(nil)
		switch text[i] {
		case 'n': // a null row is a row of no cells
			i += len("null")
		case '[':
			for i = skipSpace(text, i+1); text[i] != ']'; cells++ {
				end := 0
				if cells < len(in.cols) {
					var err error
					if vals[cells], end, err = textCell(text, i, in.cols[cells].Type); err != nil && badErr == nil {
						bad, badErr = cells, err
					}
				} else {
					end = valueEnd(text, i) // counted, for the width error
				}
				if i = skipSpace(text, end); text[i] == ',' {
					i = skipSpace(text, i+1)
				}
			}
			i++
		default:
			return fmt.Errorf("wrapper: source %q table %q row %d is %s, not an array", in.source, in.table.Name(), rn, jsonKind(text[i]))
		}
		if cells != len(in.cols) {
			return in.widthErr(rn, cells)
		}
		if badErr != nil {
			return in.cellErr(rn, bad, badErr)
		}
		if err := in.insert(rn, vals); err != nil {
			return err
		}
		if i = skipSpace(text, i); text[i] == ']' {
			return nil
		}
		i = skipSpace(text, i+1) // past the comma
	}
}

// textCell reads the cell starting at text[i] as a cell of a column of
// type ty and returns it with the index after it.
func textCell(text []byte, i int, ty rel.Type) (v any, end int, err error) {
	switch c := text[i]; c {
	case 'n':
		return nil, i + len("null"), nil
	case '"':
		end, plain := stringEnd(text, i)
		if ty != rel.String {
			return nil, end, cellTypeErr(ty, "string")
		}
		if plain {
			return string(text[i+1 : end-1]), end, nil
		}
		return unquote(text[i:end]), end, nil
	case 't', 'f':
		end = i + len("true")
		if c == 'f' {
			end = i + len("false")
		}
		if ty != rel.Bool {
			return nil, end, cellTypeErr(ty, "bool")
		}
		return c == 't', end, nil
	case '[':
		return nil, nestedEnd(text, i), cellTypeErr(ty, "[]interface {}")
	case '{':
		return nil, nestedEnd(text, i), cellTypeErr(ty, "map[string]interface {}")
	}
	end = numberEnd(text, i)
	lit := text[i:end]
	switch ty {
	case rel.Int:
		n, err := strconv.ParseInt(string(lit), 10, 64)
		if err != nil {
			var ok bool
			if n, ok = exactInt64(string(lit)); !ok {
				return nil, end, intRangeErr(string(lit))
			}
		}
		return n, end, nil
	case rel.Float:
		f, err := strconv.ParseFloat(string(lit), 64)
		if err != nil {
			return nil, end, err
		}
		return f, end, nil
	}
	return nil, end, cellTypeErr(ty, "json.Number")
}

// cellTypeErr refuses a cell that is not what a column of type ty
// holds; got is the Go type encoding/json decodes such a cell into,
// which is how the refusal has always named it.
func cellTypeErr(ty rel.Type, got string) error {
	switch ty {
	case rel.Int, rel.Float:
		return fmt.Errorf("expected number, got %s", got)
	case rel.Bool:
		return fmt.Errorf("expected boolean, got %s", got)
	}
	return fmt.Errorf("expected string, got %s", got)
}

// intRangeErr refuses a number an int column cannot hold exactly.
func intRangeErr(num string) error {
	return fmt.Errorf("expected an integer in the int64 range, got %s", num)
}
