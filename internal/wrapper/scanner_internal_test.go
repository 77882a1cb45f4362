package wrapper

import (
	"testing"

	"github.com/dataspace/automed/internal/iql"
)

// TestPairsTuplesDoNotShareCapacity: {key, value} tuples are carved two
// cells at a time out of one chunk, so what follows a tuple's items in
// memory is the next row. An append to a tuple's Items() must copy.
func TestPairsTuplesDoNotShareCapacity(t *testing.T) {
	var p pairs
	rows := make([]iql.Value, 40) // crosses the first chunk
	for i := range rows {
		rows[i] = p.tuple(iql.Int(int64(i)), iql.Str("v"))
	}
	for i, row := range rows {
		if got := row.Items(); len(got) != 2 || cap(got) != 2 {
			t.Fatalf("row %d: Items() has len %d cap %d, want 2 and 2", i, len(got), cap(got))
		}
		_ = append(row.Items(), iql.Str("intruder"))
	}
	for i, row := range rows {
		if k := row.Items()[0]; k.Kind != iql.KindInt || k.I() != int64(i) {
			t.Fatalf("row %d reads %s after appends to its neighbours", i, row)
		}
	}
}
