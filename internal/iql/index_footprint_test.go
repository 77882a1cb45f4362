package iql_test

import (
	"testing"

	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/iql/iqltest"
)

// TestValueIndexFootprint: what the join-index cache charges for an
// index itself (ValueIndex.Footprint: the entry array and the map slots,
// from their layout) stays within a quarter of what building the index
// over n distinct keys allocates, so -cache-bytes bounds what it says.
// The sizes straddle the points where the map doubles.
func TestValueIndexFootprint(t *testing.T) {
	for _, n := range []int{32, 100, 448, 449, 900, 1000, 1800, 3600, 5000, 7200, 10000} {
		rows := make([]iql.Value, n)
		for i := range rows {
			rows[i] = iql.Tuple(iql.Int(int64(i)), iql.Str("row"))
		}
		var ix *iql.ValueIndex
		measured := iqltest.AllocBytesPerRun(5, func() {
			ix = iql.NewValueIndex(len(rows))
			for _, r := range rows {
				ix.Add(r.Items()[0], r)
			}
		})
		charged := float64(ix.Footprint())
		if charged < 0.75*measured || charged > 1.25*measured {
			t.Errorf("%d keys: charged %.0f B, building it allocated %.0f B (%.2f×)", n, charged, measured, charged/measured)
		} else {
			t.Logf("%d keys: charged %.0f B, allocated %.0f B (%.2f×)", n, charged, measured, charged/measured)
		}
	}
	// Rows that share keys spill into per-key slices, charged as grown.
	rows := make([]iql.Value, 4000)
	for i := range rows {
		rows[i] = iql.Tuple(iql.Int(int64(i%500)), iql.Int(int64(i)))
	}
	var ix *iql.ValueIndex
	measured := iqltest.AllocBytesPerRun(5, func() {
		ix = iql.NewValueIndex(len(rows))
		for _, r := range rows {
			ix.Add(r.Items()[0], r)
		}
	})
	if charged := float64(ix.Footprint()); charged < 0.75*measured || charged > 1.25*measured {
		t.Errorf("8 rows a key: charged %.0f B, building it allocated %.0f B", charged, measured)
	}
}
