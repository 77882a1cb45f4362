package wrapper_test

import (
	"context"
	"fmt"
	"testing"

	"github.com/dataspace/automed/internal/rel"
	"github.com/dataspace/automed/internal/sqlmem"
	"github.com/dataspace/automed/internal/wrapper"
)

// Allocation pins for the scan path: counts, not times, so they are
// deterministic and run with the other tests.

// scanAllocs is the allocation count of one full scan of an object.
func scanAllocs(t *testing.T, ss wrapper.ScanSourcer, parts []string, wantRows int) float64 {
	t.Helper()
	ctx := context.Background()
	return testing.AllocsPerRun(5, func() {
		scn, err := ss.ExtentScanner(ctx, parts)
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		for scn.Next(ctx) {
			rows += len(scn.Page())
		}
		if err := scn.Err(); err != nil || rows != wantRows {
			t.Fatalf("scan of %v: %d rows, %v; want %d", parts, rows, err, wantRows)
		}
		scn.Close()
	})
}

// TestSQLPageAllocations: a page of two-column rows costs its rows and
// nothing else of the wrapper's making. What remains per row is owed to
// the driver (sqlmem's slice per row); the wrapper's own share — the
// page, the tuples' shared backing, the scan destinations — is a few
// dozen per page.
func TestSQLPageAllocations(t *testing.T) {
	page := func(n int) float64 {
		dsn := fmt.Sprintf("alloc-page-%d", n)
		db := rel.NewDB("S")
		tb := db.MustCreateTable("items", []rel.Column{{Name: "id", Type: rel.Int}, {Name: "v", Type: rel.Int}}, "id")
		for i := 0; i < n; i++ {
			tb.MustInsert(int64(i+1000), int64(i+2000)) // past the runtime's preallocated small integers
		}
		sqlmem.Register(dsn, db)
		t.Cleanup(func() { sqlmem.Unregister(dsn) })
		w, err := wrapper.NewSQL("S", wrapper.SQLConfig{Driver: sqlmem.DriverName, DSN: dsn, FetchPageRows: 8192})
		if err != nil {
			t.Fatal(err)
		}
		return scanAllocs(t, w, []string{"items", "v"}, n)
	}
	small, large := page(2000), page(4000)
	t.Logf("one page of 2000 rows: %.0f allocations; of 4000: %.0f", small, large)
	if perRow := (large - small) / 2000; perRow > 1.5 {
		t.Errorf("a row of a SQL page costs %.2f allocations, want the driver's one and a share of a chunk", perRow)
	}
}
