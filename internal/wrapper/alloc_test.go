package wrapper_test

import (
	"bytes"
	"context"
	"database/sql"
	"fmt"
	"testing"

	"github.com/dataspace/automed/internal/iql/iqltest"
	"github.com/dataspace/automed/internal/rel"
	"github.com/dataspace/automed/internal/sqlmem"
	"github.com/dataspace/automed/internal/wrapper"
)

// Allocation pins for the scan path: counts, not times, so they are
// deterministic and run with the other tests.

// scanAllocs is the allocation count, and the allocated bytes, of one
// full scan of an object.
func scanAllocs(t *testing.T, ss wrapper.ScanSourcer, parts []string, wantRows int) (allocs, bytes float64) {
	t.Helper()
	ctx := context.Background()
	scan := func() {
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
	}
	return testing.AllocsPerRun(5, scan), iqltest.AllocBytesPerRun(5, scan)
}

// TestSQLPageAllocations: a page of two-column rows costs its rows and
// nothing else of the wrapper's making. What remains per row is owed to
// the driver (sqlmem's slice per row); the wrapper's own share — the
// page, the tuples' shared backing, the scan destinations — is a few
// dozen per page. In bytes, on top of what the same statement costs
// scanned through database/sql alone, a {key, value} row is its two
// cells and its place in the page: three Values, 96 bytes.
func TestSQLPageAllocations(t *testing.T) {
	page := func(n int) (allocs, bytes, driverBytes float64) {
		dsn := fmt.Sprintf("alloc-page-%d", n)
		db := rel.NewDB("S")
		tb := db.MustCreateTable("items", []rel.Column{{Name: "id", Type: rel.Int}, {Name: "v", Type: rel.Int}}, "id")
		for i := 0; i < n; i++ {
			tb.MustInsert(int64(i+1000), int64(i+2000)) // past the runtime's preallocated small integers
		}
		sqlmem.Register(dsn, db)
		t.Cleanup(func() { sqlmem.Unregister(dsn) })
		// One row short of a full page, so the scan knows it is over
		// without asking for a second.
		w, err := wrapper.NewSQL("S", wrapper.SQLConfig{Driver: sqlmem.DriverName, DSN: dsn, FetchPageRows: n + 1})
		if err != nil {
			t.Fatal(err)
		}
		conn, err := sql.Open(sqlmem.DriverName, dsn)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		var k, v any
		dest := []any{&k, &v}
		driverBytes = iqltest.AllocBytesPerRun(5, func() {
			rows, err := conn.Query(fmt.Sprintf(`SELECT "id", "v" FROM "items" WHERE "id" IS NOT NULL ORDER BY "id" LIMIT %d`, n+1))
			if err != nil {
				t.Fatal(err)
			}
			defer rows.Close()
			for rows.Next() {
				if err := rows.Scan(dest...); err != nil {
					t.Fatal(err)
				}
			}
		})
		allocs, bytes = scanAllocs(t, w, []string{"items", "v"}, n)
		return allocs, bytes, driverBytes
	}
	small, smallBytes, smallDriver := page(2000)
	large, largeBytes, largeDriver := page(4000)
	t.Logf("one page of 2000 rows: %.0f allocations, %.0f bytes (database/sql alone %.0f); of 4000: %.0f, %.0f (%.0f)",
		small, smallBytes, smallDriver, large, largeBytes, largeDriver)
	if perRow := (large - small) / 2000; perRow > 1.5 {
		t.Errorf("a row of a SQL page costs %.2f allocations, want the driver's one and a share of a chunk", perRow)
	}
	if perRow := ((largeBytes - largeDriver) - (smallBytes - smallDriver)) / 2000; perRow > 100 {
		t.Errorf("a row of a SQL page costs %.1f bytes beyond the driver's, want at most 100", perRow)
	}
}

// TestDecodeRowAllocations: what a row restored from a snapshot
// document costs is the table's own keeping of it (rel.Table.Insert: the
// row, its boxed cells, its key) and nothing per row of the decoder's.
// Through a [][]any of the table — a []any per row, a json.Number and an
// interface per cell, which is how Decode read rows before it walked
// them — the same row read 18 allocations and 765 bytes; this is what
// notices if that comes back.
func TestDecodeRowAllocations(t *testing.T) {
	measure := func(n int) (allocs, size float64) {
		db := rel.NewDB("S")
		tb := db.MustCreateTable("t", []rel.Column{{Name: "id", Type: rel.Int}, {Name: "name", Type: rel.String},
			{Name: "score", Type: rel.Float}, {Name: "ref", Type: rel.Int}}, "id")
		for i := 0; i < n; i++ {
			tb.MustInsert(int64(i+1000), fmt.Sprintf("protein %06d", i), float64(i)+0.25, int64(i+5000))
		}
		w, err := wrapper.NewRelational("S", db)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := wrapper.Encode(w)
		if err != nil {
			t.Fatal(err)
		}
		decode := func() {
			// Decode keeps the document it is given; the copy is one
			// allocation whatever n is.
			if _, err := wrapper.Decode(bytes.Clone(doc)); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(5, decode), iqltest.AllocBytesPerRun(5, decode)
	}
	smallAllocs, smallBytes := measure(2000)
	largeAllocs, largeBytes := measure(4000)
	allocs, perRowBytes := (largeAllocs-smallAllocs)/2000, (largeBytes-smallBytes)/2000
	t.Logf("a restored row of four cells: %.2f allocations, %.1f bytes", allocs, perRowBytes)
	// The row, three boxed numbers, the string's bytes and its box, the
	// key's digits and the key: eight allocations, and a share of the
	// table's growing slice and map.
	if allocs > 8.5 {
		t.Errorf("a restored row costs %.2f allocations, want at most 8.5", allocs)
	}
	// 417 bytes, 460 under the race detector. The document's own bytes are
	// in there twice, the copy above and the rows as Decode holds them
	// while it walks: 75 a row.
	if perRowBytes > 530 {
		t.Errorf("a restored row costs %.1f bytes, want at most 530", perRowBytes)
	}
}
