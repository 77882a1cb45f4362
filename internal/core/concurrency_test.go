package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/dataspace/automed/internal/rel"
	"github.com/dataspace/automed/internal/wrapper"
)

func concurrencySources(t testing.TB) []wrapper.Wrapper {
	t.Helper()
	lib := rel.NewDB("Library")
	lt := lib.MustCreateTable("books", []rel.Column{
		{Name: "id", Type: rel.Int}, {Name: "isbn", Type: rel.String}, {Name: "title", Type: rel.String},
	}, "id")
	for i := 0; i < 50; i++ {
		lt.MustInsert(int64(i), fmt.Sprintf("978-%d", i), fmt.Sprintf("Book %d", i))
	}
	shop := rel.NewDB("Shop")
	st := shop.MustCreateTable("items", []rel.Column{
		{Name: "sku", Type: rel.String}, {Name: "barcode", Type: rel.String}, {Name: "price", Type: rel.Float},
	}, "sku")
	for i := 0; i < 50; i++ {
		st.MustInsert(fmt.Sprintf("S%d", i), fmt.Sprintf("978-%d", i), float64(i)+0.5)
	}
	wl, err := wrapper.NewRelational("Library", lib)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := wrapper.NewRelational("Shop", shop)
	if err != nil {
		t.Fatal(err)
	}
	return []wrapper.Wrapper{wl, ws}
}

// TestConcurrentQueryDuringIntegration runs a stream of queries (over
// both the current and pinned schema versions) while intersections and
// refinements publish new global schema versions. Under -race this
// verifies the integrator's locking discipline: queries never observe a
// half-built global schema and per-query warnings do not cross-talk.
func TestConcurrentQueryDuringIntegration(t *testing.T) {
	ig, err := New(concurrencySources(t)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ig.Federate("F"); err != nil {
		t.Fatal(err)
	}

	const readers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// The federated names exist in every version.
				res, err := ig.QueryCtx(ctx, "count(<<library_books>>)")
				if err != nil {
					errs <- fmt.Errorf("reader %d: %v", r, err)
					return
				}
				if res.Value.I() != 50 {
					errs <- fmt.Errorf("reader %d: count = %v", r, res.Value)
					return
				}
				// Pinned queries against version 0 must keep working as
				// integration advances.
				if _, err := ig.QueryAt(ctx, 0, "count(<<shop_items>>)"); err != nil {
					errs <- fmt.Errorf("reader %d pinned: %v", r, err)
					return
				}
			}
		}(r)
	}

	if _, err := ig.Intersect("I1", []Mapping{
		Entity("<<UBook>>",
			From("Library", "[{'LIB', k} | k <- <<books>>]"),
			From("Shop", "[{'SHOP', k} | k <- <<items>>]"),
		),
		Attribute("<<UBook, isbn>>",
			From("Library", "[{'LIB', k, x} | {k, x} <- <<books, isbn>>]"),
			From("Shop", "[{'SHOP', k, x} | {k, x} <- <<items, barcode>>]"),
		),
	}); err != nil {
		t.Fatal(err)
	}
	if err := ig.Refine("titles", Mapping{
		Target:  "<<UBook, title>>",
		Forward: []SourceQuery{From("Library", "[{'LIB', k, x} | {k, x} <- <<books, title>>]")},
	}); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	if got := ig.GlobalVersion(); got != 2 {
		t.Fatalf("GlobalVersion = %d, want 2", got)
	}
	if n := len(ig.Versions()); n != 3 {
		t.Fatalf("len(Versions) = %d, want 3", n)
	}
	res, err := ig.Query("count(<<UBook>>)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Value.I() != 100 {
		t.Fatalf("count(<<UBook>>) = %v, want 100", res.Value)
	}
	// <<UBook>> did not exist in version 0.
	if _, err := ig.QueryAt(context.Background(), 0, "count(<<UBook>>)"); err == nil {
		t.Fatal("version-0 query for <<UBook>> unexpectedly succeeded")
	}
}

// TestQueryCancellation verifies per-request contexts abort evaluation.
func TestQueryCancellation(t *testing.T) {
	ig, err := New(concurrencySources(t)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ig.Federate("F"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ig.QueryCtx(ctx, "count(<<library_books>>)"); err == nil {
		t.Fatal("cancelled query unexpectedly succeeded")
	}
}

// TestWarningsPerQuery verifies that warnings are scoped to the query
// that raised them: a query over a fully-derived object must not report
// another query's incompleteness warnings.
func TestWarningsPerQuery(t *testing.T) {
	ig, err := New(concurrencySources(t)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ig.Federate("F"); err != nil {
		t.Fatal(err)
	}
	// Only Library contributes UIsbn: Shop's image is extended with
	// Range Void Any, so querying it warns.
	if _, err := ig.Intersect("I1", []Mapping{
		Entity("<<UBook>>",
			From("Library", "[{'LIB', k} | k <- <<books>>]"),
			From("Shop", "[{'SHOP', k} | k <- <<items>>]"),
		),
		Entity("<<UIsbn>>", From("Library", "[x | {k, x} <- <<books, isbn>>]")),
	}); err != nil {
		t.Fatal(err)
	}
	warm, err := ig.Query("count(<<UIsbn>>)")
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Warnings) == 0 {
		t.Fatal("query over extended object produced no warnings")
	}
	clean, err := ig.Query("count(<<UBook>>)")
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Warnings) != 0 {
		t.Fatalf("unrelated query inherited warnings: %v", clean.Warnings)
	}
	// A repeat of the warning query is served from the extent memo
	// cache; the warnings must be replayed, not silently dropped.
	again, err := ig.Query("count(<<UIsbn>>)")
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Warnings) != len(warm.Warnings) {
		t.Fatalf("cache-hit query lost warnings: got %v, want %v", again.Warnings, warm.Warnings)
	}
}
