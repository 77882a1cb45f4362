package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"github.com/dataspace/automed/internal/rel"
	"github.com/dataspace/automed/internal/sqlmem"
)

// remoteSQLDB registers the Library catalogue behind the sqlmem
// driver, reachable over database/sql like any wire-protocol database.
func remoteSQLDB(dsn string) {
	db := rel.NewDB("Library")
	books := db.MustCreateTable("books", []rel.Column{
		{Name: "id", Type: rel.Int},
		{Name: "isbn", Type: rel.String},
		{Name: "title", Type: rel.String},
	}, "id")
	books.MustInsert(int64(1), "978-1", "Dataspaces")
	books.MustInsert(int64(2), "978-2", "Schema Matching")
	books.MustInsert(int64(3), "978-3", "AutoMed")
	sqlmem.Register(dsn, db)
}

// remoteRESTBackend serves the Shop inventory as a JSON API.
func remoteRESTBackend(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/items" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, `[
			{"id": "S1", "barcode": "978-1", "price": 10.5},
			{"id": "S2", "barcode": "978-2", "price": 42.0},
			{"id": "S3", "barcode": "978-9", "price": 7.0}
		]`)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// registerRemoteSources drives the POST /sources body variants for a
// SQL and a REST backend.
func registerRemoteSources(c *testClient, dsn, endpoint string) {
	c.must("POST", "/sources", map[string]any{
		"name": "Library",
		"sql":  map[string]any{"driver": sqlmem.DriverName, "dsn": dsn},
	}, http.StatusCreated)
	c.must("POST", "/sources", map[string]any{
		"name": "Shop",
		"rest": map[string]any{
			"endpoint": endpoint,
			"collections": []map[string]any{
				{"name": "items", "fields": []string{"barcode", "id", "price"}},
			},
		},
	}, http.StatusCreated)
}

// TestRestoredDeadBackendIsDegraded: a session restored after both its
// backends vanished still answers from the snapshot's extents — through
// the one stale route, so the answer says it is stale, is counted, is
// seen by the breakers, and is refused to a caller that wants fresh
// data. The wrappers do not pass a snapshot extent off as a fetch.
func TestRestoredDeadBackendIsDegraded(t *testing.T) {
	const dsn = "server-outage-library"
	remoteSQLDB(dsn)
	shop := remoteRESTBackend(t)
	dir := t.TempDir()
	query := map[string]any{"query": "count(<<library_books>>) + count(<<shop_items>>)"}

	_, c1 := newDurableClient(t, dir)
	registerRemoteSources(c1, dsn, shop.URL)
	c1.must("POST", "/federate", map[string]any{"name": "F"}, http.StatusCreated)
	want := c1.must("POST", "/query", query, http.StatusOK)
	if want["degraded"] == true || want["warnings"] != nil {
		t.Fatalf("answer before the outage is already degraded: %v", want)
	}

	// Both backends die before the restart.
	sqlmem.Unregister(dsn)
	shop.Close()
	_, c2 := newDurableClient(t, dir)

	// assertStale: the pre-outage value, flagged, one warning a source.
	assertStale := func(got map[string]any, cached bool) {
		t.Helper()
		if got["value"] != want["value"] || got["rendered"] != want["rendered"] {
			t.Errorf("stale answer = %v (%v), want the pre-outage %v", got["value"], got["rendered"], want["value"])
		}
		if got["degraded"] != true || got["result_cached"] != cached {
			t.Errorf("degraded = %v, result_cached = %v; want true, %v", got["degraded"], got["result_cached"], cached)
		}
		warns, _ := got["warnings"].([]any)
		if len(warns) != 2 {
			t.Fatalf("warnings = %v, want one per source", warns)
		}
		for i, source := range []string{"Library", "Shop"} {
			if w := warns[i].(string); !strings.Contains(w, "source "+source) || !strings.Contains(w, "age unknown") {
				t.Errorf("warning %d = %q, want %s's stale extent of unknown age", i, w, source)
			}
		}
	}
	assertStale(c2.must("POST", "/query", query, http.StatusOK), false)

	// The breakers saw the failed fetches, and the fallbacks are counted.
	h := c2.must("GET", "/healthz", nil, http.StatusOK)
	sources := h["source_health"].([]any)[0].(map[string]any)["sources"].([]any)
	if len(sources) != 2 {
		t.Fatalf("source_health = %v, want Library and Shop", sources)
	}
	for _, e := range sources {
		m := e.(map[string]any)
		if m["consecutive_failures"].(float64) != 1 || m["fallbacks_total"].(float64) != 1 {
			t.Errorf("%v: consecutive_failures = %v, fallbacks_total = %v; want 1 and 1",
				m["source"], m["consecutive_failures"], m["fallbacks_total"])
		}
	}

	// A result-cache hit is as stale as the answer it repeats.
	assertStale(c2.must("POST", "/query", query, http.StatusOK), true)

	// Strict callers are refused, evaluated or cached, by body or header.
	status, out := c2.do("POST", "/query", map[string]any{"query": query["query"], "require_fresh": true, "no_cache": true})
	if status != http.StatusServiceUnavailable {
		t.Errorf("require_fresh = %d, want 503 (%v)", status, out)
	}
	req, err := http.NewRequest("POST", c2.srv.URL+"/query", strings.NewReader(`{"query": "count(<<library_books>>) + count(<<shop_items>>)"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Require-Fresh", "1")
	resp, err := c2.srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("X-Require-Fresh = %d, want 503", resp.StatusCode)
	}

	// Two stale answers and two refusals.
	if body, _ := scrape(t, c2, "/metrics", ""); !strings.Contains(string(body), "automed_degraded_queries_total 4\n") {
		t.Errorf("exposition lacks automed_degraded_queries_total 4:\n%s", body)
	}
}

// TestSourcesVariantValidation: the endpoint requires exactly one
// backend variant per registration.
func TestSourcesVariantValidation(t *testing.T) {
	_, c := newTestClient(t, DefaultConfig())
	status, body := c.do("POST", "/sources", map[string]any{
		"name":    "X",
		"csv_dir": "/nowhere",
		"sql":     map[string]any{"driver": "d", "dsn": "x"},
	})
	if status != http.StatusBadRequest {
		t.Fatalf("two variants accepted: %d %v", status, body)
	}
	status, _ = c.do("POST", "/sources", map[string]any{"name": "X"})
	if status != http.StatusBadRequest {
		t.Fatal("zero variants accepted")
	}
	// A REST registration against a dead endpoint fails cleanly.
	status, body = c.do("POST", "/sources", map[string]any{
		"name": "R",
		"rest": map[string]any{"endpoint": "http://127.0.0.1:9/api"},
	})
	if status != http.StatusBadRequest {
		t.Fatalf("dead endpoint accepted: %d %v", status, body)
	}
}

// TestStreamedScanHeapStaysFlat is the bounded-memory guarantee of the
// streaming extent pipeline: what bounds the size of a source is what a
// scan keeps resident, not what the source holds. A filtering aggregate
// over a SQL table that would materialise to well over ten times the
// ceiling (300,000 {id, val} rows, some 29 MB of cells) is evaluated
// twice through POST /query, and the live heap afterwards has grown by
// less than the ceiling — a streamed scan keeps its window and a few
// pages; a materialised extent would also stay cached between the two
// queries. The filter is one the source cannot take (arithmetic on the
// variable), so every row crosses the seam, and the trace says so: the
// statements are the scanner's keyset pages, each after the key the one
// before it ended on.
//
// Beside it, the same count with filters the source can take crosses no
// row at all: one SELECT COUNT(*) … WHERE, no page — also for "v = 7",
// which as a constant-key join used to materialise the table to index
// it.
func TestStreamedScanHeapStaysFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("scans a 300,000-row table twice")
	}
	const (
		rows        = 300_000
		heapCeiling = 8 << 20
		dsn         = "server-stream-big"
	)
	// The database stands in for a remote server, so its rows are built
	// before the baseline: they are the backend's memory, not the query
	// pipeline's.
	db := rel.NewDB("Big")
	items := db.MustCreateTable("items", []rel.Column{
		{Name: "id", Type: rel.Int},
		{Name: "val", Type: rel.Int},
	}, "id")
	for i := 0; i < rows; i++ {
		items.MustInsert(int64(i), int64(i%100))
	}
	sqlmem.Register(dsn, db)
	t.Cleanup(func() { sqlmem.Unregister(dsn) })

	_, c := newTestClient(t, DefaultConfig())
	c.must("POST", "/sources", map[string]any{
		"name": "Big",
		"sql":  map[string]any{"driver": sqlmem.DriverName, "dsn": dsn},
	}, http.StatusCreated)
	c.must("POST", "/federate", map[string]any{}, http.StatusCreated)

	// statements evaluates one count, result cache bypassed, and returns
	// the SQL the source was sent for it.
	statements := func(query string, want int) (stmts []string) {
		t.Helper()
		resp, _ := tracedQuery(c, map[string]any{"query": query, "no_cache": true})
		if resp["value"].(float64) != float64(want) {
			t.Fatalf("%s = %v, want %d", query, resp["value"], want)
		}
		for _, sp := range spansWhere(traceSpans(t, resp), "sql", "") {
			stmts = append(stmts, sp["name"].(string))
		}
		return stmts
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	// The exact count proves the scan visited every row.
	for i := 0; i < 2; i++ {
		stmts := statements("count([k | {k, v} <- <<big_items, val>>; v - 1 < 0])", rows/100)
		if len(stmts) < rows/4096 {
			t.Errorf("query %d: %d SQL statements for %d rows, want a page each 4096", i, len(stmts), rows)
		}
		for j, stmt := range stmts {
			keyset := strings.HasSuffix(stmt, ` ORDER BY "id" LIMIT 4096`) && strings.Contains(stmt, ` WHERE "id" > ? `) == (j > 0)
			if !keyset || strings.Contains(stmt, "OFFSET") || strings.Contains(stmt, "COUNT(") {
				t.Fatalf("query %d: the source was sent %q, want only keyset pages", i, stmt)
			}
		}
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	if growth := int64(after.HeapAlloc) - int64(before.HeapAlloc); growth > heapCeiling {
		t.Errorf("live heap grew %.1f MB over two scans of %d rows (ceiling %d MB): the extent was materialised",
			float64(growth)/(1<<20), rows, heapCeiling>>20)
	}

	for _, q := range []struct {
		filter string
		want   int
	}{
		{"v < 1", rows / 100},
		{"v = 7", rows / 100},
		{"v >= 10; 90 > v; k < 1000", 800},
	} {
		stmts := statements("count([k | {k, v} <- <<big_items, val>>; "+q.filter+"])", q.want)
		if len(stmts) != 1 || !strings.HasPrefix(stmts[0], "SELECT COUNT(*) FROM ") {
			t.Errorf("count filtered by %s: the source was sent %q, want one SELECT COUNT(*) and no page", q.filter, stmts)
		}
	}
}
