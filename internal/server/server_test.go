package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/dataspace/automed/internal/obs"
)

// testClient wraps an httptest server with JSON helpers.
type testClient struct {
	t   *testing.T
	srv *httptest.Server
}

func newTestClient(t *testing.T, cfg Config) (*Server, *testClient) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, &testClient{t: t, srv: ts}
}

func (c *testClient) do(method, path string, body any) (int, map[string]any) {
	c.t.Helper()
	status, raw := c.send(method, path, body)
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil && len(bytes.TrimSpace(raw)) > 0 {
		c.t.Fatalf("%s %s: decoding response: %v", method, path, err)
	}
	return status, out
}

// request is a request with body as JSON.
func (c *testClient) request(method, path string, body any) *http.Request {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.srv.URL+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	// The helpers decode JSON; /metrics content-negotiates on Accept.
	req.Header.Set("Accept", "application/json")
	return req
}

// send sends a request with body as JSON and returns the status and
// the response's bytes.
func (c *testClient) send(method, path string, body any) (int, []byte) {
	c.t.Helper()
	resp, err := c.srv.Client().Do(c.request(method, path, body))
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatalf("%s %s: reading response: %v", method, path, err)
	}
	return resp.StatusCode, out
}

func (c *testClient) must(method, path string, body any, wantStatus int) map[string]any {
	c.t.Helper()
	status, out := c.do(method, path, body)
	if status != wantStatus {
		c.t.Fatalf("%s %s = %d, want %d (body: %v)", method, path, status, wantStatus, out)
	}
	return out
}

// registerBookstore registers the Library and Shop sources used by the
// paper-style toy workflow, with rows scaled by n.
func registerBookstore(c *testClient, session string, n int) {
	libRows := make([][]any, n)
	shopRows := make([][]any, n)
	for i := 0; i < n; i++ {
		libRows[i] = []any{i, fmt.Sprintf("978-%d", i), fmt.Sprintf("Book %d", i)}
		shopRows[i] = []any{fmt.Sprintf("S%d", i), fmt.Sprintf("978-%d", i), float64(i) + 0.5}
	}
	c.must("POST", "/sources", map[string]any{
		"session": session,
		"name":    "Library",
		"tables": []map[string]any{{
			"name":    "books",
			"columns": []string{"id:int", "isbn", "title"},
			"rows":    libRows,
		}},
	}, http.StatusCreated)
	c.must("POST", "/sources", map[string]any{
		"session": session,
		"name":    "Shop",
		"tables": []map[string]any{{
			"name":    "items",
			"columns": []string{"sku", "barcode", "price:float"},
			"rows":    shopRows,
		}},
	}, http.StatusCreated)
}

var ubookMappings = []map[string]any{
	{
		"target": "<<UBook>>",
		"forward": []map[string]any{
			{"source": "Library", "query": "[{'LIB', k} | k <- <<books>>]"},
			{"source": "Shop", "query": "[{'SHOP', k} | k <- <<items>>]"},
		},
	},
	{
		"target": "<<UBook, isbn>>",
		"forward": []map[string]any{
			{"source": "Library", "query": "[{'LIB', k, x} | {k, x} <- <<books, isbn>>]"},
			{"source": "Shop", "query": "[{'SHOP', k, x} | {k, x} <- <<items, barcode>>]"},
		},
	},
}

// TestEndToEnd drives the full paper workflow over HTTP: wrap →
// federate → query → intersect → query → refine → query, checking
// schema versioning, provenance explain, the effort report, matcher
// suggestions, and metrics along the way.
func TestEndToEnd(t *testing.T) {
	_, c := newTestClient(t, DefaultConfig())
	registerBookstore(c, "", 2)

	// Step 2: federate — immediately queryable, zero integration effort.
	fed := c.must("POST", "/federate", map[string]any{"name": "F"}, http.StatusCreated)
	if fed["version"].(float64) != 0 {
		t.Fatalf("federated version = %v, want 0", fed["version"])
	}
	q := c.must("POST", "/query", map[string]any{"query": "count(<<library_books>>)"}, http.StatusOK)
	if q["value"].(float64) != 2 {
		t.Fatalf("count(<<library_books>>) = %v, want 2", q["value"])
	}

	// Steps 3-5: first intersection iteration.
	in := c.must("POST", "/intersect", map[string]any{
		"name":     "I1",
		"mappings": ubookMappings,
		"enables":  []string{"Q1"},
	}, http.StatusCreated)
	if in["version"].(float64) != 1 {
		t.Fatalf("post-intersect version = %v, want 1", in["version"])
	}

	// Step 6: query the integrated concept.
	q = c.must("POST", "/query", map[string]any{"query": "count(<<UBook>>)", "explain": true}, http.StatusOK)
	if q["value"].(float64) != 4 {
		t.Fatalf("count(<<UBook>>) = %v, want 4", q["value"])
	}
	if q["version"].(float64) != 1 {
		t.Fatalf("query version = %v, want 1", q["version"])
	}
	explain, ok := q["explain"].(map[string]any)
	if !ok || len(explain) == 0 {
		t.Fatalf("explain missing: %v", q["explain"])
	}

	// Pinned queries against the federated version keep working, and
	// the new concept is invisible there.
	q = c.must("POST", "/query", map[string]any{"query": "count(<<shop_items>>)", "version": 0}, http.StatusOK)
	if q["value"].(float64) != 2 {
		t.Fatalf("pinned count = %v, want 2", q["value"])
	}
	status, _ := c.do("POST", "/query", map[string]any{"query": "count(<<UBook>>)", "version": 0})
	if status != http.StatusBadRequest {
		t.Fatalf("version-0 query for <<UBook>> = %d, want 400", status)
	}

	// Another iteration: refinement adds a Library-only title attribute.
	c.must("POST", "/refine", map[string]any{
		"name": "titles",
		"mapping": map[string]any{
			"target": "<<UBook, title>>",
			"forward": []map[string]any{
				{"source": "Library", "query": "[{'LIB', k, x} | {k, x} <- <<books, title>>]"},
			},
		},
	}, http.StatusCreated)
	q = c.must("POST", "/query", map[string]any{"query": "count(<<UBook, title>>)"}, http.StatusOK)
	if q["value"].(float64) != 2 {
		t.Fatalf("count(<<UBook, title>>) = %v, want 2", q["value"])
	}
	if q["version"].(float64) != 2 {
		t.Fatalf("post-refine version = %v, want 2", q["version"])
	}

	// Schema version registry.
	schemas := c.must("GET", "/schemas?session=default", nil, http.StatusOK)
	if schemas["current_version"].(float64) != 2 {
		t.Fatalf("current_version = %v, want 2", schemas["current_version"])
	}
	if n := len(schemas["versions"].([]any)); n != 3 {
		t.Fatalf("len(versions) = %d, want 3", n)
	}

	// Effort report mirrors the paper's manual/auto accounting.
	rep := c.must("GET", "/report?session=default", nil, http.StatusOK)
	if rep["total_manual"].(float64) == 0 {
		t.Fatal("report shows zero manual steps")
	}

	// Matcher suggestions (workflow step 4 seeding).
	sug := c.must("POST", "/suggest", map[string]any{
		"source_a": "Library", "source_b": "Shop", "min_score": 0.1,
	}, http.StatusOK)
	if sug["correspondences"] == nil {
		t.Fatal("no matcher correspondences")
	}

	// Liveness + metrics.
	c.must("GET", "/healthz", nil, http.StatusOK)
	m := c.must("GET", "/metrics", nil, http.StatusOK)
	if m["queries_total"].(float64) < 5 {
		t.Fatalf("queries_total = %v, want >= 5", m["queries_total"])
	}
	if m["integration_iterations"].(float64) != 3 {
		t.Fatalf("integration_iterations = %v, want 3", m["integration_iterations"])
	}
}

// TestCacheInvalidationOnIteration verifies the result cache's
// contract across iterations: repeated queries hit the result cache,
// and a new integration iteration evicts exactly the answers over what
// it touched. An untouched answer is served at the new version, stamped
// with it; a touched one is evaluated again with the new derivations.
func TestCacheInvalidationOnIteration(t *testing.T) {
	_, c := newTestClient(t, DefaultConfig())
	registerBookstore(c, "", 3)
	c.must("POST", "/federate", map[string]any{}, http.StatusCreated)
	c.must("POST", "/intersect", map[string]any{"name": "I1", "mappings": ubookMappings}, http.StatusCreated)

	const isbn, entity = "count(<<UBook, isbn>>)", "count(<<UBook>>)"
	first := c.must("POST", "/query", map[string]any{"query": isbn}, http.StatusOK)
	if first["result_cached"].(bool) {
		t.Fatal("first query unexpectedly result-cached")
	}
	if first["value"].(float64) != 6 {
		t.Fatalf("first answer = %v, want 6", first["value"])
	}

	second := c.must("POST", "/query", map[string]any{"query": isbn}, http.StatusOK)
	if !second["result_cached"].(bool) {
		t.Fatal("repeat query missed the result cache")
	}
	if !second["plan_cached"].(bool) {
		t.Fatal("repeat query missed the plan cache")
	}
	c.must("POST", "/query", map[string]any{"query": entity}, http.StatusOK)

	// A new iteration (a Library-side derivation for <<UBook>>)
	// publishes version 2. It touches <<UBook>>, not <<UBook, isbn>>.
	c.must("POST", "/refine", map[string]any{
		"name": "ubook2",
		"mapping": map[string]any{
			"target": "<<UBook>>",
			"forward": []map[string]any{
				{"source": "Library", "query": "[{'LIB2', k} | k <- <<books>>]"},
			},
		},
	}, http.StatusCreated)

	third := c.must("POST", "/query", map[string]any{"query": isbn}, http.StatusOK)
	if !third["result_cached"].(bool) {
		t.Fatal("untouched answer evaluated again after an iteration that did not touch it")
	}
	if third["version"].(float64) != 2 || third["schema"] != "GS2" || third["value"].(float64) != 6 {
		t.Fatalf("untouched answer after the iteration = version %v schema %v value %v, want 2 GS2 6",
			third["version"], third["schema"], third["value"])
	}
	touched := c.must("POST", "/query", map[string]any{"query": entity}, http.StatusOK)
	if touched["result_cached"].(bool) {
		t.Fatal("answer over the touched scheme still served from the result cache")
	}
	if touched["version"].(float64) != 2 || touched["value"].(float64) != 9 {
		t.Fatalf("touched answer after the iteration = version %v value %v, want 2 9", touched["version"], touched["value"])
	}
	// The same canonical query under whitespace variation hits the
	// result cache thanks to normalisation.
	fourth := c.must("POST", "/query", map[string]any{"query": "count(<<UBook,   isbn>>)"}, http.StatusOK)
	if !fourth["result_cached"].(bool) {
		t.Fatal("normalised query variant missed the result cache")
	}
}

// TestConcurrentClients hammers the server from many goroutines while
// an integration iteration lands mid-flight; run under -race this
// exercises the whole locking stack (registry, session, integrator,
// processor, caches). It runs twice: as the daemon ships, and under an
// admission limit the nine concurrent requests overrun (4 slots) but
// whose queue (8 places) holds them all, so every answer is still a
// 200 — and every request is accounted for by the queue's counters.
// Which request finds the slots taken is the scheduler's choice, so
// nothing asserts that one waited.
func TestConcurrentClients(t *testing.T) {
	limited := DefaultConfig()
	limited.MaxInflight, limited.MaxQueue = 4, 8
	t.Run("default", func(t *testing.T) { testConcurrentClients(t, DefaultConfig()) })
	t.Run("limited", func(t *testing.T) { testConcurrentClients(t, limited) })
}

func testConcurrentClients(t *testing.T, cfg Config) {
	_, c := newTestClient(t, cfg)
	registerBookstore(c, "", 20)
	c.must("POST", "/federate", map[string]any{}, http.StatusCreated)
	c.must("POST", "/intersect", map[string]any{"name": "I1", "mappings": ubookMappings}, http.StatusCreated)

	const clients = 8
	const perClient = 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				body := map[string]any{"query": "count(<<UBook>>)"}
				if i%3 == 1 {
					body["version"] = 0
					body["query"] = "count(<<library_books>>)"
				}
				if i%5 == 0 {
					body["no_cache"] = true
				}
				status, out := c.do("POST", "/query", body)
				if status != http.StatusOK {
					errs <- fmt.Errorf("client %d query %d: status %d (%v)", g, i, status, out)
					return
				}
			}
		}(g)
	}
	// Land a refinement while clients are querying.
	time.Sleep(5 * time.Millisecond)
	c.must("POST", "/refine", map[string]any{
		"name": "titles",
		"mapping": map[string]any{
			"target": "<<UBook, title>>",
			"forward": []map[string]any{
				{"source": "Library", "query": "[{'LIB', k, x} | {k, x} <- <<books, title>>]"},
			},
		},
	}, http.StatusCreated)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	m := c.must("GET", "/metrics", nil, http.StatusOK)
	if m["query_errors"].(float64) != 0 {
		t.Fatalf("query_errors = %v, want 0", m["query_errors"])
	}
	rc := m["result_cache"].(map[string]any)
	if rc["hits"].(float64) == 0 {
		t.Fatal("no result-cache hits under concurrent repeat queries")
	}

	// Two sources, the federation, the intersection, the refinement and
	// the queries each passed admission control exactly once.
	const posts = 5 + clients*perClient
	queue := m["queue"].(map[string]any)
	if admitted, rejected := queue["admitted_total"].(float64), queue["rejected_total"].(float64); admitted+rejected != posts {
		t.Errorf("queue admitted %v + rejected %v of %d requests", admitted, rejected, posts)
	}
	body, _ := scrape(t, c, "/metrics", "")
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("invalid exposition after load: %v\n%s", err, body)
	}
	for _, fam := range []string{
		"automed_queue_inflight", "automed_queue_depth",
		"automed_queue_admitted_total", "automed_queue_rejected_total",
		"automed_queue_wait_seconds_bucket",
	} {
		if !bytes.Contains(body, []byte(fam)) {
			t.Errorf("exposition lacks %s", fam)
		}
	}
}

// TestQueryTimeout verifies per-request deadlines abort long
// evaluations with 504.
func TestQueryTimeout(t *testing.T) {
	_, c := newTestClient(t, DefaultConfig())
	registerBookstore(c, "", 300)
	c.must("POST", "/federate", map[string]any{}, http.StatusCreated)
	// A 4-way cross join over 300-element extents: ~8.1e9 bindings,
	// far beyond anything a 50ms deadline allows.
	status, out := c.do("POST", "/query", map[string]any{
		"query":      "count([1 | a <- <<library_books>>; b <- <<library_books>>; c <- <<library_books>>; d <- <<library_books>>])",
		"timeout_ms": 50,
	})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("timeout query status = %d (%v), want 504", status, out)
	}
	m := c.must("GET", "/metrics", nil, http.StatusOK)
	if m["query_timeouts"].(float64) != 1 {
		t.Fatalf("query_timeouts = %v, want 1", m["query_timeouts"])
	}
}

// TestWorkflowErrors verifies the API's failure modes.
func TestWorkflowErrors(t *testing.T) {
	_, c := newTestClient(t, DefaultConfig())

	// Query / federate before any session exists.
	status, _ := c.do("POST", "/query", map[string]any{"query": "1 + 1"})
	if status != http.StatusNotFound {
		t.Fatalf("query without session = %d, want 404", status)
	}
	status, _ = c.do("POST", "/federate", map[string]any{})
	if status != http.StatusNotFound {
		t.Fatalf("federate without session = %d, want 404", status)
	}

	registerBookstore(c, "", 2)

	// Query before federate.
	status, _ = c.do("POST", "/query", map[string]any{"query": "count(<<books>>)"})
	if status != http.StatusBadRequest {
		t.Fatalf("query before federate = %d, want 400", status)
	}
	c.must("POST", "/federate", map[string]any{}, http.StatusCreated)

	// Double federate conflicts; late source registration conflicts.
	status, _ = c.do("POST", "/federate", map[string]any{})
	if status != http.StatusConflict {
		t.Fatalf("double federate = %d, want 409", status)
	}
	status, _ = c.do("POST", "/sources", map[string]any{
		"name":   "Late",
		"tables": []map[string]any{{"name": "t", "columns": []string{"id:int"}}},
	})
	if status != http.StatusConflict {
		t.Fatalf("late source = %d, want 409", status)
	}

	// Malformed IQL and unknown objects.
	status, _ = c.do("POST", "/query", map[string]any{"query": "count(<<"})
	if status != http.StatusBadRequest {
		t.Fatalf("bad IQL = %d, want 400", status)
	}
	status, _ = c.do("POST", "/query", map[string]any{"query": "count(<<nope>>)"})
	if status != http.StatusBadRequest {
		t.Fatalf("unknown object = %d, want 400", status)
	}

	// Unknown schema version.
	status, _ = c.do("POST", "/query", map[string]any{"query": "count(<<library_books>>)", "version": 99})
	if status != http.StatusBadRequest {
		t.Fatalf("unknown version = %d, want 400", status)
	}

	// Bad inline rows: fractional value for an int column.
	status, _ = c.do("POST", "/sources", map[string]any{
		"session": "other",
		"name":    "Bad",
		"tables": []map[string]any{{
			"name": "t", "columns": []string{"id:int"}, "rows": [][]any{{1.5}},
		}},
	})
	if status != http.StatusBadRequest {
		t.Fatalf("fractional int cell = %d, want 400", status)
	}
}

// TestSessionsAreIsolated verifies two sessions integrate and cache
// independently.
func TestSessionsAreIsolated(t *testing.T) {
	_, c := newTestClient(t, DefaultConfig())
	registerBookstore(c, "a", 2)
	registerBookstore(c, "b", 5)
	c.must("POST", "/federate", map[string]any{"session": "a"}, http.StatusCreated)
	c.must("POST", "/federate", map[string]any{"session": "b"}, http.StatusCreated)

	qa := c.must("POST", "/query", map[string]any{"session": "a", "query": "count(<<library_books>>)"}, http.StatusOK)
	qb := c.must("POST", "/query", map[string]any{"session": "b", "query": "count(<<library_books>>)"}, http.StatusOK)
	if qa["value"].(float64) != 2 || qb["value"].(float64) != 5 {
		t.Fatalf("session isolation broken: a=%v b=%v", qa["value"], qb["value"])
	}

	sessions := c.must("GET", "/sessions", nil, http.StatusOK)
	if n := len(sessions["sessions"].([]any)); n != 2 {
		t.Fatalf("len(sessions) = %d, want 2", n)
	}
}
