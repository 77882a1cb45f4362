package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"github.com/dataspace/automed/internal/sqlmem"
)

// tracedQuery POSTs /query with the X-Automed-Trace header set and
// returns the decoded response plus the X-Request-ID response header.
func tracedQuery(c *testClient, body map[string]any) (map[string]any, string) {
	c.t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		c.t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, c.srv.URL+"/query", bytes.NewReader(buf))
	if err != nil {
		c.t.Fatal(err)
	}
	req.Header.Set("Accept", "application/json")
	req.Header.Set("X-Automed-Trace", "1")
	resp, err := c.srv.Client().Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		c.t.Fatalf("decoding traced query response: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		c.t.Fatalf("traced query = %d (%v)", resp.StatusCode, out)
	}
	return out, resp.Header.Get("X-Request-ID")
}

// traceSpans extracts the span list from a traced query response.
func traceSpans(t *testing.T, resp map[string]any) []map[string]any {
	t.Helper()
	tr, ok := resp["trace"].(map[string]any)
	if !ok {
		t.Fatalf("response carries no trace: %v", resp)
	}
	raw, _ := tr["spans"].([]any)
	spans := make([]map[string]any, len(raw))
	for i, s := range raw {
		spans[i] = s.(map[string]any)
	}
	return spans
}

// spansWhere filters spans by stage and cache disposition ("" matches
// any disposition).
func spansWhere(spans []map[string]any, stage, cache string) []map[string]any {
	var out []map[string]any
	for _, s := range spans {
		if s["stage"] != stage {
			continue
		}
		disp, _ := s["cache"].(string)
		if cache != "" && disp != cache {
			continue
		}
		out = append(out, s)
	}
	return out
}

// slowRESTBackend serves the Shop inventory with an artificial latency,
// so wrapper fetch spans have measurable, overlappable durations.
func slowRESTBackend(t *testing.T, delay time.Duration) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/items" {
			http.NotFound(w, r)
			return
		}
		time.Sleep(delay)
		fmt.Fprint(w, `[
			{"id": "S1", "barcode": "978-1", "price": 10.5},
			{"id": "S2", "barcode": "978-2", "price": 42.0}
		]`)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestQueryTraceEndToEnd runs a traced query over one SQL backend and
// one REST backend and checks the span tree end to end: one cache-miss
// fetch span per source under a prefetch span, with overlapping
// intervals (the fetches ran concurrently); warm repeats degrade to
// fetch cache-hit spans, then to a single result-cache hit span; and
// the traces land in the /debug/traces ring newest first.
func TestQueryTraceEndToEnd(t *testing.T) {
	const dsn = "server-trace-library"
	const delay = 40 * time.Millisecond
	remoteSQLDB(dsn)
	shop := slowRESTBackend(t, delay)
	_, c := newTestClient(t, DefaultConfig())
	registerRemoteSources(c, dsn, shop.URL)
	c.must("POST", "/federate", map[string]any{"name": "F"}, http.StatusCreated)
	// Delay only queries issued after registration: source registration
	// introspects the backend, and only extent fetches should be slow.
	sqlmem.SetDelay(dsn, delay)
	t.Cleanup(func() { sqlmem.SetDelay(dsn, 0) })

	const query = "count(<<library_books>>) + count(<<shop_items>>)"

	// Cold: both extents are fetched, concurrently, under prefetch.
	resp, rid := tracedQuery(c, map[string]any{"query": query})
	if rid == "" {
		t.Error("response lacks an X-Request-ID header")
	}
	if resp["value"].(float64) != 5 {
		t.Fatalf("query value = %v, want 5", resp["value"])
	}
	spans := traceSpans(t, resp)
	for _, stage := range []string{"parse", "result-cache", "prefetch", "eval", "render"} {
		if len(spansWhere(spans, stage, "")) == 0 {
			t.Errorf("cold trace lacks a %q span: %v", stage, spans)
		}
	}
	// The render span says what it finished, as a fetch span says what it
	// read: the answer's rows — one, for a scalar — and its fragment's
	// bytes.
	wantRendered := func(spans []map[string]any, rows, bytes int) {
		t.Helper()
		r := spansWhere(spans, "render", "")
		if len(r) != 1 || r[0]["rows"] != float64(rows) || r[0]["bytes"] != float64(bytes) {
			t.Errorf("render spans %v, want one of %d rows and %d bytes", r, rows, bytes)
		}
	}
	wantRendered(spans, 1, len(`"value":5,"rendered":"5"`))
	misses := spansWhere(spans, "fetch", "miss")
	if len(misses) != 2 {
		t.Fatalf("cold trace has %d cache-miss fetch spans, want 2: %v", len(misses), spans)
	}
	names := map[string]bool{}
	for _, m := range misses {
		names[m["name"].(string)] = true
		if d := m["dur_us"].(float64); d < float64(delay.Microseconds())/2 {
			t.Errorf("fetch span %v lasted %vus, want >= %vus (backend delay %v)",
				m["name"], d, delay.Microseconds()/2, delay)
		}
	}
	if !names["Library"] || !names["Shop"] {
		t.Errorf("miss fetch spans cover %v, want Library and Shop", names)
	}
	// Both fetches are children of the prefetch span and their intervals
	// overlap: the sources were fetched in parallel, not back to back.
	prefetch := spansWhere(spans, "prefetch", "")[0]
	for _, m := range misses {
		if m["parent"] != prefetch["id"] {
			t.Errorf("fetch span %v has parent %v, want prefetch span %v", m["name"], m["parent"], prefetch["id"])
		}
	}
	a, b := misses[0], misses[1]
	aStart, aEnd := a["start_us"].(float64), a["start_us"].(float64)+a["dur_us"].(float64)
	bStart, bEnd := b["start_us"].(float64), b["start_us"].(float64)+b["dur_us"].(float64)
	if aStart >= bEnd || bStart >= aEnd {
		t.Errorf("fetch spans do not overlap: [%v, %v] vs [%v, %v]", aStart, aEnd, bStart, bEnd)
	}
	// The REST fetch reports wire bytes from the wrapper.
	for _, m := range misses {
		if m["name"] == "Shop" {
			if by, _ := m["bytes"].(float64); by <= 0 {
				t.Errorf("REST fetch span reports %v bytes, want > 0", m["bytes"])
			}
		}
	}

	// Warm extents, cold result: the memoised extents answer with hit
	// spans and zero wrapper fetches.
	resp, _ = tracedQuery(c, map[string]any{"query": query, "no_cache": true})
	spans = traceSpans(t, resp)
	if n := len(spansWhere(spans, "fetch", "")); n != 0 {
		t.Errorf("warm-extent trace has %d fetch spans, want 0: %v", n, spans)
	}
	hitNames := map[string]bool{}
	for _, h := range spansWhere(spans, "extent", "hit") {
		hitNames[h["name"].(string)] = true
	}
	if !hitNames["library_books"] || !hitNames["shop_items"] {
		t.Errorf("warm-extent hit spans cover %v, want library_books and shop_items", hitNames)
	}

	// Fully warm: the result cache answers; no fetch spans at all.
	resp, _ = tracedQuery(c, map[string]any{"query": query})
	if !resp["result_cached"].(bool) {
		t.Error("third run not result-cached")
	}
	spans = traceSpans(t, resp)
	if n := len(spansWhere(spans, "fetch", "")); n != 0 {
		t.Errorf("result-cached trace has %d fetch spans, want 0: %v", n, spans)
	}
	if len(spansWhere(spans, "result-cache", "hit")) != 1 {
		t.Errorf("result-cached trace lacks a result-cache hit span: %v", spans)
	}

	// All three traces were retained, newest first, labelled with the
	// query and the request ID.
	ring := c.must("GET", "/debug/traces", nil, http.StatusOK)
	traces, _ := ring["traces"].([]any)
	if len(traces) != 3 {
		t.Fatalf("/debug/traces holds %d traces, want 3", len(traces))
	}
	newest := traces[0].(map[string]any)
	if newest["query"] != query {
		t.Errorf("newest trace query = %v, want %q", newest["query"], query)
	}
	oldest := traces[2].(map[string]any)
	if oldest["id"] != rid {
		t.Errorf("oldest trace id = %v, want first request's ID %q", oldest["id"], rid)
	}

	// The per-source metrics saw exactly one fetch per backend, with
	// the wrapper kind attached and REST wire bytes accounted.
	snap := c.must("GET", "/metrics", nil, http.StatusOK)
	srcs, _ := snap["sources"].([]any)
	byName := map[string]map[string]any{}
	for _, s := range srcs {
		sm := s.(map[string]any)
		byName[sm["source"].(string)] = sm
	}
	lib, shopM := byName["Library"], byName["Shop"]
	if lib == nil || shopM == nil {
		t.Fatalf("metrics sources = %v, want Library and Shop", byName)
	}
	if lib["kind"] != "sql" || lib["fetches"].(float64) != 1 {
		t.Errorf("Library source metrics = %v, want kind sql with 1 fetch", lib)
	}
	if shopM["kind"] != "rest" || shopM["fetches"].(float64) != 1 || shopM["bytes"].(float64) <= 0 {
		t.Errorf("Shop source metrics = %v, want kind rest, 1 fetch, bytes > 0", shopM)
	}

	// A bag answer, over the extent already fetched: its rows are its
	// elements.
	resp, _ = tracedQuery(c, map[string]any{"query": "[k | k <- <<library_books>>]"})
	books := resp["value"].(map[string]any)["bag"].([]any)
	val, _ := json.Marshal(resp["value"])
	wantRendered(traceSpans(t, resp), len(books), len(`"value":`)+len(val)+len(`,"rendered":`)+len(strconv.Quote(resp["rendered"].(string))))
}

// TestUntracedQueryHasNoTrace: without the header the response carries
// no trace and nothing lands in the ring.
func TestUntracedQueryHasNoTrace(t *testing.T) {
	_, c := newTestClient(t, DefaultConfig())
	registerBookstore(c, "", 2)
	c.must("POST", "/federate", map[string]any{}, http.StatusCreated)
	resp := c.must("POST", "/query", map[string]any{"query": "count(<<library_books>>)"}, http.StatusOK)
	if _, ok := resp["trace"]; ok {
		t.Errorf("untraced query response carries a trace: %v", resp["trace"])
	}
	ring := c.must("GET", "/debug/traces", nil, http.StatusOK)
	if traces, _ := ring["traces"].([]any); len(traces) != 0 {
		t.Errorf("/debug/traces holds %d traces, want 0", len(traces))
	}
}

// TestSlowQueryTracing: with a slow-query threshold armed, queries at
// or above it are traced into the ring without any client opt-in — and
// the response stays clean (no inline trace the client didn't ask for).
func TestSlowQueryTracing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SlowQuery = time.Nanosecond // everything is slow
	_, c := newTestClient(t, cfg)
	registerBookstore(c, "", 2)
	c.must("POST", "/federate", map[string]any{}, http.StatusCreated)

	resp := c.must("POST", "/query", map[string]any{"query": "count(<<library_books>>)"}, http.StatusOK)
	if _, ok := resp["trace"]; ok {
		t.Errorf("slow-query tracing leaked an inline trace: %v", resp["trace"])
	}
	ring := c.must("GET", "/debug/traces", nil, http.StatusOK)
	traces, _ := ring["traces"].([]any)
	if len(traces) != 1 {
		t.Fatalf("/debug/traces holds %d traces, want 1", len(traces))
	}
	tr := traces[0].(map[string]any)
	if tr["query"] != "count(<<library_books>>)" {
		t.Errorf("retained trace query = %v", tr["query"])
	}
	if spans, _ := tr["spans"].([]any); len(spans) == 0 {
		t.Error("retained trace has no spans")
	}

	// A threshold no query reaches retains nothing.
	cfg.SlowQuery = time.Hour
	_, c2 := newTestClient(t, cfg)
	registerBookstore(c2, "", 2)
	c2.must("POST", "/federate", map[string]any{}, http.StatusCreated)
	c2.must("POST", "/query", map[string]any{"query": "count(<<library_books>>)"}, http.StatusOK)
	ring = c2.must("GET", "/debug/traces", nil, http.StatusOK)
	if traces, _ := ring["traces"].([]any); len(traces) != 0 {
		t.Errorf("fast query retained a trace under a 1h threshold: %d", len(traces))
	}
}

// TestRequestIDPropagation: a client-supplied X-Request-ID is echoed on
// the response and stamped into error bodies; absent one, the server
// generates an ID.
func TestRequestIDPropagation(t *testing.T) {
	_, c := newTestClient(t, DefaultConfig())

	req, err := http.NewRequest(http.MethodPost, c.srv.URL+"/query", bytes.NewReader([]byte(`{"query":""}`)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "rid-from-client")
	resp, err := c.srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "rid-from-client" {
		t.Errorf("X-Request-ID = %q, want the inbound rid-from-client", got)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty query = %d, want 400", resp.StatusCode)
	}
	if body["request_id"] != "rid-from-client" {
		t.Errorf("error body request_id = %v, want rid-from-client", body["request_id"])
	}

	resp2, err := c.srv.Client().Get(c.srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.Header.Get("X-Request-ID") == "" {
		t.Error("server did not generate an X-Request-ID")
	}
}
