package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dataspace/automed/internal/ispider"
	"github.com/dataspace/automed/internal/obs"
	"github.com/dataspace/automed/internal/sqlmem"
	"github.com/dataspace/automed/internal/wrapper"
)

// scrape fetches a path without the JSON Accept header the testClient
// helpers set, so GET /metrics content-negotiates to the Prometheus
// text exposition. It returns the body and the Content-Type.
func scrape(t *testing.T, c *testClient, path, accept string) ([]byte, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, c.srv.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := c.srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d (%s)", path, resp.StatusCode, body)
	}
	return body, resp.Header.Get("Content-Type")
}

// TestMetricsPrometheusExposition drives a small workload and checks
// that the default GET /metrics response is valid Prometheus text
// exposition (HELP/TYPE headers, monotone cumulative le buckets ending
// in +Inf, consistent _sum/_count) carrying the expected families with
// the expected counts — the write path's among them: the server has a
// store, so the three steps (two sources, the federation) autosave, and
// one restore follows the queries.
func TestMetricsPrometheusExposition(t *testing.T) {
	_, c := newDurableClient(t, t.TempDir())
	registerBookstore(c, "", 3)
	// A SQL source beside the in-memory ones: what is counted at a source
	// shows per source.
	const dsn = "server-prom-catalogue"
	remoteSQLDB(dsn)
	t.Cleanup(func() { sqlmem.Unregister(dsn) })
	c.must("POST", "/sources", map[string]any{
		"name": "Catalogue",
		"sql":  map[string]any{"driver": sqlmem.DriverName, "dsn": dsn},
	}, http.StatusCreated)
	c.must("POST", "/federate", map[string]any{}, http.StatusCreated)
	for i := 0; i < 3; i++ {
		c.must("POST", "/query", map[string]any{"query": "count(<<library_books>>)"}, http.StatusOK)
	}
	if q := c.must("POST", "/query", map[string]any{"query": "count([k | k <- <<catalogue_books>>; k > 1])"}, http.StatusOK); q["value"].(float64) != 2 {
		t.Fatalf("count over the SQL source = %v, want 2", q["value"])
	}
	// One failing query: errors must show up as their own counter.
	if status, _ := c.do("POST", "/query", map[string]any{"query": "count(<<nosuch>>)"}); status != http.StatusBadRequest {
		t.Fatalf("bad query = %d, want 400", status)
	}
	c.must("POST", "/sessions/default/restore", nil, http.StatusOK)

	body, ct := scrape(t, c, "/metrics", "")
	if !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q, want text/plain; version=0.0.4", ct)
	}
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, body)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE automed_queries_total counter",
		"# TYPE automed_query_duration_seconds histogram",
		"automed_queries_total 5",
		"automed_query_errors_total 1",
		"automed_query_timeouts_total 0",
		`automed_query_duration_seconds_bucket{le="+Inf"} 5`,
		"automed_query_duration_seconds_count 5",
		"automed_http_requests_total",
		"automed_integration_iterations_total 1",
		"automed_sessions 1",
		"# TYPE automed_eval_parallel_total counter",
		"automed_eval_shards_total",
		"automed_eval_parallelism",
		`automed_cache_hits_total{layer="plan"} 2`,
		`automed_cache_entries{layer="result"}`,
		`automed_cache_misses_total{layer="source_extent"}`,
		`automed_source_fetches_total{source="Library",kind="relational"} 1`,
		`automed_source_rows_total{source="Library",kind="relational"} 3`,
		`automed_source_fetch_duration_seconds_count{source="Library",kind="relational"} 1`,
		// The count over the SQL source was one fetch of one row, taken
		// there; nothing of the in-memory source's was.
		"# TYPE automed_source_counted_reads_total counter",
		`automed_source_counted_reads_total{source="Catalogue",kind="sql"} 1`,
		`automed_source_fetches_total{source="Catalogue",kind="sql"} 1`,
		`automed_source_rows_total{source="Catalogue",kind="sql"} 1`,
		`automed_source_counted_reads_total{source="Library",kind="relational"} 0`,
		"automed_session_snapshots_total 4\n",
		// Registrations and the federation are checkpoints, each.
		"automed_session_checkpoints_total 4\n",
		"automed_snapshot_duration_seconds_count 4\n",
		"automed_restore_duration_seconds_count 1\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
	if !regexp.MustCompile(`(?m)^automed_snapshot_bytes_total [1-9]`).MatchString(text) {
		t.Error("exposition lacks a positive automed_snapshot_bytes_total after four autosaves")
	}
	// The JSON snapshot says the same of the counted read.
	var snap MetricsSnapshot
	if body, _ := scrape(t, c, "/metrics?format=json", ""); json.Unmarshal(body, &snap) != nil {
		t.Fatalf("undecodable JSON metrics: %s", body)
	}
	for _, src := range snap.Sources {
		if want := map[string]uint64{"Catalogue": 1}[src.Source]; src.Counted != want {
			t.Errorf("JSON metrics: source %s counted = %d, want %d", src.Source, src.Counted, want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", text)
	}
}

// TestMetricsContentNegotiation: the JSON snapshot stays reachable via
// ?format=json and via an Accept header — with the write path's members
// in both, after autosaved steps and a restore — and the format
// parameter wins over Accept.
func TestMetricsContentNegotiation(t *testing.T) {
	_, c := newDurableClient(t, t.TempDir())
	registerBookstore(c, "", 3)
	c.must("POST", "/federate", map[string]any{}, http.StatusCreated)
	c.must("POST", "/sessions/default/restore", nil, http.StatusOK)
	for _, neg := range []struct{ path, accept string }{
		{"/metrics?format=json", ""},
		{"/metrics", "application/json"},
	} {
		body, ct := scrape(t, c, neg.path, neg.accept)
		if !strings.HasPrefix(ct, "application/json") {
			t.Errorf("GET %s (Accept %q) content type = %q", neg.path, neg.accept, ct)
		}
		var m map[string]any
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatalf("GET %s: %v", neg.path, err)
		}
		if n, _ := m["snapshot_bytes_total"].(float64); n <= 0 {
			t.Errorf("GET %s: snapshot_bytes_total = %v after three autosaves", neg.path, m["snapshot_bytes_total"])
		}
		for _, member := range []string{"query_latency", "plan_cache", "snapshot_latency", "restore_latency"} {
			if _, ok := m[member]; !ok {
				t.Errorf("GET %s: JSON metrics lack %q", neg.path, member)
			}
		}
	}
	if body, ct := scrape(t, c, "/metrics?format=prometheus", "application/json"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("format param should win over Accept: content type = %q", ct)
	} else if err := obs.ValidateExposition(body); err != nil {
		t.Errorf("invalid exposition: %v", err)
	}
}

// TestMetricsScrapeUnderLoad hammers GET /metrics (both negotiations)
// concurrently with queries, cached and uncached, over two schemes; no
// integration step runs beside them (TestConcurrentClients lands one).
// Every scrape must be internally consistent exposition; the real
// assertion is the race detector over the lock-free recording paths.
func TestMetricsScrapeUnderLoad(t *testing.T) {
	_, c := newTestClient(t, DefaultConfig())
	registerBookstore(c, "", 10)
	c.must("POST", "/federate", map[string]any{}, http.StatusCreated)

	const (
		queryWorkers  = 4
		scrapeWorkers = 3
		iterations    = 25
	)
	var wg sync.WaitGroup
	errs := make(chan error, queryWorkers+scrapeWorkers)
	for g := 0; g < queryWorkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				q := "count(<<library_books>>)"
				if i%2 == g%2 {
					q = "count(<<shop_items>>)"
				}
				status, out := c.do("POST", "/query", map[string]any{"query": q, "no_cache": i%3 == 0})
				if status != http.StatusOK {
					errs <- fmt.Errorf("query = %d (%v)", status, out)
					return
				}
			}
		}(g)
	}
	for g := 0; g < scrapeWorkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				if (i+g)%2 == 0 {
					body, _ := scrape(t, c, "/metrics", "")
					if err := obs.ValidateExposition(body); err != nil {
						errs <- fmt.Errorf("scrape %d: %v", i, err)
						return
					}
				} else {
					c.must("GET", "/metrics", nil, http.StatusOK)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The final scrape accounts for every query exactly once.
	snap := c.must("GET", "/metrics", nil, http.StatusOK)
	if n := snap["queries_total"].(float64); n != queryWorkers*iterations {
		t.Errorf("queries_total = %v, want %d", n, queryWorkers*iterations)
	}
}

// TestMetricsEvalBlock: the JSON snapshot's eval block reports the
// effective evaluation-pool width, which is GOMAXPROCS — there is no
// setting beside it — even before any session is federated. The
// prefetch pool is two constants of the query package, so neither the
// block nor the exposition reports it.
func TestMetricsEvalBlock(t *testing.T) {
	_, c := newTestClient(t, DefaultConfig())
	eval := c.must("GET", "/metrics", nil, http.StatusOK)["eval"].(map[string]any)
	if got := eval["parallelism"].(float64); got != float64(runtime.GOMAXPROCS(0)) {
		t.Errorf("eval.parallelism = %v, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	for _, gone := range []string{"prefetch_workers", "prefetch_max_tasks"} {
		if _, ok := eval[gone]; ok {
			t.Errorf("eval.%s is still reported; the prefetch pool is not configurable", gone)
		}
	}
}

// BenchmarkMetricsQueryParallel measures the query hot path's metric
// recording under contention: every sample takes the same lock-free
// route (atomic counters plus the atomic latency histogram) the server
// takes per query.
func BenchmarkMetricsQueryParallel(b *testing.B) {
	m := NewMetrics()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		d := 37 * time.Microsecond
		for pb.Next() {
			m.Query(d, nil, false)
			d += 311 * time.Microsecond // sweep across buckets
			if d > 20*time.Millisecond {
				d = 37 * time.Microsecond
			}
		}
	})
}

// TestJoinIndexLayerAcrossSteps: the join-index cache is reported as a
// cache layer of its own, and what it reports is the pay-as-you-go
// property: restore → step → Q7 → step → Q7 → step → Q7, each Q7
// evaluated again at the schema version the step before it published
// (with no_cache: no step touches what Q7 reads, so the result cache
// would answer it).
// The first builds the indexes Q7 joins through and leaves its join
// run's entry; the second finds every index built (hits, no misses) and
// records the run; the third replays the record (a replay, no lookup of
// any index) — because no step retired an extent they were built over,
// and every warm entry is still there.
func TestJoinIndexLayerAcrossSteps(t *testing.T) {
	s, c := newDurableClient(t, t.TempDir())
	pedro, gpmdb, pepseeker, err := ispider.Wrappers(ispider.BenchConfig())
	if err != nil {
		t.Fatal(err)
	}
	sess := newSessionOver(t, s, "case", []wrapper.Wrapper{pedro, gpmdb, pepseeker})
	if _, err := sess.Federate(context.Background(), "F", false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SnapshotSession("case"); err != nil {
		t.Fatal(err)
	}
	var q7 string
	for _, q := range ispider.Table1Queries() {
		if q.ID == "Q7" {
			q7 = q.IQL
		}
	}
	type layerStats struct{ hits, misses, replays, entries, invalidations float64 }
	layer := func() layerStats {
		t.Helper()
		l := c.must("GET", "/metrics", nil, http.StatusOK)["join_index_cache"].(map[string]any)
		return layerStats{l["hits"].(float64), l["misses"].(float64), l["replays"].(float64), l["len"].(float64), l["invalidations"].(float64)}
	}
	step := func(st ispider.PlanStep) {
		t.Helper()
		c.must("POST", "/"+st.Kind, stepBody("case", st.Step()), http.StatusCreated)
	}
	ask := func() {
		t.Helper()
		if resp := c.must("POST", "/query", map[string]any{"session": "case", "query": q7, "no_cache": true}, http.StatusOK); resp["result_cached"] == true {
			t.Fatal("Q7 was answered from the result cache; the walk needs it evaluated")
		}
	}
	plan := ispider.IntersectionPlan()

	c.must("POST", "/sessions/case/restore", nil, http.StatusOK)
	if l := layer(); l != (layerStats{}) {
		t.Fatalf("a restored session starts with %+v", l)
	}
	step(plan[0])
	ask()
	walked := layer()
	if walked.misses == 0 || walked.entries == 0 || walked.replays != 0 {
		t.Fatalf("Q7 left %+v; it joins, and has not been evaluated before", walked)
	}
	step(plan[1])
	ask()
	recorded := layer()
	if recorded.misses != walked.misses || recorded.hits == walked.hits || recorded.entries != walked.entries || recorded.replays != 0 {
		t.Errorf("second Q7: %+v after %+v; want no index built, every one hit, no entry more or less", recorded, walked)
	}
	step(plan[2])
	ask()
	replayed := layer()
	if replayed != (layerStats{recorded.hits, recorded.misses, 1, recorded.entries, 0}) {
		t.Errorf("third Q7: %+v after %+v; want its run replayed, no index looked up or built, every entry kept", replayed, recorded)
	}
	hits, misses, entries := replayed.hits, replayed.misses, replayed.entries

	body, _ := scrape(t, c, "/metrics", "")
	for _, want := range []string{
		`automed_cache_entries{layer="join_index"} ` + strconv.Itoa(int(entries)),
		`automed_cache_hits_total{layer="join_index"} ` + strconv.Itoa(int(hits)),
		`automed_cache_misses_total{layer="join_index"} ` + strconv.Itoa(int(misses)),
		`automed_cache_invalidations_total{layer="join_index"} 0`,
		`automed_cache_replays_total{layer="join_index"} 1`,
		`automed_cache_bytes{layer="join_index"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
}
