package server

import (
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dataspace/automed/internal/obs"
	"github.com/dataspace/automed/internal/query"
	"github.com/dataspace/automed/internal/wrapper"
)

// robustCfg is a breaker-enabled config with deterministic knobs: the
// breaker, once open, stays open (no timed retry), and background probes
// never fire on their own.
func robustCfg() Config {
	cfg := DefaultConfig()
	cfg.Breaker = query.BreakerConfig{
		Enabled:       true,
		OpenFor:       time.Hour,
		SourceTimeout: 5 * time.Second,
	}
	cfg.ProbeInterval = time.Hour
	return cfg
}

// registerFlakyPair registers a healthy inline source and a fault-wrapped
// one whose flap schedule serves exactly one healthy fetch (the warm-up
// query) and then fails indefinitely.
func registerFlakyPair(c *testClient) {
	c.must("POST", "/sources", map[string]any{
		"name": "Steady",
		"tables": []map[string]any{{
			"name":    "rows",
			"columns": []string{"id:int", "label"},
			"rows":    [][]any{{0, "a"}, {1, "b"}},
		}},
	}, http.StatusCreated)
	c.must("POST", "/sources", map[string]any{
		"name": "Flaky",
		"fault": map[string]any{
			"tables": []map[string]any{{
				"name":    "items",
				"columns": []string{"id:int", "label"},
				"rows":    [][]any{{0, "x"}, {1, "y"}},
			}},
			"config": map[string]any{"flap_up": 1, "flap_down": 1 << 20},
		},
	}, http.StatusCreated)
}

// setupDegraded federates Steady+Flaky, warms the Flaky extent cache
// through the fault wrapper's single healthy slot, then invalidates the
// session so the next fetch hits the now-failing source.
func setupDegraded(t *testing.T, cfg Config) (*Server, *testClient) {
	t.Helper()
	s, c := newTestClient(t, cfg)
	registerFlakyPair(c)
	c.must("POST", "/federate", map[string]any{"name": "F"}, http.StatusCreated)
	q := c.must("POST", "/query", map[string]any{"query": "count(<<flaky_items>>)"}, http.StatusOK)
	if q["value"].(float64) != 2 {
		t.Fatalf("warm count = %v, want 2", q["value"])
	}
	if q["degraded"] == true {
		t.Fatal("warm-up answer already degraded")
	}
	c.must("POST", "/sessions/default/invalidate", nil, http.StatusOK)
	return s, c
}

// TestPanicRecovery asserts the middleware converts a handler panic into
// a 500 JSON error carrying the request id, counts it, and leaves the
// server serving.
func TestPanicRecovery(t *testing.T) {
	s, c := newTestClient(t, DefaultConfig())
	s.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})

	status, out := c.do("GET", "/boom", nil)
	if status != http.StatusInternalServerError {
		t.Fatalf("panicking route = %d, want 500 (body: %v)", status, out)
	}
	msg, _ := out["error"].(string)
	if !strings.Contains(msg, "internal server error") {
		t.Errorf("panic error = %q, want it to mention an internal error", msg)
	}
	if rid, _ := out["request_id"].(string); rid == "" {
		t.Error("panic response is missing request_id")
	}

	// The server survived and counted the panic.
	c.must("GET", "/healthz", nil, http.StatusOK)
	m := c.must("GET", "/metrics?format=json", nil, http.StatusOK)
	if m["panics_total"].(float64) != 1 {
		t.Errorf("panics_total = %v, want 1", m["panics_total"])
	}
}

// TestStaleFallbackAndStrictMode drives the chaos drill over HTTP: a
// source goes hard-down after its extent was cached once. Queries keep
// answering from the stale extent with a degraded warning naming the
// source; strict requests refuse the degraded answer; health and
// metrics expose the open breaker.
func TestStaleFallbackAndStrictMode(t *testing.T) {
	_, c := setupDegraded(t, robustCfg())

	// Degraded answer: stale value, warning names the source. Three
	// fetches fail in a row, the third opening the breaker.
	var q map[string]any
	for i := range 3 {
		if i > 0 {
			c.must("POST", "/sessions/default/invalidate", nil, http.StatusOK)
		}
		q = c.must("POST", "/query", map[string]any{"query": "count(<<flaky_items>>)"}, http.StatusOK)
	}
	if q["value"].(float64) != 2 {
		t.Fatalf("degraded count = %v, want stale 2", q["value"])
	}
	if q["degraded"] != true {
		t.Fatalf("answer not marked degraded: %v", q)
	}
	warns, _ := q["warnings"].([]any)
	found := false
	for _, w := range warns {
		if s, _ := w.(string); query.IsDegraded(s) && strings.Contains(s, "Flaky") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no degraded warning naming Flaky in %v", warns)
	}

	// The healthy source is unaffected by its neighbour's outage.
	q = c.must("POST", "/query", map[string]any{"query": "count(<<steady_rows>>)"}, http.StatusOK)
	if q["degraded"] == true || q["value"].(float64) != 2 {
		t.Fatalf("healthy source answer = %v", q)
	}

	// Strict mode per request body and per header turns the degraded
	// answer into a 503.
	status, out := c.do("POST", "/query", map[string]any{
		"query": "count(<<flaky_items>>)", "require_fresh": true,
	})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("require_fresh degraded query = %d, want 503 (%v)", status, out)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "degraded") {
		t.Errorf("strict error = %q, want it to mention degradation", msg)
	}
	req, err := http.NewRequest("POST", c.srv.URL+"/query",
		strings.NewReader(`{"query": "count(<<flaky_items>>)"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Require-Fresh", "1")
	resp, err := c.srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("X-Require-Fresh degraded query = %d, want 503", resp.StatusCode)
	}

	// Health reports the open breaker and flips to degraded.
	h := c.must("GET", "/healthz", nil, http.StatusOK)
	if h["status"] != "degraded" {
		t.Fatalf("healthz status = %v, want degraded", h["status"])
	}
	sh, _ := h["source_health"].([]any)
	if len(sh) == 0 {
		t.Fatal("healthz has no source_health")
	}
	openSeen := false
	for _, e := range sh {
		sess := e.(map[string]any)
		for _, src := range sess["sources"].([]any) {
			m := src.(map[string]any)
			if m["source"] == "Flaky" && m["state"] == "open" {
				openSeen = true
			}
		}
	}
	if !openSeen {
		t.Fatalf("healthz does not report Flaky as open: %v", sh)
	}

	// A degraded server's exposition stays well-formed and carries the
	// breaker and degraded families, sample by sample: one opening, and
	// five degraded answers (the three stale ones and the two refused).
	body, _ := scrape(t, c, "/metrics", "")
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("invalid exposition while degraded: %v\n%s", err, body)
	}
	for _, want := range []string{
		`automed_source_breaker_open{session="default",source="Flaky"} 1`,
		`automed_source_breaker_opens_total{session="default",source="Flaky"} 1`,
		`automed_source_fallbacks_total{session="default",source="Flaky"}`,
		"automed_degraded_queries_total 5\n",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition lacks %q:\n%s", want, body)
		}
	}
}

// TestRequireFreshServerConfig proves the daemon-wide strict mode: with
// Config.RequireFresh set, a degraded answer is refused without any
// per-request opt-in.
func TestRequireFreshServerConfig(t *testing.T) {
	cfg := robustCfg()
	cfg.RequireFresh = true
	_, c := setupDegraded(t, cfg)
	status, out := c.do("POST", "/query", map[string]any{"query": "count(<<flaky_items>>)"})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("degraded query under -require-fresh = %d, want 503 (%v)", status, out)
	}
}

// TestDegradedFederationAndBackfill federates past an unreachable
// source, then heals it and probes: the source backfills into the
// federated schema and its schemes become queryable.
func TestDegradedFederationAndBackfill(t *testing.T) {
	cfg := robustCfg()
	cfg.MinFederatedSources = 1
	s, c := newTestClient(t, cfg)

	c.must("POST", "/sources", map[string]any{
		"name": "Steady",
		"tables": []map[string]any{{
			"name":    "rows",
			"columns": []string{"id:int", "label"},
			"rows":    [][]any{{0, "a"}, {1, "b"}},
		}},
	}, http.StatusCreated)
	c.must("POST", "/sources", map[string]any{
		"name": "Flaky",
		"fault": map[string]any{
			"tables": []map[string]any{{
				"name":    "items",
				"columns": []string{"id:int", "label"},
				"rows":    [][]any{{0, "x"}, {1, "y"}},
			}},
			"config": map[string]any{"error_rate": 1},
		},
	}, http.StatusCreated)

	fed := c.must("POST", "/federate", map[string]any{"name": "F"}, http.StatusCreated)
	skipped, _ := fed["skipped_sources"].([]any)
	if len(skipped) != 1 || skipped[0] != "Flaky" {
		t.Fatalf("skipped_sources = %v, want [Flaky]", fed["skipped_sources"])
	}

	// The reachable subset answers; the skipped source's schemes are
	// absent until backfill.
	q := c.must("POST", "/query", map[string]any{"query": "count(<<steady_rows>>)"}, http.StatusOK)
	if q["value"].(float64) != 2 {
		t.Fatalf("count over reachable subset = %v, want 2", q["value"])
	}
	if status, _ := c.do("POST", "/query", map[string]any{"query": "count(<<flaky_items>>)"}); status == http.StatusOK {
		t.Fatal("skipped source's scheme answered before backfill")
	}
	h := c.must("GET", "/healthz", nil, http.StatusOK)
	if h["status"] != "degraded" {
		t.Fatalf("healthz status = %v, want degraded while a source is skipped", h["status"])
	}

	// The first health check launches a background probe whatever the
	// probe interval (the gate starts at zero). Let it finish against the
	// still-failing source: run after the heal below, it would backfill
	// first and leave the explicit probe nothing to recover.
	s.probeWG.Wait()

	// Heal the source and probe: backfill merges it into the federation.
	sess, err := s.reg.Get("default", false)
	if err != nil {
		t.Fatal(err)
	}
	fw, ok := sess.Wrapper("Flaky")
	if !ok {
		t.Fatal("Flaky wrapper not registered")
	}
	fw.(*wrapper.Fault).Set(wrapper.FaultConfig{})
	if n := sess.Probe(context.Background()); n != 1 {
		t.Fatalf("Probe recovered %d sources, want 1", n)
	}

	q = c.must("POST", "/query", map[string]any{"query": "count(<<flaky_items>>)"}, http.StatusOK)
	if q["value"].(float64) != 2 {
		t.Fatalf("post-backfill count = %v, want 2", q["value"])
	}
	h = c.must("GET", "/healthz", nil, http.StatusOK)
	if h["status"] != "ok" {
		t.Fatalf("healthz status after backfill = %v, want ok", h["status"])
	}
}

// TestReportListsBackfilledVersion: the version a backfill publishes is
// an iteration of /report, kind "backfill", counting the recovered
// source's objects as automatic renames as federation counts the
// others' — and still is once the session is saved and restored.
func TestReportListsBackfilledVersion(t *testing.T) {
	cfg := robustCfg()
	cfg.MinFederatedSources = 1
	s, c := newTestClient(t, cfg)
	if err := s.OpenStore(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	c.must("POST", "/sources", map[string]any{"name": "Steady", "tables": []map[string]any{{
		"name": "rows", "columns": []string{"id:int", "label"}, "rows": [][]any{{0, "a"}},
	}}}, http.StatusCreated)
	c.must("POST", "/sources", map[string]any{"name": "Flaky", "fault": map[string]any{
		"tables": []map[string]any{{"name": "items", "columns": []string{"id:int", "label"}, "rows": [][]any{{0, "x"}}}},
		"config": map[string]any{"error_rate": 1},
	}}, http.StatusCreated)
	c.must("POST", "/federate", map[string]any{"name": "F"}, http.StatusCreated)
	sess, err := s.reg.Get("default", false)
	if err != nil {
		t.Fatal(err)
	}
	fw, _ := sess.Wrapper("Flaky")
	fw.(*wrapper.Fault).Set(wrapper.FaultConfig{})
	if n := sess.Probe(context.Background()); n != 1 {
		t.Fatalf("Probe recovered %d sources, want 1", n)
	}
	backfilled := func(stage string) {
		t.Helper()
		its := c.must("GET", "/report", nil, http.StatusOK)["iterations"].([]any)
		fed, last := its[0].(map[string]any), its[len(its)-1].(map[string]any)
		if len(its) != 2 || last["name"] != "GS1" || last["kind"] != "backfill" || last["global_schema"] != "GS1" || last["auto"] != fed["auto"] {
			t.Fatalf("%s: /report lists %v, want federation and then GS1's backfill, as many objects as Steady's alike table", stage, its)
		}
	}
	backfilled("backfilled")
	c.must("POST", "/sessions/default/snapshot", nil, http.StatusOK)
	c.must("POST", "/sessions/default/restore", nil, http.StatusOK)
	backfilled("restored")
}

// TestSchemasReadWhileProbeBackfills: clients list /schemas while a
// probe backfills the source federation skipped. The backfill publishes
// a version and writes nothing the versions listed before it hold: each
// listing's version 0 is the one federation published. make flake runs
// it thirty times under the race detector.
func TestSchemasReadWhileProbeBackfills(t *testing.T) {
	cfg := robustCfg()
	cfg.MinFederatedSources = 1
	s, c := newTestClient(t, cfg)
	c.must("POST", "/sources", map[string]any{
		"name":   "Steady",
		"tables": []map[string]any{{"name": "rows", "columns": []string{"id:int", "label"}, "rows": [][]any{{0, "a"}}}},
	}, http.StatusCreated)
	c.must("POST", "/sources", map[string]any{
		"name": "Flaky",
		"fault": map[string]any{
			"tables": []map[string]any{{"name": "items", "columns": []string{"id:int", "label"}, "rows": [][]any{{0, "x"}}}},
			"config": map[string]any{"error_rate": 1},
		},
	}, http.StatusCreated)
	c.must("POST", "/federate", map[string]any{"name": "F"}, http.StatusCreated)
	type version = struct {
		Version int      `json:"version"`
		Objects []string `json:"objects"`
	}
	versions := func() []version {
		var doc struct {
			Versions []version `json:"versions"`
		}
		if _, out := inProcess(c, "GET", "/schemas", nil); json.Unmarshal(out, &doc) != nil || len(doc.Versions) == 0 {
			t.Errorf("/schemas = %s", out)
		}
		return doc.Versions
	}
	fed := versions()[0]
	sess, err := s.reg.Get("default", false)
	if err != nil {
		t.Fatal(err)
	}
	fw, _ := sess.Wrapper("Flaky")
	fw.(*wrapper.Fault).Set(wrapper.FaultConfig{})

	var done atomic.Bool
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for last := false; !last; {
				last = done.Load()
				if vs := versions(); len(vs) == 0 || !reflect.DeepEqual(vs[0], fed) {
					t.Errorf("/schemas lists version 0 as %v, not %v", vs, fed)
					return
				}
			}
		}()
	}
	if n := sess.Probe(context.Background()); n != 1 {
		t.Errorf("Probe recovered %d sources, want 1", n)
	}
	done.Store(true)
	wg.Wait()
	if vs := versions(); len(vs) != 2 || len(vs[1].Objects) != len(fed.Objects)+3 {
		t.Errorf("after the backfill /schemas lists %v; want version 0 and one holding Flaky's three objects too", vs)
	}
}

// TestDrainWaitsForProbe races health-check-launched background probes
// against Drain; the race detector checks the shutdown path, and Drain
// must not return before in-flight probes finish.
func TestDrainWaitsForProbe(t *testing.T) {
	cfg := robustCfg()
	cfg.ProbeInterval = time.Nanosecond // every health check launches a probe
	s, c := newTestClient(t, cfg)
	registerFlakyPair(c)
	c.must("POST", "/federate", map[string]any{"name": "F"}, http.StatusCreated)
	c.must("POST", "/query", map[string]any{"query": "count(<<flaky_items>>)"}, http.StatusOK)

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				c.do("GET", "/healthz", nil)
			}
		}()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait()
	if !s.Draining() {
		t.Fatal("server not draining after Drain")
	}
}

// TestSourceTimeoutWithoutBreakers: the per-source deadline bounds a
// fetch with the breakers off too, so a hanging source fails its query
// at the source deadline rather than the query's.
func TestSourceTimeoutWithoutBreakers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Breaker = query.BreakerConfig{SourceTimeout: 50 * time.Millisecond}
	cfg.QueryTimeout = 30 * time.Second
	_, c := newTestClient(t, cfg)
	c.must("POST", "/sources", map[string]any{
		"name": "Hung",
		"fault": map[string]any{
			"tables": []map[string]any{{"name": "items", "columns": []string{"id:int"}, "rows": [][]any{{0}}}},
			"config": map[string]any{"hang": true},
		},
	}, http.StatusCreated)
	c.must("POST", "/federate", map[string]any{"name": "F"}, http.StatusCreated)
	start := time.Now()
	status, out := c.do("POST", "/query", map[string]any{"query": "count(<<hung_items>>)"})
	if elapsed := time.Since(start); status == http.StatusOK || elapsed > 10*time.Second {
		t.Fatalf("a query over a hanging source = %d %v after %s; want it failed at the 50ms source deadline", status, out, elapsed)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "deadline") {
		t.Errorf("error = %q, want the source deadline", msg)
	}
}
