package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dataspace/automed/internal/core"
	"github.com/dataspace/automed/internal/ispider"
	"github.com/dataspace/automed/internal/wrapper"
)

// TestSelectiveResultInvalidation verifies the serving-layer half of
// the cache tentpole: a warm answer for a scheme an iteration did not
// touch stays live in the result cache across the new schema version,
// while a warm answer for a touched scheme is evicted and recomputed
// with the new derivations.
func TestSelectiveResultInvalidation(t *testing.T) {
	_, c := newTestClient(t, DefaultConfig())
	registerBookstore(c, "", 3)
	c.must("POST", "/federate", map[string]any{}, http.StatusCreated)
	c.must("POST", "/intersect", map[string]any{"name": "I1", "mappings": ubookMappings}, http.StatusCreated)

	// Both probes at the latest version: an answer is cached under the
	// resolved query, which no iteration here changes.
	isbn := map[string]any{"query": "count(<<UBook, isbn>>)"}
	entity := map[string]any{"query": "count(<<UBook>>)"}

	if r := c.must("POST", "/query", isbn, http.StatusOK); r["result_cached"].(bool) {
		t.Fatal("first isbn query unexpectedly cached")
	}
	if r := c.must("POST", "/query", isbn, http.StatusOK); !r["result_cached"].(bool) {
		t.Fatal("repeat isbn query missed the result cache")
	}
	first := c.must("POST", "/query", entity, http.StatusOK)
	if first["value"].(float64) != 6 {
		t.Fatalf("count(UBook) = %v, want 6", first["value"])
	}
	c.must("POST", "/query", entity, http.StatusOK)

	// An iteration that touches only <<UBook>>: a new Library-side
	// derivation for the entity. <<UBook, isbn>> is untouched.
	c.must("POST", "/refine", map[string]any{
		"name": "ubook2",
		"mapping": map[string]any{
			"target": "<<UBook>>",
			"forward": []map[string]any{
				{"source": "Library", "query": "[{'LIB2', k} | k <- <<books>>]"},
			},
		},
	}, http.StatusCreated)

	// Untouched scheme: the warm answer survived the iteration.
	surv := c.must("POST", "/query", isbn, http.StatusOK)
	if !surv["result_cached"].(bool) {
		t.Fatal("warm answer for untouched scheme was evicted by an unrelated iteration")
	}
	// Touched scheme: the stale answer was evicted; the recomputation
	// sees the new derivation (3 more books), and a query pinned to
	// version 1 is answered alike from the cache (derivations are
	// global; versions pin schema membership).
	rec := c.must("POST", "/query", entity, http.StatusOK)
	if rec["result_cached"].(bool) {
		t.Fatal("stale answer for touched scheme served from the result cache")
	}
	if rec["value"].(float64) != 9 {
		t.Fatalf("count(UBook) after refine = %v, want 9", rec["value"])
	}
	pinned := c.must("POST", "/query", map[string]any{"query": "count(<<UBook>>)", "version": 1}, http.StatusOK)
	if !pinned["result_cached"].(bool) || pinned["version"].(float64) != 1 || pinned["value"].(float64) != 9 {
		t.Fatalf("count(UBook) at version 1 = %v (cached %v, version %v), want 9 from the cache at version 1",
			pinned["value"], pinned["result_cached"], pinned["version"])
	}

	// The metrics surface the new cache layers and invalidation work.
	m := c.must("GET", "/metrics", nil, http.StatusOK)
	rc := m["result_cache"].(map[string]any)
	if rc["invalidations"].(float64) < 1 {
		t.Fatalf("result cache invalidations = %v, want >= 1", rc["invalidations"])
	}
	for _, layer := range []string{"extent_cache", "source_extent_cache"} {
		lc, ok := m[layer].(map[string]any)
		if !ok {
			t.Fatalf("/metrics lacks %s", layer)
		}
		if lc["bytes"].(float64) <= 0 {
			t.Fatalf("%s bytes = %v, want > 0", layer, lc["bytes"])
		}
	}
	if m["cache_bytes_total"].(float64) <= 0 {
		t.Fatalf("cache_bytes_total = %v, want > 0", m["cache_bytes_total"])
	}
}

// TestResultCacheByteBudget verifies the -cache-bytes budget reaches
// the per-session result cache: a tiny budget forces evictions instead
// of unbounded growth.
func TestResultCacheByteBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheBytes = 2 << 10 // 2 KiB: a handful of small answers
	srv, c := newTestClient(t, cfg)
	registerBookstore(c, "", 50)
	c.must("POST", "/federate", map[string]any{}, http.StatusCreated)
	c.must("POST", "/intersect", map[string]any{"name": "I1", "mappings": ubookMappings}, http.StatusCreated)

	// Distinct large-ish answers until the budget must evict.
	for _, q := range []string{
		"<<UBook, isbn>>", "<<UBook>>", "[x | {k, x} <- <<UBook, isbn>>]",
		"<<library_books, title>>", "<<shop_items, barcode>>",
	} {
		c.must("POST", "/query", map[string]any{"query": q}, http.StatusOK)
	}
	sess, err := srv.Sessions().Get("default", false)
	if err != nil {
		t.Fatal(err)
	}
	st := sess.ResultCacheStats()
	if st.Bytes > cfg.CacheBytes {
		t.Fatalf("result cache bytes %d exceed budget %d", st.Bytes, cfg.CacheBytes)
	}
	if st.Evictions+st.Oversize == 0 {
		t.Fatalf("no evictions under a %d-byte budget: %+v", cfg.CacheBytes, st)
	}
}

// TestStepThroughTheIntegratorRetiresAnswers: the result cache follows
// the processor, not the session's step methods. A step taken on the
// core.Integrator directly evicts the answers over what it derives, so
// the latest query after it is evaluated again; an answer it did not
// touch is still served, at the new version.
func TestStepThroughTheIntegratorRetiresAnswers(t *testing.T) {
	s, c := newTestClient(t, DefaultConfig())
	registerBookstore(c, "", 3)
	c.must("POST", "/federate", map[string]any{}, http.StatusCreated)
	c.must("POST", "/intersect", map[string]any{"name": "I1", "mappings": ubookMappings}, http.StatusCreated)
	entity := map[string]any{"query": "count(<<UBook>>)"}
	isbn := map[string]any{"query": "count(<<UBook, isbn>>)"}
	for _, q := range []map[string]any{entity, isbn, entity, isbn} {
		c.must("POST", "/query", q, http.StatusOK)
	}

	sess, err := s.Sessions().Get("default", false)
	if err != nil {
		t.Fatal(err)
	}
	ig, err := sess.integrator()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ig.Intersect("I2", []core.Mapping{core.Entity("<<UBook>>",
		core.From("Library", "[{'LIB2', k} | k <- <<books>>]"))}); err != nil {
		t.Fatal(err)
	}

	got := c.must("POST", "/query", entity, http.StatusOK)
	if got["result_cached"].(bool) || got["value"].(float64) != 9 || got["version"].(float64) != 2 {
		t.Fatalf("count(<<UBook>>) after I2 = %v (cached %v, version %v), want 9 evaluated at version 2",
			got["value"], got["result_cached"], got["version"])
	}
	got = c.must("POST", "/query", isbn, http.StatusOK)
	if !got["result_cached"].(bool) || got["value"].(float64) != 6 || got["version"].(float64) != 2 {
		t.Fatalf("count(<<UBook, isbn>>) after I2 = %v (cached %v, version %v), want 6 from the cache at version 2",
			got["value"], got["result_cached"], got["version"])
	}
}

// TestRecoveredSourceRetiresDegradedAnswers: an answer evaluated over a
// stale fallback extent while a source was down leaves the result cache
// when the source recovers. The breaker's probe invalidates the source's
// extents, and the cached answers over them go with them.
func TestRecoveredSourceRetiresDegradedAnswers(t *testing.T) {
	cfg := robustCfg()
	cfg.Breaker.OpenFor = time.Millisecond
	s, c := newTestClient(t, cfg)
	c.must("POST", "/sources", map[string]any{
		"name": "Flaky",
		"fault": map[string]any{
			"tables": []map[string]any{{
				"name":    "items",
				"columns": []string{"id:int", "label"},
				"rows":    [][]any{{0, "x"}, {1, "y"}},
			}},
			// Three healthy fetches, three failing ones, and so on.
			"config": map[string]any{"flap_up": 3, "flap_down": 3},
		},
	}, http.StatusCreated)
	c.must("POST", "/federate", map[string]any{"name": "F"}, http.StatusCreated)
	sess, err := s.Sessions().Get("default", false)
	if err != nil {
		t.Fatal(err)
	}
	q := map[string]any{"query": "count(<<flaky_items>>)"}
	// The three healthy fetches, the last leaving the fallback copy.
	for range 3 {
		sess.InvalidateExtents()
		c.must("POST", "/query", q, http.StatusOK)
	}
	// The three failing fetches, the last opening the breaker.
	for range 3 {
		sess.InvalidateExtents()
		degraded := c.must("POST", "/query", q, http.StatusOK)
		if degraded["degraded"] != true || degraded["value"].(float64) != 2 {
			t.Fatalf("answer while Flaky is down = %v, want the stale 2, degraded", degraded)
		}
	}
	if again := c.must("POST", "/query", q, http.StatusOK); again["degraded"] != true || again["result_cached"] != true {
		t.Fatalf("repeat while Flaky is down = %v, want the degraded answer from the cache", again)
	}

	// Past the open interval, the probe's fetch is the next healthy one.
	time.Sleep(5 * time.Millisecond)
	if n := sess.Probe(context.Background()); n != 1 {
		t.Fatalf("Probe recovered %d sources, want 1: %v", n, sess.SourceHealth())
	}
	fresh := c.must("POST", "/query", map[string]any{"query": "count(<<flaky_items>>)", "no_cache": true}, http.StatusOK)
	if fresh["degraded"] == true {
		t.Fatalf("no_cache answer after recovery = %v, want healthy", fresh)
	}
	cached := c.must("POST", "/query", q, http.StatusOK)
	if cached["degraded"] == true || cached["warnings"] != nil || cached["value"].(float64) != 2 {
		t.Fatalf("answer after recovery = %v, want healthy; the degraded one outlived the recovery", cached)
	}
}

// TestRefusedCollidingStepChangesNothing: a step whose target names an
// object of the federated schema is refused before it defines anything,
// so the session answers and steps on as if it had not been asked.
func TestRefusedCollidingStepChangesNothing(t *testing.T) {
	_, c := newTestClient(t, DefaultConfig())
	registerBookstore(c, "", 3)
	c.must("POST", "/federate", map[string]any{}, http.StatusCreated)
	count := func(after string) {
		t.Helper()
		got := c.must("POST", "/query", map[string]any{"query": "count(<<library_books>>)", "version": 0, "no_cache": true}, http.StatusOK)
		if got["value"].(float64) != 3 {
			t.Fatalf("count(<<library_books>>) at version 0 after %s = %v, want 3", after, got["value"])
		}
	}
	count("federation")
	colliding := map[string]any{"target": "<<library_books>>", "forward": []map[string]any{
		{"source": "Library", "query": "[{'LIB', k} | k <- <<books>>]"},
	}}
	c.must("POST", "/refine", map[string]any{"name": "R1", "mapping": colliding}, http.StatusConflict)
	count("a refused refinement")
	c.must("POST", "/intersect", map[string]any{"name": "I1", "mappings": []map[string]any{colliding}}, http.StatusConflict)
	count("a refused intersection")

	c.must("POST", "/intersect", map[string]any{"name": "I1", "mappings": ubookMappings}, http.StatusCreated)
	if got := c.must("GET", "/schemas", nil, http.StatusOK)["current_version"].(float64); got != 1 {
		t.Fatalf("current_version after the refusals and one step = %v, want 1", got)
	}
	count("the next step")
}

// TestLatestAnswersWhileStepsLand: eight clients ask Table 1 at the
// latest version, the result cache on, while the plan's steps land.
// Every answer is the one a cacheless session gives at the version the
// answer names, byte for byte; a refusal is one it gives at some
// version. Under -race (make flake) this is also the check that a
// resolution, its lookup and its evaluation see one version.
func TestLatestAnswersWhileStepsLand(t *testing.T) {
	var queries []string
	for _, q := range ispider.Table1Queries() {
		queries = append(queries, q.IQL)
	}
	start := func(cfg Config) *testClient {
		s, c := newTestClient(t, cfg)
		pedro, gpmdb, pepseeker, err := ispider.Wrappers(oracleCase)
		if err != nil {
			t.Fatal(err)
		}
		newSessionOver(t, s, "h", []wrapper.Wrapper{pedro, gpmdb, pepseeker})
		c.must("POST", "/federate", map[string]any{"session": "h", "name": "F"}, http.StatusCreated)
		return c
	}
	body := func(q string) map[string]any { return map[string]any{"session": "h", "query": q} }
	plan := ispider.IntersectionPlan()

	// The reference takes the steps one by one and is asked after each.
	want := make([]map[string]bool, len(queries))
	for i := range want {
		want[i] = make(map[string]bool)
	}
	rc := start(Config{QueryTimeout: DefaultConfig().QueryTimeout, CacheBytes: 1})
	for i := 0; i <= len(plan); i++ {
		if i > 0 {
			rc.must("POST", "/"+plan[i-1].Kind, stepBody("h", plan[i-1].Step()), http.StatusCreated)
		}
		for j, q := range queries {
			status, answer := ask(rc, "POST", "/query", body(q))
			want[j][fmt.Sprintf("%d %s", status, answer)] = true
		}
	}

	c := start(DefaultConfig())
	var passes atomic.Int64
	var done atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for last := false; !last; {
				last = done.Load()
				for k := range queries {
					j := (g + k) % len(queries)
					raw, err := json.Marshal(body(queries[j]))
					if err != nil {
						t.Error(err)
						return
					}
					resp, err := c.srv.Client().Post(c.srv.URL+"/query", "application/json", bytes.NewReader(raw))
					if err != nil {
						t.Error(err)
						return
					}
					out, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						t.Error(err)
						return
					}
					got := fmt.Sprintf("%d %s", resp.StatusCode, volatile.ReplaceAllString(string(out), ""))
					if !want[j][got] {
						t.Errorf("client %d: %s = %.600s; the cacheless session gives no such answer at any version", g, queries[j], got)
						return
					}
				}
				passes.Add(1)
			}
		}(g)
	}
	for _, st := range plan {
		// Every client is asking while the step lands.
		for seen := passes.Load(); passes.Load() < seen+8 && !t.Failed(); {
			runtime.Gosched()
		}
		c.must("POST", "/"+st.Kind, stepBody("h", st.Step()), http.StatusCreated)
	}
	done.Store(true)
	wg.Wait()
}
