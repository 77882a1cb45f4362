package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dataspace/automed/internal/core"
	"github.com/dataspace/automed/internal/ispider"
	"github.com/dataspace/automed/internal/wrapper"
)

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

// TestStepThroughTheIntegratorRetiresAnswers: answers are addressed by
// what the processor derives them from, not by the session's step
// methods. A step taken on the core.Integrator directly gives the
// answers over what it derives new addresses, so the latest query after
// it is evaluated again; an answer it did not touch is still served, at
// the new version. So it goes for a refinement through the handler, and
// a query pinned to an earlier version that resolves alike is answered
// from the cache.
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

	c.must("POST", "/refine", map[string]any{"name": "ubook3", "mapping": map[string]any{
		"target":  "<<UBook>>",
		"forward": []map[string]any{{"source": "Library", "query": "[{'LIB3', k} | k <- <<books>>]"}},
	}}, http.StatusCreated)
	if got := c.must("POST", "/query", isbn, http.StatusOK); !got["result_cached"].(bool) {
		t.Fatal("warm answer for untouched scheme was not served after an unrelated refinement")
	}
	got = c.must("POST", "/query", entity, http.StatusOK)
	if got["result_cached"].(bool) || got["value"].(float64) != 12 {
		t.Fatalf("count(<<UBook>>) after the refinement = %v (cached %v), want 12 evaluated", got["value"], got["result_cached"])
	}
	pinned := c.must("POST", "/query", map[string]any{"query": "count(<<UBook>>)", "version": 1}, http.StatusOK)
	if !pinned["result_cached"].(bool) || pinned["version"].(float64) != 1 || pinned["value"].(float64) != 12 {
		t.Fatalf("count(<<UBook>>) at version 1 = %v (cached %v, version %v), want 12 from the cache at version 1",
			pinned["value"], pinned["result_cached"], pinned["version"])
	}

	m := c.must("GET", "/metrics", nil, http.StatusOK)
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

// fetches is how many provider calls the daemon's sources have taken.
func fetches(s *Server) (n uint64) {
	for _, src := range s.Metrics().Sources().Snapshot() {
		n += src.Fetches
	}
	return n
}

// table1 asks a session every Table 1 query at the latest version and
// returns the responses as the oracle compares them, the session's name
// left out.
func table1(c *testClient, session string) []string {
	var out []string
	for _, q := range ispider.Table1Queries() {
		status, body := ask(c, "POST", "/query", map[string]any{"session": session, "query": q.IQL})
		out = append(out, fmt.Sprintf("%d %s", status, strings.Replace(body, `"session":"`+session+`",`, "", 1)))
	}
	return out
}

// sharedSources are the case study's sources at the oracle's size, and
// a server with two sessions over them, federated.
func sharedSources(t *testing.T) (*Server, *testClient) {
	s, c := newTestClient(t, DefaultConfig())
	pedro, gpmdb, pepseeker, err := ispider.Wrappers(oracleCase)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		newSessionOver(t, s, name, []wrapper.Wrapper{pedro, gpmdb, pepseeker})
		c.must("POST", "/federate", map[string]any{"session": name, "name": "F"}, http.StatusCreated)
	}
	return s, c
}

// TestSessionsShareAddressedCaches: sessions over the same source
// instances answer from one set of caches. While a takes the plan's
// steps, b, already past them, answers as it did before them; once a is
// past them too, its Table 1 answers are b's, byte for byte, and no
// source is asked for anything. make flake runs it thirty times under
// -race.
func TestSessionsShareAddressedCaches(t *testing.T) {
	s, c := sharedSources(t)
	plan := ispider.IntersectionPlan()
	for _, st := range plan {
		c.must("POST", "/"+st.Kind, stepBody("b", st.Step()), http.StatusCreated)
	}
	want := table1(c, "b")
	for i, answer := range want {
		if !strings.HasPrefix(answer, "200 ") {
			t.Fatalf("b's Q%d: %s", i+1, answer)
		}
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				if got := table1(c, "b"); !slices.Equal(got, want) {
					t.Errorf("b while a steps: %v, want %v", got, want)
					return
				}
			}
		}()
	}
	for _, st := range plan {
		c.must("POST", "/"+st.Kind, stepBody("a", st.Step()), http.StatusCreated)
	}
	done.Store(true)
	wg.Wait()
	before := fetches(s)
	if got := table1(c, "a"); !slices.Equal(got, want) {
		t.Errorf("a past the plan: %v, want b's %v", got, want)
	}
	if n := fetches(s) - before; n != 0 {
		t.Errorf("a's Table 1 took %d fetches, want none: b read every extent it needs", n)
	}
}

// TestInvalidateReachesSharingSessions: /invalidate on one session makes
// the next read of its sources a fetch, through any session over them,
// whatever was cached over them: b's answer is evaluated again.
func TestInvalidateReachesSharingSessions(t *testing.T) {
	s, c := sharedSources(t)
	q := func(session string) map[string]any {
		return map[string]any{"session": session, "query": "count(<<pedro_protein>>)"}
	}
	c.must("POST", "/query", q("a"), http.StatusOK)
	before := fetches(s)
	if got := c.must("POST", "/query", q("b"), http.StatusOK); !got["result_cached"].(bool) || fetches(s) != before {
		t.Fatalf("b's first query = %v, fetching %d: want a's answer, from the cache", got, fetches(s)-before)
	}
	c.must("POST", "/sessions/a/invalidate", nil, http.StatusOK)
	if got := c.must("POST", "/query", q("b"), http.StatusOK); got["result_cached"].(bool) || fetches(s) == before {
		t.Errorf("b's query after a's /invalidate = %v, fetching %d: want it evaluated over a fetch", got, fetches(s)-before)
	}
}

// TestRestoreFindsTheCachesWarm: a session restored from its file over
// the sources it took over answers its first query with no wrapper
// fetch.
func TestRestoreFindsTheCachesWarm(t *testing.T) {
	s, c := newTestClient(t, DefaultConfig())
	if err := s.OpenStore(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	pedro, gpmdb, pepseeker, err := ispider.Wrappers(oracleCase)
	if err != nil {
		t.Fatal(err)
	}
	newSessionOver(t, s, "h", []wrapper.Wrapper{pedro, gpmdb, pepseeker})
	c.must("POST", "/federate", map[string]any{"session": "h", "name": "F"}, http.StatusCreated)
	for _, st := range ispider.IntersectionPlan() {
		c.must("POST", "/"+st.Kind, stepBody("h", st.Step()), http.StatusCreated)
	}
	want := table1(c, "h")
	c.must("POST", "/sessions/h/restore", nil, http.StatusOK)
	before := fetches(s)
	if got := table1(c, "h")[0]; got != want[0] {
		t.Errorf("the restored session answers %s, want %s", got, want[0])
	}
	if n := fetches(s) - before; n != 0 {
		t.Errorf("the restored session's first query took %d fetches, want none", n)
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

// TestOldVersionsReadWhileStepsLand: four clients read every published
// version — each version's objects from /schemas, and Table 1 asked at
// the version with explain, which resolves the query's references in
// that version — while the plan's steps land. Each reads the version
// as a session that took the steps one by one does: a version's
// objects byte for byte, an answer with its explanation one that
// session gives at that version once it is published. Versions share
// their structure and are read outside the integrator's lock, so under
// -race (make flake) this is also the check that publishing a version
// writes nothing an older one reads.
func TestOldVersionsReadWhileStepsLand(t *testing.T) {
	var queries []string
	for _, q := range ispider.Table1Queries() {
		queries = append(queries, q.IQL)
	}
	start := func() *testClient {
		s, c := newTestClient(t, DefaultConfig())
		pedro, gpmdb, pepseeker, err := ispider.Wrappers(oracleCase)
		if err != nil {
			t.Fatal(err)
		}
		newSessionOver(t, s, "h", []wrapper.Wrapper{pedro, gpmdb, pepseeker})
		c.must("POST", "/federate", map[string]any{"session": "h", "name": "F"}, http.StatusCreated)
		return c
	}
	type version = struct {
		Version int      `json:"version"`
		Name    string   `json:"name"`
		Objects []string `json:"objects"`
	}
	versions := func(c *testClient) []version {
		_, out := inProcess(c, "GET", "/schemas?session=h", nil)
		var doc struct {
			Versions []version `json:"versions"`
		}
		if err := json.Unmarshal(out, &doc); err != nil {
			t.Error(err)
		}
		return doc.Versions
	}
	explained := func(c *testClient, v, j int) string {
		status, answer := ask(c, "POST", "/query", map[string]any{"session": "h", "query": queries[j], "version": v, "explain": true})
		return fmt.Sprintf("%d %s", status, answer)
	}
	plan := ispider.IntersectionPlan()

	// The reference takes the steps one by one and reads every version
	// after each.
	objects := make(map[int]string)
	answers := make(map[string]bool)
	rc := start()
	for i := 0; i <= len(plan); i++ {
		if i > 0 {
			rc.must("POST", "/"+plan[i-1].Kind, stepBody("h", plan[i-1].Step()), http.StatusCreated)
		}
		for _, v := range versions(rc) {
			raw, _ := json.Marshal(v)
			objects[v.Version] = string(raw)
			for j := range queries {
				answers[fmt.Sprintf("%d %d %s", v.Version, j, explained(rc, v.Version, j))] = true
			}
		}
	}

	c := start()
	var passes atomic.Int64
	var done atomic.Bool
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for last := false; !last; {
				last = done.Load()
				vs := versions(c)
				for k, v := range vs {
					if raw, _ := json.Marshal(v); string(raw) != objects[v.Version] {
						t.Errorf("client %d: /schemas lists %s, the reference %s", g, raw, objects[v.Version])
						return
					}
					j := (g + k + int(passes.Load())) % len(queries)
					if got := explained(c, v.Version, j); !answers[fmt.Sprintf("%d %d %s", v.Version, j, got)] {
						t.Errorf("client %d: %s at version %d = %.600s; the reference gives no such answer", g, queries[j], v.Version, got)
						return
					}
				}
				passes.Add(1)
			}
		}()
	}
	for _, st := range plan {
		// Every client is reading while the step lands.
		for seen := passes.Load(); passes.Load() < seen+4 && !t.Failed(); {
			runtime.Gosched()
		}
		c.must("POST", "/"+st.Kind, stepBody("h", st.Step()), http.StatusCreated)
	}
	done.Store(true)
	wg.Wait()
}
