package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"testing"
)

// stepRow is one workflow step endpoint in the table TestStepEndpoints
// walks: a body that succeeds against the bookstore session at that
// point of the workflow, and what success must leave behind.
type stepRow struct {
	path string
	body map[string]any
	// status is the success status.
	status int
	// creates marks the endpoint that creates its session, so an
	// unknown session name is not a 404 there.
	creates bool
	// iterates says whether success counts as an integration iteration.
	iterates bool
	// saved checks the snapshot the step autosaved; nil means the step
	// does not mutate and must not write one.
	saved func(*sessionState) bool
}

var stepRows = []stepRow{
	{
		path: "/sources",
		body: map[string]any{"name": "Shop", "tables": []map[string]any{{
			"name":    "items",
			"columns": []string{"sku", "barcode", "price:float"},
			"rows":    [][]any{{"S0", "978-0", 0.5}, {"S1", "978-1", 1.5}},
		}}},
		status:  http.StatusCreated,
		creates: true,
		saved:   func(st *sessionState) bool { return st.Integrator == nil && len(st.Sources) == 2 },
	},
	{
		path:   "/suggest",
		body:   map[string]any{"source_a": "Library", "source_b": "Shop"},
		status: http.StatusOK,
	},
	{
		path:     "/federate",
		body:     map[string]any{"name": "F"},
		status:   http.StatusCreated,
		iterates: true,
		saved:    func(st *sessionState) bool { return st.Integrator != nil && st.Integrator.GlobalVersion == 0 },
	},
	{
		path:     "/intersect",
		body:     map[string]any{"name": "I1", "mappings": ubookMappings},
		status:   http.StatusCreated,
		iterates: true,
		saved:    func(st *sessionState) bool { return journaled(st, "I1") },
	},
	{
		path: "/refine",
		body: map[string]any{"name": "prices", "mapping": map[string]any{
			"target": "<<UBook, price>>",
			"forward": []map[string]any{
				{"source": "Shop", "query": "[{'SHOP', k, x} | {k, x} <- <<items, price>>]"},
			},
		}},
		status:   http.StatusCreated,
		iterates: true,
		saved:    func(st *sessionState) bool { return journaled(st, "I1", "prices") },
	},
}

// journaled reports whether a session file is the federation's
// checkpoint followed by the records of the named steps.
func journaled(st *sessionState, steps ...string) bool {
	if st.Integrator == nil || st.Integrator.GlobalVersion != 0 || len(st.steps) != len(steps) {
		return false
	}
	for i, name := range steps {
		if st.steps[i].Name != name {
			return false
		}
	}
	return true
}

// postRaw posts a JSON body and returns the status and headers; the
// rejection cells check Retry-After, which testClient.do drops.
func postRaw(t *testing.T, c *testClient, path string, body any) (int, http.Header) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.srv.Client().Post(c.srv.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode, resp.Header
}

// TestStepEndpoints walks the five workflow step endpoints, which share
// one path through the server, across everything that path decides: a
// body with an unknown field is a 400, an unknown session a 404 (201
// where the endpoint creates it), a full admission queue a 429 and a
// draining server a 503, both with Retry-After and neither running the
// step; success answers the endpoint's status, autosaves the mutated
// session (and only a mutated one), and counts an integration iteration
// for federate, intersect and refine but not for sources or suggest.
func TestStepEndpoints(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInflight, cfg.MaxQueue = 1, 0
	s, c := newTestClient(t, cfg)
	if err := s.OpenStore(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	c.must("POST", "/sources", map[string]any{"name": "Library", "tables": []map[string]any{{
		"name":    "books",
		"columns": []string{"id:int", "isbn", "title"},
		"rows":    [][]any{{0, "978-0", "Book 0"}, {1, "978-1", "Book 1"}},
	}}}, http.StatusCreated)

	for _, row := range stepRows {
		if status, _ := postRaw(t, c, row.path, map[string]any{"no_such_field": true}); status != http.StatusBadRequest {
			t.Errorf("%s with an unknown field = %d, want 400", row.path, status)
		}
		ghost := map[string]any{"session": "ghost" + row.path}
		for k, v := range row.body {
			ghost[k] = v
		}
		want := http.StatusNotFound
		if row.creates {
			want = row.status
		}
		if status, _ := postRaw(t, c, row.path, ghost); status != want {
			t.Errorf("%s on an unknown session = %d, want %d", row.path, status, want)
		}
	}

	release, _, err := s.adm.acquire(context.Background(), "default")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range stepRows {
		status, hdr := postRaw(t, c, row.path, row.body)
		if status != http.StatusTooManyRequests || hdr.Get("Retry-After") == "" {
			t.Errorf("%s over capacity = %d (Retry-After %q), want 429 with Retry-After", row.path, status, hdr.Get("Retry-After"))
		}
	}
	release()

	// The rejected steps must not have run: the workflow succeeds from
	// the start, in order.
	counters := func() (iterations, snapshots float64) {
		m := c.must("GET", "/metrics", nil, http.StatusOK)
		return m["integration_iterations"].(float64), m["snapshots_total"].(float64)
	}
	for _, row := range stepRows {
		iterBefore, snapBefore := counters()
		if status, _ := postRaw(t, c, row.path, row.body); status != row.status {
			t.Fatalf("%s = %d, want %d", row.path, status, row.status)
		}
		iterAfter, snapAfter := counters()
		wantIter := 0.0
		if row.iterates {
			wantIter = 1
		}
		if d := iterAfter - iterBefore; d != wantIter {
			t.Errorf("%s moved integration_iterations by %v, want %v", row.path, d, wantIter)
		}
		if row.saved == nil {
			if snapAfter != snapBefore {
				t.Errorf("%s wrote %v snapshots, want none", row.path, snapAfter-snapBefore)
			}
			continue
		}
		if snapAfter-snapBefore != 1 {
			t.Errorf("%s wrote %v snapshots, want 1", row.path, snapAfter-snapBefore)
		}
		if state, err := loadState(s.Store(), "default"); err != nil || !row.saved(state) {
			t.Errorf("%s: autosaved snapshot does not show the step: %+v (%v)", row.path, state, err)
		}
	}

	// A rejected step leaves nothing behind: an intersection refused at
	// its second source is a 400 that writes nothing, and the checkpoint
	// taken after it is the one taken before.
	c.must("POST", "/sessions/default/snapshot", nil, http.StatusOK)
	saved, err := os.ReadFile(s.Store().Path("default"))
	if err != nil {
		t.Fatal(err)
	}
	status, _ := postRaw(t, c, "/intersect", map[string]any{"name": "I2", "mappings": []map[string]any{{
		"target": "<<UItem>>",
		"forward": []map[string]any{
			{"source": "Library", "query": "[{'LIB', k} | k <- <<books>>]"},
			{"source": "Shop", "query": "[{'SHOP', k} | k <- <<no_such_table>>]"},
		},
	}}})
	if status != http.StatusBadRequest {
		t.Fatalf("/intersect naming a missing object = %d, want 400", status)
	}
	if after, err := os.ReadFile(s.Store().Path("default")); err != nil || !bytes.Equal(after, saved) {
		t.Errorf("a rejected /intersect wrote to the session file (%v)", err)
	}
	c.must("POST", "/sessions/default/snapshot", nil, http.StatusOK)
	if after, err := os.ReadFile(s.Store().Path("default")); err != nil || !bytes.Equal(after, saved) {
		t.Errorf("the checkpoint after a rejected /intersect differs from the one before it (%v):\n got %s\nwant %s", err, after, saved)
	}

	s.BeginDrain()
	for _, row := range stepRows {
		status, hdr := postRaw(t, c, row.path, row.body)
		if status != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
			t.Errorf("%s while draining = %d (Retry-After %q), want 503 with Retry-After", row.path, status, hdr.Get("Retry-After"))
		}
	}
}
