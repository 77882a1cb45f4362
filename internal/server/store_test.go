package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dataspace/automed/internal/core"
)

// newDurableClient builds a server with an open store over dir and
// restores whatever the dir already holds — the daemon startup path.
func newDurableClient(t *testing.T, dir string) (*Server, *testClient) {
	t.Helper()
	s, c := newTestClient(t, DefaultConfig())
	if err := s.OpenStore(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RestoreSessions(); err != nil {
		t.Fatal(err)
	}
	return s, c
}

// loadState reads one session's file from a store as a restore reads
// it, with no checkpoint held.
func loadState(st *Store, session string) (*sessionState, error) {
	return readState(st.Path(session), nil)
}

// upricedMappings is a second intersection iteration: both sources
// contribute the entity but only Shop prices it, so Library's image
// extends <<UPriced, price>> with Range Void Any and queries over it
// raise incompleteness warnings — the cached-warning replay path.
var upricedMappings = []map[string]any{
	{
		"target": "<<UPriced>>",
		"forward": []map[string]any{
			{"source": "Library", "query": "[{'LIB', k} | k <- <<books>>]"},
			{"source": "Shop", "query": "[{'SHOP', k} | k <- <<items>>]"},
		},
	},
	{
		"target": "<<UPriced, price>>",
		"forward": []map[string]any{
			{"source": "Shop", "query": "[{'SHOP', k, x} | {k, x} <- <<items, price>>]"},
		},
	},
}

// canonicalAnswer strips the volatile response fields (timing and
// cache outcomes legitimately differ across runs) and re-marshals;
// encoding/json sorts map keys, so equal answers yield equal bytes.
func canonicalAnswer(t *testing.T, resp map[string]any) string {
	t.Helper()
	delete(resp, "elapsed_us")
	delete(resp, "plan_cached")
	delete(resp, "result_cached")
	buf, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// TestSnapshotRestoreEndpoints exercises the explicit endpoints: a
// snapshot written by one server is brought live on another via
// POST /sessions/{name}/restore without a restart, and a server whose
// store opened after the mutations can still snapshot on demand.
func TestSnapshotRestoreEndpoints(t *testing.T) {
	dir := t.TempDir()

	// Server A: store open only now, after the workflow ran in memory.
	sA, cA := newTestClient(t, DefaultConfig())
	registerBookstore(cA, "", 2)
	cA.must("POST", "/federate", map[string]any{}, http.StatusCreated)
	cA.must("POST", "/intersect", map[string]any{"name": "I1", "mappings": ubookMappings}, http.StatusCreated)
	if err := sA.OpenStore(dir); err != nil {
		t.Fatal(err)
	}
	snap := cA.must("POST", "/sessions/default/snapshot", nil, http.StatusOK)
	if snap["version"].(float64) != 1 {
		t.Fatalf("snapshot version = %v, want 1", snap["version"])
	}
	if _, err := os.Stat(filepath.Join(dir, snap["file"].(string))); err != nil {
		t.Fatalf("snapshot file missing: %v", err)
	}

	// Server B: same store, nothing restored at startup — the restore
	// endpoint pulls the session in.
	sB, cB := newTestClient(t, DefaultConfig())
	if err := sB.OpenStore(dir); err != nil {
		t.Fatal(err)
	}
	status, _ := cB.do("POST", "/query", map[string]any{"query": "count(<<UBook>>)"})
	if status != http.StatusNotFound {
		t.Fatalf("query before restore = %d, want 404", status)
	}
	res := cB.must("POST", "/sessions/default/restore", nil, http.StatusOK)
	if !res["federated"].(bool) || res["version"].(float64) != 1 {
		t.Fatalf("restore response = %v", res)
	}
	q := cB.must("POST", "/query", map[string]any{"query": "count(<<UBook>>)"}, http.StatusOK)
	if q["value"].(float64) != 4 {
		t.Fatalf("restored session answered %v, want 4", q["value"])
	}
}

// TestSnapshotRestoreErrors covers the failure surface of the new
// endpoints.
func TestSnapshotRestoreErrors(t *testing.T) {
	// Without a store both endpoints refuse.
	_, c := newTestClient(t, DefaultConfig())
	registerBookstore(c, "", 2)
	status, _ := c.do("POST", "/sessions/default/snapshot", nil)
	if status != http.StatusConflict {
		t.Fatalf("snapshot without store = %d, want 409", status)
	}
	status, _ = c.do("POST", "/sessions/default/restore", nil)
	if status != http.StatusConflict {
		t.Fatalf("restore without store = %d, want 409", status)
	}

	dir := t.TempDir()
	s2, c2 := newDurableClient(t, dir)
	registerBookstore(c2, "", 2)
	status, _ = c2.do("POST", "/sessions/ghost/snapshot", nil)
	if status != http.StatusNotFound {
		t.Fatalf("snapshot of unknown session = %d, want 404", status)
	}
	status, _ = c2.do("POST", "/sessions/ghost/restore", nil)
	if status != http.StatusNotFound {
		t.Fatalf("restore of absent snapshot = %d, want 404", status)
	}

	// A corrupt snapshot fails restore with a clear error, and
	// RestoreSessions refuses to half-start.
	if err := os.WriteFile(s2.Store().Path("broken"), []byte(`{"format":1,"name":"broken","integrator":{"format":7}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	status, body := c2.do("POST", "/sessions/broken/restore", nil)
	if status != http.StatusInternalServerError {
		t.Fatalf("restore of corrupt snapshot = %d (%v), want 500", status, body)
	}
	if _, err := s2.RestoreSessions(); err == nil {
		t.Fatal("RestoreSessions loaded a corrupt snapshot without error")
	}

	// So does a good document followed by anything but white space: a
	// file is one JSON value, not whatever its first value happens to be.
	good, err := os.ReadFile(s2.Store().Path("default"))
	if err != nil {
		t.Fatal(err)
	}
	for name, tail := range map[string]string{"trailing-garbage": " garbage", "trailing-value": `{"format":1,"name":"x"}`, "trailing-space": " \n\t"} {
		doc := bytes.Replace(good, []byte(`"name":"default"`), []byte(`"name":"`+name+`"`), 1)
		if err := os.WriteFile(s2.Store().Path(name), append(bytes.TrimSpace(doc), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		want := http.StatusBadRequest
		if name == "trailing-space" {
			want = http.StatusOK
		}
		if status, body := c2.do("POST", "/sessions/"+name+"/restore", nil); status != want {
			t.Fatalf("restore of a snapshot with %s = %d (%v), want %d", name, status, body, want)
		}
	}
	for _, name := range []string{"trailing-garbage", "trailing-value"} {
		if err := os.Remove(s2.Store().Path(name)); err != nil {
			t.Fatal(err)
		}
	}

	// A snapshot whose embedded name disagrees with its file is
	// rejected rather than hijacking another session's slot.
	if err := os.WriteFile(s2.Store().Path("alias"), []byte(`{"format":1,"name":"other"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	status, _ = c2.do("POST", "/sessions/alias/restore", nil)
	if status != http.StatusBadRequest {
		t.Fatalf("restore of mis-named snapshot = %d, want 400", status)
	}
}

// TestStoreFileNames checks session names that are hostile as file
// names (path separators, dots) stay confined to the store directory.
func TestStoreFileNames(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"../escape", "a/b", "..", "x%2Fy", ".tmp-sneaky", "plain"} {
		p := st.Path(name)
		rel, err := filepath.Rel(dir, p)
		if err != nil || strings.Contains(rel, string(filepath.Separator)) || strings.HasPrefix(rel, ".") {
			t.Errorf("session %q maps outside the store: %s", name, p)
		}
	}
	// Distinct hostile names must not collide on disk.
	if st.Path("a/b") == st.Path("a%2Fb") {
		t.Error("distinct session names share a snapshot file")
	}
}

// TestOrphanedSessionDoesNotAutosave: once a restore has replaced a
// session in the registry, the replaced (orphaned) session's autosave
// must not overwrite the restored snapshot on disk.
func TestOrphanedSessionDoesNotAutosave(t *testing.T) {
	dir := t.TempDir()
	s, c := newDurableClient(t, dir)
	registerBookstore(c, "", 2)
	c.must("POST", "/federate", map[string]any{}, http.StatusCreated)

	orphan, err := s.Sessions().Get("default", false)
	if err != nil {
		t.Fatal(err)
	}
	// A restore swaps in a fresh session object under the same name,
	// as handleRestore does mid-flight of another request.
	if _, err := s.restoreSession("default"); err != nil {
		t.Fatal(err)
	}
	stateBefore, err := loadState(s.Store(), "default")
	if err != nil {
		t.Fatal(err)
	}

	// The orphaned session mutates (the in-flight request completing)
	// and tries to autosave; the snapshot on disk must not change.
	if err := orphan.Refine("late", core.Mapping{
		Target:  "<<UBook, late>>",
		Forward: []core.SourceQuery{{Source: "Library", Query: "[{'LIB', k, x} | {k, x} <- <<books, title>>]"}},
	}); err != nil {
		t.Fatal(err)
	}
	s.persist(orphan)
	stateAfter, err := loadState(s.Store(), "default")
	if err != nil {
		t.Fatal(err)
	}
	if stateAfter.Integrator.GlobalVersion != stateBefore.Integrator.GlobalVersion {
		t.Fatalf("orphaned session's autosave overwrote the restored snapshot (version %d -> %d)",
			stateBefore.Integrator.GlobalVersion, stateAfter.Integrator.GlobalVersion)
	}
	// The registered session still autosaves normally.
	cur, err := s.Sessions().Get("default", false)
	if err != nil {
		t.Fatal(err)
	}
	s.persist(cur)
	if m := s.metricsSnapshot(); m.SnapshotErrs != 0 {
		t.Fatalf("snapshot errors: %d", m.SnapshotErrs)
	}
}
