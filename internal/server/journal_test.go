package server

import (
	"bytes"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"

	"github.com/dataspace/automed/internal/core"
)

// Tests of the session journal: a step's autosave appends the step's
// record to the file the session last wrote or read; any other change,
// and a file that is no longer that one, writes a checkpoint instead;
// and a restore takes the recorded steps again, dropping a torn last
// record.

// stepBody is a recorded step as its endpoint's request.
func stepBody(session string, st core.Step) map[string]any {
	body := map[string]any{"session": session, "name": st.Name, "enables": st.Enables}
	if st.Kind == core.StepIntersect {
		body["mappings"] = st.Mappings
	} else {
		body["mapping"] = st.Mapping
	}
	return body
}

// checkpointOf is the checkpoint a session of s would write now.
func checkpointOf(t *testing.T, s *Server, name string) []byte {
	t.Helper()
	sess, err := s.Sessions().Get(name, false)
	if err != nil {
		t.Fatal(err)
	}
	state, err := sess.Export()
	if err != nil {
		t.Fatal(err)
	}
	out, err := renderState(state)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// saves reads the save counters of s.
func saves(s *Server) (all, checkpoints uint64) {
	m := s.metricsSnapshot()
	return m.Snapshots, m.Checkpoints
}

// TestJournalRecords: the bytes a step's autosave writes are its
// record — a fraction of the file — and the file is the federation's
// checkpoint and one record per step after it. A torn last record, cut
// at any length, is dropped with a warning, the step before it
// answering; a record that is not the last and does not decode fails
// the restore, and so does one that does not replay. That a restart
// answers as the live session did, and that a step after rows changed
// saves a checkpoint, is TestSessionOracle's.
func TestJournalRecords(t *testing.T) {
	dir := t.TempDir()
	s, c := newDurableClient(t, dir)
	registerBookstore(c, "", 40)
	c.must("POST", "/federate", map[string]any{"name": "F"}, http.StatusCreated)
	cpAll, cpCheckpoints := saves(s)
	checkpoint, err := os.ReadFile(s.Store().Path("default"))
	if err != nil {
		t.Fatal(err)
	}
	bytesBefore := s.metricsSnapshot().SnapshotBytes
	c.must("POST", "/intersect", map[string]any{"name": "I1", "mappings": ubookMappings}, http.StatusCreated)
	c.must("POST", "/intersect", map[string]any{"name": "I2", "mappings": upricedMappings}, http.StatusCreated)
	all, checkpoints := saves(s)
	written := s.metricsSnapshot().SnapshotBytes - bytesBefore
	if all != cpAll+2 || checkpoints != cpCheckpoints || written*4 > uint64(len(checkpoint)) {
		t.Fatalf("two steps wrote %d saves, %d checkpoints, %d bytes over a %d-byte checkpoint; want 2 appends of a few hundred bytes",
			all-cpAll, checkpoints-cpCheckpoints, written, len(checkpoint))
	}
	file, err := os.ReadFile(s.Store().Path("default"))
	if err != nil {
		t.Fatal(err)
	}
	records, ok := bytes.CutPrefix(file, checkpoint)
	if !ok || bytes.Count(records, []byte{recordSep}) != 2 || int64(len(records)) != int64(written) {
		t.Fatalf("the file is not the checkpoint and two records:\n%s", file[min(len(file), len(checkpoint)):])
	}
	// Torn: the last record cut short, at every length it could have
	// reached before the crash.
	last := bytes.LastIndexByte(file, recordSep)
	for _, cut := range []int{last + 1, last + 9, len(file) - 1} {
		path := s.Store().Path("torn")
		if err := os.WriteFile(path, bytes.Replace(file[:cut], []byte(`"name":"default"`), []byte(`"name":"torn"`), 1), 0o644); err != nil {
			t.Fatal(err)
		}
		var logs syncBuffer
		cfg := DefaultConfig()
		cfg.Logger = slog.New(slog.NewTextHandler(&logs, nil))
		s3, c3 := newTestClient(t, cfg)
		if err := s3.OpenStore(dir); err != nil {
			t.Fatal(err)
		}
		if _, err := s3.RestoreSessions(); err != nil {
			t.Fatalf("a torn record at %d of %d failed the start: %v", cut, len(file), err)
		}
		if v := c3.must("POST", "/sessions/torn/restore", nil, http.StatusOK)["version"]; v != float64(1) {
			t.Errorf("torn at %d: restored at version %v, want 1", cut, v)
		}
		if !strings.Contains(logs.String(), "torn step record") {
			t.Errorf("torn at %d: no warning logged:\n%s", cut, logs.String())
		}
		// The torn session's next save is a checkpoint, so the file loads
		// clean again.
		c3.must("POST", "/intersect", map[string]any{"session": "torn", "name": "I2", "mappings": upricedMappings}, http.StatusCreated)
		if state, err := loadState(s3.Store(), "torn"); err != nil || state.torn != 0 || len(state.steps) != 0 || state.Integrator.GlobalVersion != 2 {
			t.Fatalf("torn at %d: after the next step the file is %+v (%v), want a checkpoint at version 2", cut, state, err)
		}
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}

	// Not torn: a record before the last that does not decode, and one
	// that decodes but names what the session does not have.
	for name, bad := range map[string][]byte{
		"garbled":    bytes.Replace(file, []byte(`"step":"intersect","name":"I1"`), []byte(`"step":"intersect""name":"I1"`), 1),
		"unreplayed": bytes.Replace(file, []byte(`"step":"intersect","name":"I1"`), []byte(`"step":"merge","name":"I1"`), 1),
	} {
		bad = bytes.Replace(bad, []byte(`"name":"default"`), []byte(`"name":"`+name+`"`), 1)
		if err := os.WriteFile(s.Store().Path(name), bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if status, body := c.do("POST", "/sessions/"+name+"/restore", nil); status != http.StatusBadRequest || !strings.Contains(fmt.Sprint(body), "step record 1") {
			t.Errorf("restore of a file whose first record is %s = %d %v, want 400 naming step record 1", name, status, body)
		}
	}
}

// syncBuffer is a bytes.Buffer a logger may write from any goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestJournalCompacts: once the records after a checkpoint would
// outgrow it, the step's autosave writes a checkpoint instead, and the
// journal starts again after it.
func TestJournalCompacts(t *testing.T) {
	s, c := newDurableClient(t, t.TempDir())
	registerBookstore(c, "", 1)
	c.must("POST", "/federate", map[string]any{"name": "F"}, http.StatusCreated)
	_, before := saves(s)
	for i := 0; ; i++ {
		if i == 50 {
			t.Fatal("50 steps and no checkpoint")
		}
		c.must("POST", "/refine", map[string]any{"name": fmt.Sprintf("r%d", i), "mapping": map[string]any{
			"target":  fmt.Sprintf("<<UBook, copy%d>>", i),
			"forward": []map[string]any{{"source": "Library", "query": "[{'LIB', k, x} | {k, x} <- <<books, title>>]"}},
		}}, http.StatusCreated)
		if _, cps := saves(s); cps > before {
			state, err := loadState(s.Store(), "default")
			if err != nil || len(state.steps) != 0 || state.Integrator.GlobalVersion != i+1 {
				t.Fatalf("after the compacting step: %+v (%v), want a checkpoint at version %d", state, err, i+1)
			}
			if i < 2 {
				t.Fatalf("a checkpoint after %d steps: the journal was not kept", i+1)
			}
			return
		}
		info, err := os.Stat(s.Store().Path("default"))
		if err != nil {
			t.Fatal(err)
		}
		if state, err := loadState(s.Store(), "default"); err != nil || info.Size() > 2*state.checkpoint {
			t.Fatalf("step %d: a %d-byte file over a %d-byte checkpoint (%v)", i, info.Size(), state.checkpoint, err)
		}
	}
}

// TestPersistStepsJournalInOrder: steps on one session from many
// clients at once are journaled in the order the integrator took them,
// whichever autosave runs first — a restart publishes the same versions
// of the same steps as the live session. Under -race in make flake.
func TestPersistStepsJournalInOrder(t *testing.T) {
	dir := t.TempDir()
	s, c := newDurableClient(t, dir)
	registerBookstore(c, "", 3)
	c.must("POST", "/federate", map[string]any{"name": "F"}, http.StatusCreated)
	var wg sync.WaitGroup
	for i := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, body := c.do("POST", "/refine", map[string]any{"name": fmt.Sprintf("r%d", i), "mapping": map[string]any{
				"target":  fmt.Sprintf("<<UBook, copy%d>>", i),
				"forward": []map[string]any{{"source": "Library", "query": "[{'LIB', k, x} | {k, x} <- <<books, title>>]"}},
			}})
			if status != http.StatusCreated {
				t.Errorf("refine r%d = %d %v", i, status, body)
			}
		}()
	}
	wg.Wait()
	s2, _ := newDurableClient(t, dir)
	if got, want := checkpointOf(t, s2, "default"), checkpointOf(t, s, "default"); !bytes.Equal(got, want) {
		t.Fatalf("the restarted session differs from the live one:\n got %.800s\nwant %.800s", got, want)
	}
}
