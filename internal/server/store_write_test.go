package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"github.com/dataspace/automed/internal/core"
	"github.com/dataspace/automed/internal/ispider"
	"github.com/dataspace/automed/internal/rel"
	"github.com/dataspace/automed/internal/wrapper"
)

// Tests of the write path: what Store.Save streams against the writer
// it replaced, what a save costs when no source changed, and what the
// loader refuses.

// referenceFile is the writer Store.Save replaced, kept as the
// reference: json.Marshal of the whole session state, every source
// written by encoding/json's reflection over its Snapshot (the defined
// type drops the document encoder) instead of taken from a memo.
func referenceFile(t *testing.T, sess *Session) []byte {
	t.Helper()
	state, err := sess.Export()
	if err != nil {
		t.Fatal(err)
	}
	sess.mu.RLock()
	ws := append([]wrapper.Wrapper(nil), sess.wrappers...)
	sess.mu.RUnlock()
	type plain wrapper.Snapshot
	docs := make([]json.RawMessage, len(ws))
	for i, w := range ws {
		snap, err := w.(wrapper.Snapshotter).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if docs[i], err = json.Marshal((*plain)(snap)); err != nil {
			t.Fatal(err)
		}
	}
	if state.Integrator != nil {
		ig := *state.Integrator
		ig.Sources = docs
		state.Integrator = &ig
	} else {
		state.Sources = docs
	}
	ref, err := json.Marshal(state)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// readBack is a document with U+FFFD written one way: \ufffd, which is
// how invalid UTF-8 is written, decodes as U+FFFD, which a session that
// decoded it writes as itself — or, holding the document it read, as it
// read it.
func readBack(doc []byte) []byte {
	return bytes.ReplaceAll(doc, []byte(`\ufffd`), []byte("\uFFFD"))
}

// checkFileMatchesReference saves the session and holds the file
// against the reference, whitespace and readBack aside.
func checkFileMatchesReference(t *testing.T, s *Server, name, stage string) {
	t.Helper()
	sess, err := s.SnapshotSession(name)
	if err != nil {
		t.Fatalf("%s: %v", stage, err)
	}
	file, err := os.ReadFile(s.Store().Path(name))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := json.Compact(&got, file); err != nil {
		t.Fatalf("%s: the file is not JSON: %v", stage, err)
	}
	if want := referenceFile(t, sess); !bytes.Equal(readBack(got.Bytes()), readBack(want)) {
		t.Errorf("%s: file differs from json.Marshal(state):\n got %.400s\nwant %.400s", stage, got.Bytes(), want)
	}
}

func caseSources(t testing.TB) []wrapper.Wrapper {
	t.Helper()
	pedro, gpmdb, pepseeker, err := ispider.Wrappers(ispider.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return []wrapper.Wrapper{pedro, gpmdb, pepseeker}
}

func newSessionOver(t testing.TB, s *Server, name string, ws []wrapper.Wrapper) *Session {
	t.Helper()
	sess, err := s.Sessions().Get(name, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if err := sess.AddSource(w); err != nil {
			t.Fatal(err)
		}
	}
	return sess
}

func applyStep(t testing.TB, sess *Session, st ispider.PlanStep) {
	t.Helper()
	var err error
	if st.Kind == "intersect" {
		_, err = sess.Intersect(st.Name, st.Mappings, st.Enables...)
	} else {
		err = sess.Refine(st.Name, st.Refinement, st.Enables...)
	}
	if err != nil {
		t.Fatalf("step %s: %v", st.Name, err)
	}
}

// TestUnchangedRestoreAllocatesNoRow: restoring a session whose sources
// the session it replaces holds unchanged decodes none of them, so what
// it allocates does not follow the rows: as many allocations over tables
// of 100 rows as over tables of 1,000. A count, not a time, so it is
// deterministic.
func TestUnchangedRestoreAllocatesNoRow(t *testing.T) {
	allocs := func(rows int) float64 {
		s, _ := newDurableClient(t, t.TempDir())
		db := rel.NewDB("Wide")
		for _, name := range []string{"readings", "sites"} {
			tb := db.MustCreateTable(name, []rel.Column{
				{Name: "id", Type: rel.Int}, {Name: "site", Type: rel.String}, {Name: "level", Type: rel.Float}}, "id")
			for i := range rows {
				tb.MustInsert(int64(i), fmt.Sprintf("site-%04d", i%977), float64(i%4099)/8)
			}
		}
		w, err := wrapper.NewRelational("Wide", db)
		if err != nil {
			t.Fatal(err)
		}
		sess := newSessionOver(t, s, "alloc", []wrapper.Wrapper{w})
		if _, err := sess.Federate(context.Background(), "F", false); err != nil {
			t.Fatal(err)
		}
		if _, err := s.SnapshotSession("alloc"); err != nil {
			t.Fatal(err)
		}
		restore := func() {
			if _, err := s.restoreSession("alloc"); err != nil {
				t.Fatal(err)
			}
		}
		restore()
		return testing.AllocsPerRun(10, restore)
	}
	small, large := allocs(100), allocs(1000)
	t.Logf("an unchanged restore: %.0f allocations over tables of 100 rows, %.0f over tables of 1,000", small, large)
	if small != large {
		t.Errorf("an unchanged restore allocates %.0f times over tables of 100 rows and %.0f over tables of 1,000: it decodes rows", small, large)
	}
}

// TestRestoredDocumentsAreTheMemos: a session restored over itself takes
// its unchanged sources over, and its file's documents are then the
// very bytes those sources' memos hold, so a save finds each source
// unchanged by the documents' address, not by comparing them.
func TestRestoredDocumentsAreTheMemos(t *testing.T) {
	s, _ := newDurableClient(t, t.TempDir())
	ws := caseSources(t)
	sess := newSessionOver(t, s, "docs", ws)
	if _, err := sess.Federate(context.Background(), "F", false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SnapshotSession("docs"); err != nil {
		t.Fatal(err)
	}
	restored, err := s.restoreSession("docs")
	if err != nil {
		t.Fatal(err)
	}
	_, held := restored.sources()
	for i, w := range held {
		if w != ws[i] {
			t.Fatalf("the restore decoded %s again", w.SchemaName())
		}
		doc, err := wrapper.Encode(w)
		if err != nil {
			t.Fatal(err)
		}
		if unsafe.SliceData(doc) != unsafe.SliceData(restored.file.docs[i]) {
			t.Errorf("%s: the file's document is a copy of the memo's %d bytes", w.SchemaName(), len(doc))
		}
	}
}

// TestSharedWrappersSaveConcurrently: two sessions over one wrapper set
// autosave at once (the benchmark's payg_mixed clients do); under -race
// this is the memo's locking test.
func TestSharedWrappersSaveConcurrently(t *testing.T) {
	s, _ := newDurableClient(t, t.TempDir())
	ws := caseSources(t)
	sessions := []*Session{newSessionOver(t, s, "a", ws), newSessionOver(t, s, "b", ws)}
	for _, sess := range sessions {
		if _, err := sess.Federate(context.Background(), "F", false); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, sess := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, st := range ispider.IntersectionPlan() {
				applyStep(t, sess, st)
				s.persist(sess)
				// Beside the server-wide persist lock too: the memo has
				// to hold on its own.
				if _, err := sess.Export(); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if m := s.metricsSnapshot(); m.SnapshotErrs != 0 || m.Snapshots != 10 {
		t.Fatalf("%d snapshots, %d errors; want 10 and 0", m.Snapshots, m.SnapshotErrs)
	}
	for _, name := range []string{"a", "b"} {
		checkFileMatchesReference(t, s, name, "after concurrent autosaves of "+name)
	}
}

func (s *Server) metricsSnapshot() MetricsSnapshot {
	return s.metrics.Snapshot(CacheStats{}, CacheStats{}, CacheStats{}, CacheStats{}, CacheStats{}, QueueStats{}, 0, nil)
}

// TestUnchangedSourcesSaveAllocation: a save of a session whose sources
// have not changed allocates less than a quarter of the file's size —
// the rows, nearly all of this file, are written from the source's memo
// and never copied, so what a save allocates follows the schema, not
// the data. A count of bytes, not a time, so it is deterministic.
func TestUnchangedSourcesSaveAllocation(t *testing.T) {
	s, _ := newDurableClient(t, t.TempDir())
	db := rel.NewDB("Wide")
	tb := db.MustCreateTable("readings", []rel.Column{
		{Name: "id", Type: rel.Int}, {Name: "site", Type: rel.String}, {Name: "level", Type: rel.Float}}, "id")
	for i := 0; i < 20_000; i++ {
		tb.MustInsert(int64(i), fmt.Sprintf("site-%04d", i%977), float64(i%4099)/8)
	}
	w, err := wrapper.NewRelational("Wide", db)
	if err != nil {
		t.Fatal(err)
	}
	sess := newSessionOver(t, s, "alloc", []wrapper.Wrapper{w})
	if _, err := sess.Federate(context.Background(), "F", false); err != nil {
		t.Fatal(err)
	}
	save := func() {
		if _, err := s.SnapshotSession("alloc"); err != nil {
			t.Fatal(err)
		}
	}
	save() // encodes the source
	var m0, m1 runtime.MemStats
	const runs = 5
	runtime.ReadMemStats(&m0)
	for range runs {
		save()
	}
	runtime.ReadMemStats(&m1)
	info, err := os.Stat(s.Store().Path("alloc"))
	if err != nil {
		t.Fatal(err)
	}
	perSave := int64(m1.TotalAlloc-m0.TotalAlloc) / runs
	t.Logf("file %d B, allocated per save %d B", info.Size(), perSave)
	if perSave > info.Size()/4 {
		t.Errorf("saving a %d-byte session with unchanged sources allocates %d bytes, want under a quarter", info.Size(), perSave)
	}
}

// TestNonFiniteCellFailsAutosaveLoudly: a NaN cell (CSV parses them)
// cannot be saved. The error says where the cell is, the previous file
// stays as it was, and snapshot_errors counts the failure.
func TestNonFiniteCellFailsAutosaveLoudly(t *testing.T) {
	s, _ := newDurableClient(t, t.TempDir())
	db := rel.NewDB("Readings")
	tb := db.MustCreateTable("samples", []rel.Column{{Name: "id", Type: rel.Int}, {Name: "level", Type: rel.Float}}, "id")
	tb.MustInsert(int64(1), 0.5)
	w, err := wrapper.NewRelational("Readings", db)
	if err != nil {
		t.Fatal(err)
	}
	newSessionOver(t, s, "nan", []wrapper.Wrapper{w})
	if _, err := s.SnapshotSession("nan"); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(s.Store().Path("nan"))
	if err != nil {
		t.Fatal(err)
	}

	tb.MustInsert(int64(2), math.NaN())
	_, err = s.SnapshotSession("nan")
	if err == nil {
		t.Fatal("a session holding a NaN cell was saved")
	}
	for _, want := range []string{`source "Readings"`, `table "samples"`, "row 1", `column "level"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("save error lacks %s: %v", want, err)
		}
	}
	if after, _ := os.ReadFile(s.Store().Path("nan")); !bytes.Equal(before, after) {
		t.Error("a failed save changed the file")
	}
	if m := s.metricsSnapshot(); m.SnapshotErrs != 1 {
		t.Errorf("snapshot_errors = %d, want 1", m.SnapshotErrs)
	}
	if tmps, _ := filepath.Glob(filepath.Join(filepath.Dir(s.Store().Path("nan")), ".*")); len(tmps) != 0 {
		t.Errorf("a failed save left %v behind", tmps)
	}
}

// TestNewStoreSweepsStaleTempFiles: what a crash between create and
// rename leaves behind goes when the store is next opened; snapshots,
// and anything else that merely looks similar, stay.
func TestNewStoreSweepsStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, c := newDurableClient(t, dir)
	registerBookstore(c, "", 2)
	snapshot := s.Store().Path("default")
	keep := []string{snapshot,
		filepath.Join(dir, "s-x.json.tmp-1"), // not dot-prefixed: a session file name, if an odd one
		filepath.Join(dir, ".s-notes.txt"),
		filepath.Join(dir, ".other.json.tmp-1")}
	stale := []string{
		filepath.Join(dir, "."+filepath.Base(snapshot)+".tmp-123456"),
		filepath.Join(dir, ".s-gone.json.tmp-9")}
	for _, p := range append(keep[1:], stale...) {
		if err := os.WriteFile(p, []byte(`{"format":1,`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := NewStore(dir); err != nil {
		t.Fatal(err)
	}
	for _, p := range keep {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("NewStore removed %s", filepath.Base(p))
		}
	}
	for _, p := range stale {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("NewStore left the stale temporary %s", filepath.Base(p))
		}
	}
	s2, _ := newDurableClient(t, dir)
	if n := s2.Sessions().Len(); n != 1 {
		t.Fatalf("restored %d sessions beside the swept temporaries, want 1", n)
	}
}

// renderState is Save without the file.
func renderState(state *sessionState) ([]byte, error) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := state.writeJSON(bw); err != nil {
		return nil, err
	}
	err := bw.Flush()
	return buf.Bytes(), err
}

// FuzzStoreLoad feeds the loader arbitrary bytes. It must never panic;
// an input decodes alike — the same state or the same error — whatever
// checkpoint is held: none, the input's own checkpoint decoded before, or
// another seed's, so a held decode is taken for its bytes alone — and
// read from a file (readState) as decoded from memory; and an
// input it accepts — decoded, its step records replayed, rebuilt into a
// session — re-saves to a fixpoint: the checkpoint written from it
// loads, and saves as itself. The seeds (the golden session,
// truncations of it, trailing bytes, step records whole, torn and
// unreplayable) run as plain tests under `make fuzz-seeds`.
func FuzzStoreLoad(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("..", "core", "testdata", "golden_session.json"))
	if err != nil {
		f.Fatal(err)
	}
	file := append(append([]byte(`{"format":1,"name":"fuzz","integrator":`), golden...), '}', '\n')
	f.Add(file)
	for _, n := range []int{0, 1, 20, len(file) / 3, len(file) / 2, len(file) - 3} {
		f.Add(file[:n])
	}
	f.Add(append(append([]byte(nil), file...), "garbage"...))
	f.Add(append(append([]byte(nil), file...), `{"format":1,"name":"second"}`...))
	pre := []byte(`{"format":1,"name":"pre","sources":[{"kind":"relational","name":"L","tables":[{"name":"t","columns":["id:int","v:float"],"primary_key":"id","rows":[[1,1.0],[2,null]]}]}]}`)
	f.Add(pre)
	f.Add([]byte(`{"format":1,"name":"bare"}`))
	record := "\x1e" + `{"step":"refine","name":"t2","mapping":{"target":"<<UBook, t2>>","forward":[{"source":"Library","query":"[{'LIB', k, x} | {k, x} <- <<books, title>>]"}]}}` + "\n"
	f.Add(append(append([]byte(nil), file...), record...))
	f.Add(append(append([]byte(nil), file...), record[:len(record)/2]...))
	f.Add(append(append([]byte(nil), file...), record+"\x1e{}\n"...))

	var seeds []*readCheckpoint
	for _, seed := range [][]byte{file, pre} {
		state, err := decodeState(seed, "seed", nil)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, state.read)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		plain, plainErr := decodeState(data, "fuzz", nil)
		helds := seeds
		checkpoint := data
		if i := bytes.IndexByte(data, recordSep); i >= 0 {
			checkpoint = data[:i]
		}
		if own, err := decodeState(checkpoint, "fuzz", nil); err == nil {
			helds = append(helds[:len(helds):len(helds)], own.read)
		}
		path := filepath.Join(t.TempDir(), "fuzz")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, held := range helds {
			got, err := decodeState(data, "fuzz", held)
			if fmt.Sprint(err) != fmt.Sprint(plainErr) || !reflect.DeepEqual(got, plain) {
				t.Fatalf("decoded with a held checkpoint (%.60q), the input gives %+v, %v; decoded alone %+v, %v", held.data, got, err, plain, plainErr)
			}
			got, err = readState(path, held)
			if fmt.Sprint(err) != fmt.Sprint(plainErr) || !reflect.DeepEqual(got, plain) {
				t.Fatalf("read from a file with a held checkpoint (%.60q), the input gives %+v, %v; decoded alone %+v, %v", held.data, got, err, plain, plainErr)
			}
		}

		load := func(data []byte) (*Session, error) {
			state, err := decodeState(data, "fuzz", nil)
			if err != nil {
				return nil, err
			}
			return sessionFromState(state, DefaultConfig(), newCaches(0))
		}
		sess, err := load(data)
		if err != nil {
			return
		}
		for _, w := range sess.wrappers {
			switch w.(type) {
			case *wrapper.Relational, *wrapper.Static:
			default:
				return // a live kind: saving it would go to its backend
			}
		}
		save := func(sess *Session) []byte {
			state, err := sess.Export()
			if err != nil {
				t.Fatalf("an accepted session does not export: %v", err)
			}
			out, err := renderState(state)
			if err != nil {
				t.Fatalf("an accepted session does not save: %v", err)
			}
			return out
		}
		first := save(sess)
		again, err := load(first)
		if err != nil {
			t.Fatalf("the file saved from an accepted input does not load: %v\n%s", err, first)
		}
		if second := save(again); !bytes.Equal(first, second) {
			t.Fatalf("re-saving is not a fixpoint:\nfirst  %s\nsecond %s", first, second)
		}
	})
}

// TestGoldenSessionLoadsThroughStore: the committed golden session — a
// file as the previous layout wrote it, indented throughout — restores
// through the store, and its first save is in the current layout:
// smaller, one row per line.
func TestGoldenSessionLoadsThroughStore(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "core", "testdata", "golden_session.json"))
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, append(append([]byte(`{"format":1,"name":"golden","integrator":`), golden...), '}'), "", "  "); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, c := newDurableClient(t, dir)
	if err := os.WriteFile(s.Store().Path("golden"), indented.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	c.must("POST", "/sessions/golden/restore", nil, http.StatusOK)
	q := c.must("POST", "/query", map[string]any{"session": "golden", "query": "count(<<UBook>>)"}, http.StatusOK)
	if q["value"].(float64) != 5 {
		t.Fatalf("golden session count(<<UBook>>) = %v, want 5", q["value"])
	}
	checkFileMatchesReference(t, s, "golden", "golden session")
	saved, _ := os.ReadFile(s.Store().Path("golden"))
	if len(saved) >= indented.Len()*2/3 || !bytes.Contains(saved, []byte("\n[1,\"978-1\",")) {
		t.Errorf("the golden session's first save is %d bytes (was %d) or not one row per line:\n%.600s", len(saved), indented.Len(), saved)
	}
	var state struct {
		Integrator *core.Snapshot `json:"integrator"`
	}
	if err := json.Unmarshal(saved, &state); err != nil || state.Integrator == nil || len(state.Integrator.Sources) != 3 {
		t.Fatalf("saved golden session: %v, %+v", err, state.Integrator)
	}
}
