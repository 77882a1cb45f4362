package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/dataspace/automed/internal/core"
	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/ispider"
	"github.com/dataspace/automed/internal/rel"
	"github.com/dataspace/automed/internal/sqlmem"
	"github.com/dataspace/automed/internal/wrapper"
)

// The session oracle. A session is what its requests and its sources'
// rows make it: whatever the daemon holds, caches, journals, decodes
// once or takes over, it must answer as a session built afresh from
// those alone does.

// oracleCase is the case study at the oracle's size.
var oracleCase = ispider.Config{Seed: 1, Proteins: 6, Searches: 2, HitsPerSearch: 3, PeptidesPerHit: 2}

// oracleState is what the oracle knows of a session: the requests that
// changed it, in order, and the rows its in-memory sources hold beyond
// those they were built with. The SQL and REST sources are live: their
// backends are the oracle's, and every session reads them as they are.
type oracleState struct {
	reqs    []oracleReq
	inserts []oracleInsert // rows added to the case study's tables
	notes   []string       // the Notes source's texts; a row's id is its place, from 1
}

type oracleReq struct {
	path   string
	body   map[string]any
	status int // a half-failed step is replayed to fail again
}

type oracleInsert struct {
	source, table string
	row           []any
}

func (st oracleState) clone() oracleState {
	return oracleState{slices.Clone(st.reqs), slices.Clone(st.inserts), slices.Clone(st.notes)}
}

// sameRows reports whether two states hold the same rows in the named
// in-memory source, or in all of them when name is empty.
func (st oracleState) sameRows(o oracleState, name string) bool {
	if name == "" || name == "Notes" {
		if !slices.Equal(st.notes, o.notes) {
			return false
		}
	}
	pick := func(ins []oracleInsert) (out []oracleInsert) {
		for _, in := range ins {
			if name == "" || in.source == name {
				out = append(out, in)
			}
		}
		return out
	}
	return reflect.DeepEqual(pick(st.inserts), pick(o.inserts))
}

// sources builds the in-memory sources over st's rows, in registration
// order.
func (st oracleState) sources(t *testing.T) []wrapper.Wrapper {
	t.Helper()
	pedro, gpmdb, pepseeker, err := ispider.Wrappers(oracleCase)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*wrapper.Relational{"Pedro": pedro, "gpmDB": gpmdb, "PepSeeker": pepseeker}
	for _, in := range st.inserts {
		tb, _ := byName[in.source].DB().Table(in.table)
		tb.MustInsert(in.row...)
	}
	curated := wrapper.NewStatic("Curated")
	if err := curated.Add(hdm.MustScheme("<<picks>>"), hdm.Nodal, "sql", "table",
		iql.Bag(iql.Str(ispider.SharedAccession), iql.Str("pick"))); err != nil {
		t.Fatal(err)
	}
	db := rel.NewDB("Notes")
	tb := db.MustCreateTable("notes", []rel.Column{{Name: "id", Type: rel.Int}, {Name: "text", Type: rel.String}}, "id")
	for i, text := range st.notes {
		tb.MustInsert(int64(i+1), text)
	}
	notes, err := wrapper.NewRelational("Notes", db)
	if err != nil {
		t.Fatal(err)
	}
	return []wrapper.Wrapper{pedro, gpmdb, pepseeker, curated, notes}
}

// oracleExtras are steps over the other sources: an intersection of a
// SQL, a REST and a static source, and a refinement that adds a second
// derivation to an object the intersection made.
var oracleExtras = []core.Step{
	{Kind: core.StepIntersect, Name: "X1", Mappings: []core.Mapping{
		core.Entity("<<UShelf>>",
			core.From("Shelf", "[{'SHELF', k} | k <- <<slots>>]"),
			core.From("Shop", "[{'SHOP', k} | k <- <<items>>]"),
			core.From("Curated", "[{'CUR', k} | k <- <<picks>>]")),
		core.Attribute("<<UShelf, label>>",
			core.From("Shelf", "[{'SHELF', k, x} | {k, x} <- <<slots, label>>]"),
			core.From("Shop", "[{'SHOP', k, x} | {k, x} <- <<items, barcode>>]")),
	}},
	{Kind: core.StepRefine, Name: "X2", Mapping: &core.Mapping{Target: "<<UShelf, label>>", Forward: []core.SourceQuery{
		core.From("Notes", "[{'NOTE', k, x} | {k, x} <- <<notes, text>>]")}}},
}

// oracleRejected are steps refused part-way — an intersection at its
// second source, a refinement at its second entry — or at once, a
// refinement whose target is an object of the federated schema, under
// the names of the extras, so a later extra is the corrected call.
var oracleRejected = []core.Step{
	{Kind: core.StepIntersect, Name: "X1", Mappings: []core.Mapping{core.Entity("<<UShelf>>",
		core.From("Shelf", "[{'SHELF', k} | k <- <<slots>>]"),
		core.From("Shop", "[{'SHOP', k} | k <- <<no_such_table>>]"))}},
	{Kind: core.StepRefine, Name: "X2", Mapping: &core.Mapping{Target: "<<UShelf, label>>", Forward: []core.SourceQuery{
		core.From("Notes", "[{'NOTE', k, x} | {k, x} <- <<notes, text>>]"),
		core.From("Shelf", "[{'SHELF', k, x} | {k, x} <- ")}}},
	{Kind: core.StepRefine, Name: "X2", Mapping: &core.Mapping{Target: "<<shelf_slots>>", Forward: []core.SourceQuery{
		core.From("Notes", "[k | k <- <<notes>>]")}}},
}

// oracleProbes are asked at every published version besides Table 1.
// <<label>> resolves by suffix: to <<shelf_slots, label>> before X1, and
// after it to <<UShelf, label>> when X1 dropped the Shelf object it
// subsumes, else to nothing (it is ambiguous).
var oracleProbes = []string{
	"count(<<UShelf>>)", "[x | {s, k, x} <- <<UShelf, label>>]", "<<notes_notes, text>>", "count(<<shelf_slots>>)",
	"count(<<label>>)",
}

// oracleWorld is what one history runs against: the SQL backend's rows
// and the REST backend, shared by every server the history starts.
type oracleWorld struct {
	t     *testing.T
	dsn   string
	shelf *rel.DB
	rest  string
}

// register adds the live sources to a session whose in-memory ones are in.
func (w *oracleWorld) register(c *testClient) {
	c.must("POST", "/sources", map[string]any{"session": "h", "name": "Shelf",
		"sql": map[string]any{"driver": sqlmem.DriverName, "dsn": w.dsn}}, http.StatusCreated)
	c.must("POST", "/sources", map[string]any{"session": "h", "name": "Shop", "rest": map[string]any{"endpoint": w.rest,
		"collections": []map[string]any{{"name": "items", "fields": []string{"barcode", "id"}}}}}, http.StatusCreated)
}

// replay builds the reference for st: a storeless server with every
// cache off, whose session is registered over st's rows and takes st's
// requests. The caller closes it.
func (w *oracleWorld) replay(st oracleState) (*Server, *testClient) {
	t := w.t
	t.Helper()
	s := New(Config{QueryTimeout: DefaultConfig().QueryTimeout, CacheBytes: 1})
	c := &testClient{t: t, srv: httptest.NewServer(s.Handler())}
	newSessionOver(t, s, "h", st.sources(t))
	w.register(c)
	for _, r := range st.reqs {
		if status, body := ask(c, "POST", r.path, r.body); status != r.status {
			t.Fatalf("the reference replays %s %v as %d %s, want %d", r.path, r.body["name"], status, body, r.status)
		}
	}
	return s, c
}

// volatile are the response members that differ between servers and
// runs: timings, cache outcomes, request ids.
var volatile = regexp.MustCompile(`"(elapsed_us|plan_cached|result_cached|request_id)":("[^"]*"|[^,}]*),?`)

// ask sends a request and returns the status and the response as the
// oracle compares it: byte for byte, the volatile members aside.
func ask(c *testClient, method, path string, body any) (int, string) {
	status, out := c.send(method, path, body)
	return status, volatile.ReplaceAllString(string(out), "")
}

// view is everything a client sees of the session — /schemas, /report,
// Table 1 and the probes at every published version and then at the
// latest, the version omitted — and, from s when
// it is not nil, the checkpoint the session would write. A live
// session's is not asked for: exporting it would refresh the documents
// its sources keep, which a restore and an append must validate.
func (w *oracleWorld) view(s *Server, c *testClient) []string {
	t := w.t
	t.Helper()
	_, schemas := ask(c, "GET", "/schemas?session=h", nil)
	_, report := ask(c, "GET", "/report?session=h", nil)
	out := []string{schemas, report}
	current := -1
	if err := json.Unmarshal([]byte(schemas), &struct {
		V *int `json:"current_version"`
	}{&current}); err != nil {
		t.Fatal(err)
	}
	var queries []string
	for _, q := range ispider.Table1Queries() {
		queries = append(queries, q.IQL)
	}
	// The latest comes last: a query it resolves as a pinned one did is
	// answered from the cache, stamped with the latest version.
	for i := 0; i <= current+1; i++ {
		v := i
		if i > current {
			v = -1
		}
		for _, q := range append(queries, oracleProbes...) {
			body := map[string]any{"session": "h", "query": q}
			if v >= 0 {
				body["version"] = v
			}
			status, answer := ask(c, "POST", "/query", body)
			out = append(out, fmt.Sprintf("v%d %s = %d %s", v, q, status, answer))
		}
	}
	if s != nil {
		out = append(out, string(checkpointOf(t, s, "h")))
	}
	return out
}

// sameView fails the test at the first line where got and want differ.
func (w *oracleWorld) sameView(stage, what string, got, want []string) {
	w.t.Helper()
	for i := range max(len(got), len(want)) {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			w.t.Fatalf("%s: %s differs from the reference at line %d of %d:\n got %.900s\nwant %.900s",
				stage, what, i, len(want), got[min(i, len(got)-1)], want[min(i, len(want)-1)])
		}
	}
}

// oracleMode is one of the daemon's settings the oracle runs under.
type oracleMode struct{ cached, breakers, restoreEvery bool }

// TestSessionOracle is the oracle of what a session means. Seeded
// histories over static, relational, SQL (sqlmem) and REST (httptest)
// sources mix registration and federation, the case study's plan steps
// in any order, steps refused part-way, a step that fails half-way (a
// global schema name taken: the integrator changed, and only a new
// checkpoint holds it), queries at every published version, rows
// inserted beside the session (followed by POST /invalidate, the way a
// session is told its sources changed), forced checkpoints, restores,
// restarts, a torn append, a crash between a checkpoint's temporary
// file and its rename, and a session file edited or reindented behind
// the session. After every event:
//
//   - the live session answers as the reference does — a storeless,
//     cacheless server that takes only the requests that changed the
//     session over the oracle's own copy of the current rows — byte for
//     byte: the event's request, /schemas, /report, and Table 1 and the
//     probes at every version with their warnings;
//   - a server that restores a copy of the session file from nothing
//     answers as the reference over the rows last saved, and would
//     write the checkpoint it writes;
//   - a forced checkpoint's file is, white space aside, what
//     json.Marshal of the session's state writes (referenceFile);
//   - a step's autosave was one save: a checkpoint exactly when the
//     file cannot be continued (federation, a torn append, a reindented
//     file, rows changed or a step failed half-way since the last save,
//     or a journal that would outgrow its checkpoint), else one record;
//   - a restore over the session took over every in-memory source whose
//     rows are the file's — the very wrapper — decoded every other, and
//     decoded the checkpoint again only if its bytes are not the ones
//     the session read.
//
// The modes cover result cache and extent memo on and off, breakers on
// and off, and a restore after every step or none at all; seeds 3 and 6
// federate with auto_drop, so a global schema drops what X1 subsumes and
// a reference by suffix names another object after it; a reader
// queries the session throughout, so under -race (make flake) this is
// also the check that what restores share is only read.
func TestSessionOracle(t *testing.T) {
	rest := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `[{"id": "S1", "barcode": "B-1"}, {"id": "S2", "barcode": "`+ispider.SharedAccession+`"}]`)
	}))
	t.Cleanup(rest.Close)
	for seed := int64(1); seed <= 8; seed++ {
		mode := oracleMode{cached: seed&1 != 0, breakers: seed&2 != 0, restoreEvery: seed&4 != 0}
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			dsn := fmt.Sprintf("oracle-shelf-%d", seed)
			shelf := rel.NewDB("Shelf")
			slots := shelf.MustCreateTable("slots", []rel.Column{{Name: "id", Type: rel.Int}, {Name: "label", Type: rel.String}}, "id")
			slots.MustInsert(int64(1), "top")
			slots.MustInsert(int64(2), "bottom")
			sqlmem.Register(dsn, shelf)
			t.Cleanup(func() { sqlmem.Unregister(dsn) })
			runOracle(t, &oracleWorld{t: t, dsn: dsn, shelf: shelf, rest: rest.URL + "/"}, seed, mode)
		})
	}
}

func runOracle(t *testing.T, w *oracleWorld, seed int64, mode oracleMode) {
	rnd := rand.New(rand.NewSource(seed))
	cfg := DefaultConfig()
	if !mode.cached {
		cfg.ResultCacheSize, cfg.CacheBytes = 0, 1
	}
	cfg.Breaker.Enabled = mode.breakers
	dir := t.TempDir()
	start := func() (*Server, *testClient) {
		s, c := newTestClient(t, cfg)
		if err := s.OpenStore(dir); err != nil {
			t.Fatal(err)
		}
		if _, err := s.RestoreSessions(); err != nil {
			t.Fatal(err)
		}
		return s, c
	}
	live := oracleState{notes: []string{"note-01", "note-02"}}
	s, c := start()
	newSessionOver(t, s, "h", live.sources(t))
	w.register(c)
	saved := live.clone()
	path := s.Store().Path("h")
	// The file cannot be continued after these until a save: a torn
	// append or a reindented checkpoint in the file, a step that failed
	// half-way in the live session.
	torn, indented, unjournaled := false, false, false

	// The reader asks Q7 while each event runs; pause holds it off while
	// the oracle writes rows the session reads.
	var client atomic.Pointer[testClient]
	client.Store(c)
	var pause sync.RWMutex
	tick, stop := make(chan struct{}), make(chan struct{})
	q7, err := json.Marshal(map[string]any{"session": "h", "query": ispider.Table1Queries()[6].IQL})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-tick:
			}
			pause.RLock()
			cl := client.Load()
			resp, err := cl.srv.Client().Post(cl.srv.URL+"/query", "application/json", bytes.NewReader(q7))
			if err == nil {
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			pause.RUnlock()
			if err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode >= http.StatusInternalServerError {
				t.Errorf("the reader's query = %d", resp.StatusCode)
				return
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()

	var history []string
	var checked []byte // the file as a restore of it was last checked
	stage := func() string { return fmt.Sprintf("seed %d %+v after %v", seed, mode, history) }
	current := func() *Session {
		sess, err := s.Sessions().Get("h", false)
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	file := func() (data, checkpoint []byte) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if i := bytes.IndexByte(data, recordSep); i >= 0 {
			return data, data[:i]
		}
		return data, data
	}
	restart := func() {
		s, c = start()
		client.Store(c)
		live, unjournaled = saved.clone(), false
	}
	// restore restores the session over itself.
	restore := func() {
		before := current()
		_, held := before.sources()
		var read *readCheckpoint
		if before.file != nil {
			read = before.file.read
		}
		_, checkpoint := file()
		c.must("POST", "/sessions/h/restore", nil, http.StatusOK)
		after := current()
		_, ws := after.sources()
		for i, w := range ws {
			memoised := false
			switch w.(type) {
			case *wrapper.Relational, *wrapper.Static:
				memoised = true
			}
			if want := memoised && !indented && live.sameRows(saved, w.SchemaName()); (w == held[i]) != want {
				t.Fatalf("%s: the restore took over %s: %v, want %v", stage(), w.SchemaName(), w == held[i], want)
			}
		}
		if reused := read != nil && bytes.Equal(read.data, checkpoint); (after.file.read == read) != reused {
			t.Fatalf("%s: the restore reused the checkpoint it read: %v, want %v", stage(), after.file.read == read, reused)
		}
		live, unjournaled = saved.clone(), false
	}
	// attempt sends a request to the live session and to the reference,
	// which must answer alike; a request the reference accepts, or one
	// that fails half-way, is one that changed the session.
	attempt := func(path string, body map[string]any, halfway bool) bool {
		_, rc := w.replay(live)
		wantStatus, want := ask(rc, "POST", path, body)
		rc.srv.Close()
		if status, got := ask(c, "POST", path, body); status != wantStatus || got != want {
			t.Fatalf("%s: %s %v = %d %s, want %d %s", stage(), path, body["name"], status, got, wantStatus, want)
		}
		if wantStatus < 300 || halfway {
			live.reqs = append(live.reqs, oracleReq{path, body, wantStatus})
		}
		return wantStatus < 300
	}
	// saving sends a request that autosaves the session when it is
	// accepted: one save, a checkpoint exactly when one is due.
	saving := func(path string, body map[string]any, step []core.Step) {
		all, cps := saves(s)
		data, checkpoint := file()
		compacts := false
		if step != nil {
			rec, err := encodeSteps(step)
			if err != nil {
				t.Fatal(err)
			}
			compacts = len(data)-len(checkpoint)+len(rec) > len(checkpoint)
		}
		due := path == "/federate" || torn || indented || unjournaled || compacts || !live.sameRows(saved, "")
		if !attempt(path, body, false) {
			return
		}
		if a, k := saves(s); a != all+1 || (k != cps) != due {
			t.Fatalf("%s: the save wrote %d files, %d of them checkpoints; want one, a checkpoint: %v", stage(), a-all, k-cps, due)
		}
		saved, torn, indented, unjournaled = live.clone(), false, false, false
		if mode.restoreEvery {
			restore()
		}
	}

	plan := ispider.IntersectionPlan()
	// The plan in any order, X1 among it, and X2 once X1 is in.
	steps := oracleExtras[:1:1]
	for _, st := range plan {
		steps = append(steps, st.Step())
	}
	events := []string{"federate", "step", "step", "step", "step", "rejected", "halfway", "query", "insert", "insert", "checkpoint", "torn"}
	if mode.restoreEvery {
		events = append(events, "restore", "restart", "crash", "edit", "reindent")
	}
	for len(history) < 20 {
		ev := events[rnd.Intn(len(events))]
		if len(live.reqs) == 0 && rnd.Intn(3) == 0 {
			ev = "federate" // federation comes early in most histories, not in all
		}
		select {
		case tick <- struct{}{}:
		default:
		}
		passes := 1
		switch ev {
		case "federate":
			saving("/federate", map[string]any{"session": "h", "name": "F", "auto_drop": seed%3 == 0}, nil)
		case "step":
			if len(steps) == 0 {
				continue
			}
			i := rnd.Intn(len(steps))
			ev += " " + steps[i].Name
			before := len(live.reqs)
			saving("/"+steps[i].Kind, stepBody("h", steps[i]), steps[i:i+1])
			if len(live.reqs) > before {
				if steps[i].Name == "X1" {
					steps = append(steps, oracleExtras[1])
				}
				steps = slices.Delete(steps, i, i+1)
			} else {
				ev += " (refused)"
			}
		case "rejected":
			st := oracleRejected[rnd.Intn(len(oracleRejected))]
			ev += " " + st.Name
			if attempt("/"+st.Kind, stepBody("h", st), false) {
				t.Fatalf("%s: %s was accepted", stage(), ev)
			}
		case "halfway":
			// An intersection named as the next global schema: its schema is
			// stored, and the global schema's then is not. Federation is
			// the first request that changed the session, and every later
			// one rebuilt the global schema.
			if len(live.reqs) == 0 {
				continue
			}
			name := fmt.Sprintf("GS%d", len(live.reqs))
			ev += " " + name
			st := core.Step{Kind: core.StepIntersect, Name: name, Mappings: []core.Mapping{core.Entity("<<U"+name+">>",
				core.From("Shelf", "[{'SHELF', k} | k <- <<slots>>]"))}}
			if attempt("/intersect", stepBody("h", st), true) {
				t.Fatalf("%s: %s was accepted", stage(), ev)
			}
			unjournaled = true
		case "query":
			passes = 2 // and once more warm
		case "insert":
			pause.Lock()
			switch k := rnd.Intn(5); {
			case k < 3:
				_, ws := current().sources()
				src := ws[k].(*wrapper.Relational)
				tb := src.DB().Tables()[rnd.Intn(len(src.DB().Tables()))]
				row := append([]any(nil), tb.Rows()[0]...)
				pk, _ := tb.ColIndex(tb.PrimaryKey())
				switch row[pk].(type) {
				case int64:
					row[pk] = int64(math.MaxInt64 - len(live.inserts))
				case string:
					row[pk] = fmt.Sprintf("inserted-%d", len(live.inserts))
				}
				tb.MustInsert(row...)
				live.inserts = append(live.inserts, oracleInsert{src.SchemaName(), tb.Name(), row})
				ev += " " + src.SchemaName()
			case k == 3:
				_, ws := current().sources()
				tb, _ := ws[4].(*wrapper.Relational).DB().Table("notes")
				live.notes = append(live.notes, fmt.Sprintf("note-%02d", len(live.notes)+1))
				tb.MustInsert(int64(len(live.notes)), live.notes[len(live.notes)-1])
				ev += " Notes"
			default:
				slots, _ := w.shelf.Table("slots")
				slots.MustInsert(int64(slots.Len()+1), fmt.Sprintf("slot-%02d", slots.Len()+1))
				ev += " Shelf"
			}
			pause.Unlock()
			c.must("POST", "/sessions/h/invalidate", nil, http.StatusOK)
		case "checkpoint":
			// Forced, and held to the writer Store.Save replaced.
			checkFileMatchesReference(t, s, "h", stage())
			saved, torn, indented, unjournaled = live.clone(), false, false, false
		case "torn":
			// An append the process died in: half a record, no line feed.
			// No append follows it: the file is longer than the session knows.
			if torn {
				continue
			}
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString("\x1e{\"step\":\"refine\",\"na"); err != nil {
				t.Fatal(err)
			}
			f.Close()
			torn = true
		case "restore":
			restore()
		case "restart":
			restart()
		case "crash":
			// A checkpoint written to its temporary file, the process gone
			// before the rename: the next start sweeps it away.
			tmp := filepath.Join(dir, "."+filepath.Base(path)+".tmp-crash")
			data, _ := file()
			if err := os.WriteFile(tmp, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
			restart()
			if _, err := os.Stat(tmp); !os.IsNotExist(err) {
				t.Fatalf("%s: the crashed checkpoint's temporary file is still there", stage())
			}
		case "edit":
			// One note's text edited in the file, its length kept.
			i := rnd.Intn(len(saved.notes))
			old := saved.notes[i]
			edited := map[byte]string{'n': "m", 'm': "n"}[old[0]] + old[1:]
			data, _ := file()
			if bytes.Count(data, []byte(`"`+old+`"`)) != 1 {
				t.Fatalf("%s: the file holds %q %d times, want once", stage(), old, bytes.Count(data, []byte(`"`+old+`"`)))
			}
			if err := os.WriteFile(path, bytes.Replace(data, []byte(`"`+old+`"`), []byte(`"`+edited+`"`), 1), 0o644); err != nil {
				t.Fatal(err)
			}
			saved.notes[i] = edited
			restore()
		case "reindent":
			// The checkpoint reindented, its records after it: no source
			// document in it is one a source holds.
			data, checkpoint := file()
			var out bytes.Buffer
			if err := json.Indent(&out, checkpoint, "", "  "); err != nil {
				t.Fatal(err)
			}
			out.WriteByte('\n')
			out.Write(data[len(checkpoint):])
			if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			indented = true
			restore()
		}
		history = append(history, ev)

		rs, rc := w.replay(live)
		want := w.view(rs, rc)
		rc.srv.Close()
		for range passes {
			w.sameView(stage(), "the live session", w.view(nil, c), want[:len(want)-1])
		}
		// The file, unless the event left it and the rows as they were.
		if data, _ := file(); bytes.Equal(data, checked) && !strings.HasPrefix(ev, "insert") {
			continue
		} else {
			checked = data
		}
		if !live.sameRows(saved, "") || len(live.reqs) != len(saved.reqs) {
			rs, rc = w.replay(saved)
			want = w.view(rs, rc)
			rc.srv.Close()
		}
		fs, fc := restoredFromNothing(t, path)
		w.sameView(stage(), "a session restored from nothing", w.view(fs, fc), want)
		fc.srv.Close()
	}
	// What the restores shared is as it was read: the held checkpoint's
	// repository image encodes as one decoded from its bytes afresh — no
	// step wrote through a clone.
	if f := current().file; f != nil && f.read != nil && f.read.state.Integrator != nil {
		plain, err := decodeState(f.read.data, "held", nil)
		if err != nil {
			t.Fatal(err)
		}
		var docs [2][]byte
		for i, snap := range []*core.Snapshot{f.read.state.Integrator, plain.Integrator} {
			ig, err := core.Import(snap)
			if err != nil {
				t.Fatal(err)
			}
			if docs[i], err = ig.Repo().MarshalJSON(); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(docs[0], docs[1]) {
			t.Fatalf("%s: the held repository image no longer encodes as its checkpoint's", stage())
		}
	}
	t.Logf("seed %d %+v: %v", seed, mode, history)
}
