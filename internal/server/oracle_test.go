package server

import (
	"bytes"
	"context"
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
	"time"

	"github.com/dataspace/automed/internal/core"
	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/iql/iqltest"
	"github.com/dataspace/automed/internal/ispider"
	"github.com/dataspace/automed/internal/query"
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
	path   string // or "probe": the session's recovery probe (Session.Probe)
	body   map[string]any
	status int  // a half-failed step is replayed to fail again
	down   bool // Shop fails the first request it gets: federation's liveness probe
	// recovered marks a probe that backfilled a source, and so published
	// a global schema version.
	recovered bool
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
	if err := curated.Add(hdm.MustScheme("<<edges>>"), hdm.Nodal, "sql", "table",
		iql.Bag(iql.Str("<&>"), iql.Tuple(iql.Int(math.MinInt64), iql.Float(1e21), iql.Null()))); err != nil {
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
	return append([]wrapper.Wrapper{pedro, gpmdb, pepseeker, curated, notes}, edgeSources(t)...)
}

// edgeSources are sources holding every scalar the encoders could
// disagree about — NULLs, int64 extremes, floats either side of JSON's
// exponent cutoffs, strings with <>&, U+2028 and invalid UTF-8, an
// empty table — in a relational and an XML source; Curated's <<edges>>
// holds them in a static one.
func edgeSources(t *testing.T) []wrapper.Wrapper {
	t.Helper()
	db := rel.NewDB("Edge")
	cells := db.MustCreateTable("cells", []rel.Column{
		{Name: "id", Type: rel.Int}, {Name: "s", Type: rel.String},
		{Name: "i", Type: rel.Int}, {Name: "f", Type: rel.Float}, {Name: "b", Type: rel.Bool}}, "id")
	floats := append([]float64{30, 1e21, math.Copysign(0, -1)}, iqltest.Floats...)
	n := max(len(iqltest.Strings), len(iqltest.Ints), len(floats))
	for k := 0; k < n; k++ {
		cells.MustInsert(int64(k), iqltest.Strings[k%len(iqltest.Strings)],
			iqltest.Ints[k%len(iqltest.Ints)], floats[k%len(floats)], k%2 == 0)
	}
	cells.MustInsert(int64(n), nil, nil, nil, nil)
	db.MustCreateTable("empty", []rel.Column{{Name: "k", Type: rel.String}}, "")
	edge, err := wrapper.NewRelational("Edge", db)
	if err != nil {
		t.Fatal(err)
	}
	xmlW, err := wrapper.NewXML("Doc", strings.NewReader(`<lib><book id="b&amp;1"><title>T &lt; U</title></book><book/></lib>`))
	if err != nil {
		t.Fatal(err)
	}
	return []wrapper.Wrapper{edge, xmlW}
}

// oracleExtras are steps over the other sources: an intersection of a
// SQL, a REST and a static source, a refinement that adds a second
// derivation to an object the intersection made, one that defines an
// object over a federated object, so that rows inserted into its source
// change an object whose own derivations stay as they are, and one that
// defines an object over the SQL and the REST source, whose rows both
// contribute.
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
	{Kind: core.StepRefine, Name: "X3", Mapping: &core.Mapping{Target: "<<UAccessions>>", Forward: []core.SourceQuery{
		core.From("Curated", "[k | k <- <<pedro_protein>>]")}}},
	{Kind: core.StepRefine, Name: "X4", Mapping: &core.Mapping{Target: "<<UCodes>>", Forward: []core.SourceQuery{
		core.From("Shelf", "[x | {k, x} <- <<slots, label>>]"),
		core.From("Shop", "[x | {k, x} <- <<items, barcode>>]")}}},
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

// oracleProbes are asked at every published version besides Table 1,
// and so is every object of the version (view).
// <<label>> resolves by suffix: to <<shelf_slots, label>> before X1, and
// after it to <<UShelf, label>> when X1 dropped the Shelf object it
// subsumes, else to nothing (it is ambiguous).
var oracleProbes = []string{
	"count(<<UShelf>>)", "[x | {s, k, x} <- <<UShelf, label>>]", "<<notes_notes, text>>", "count(<<shelf_slots>>)",
	"count(<<label>>)",
}

// oracleWorld is what one history runs against: the SQL backend's rows
// and the REST backend, which can fail a request, shared by every server
// the history starts.
type oracleWorld struct {
	t        *testing.T
	dsn      string
	shelf    *rel.DB
	rest     string
	shopDown atomic.Bool
	minFed   int // every server's MinFederatedSources
}

// newOracleWorld starts the backends of a history named name.
func newOracleWorld(t *testing.T, name string, mode oracleMode) *oracleWorld {
	w := &oracleWorld{t: t, dsn: "oracle-shelf-" + name, shelf: rel.NewDB("Shelf")}
	if mode.degraded {
		w.minFed = 1
	}
	slots := w.shelf.MustCreateTable("slots", []rel.Column{{Name: "id", Type: rel.Int}, {Name: "label", Type: rel.String}}, "id")
	slots.MustInsert(int64(1), "top")
	slots.MustInsert(int64(2), "bottom")
	sqlmem.Register(w.dsn, w.shelf)
	t.Cleanup(func() { sqlmem.Unregister(w.dsn) })
	rest := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if w.shopDown.CompareAndSwap(true, false) {
			http.NotFound(rw, r)
			return
		}
		fmt.Fprint(rw, `[{"id": "S1", "barcode": "B-1"}, {"id": "S2", "barcode": "`+ispider.SharedAccession+`"}]`)
	}))
	t.Cleanup(rest.Close)
	w.rest = rest.URL + "/"
	return w
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
	s := New(Config{QueryTimeout: DefaultConfig().QueryTimeout, CacheBytes: 1, MinFederatedSources: w.minFed})
	c := &testClient{t: t, srv: httptest.NewServer(s.Handler())}
	newSessionOver(t, s, "h", st.sources(t))
	w.register(c)
	for _, r := range st.reqs {
		if status, body := w.send(s, c, r); status != r.status {
			t.Fatalf("the reference replays %s %v as %d %s, want %d", r.path, r.body["name"], status, body, r.status)
		}
	}
	return s, c
}

// send sends r to the session of s, Shop down for the first request it
// gets if r says so.
func (w *oracleWorld) send(s *Server, c *testClient, r oracleReq) (int, string) {
	w.shopDown.Store(r.down)
	defer w.shopDown.Store(false)
	if r.path != "probe" {
		return ask(c, "POST", r.path, r.body)
	}
	sess, err := s.Sessions().Get("h", false)
	if err != nil {
		w.t.Fatal(err)
	}
	return http.StatusOK, fmt.Sprintf("%d recovered", sess.Probe(context.Background()))
}

// volatile are the response members that differ between servers and
// runs: timings, cache outcomes, request ids.
var volatile = regexp.MustCompile(`"(elapsed_us|plan_cached|result_cached|request_id)":("[^"]*"|[^,}]*),?`)

// ask sends a request and returns the status and the response as the
// oracle compares it: byte for byte, the volatile members aside.
func ask(c *testClient, method, path string, body any) (int, string) {
	status, out := inProcess(c, method, path, body)
	return status, volatile.ReplaceAllString(string(out), "")
}

// inProcess is c.send in process: the request goes to the server's handler
// with no connection in between.
func inProcess(c *testClient, method, path string, body any) (int, []byte) {
	rec := httptest.NewRecorder()
	c.srv.Config.Handler.ServeHTTP(rec, c.request(method, path, body))
	return rec.Code, rec.Body.Bytes()
}

// view is everything a client sees of the session — /schemas, /report,
// Table 1, the probes and every object of the version at every
// published version and then at the latest, the version omitted — and
// of its answers, how many carry warnings and how many of those the
// result cache served.
func (w *oracleWorld) view(c *testClient) (out []string, warned, served int) {
	_, schemas := ask(c, "GET", "/schemas?session=h", nil)
	_, report := ask(c, "GET", "/report?session=h", nil)
	out = []string{schemas, report}
	current := -1
	var versions []schemaVersionResp
	if err := json.Unmarshal([]byte(schemas), &struct {
		V  *int                 `json:"current_version"`
		Vs *[]schemaVersionResp `json:"versions"`
	}{&current, &versions}); err != nil {
		w.t.Fatal(err)
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
		probes := slices.Concat(queries, oracleProbes)
		for _, sv := range versions {
			if sv.Version == min(i, current) {
				probes = append(probes, sv.Objects...)
			}
		}
		for _, q := range probes {
			body := map[string]any{"session": "h", "query": q}
			if v >= 0 {
				body["version"] = v
			}
			status, raw := inProcess(c, "POST", "/query", body)
			if status == http.StatusOK && bytes.Contains(raw, []byte(`"warnings":[`)) {
				warned++
				if bytes.Contains(raw, []byte(`"result_cached":true`)) {
					served++
				}
			}
			out = append(out, fmt.Sprintf("v%d %s = %d %s", v, q, status, volatile.ReplaceAllString(string(raw), "")))
		}
	}
	return out, warned, served
}

// sameView fails the test at the first line where got and want differ.
func (w *oracleWorld) sameView(stage, what string, got, want []string) {
	w.t.Helper()
	for i := range max(len(got), len(want)) {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			g, r := got[min(i, len(got)-1)], want[min(i, len(want)-1)]
			at := 0
			for at < min(len(g), len(r)) && g[at] == r[at] {
				at++
			}
			from := max(0, at-60)
			w.t.Fatalf("%s: %s differs from the reference at line %d of %d, byte %d:\n got …%.900s\nwant …%.900s",
				stage, what, i, len(want), at, g[from:], r[from:])
		}
	}
}

// oracleMode is one of the daemon's settings the oracle runs under, and
// how federation goes: with auto_drop or not, and strict or degraded —
// over the sources that answer (MinFederatedSources 1), Shop perhaps
// down for it, a probe then backfilling what it skipped.
type oracleMode struct{ cached, breakers, restoreEvery, autoDrop, degraded bool }

// modeOf is the mode whose fields are the bits of b, in order.
func modeOf(b int) oracleMode {
	return oracleMode{b&1 != 0, b&2 != 0, b&4 != 0, b&8 != 0, b&16 != 0}
}

// oracleChoices make the generator's choices: a seeded rng, or a fuzz
// input, one byte a choice, whose history ends with its bytes.
type oracleChoices struct {
	rnd  *rand.Rand
	data []byte
}

func (ch *oracleChoices) intn(n int) int {
	if ch.rnd != nil {
		return ch.rnd.Intn(n)
	}
	k := 0
	if len(ch.data) > 0 {
		k, ch.data = int(ch.data[0])%n, ch.data[1:]
	}
	return k
}

func (ch *oracleChoices) more() bool { return ch.rnd != nil || len(ch.data) > 0 }

// TestSessionOracle is the oracle of what a session means. Seeded
// histories over static, relational, XML, SQL (sqlmem) and REST
// (httptest) sources, with every scalar the encoders could disagree
// about among their rows, mix registration, federation (degraded too:
// Shop down for its probe, and skipped), probes that backfill what it
// skipped, the plan's steps in any order, steps refused part-way, a step
// that fails half-way, queries, rows inserted beside the session (then
// POST /invalidate, while a reader's slowed SQL fetch is in flight),
// forced checkpoints, restores, restarts, a torn append, a crash before
// a checkpoint's rename, and the file edited or reindented. After every
// event:
//
//   - the live session answers as the reference — a storeless, cacheless
//     server that took only the requests that changed the session, over
//     the oracle's own copy of the rows — byte for byte: the event's
//     request, /schemas, /report, and Table 1 and the probes at every
//     version with their warnings; asked again, a cached session serves
//     every answer with warnings from the result cache;
//   - a server that restores the file from nothing answers as the
//     reference over the rows last saved and would write its checkpoint;
//     a file that is one checkpoint it saves again byte for byte;
//   - a forced checkpoint, and a session's with no sources, is what
//     json.Marshal of the state writes (checkFileMatchesReference);
//   - a step's autosave was one save: a checkpoint exactly when the file
//     cannot be continued (federation, a torn append, a reindented file,
//     rows changed, a step failed half-way or a source backfilled since
//     the last save, or a journal that would outgrow its checkpoint),
//     else one record;
//   - a restore over the session took over exactly the in-memory sources
//     whose rows are the file's, and decoded the checkpoint again only if
//     its bytes are not the ones the session read.
//
// The seeds' modes: result cache and extent memo on or off, breakers on
// or off, a restore after every step or none, auto_drop (3, 6), degraded
// federation (2, 4, 8). Some seed restarts before federating, backfills
// what federation skipped, and serves warnings from the cache; under
// -race the reader checks that what restores share is only read. A
// scripted history beside them takes remote participants' path: it
// restarts, then refines over the SQL and the REST source.
func TestSessionOracle(t *testing.T) {
	var histories [9][]string
	t.Cleanup(func() {
		for _, want := range [][2]string{
			{"restart", "federate"},
			{"federate (Shop down)", "probe (recovered)"},
			{"federate", "query (warned, cached)"},
			{"restart", "step X4\n"}, // accepted: a refinement over SQL and REST after a restart
		} {
			if !t.Failed() && !slices.ContainsFunc(histories[:], func(h []string) bool {
				events := "\n" + strings.Join(h, "\n") + "\n"
				first := strings.Index(events, "\n"+want[0])
				return first >= 0 && strings.Index(events, "\n"+want[1]) > first
			}) {
				t.Errorf("no seeded history has %q before %q", want[0], want[1])
			}
		}
	})
	for i, bits := range []int{1, 2 | 16, 3 | 8, 4 | 16, 5, 6 | 8, 7, 16} {
		seed := i + 1
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			mode := modeOf(bits)
			histories[seed] = runOracle(t, newOracleWorld(t, fmt.Sprint(seed), mode), &oracleChoices{rnd: rand.New(rand.NewSource(int64(seed)))}, mode)
		})
	}
	// One history is written out, whatever the seeds draw: remote
	// participants' whole path, cached, a restore after every step. Each
	// byte is one choice (oracleChoices): federation; X1, the intersection
	// of the SQL, the REST and a static source; a restart from the file
	// alone; X4, a refinement over the SQL and the REST source; a crash;
	// and the view asked again.
	t.Run("remote", func(t *testing.T) {
		t.Parallel()
		mode := modeOf(1 | 4)
		script := []byte{
			0, 1, // federate, and the roll that would put federation first
			1, 0, // step, the first of [X1 X3 X4 …]
			13,   // restart
			1, 1, // step, the second of [X3 X4 …]
			14, // crash
			7,  // query: answered again, from the result cache
		}
		histories[0] = runOracle(t, newOracleWorld(t, "remote", mode), &oracleChoices{data: script}, mode)
		if want := []string{"federate", "step X1", "restart", "step X4", "crash", "query (warned, cached)"}; !slices.Equal(histories[0], want) {
			t.Errorf("the scripted history ran %v, want %v", histories[0], want)
		}
	})
}

// FuzzSessionOracle is TestSessionOracle's generator on a fuzz input:
// its first byte is the mode's bits (modeOf), each later one a choice.
// go test runs the corpus: a history that restarts, federates past a
// Shop that is down, backfills it and restores, one that queries, and
// one whose step fails half-way after a backfill published a version.
func FuzzSessionOracle(f *testing.F) {
	f.Add([]byte{21, 13, 1, 0, 1, 0, 1, 1, 17, 1, 0, 12})
	f.Add([]byte{1, 0, 0, 1, 1, 8, 4, 7})
	f.Add([]byte{17, 0, 1, 0, 7, 12, 7, 6})
	var runs atomic.Int64
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			t.Skip()
		}
		mode := modeOf(int(data[0]))
		runOracle(t, newOracleWorld(t, fmt.Sprintf("fuzz-%d", runs.Add(1)), mode), &oracleChoices{data: data[1:]}, mode)
	})
}

func runOracle(t *testing.T, w *oracleWorld, ch *oracleChoices, mode oracleMode) []string {
	cfg := DefaultConfig()
	if !mode.cached {
		cfg.CacheBytes = 1
	}
	cfg.Breaker.Enabled = mode.breakers
	cfg.MinFederatedSources = w.minFed
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
	var history []string
	stage := func() string { return fmt.Sprintf("%+v after %v", mode, history) }
	live := oracleState{notes: []string{"note-01", "note-02"}}
	s, c := start()
	// A session with no sources; a server that restores it from nothing
	// would save its file again byte for byte (Store.Save writes what
	// checkpointOf renders).
	newSessionOver(t, s, "e", nil)
	checkFileMatchesReference(t, s, "e", "a session with no sources")
	empty, _ := os.ReadFile(s.Store().Path("e")) // as checkFileMatchesReference read it
	fs, _ := restoredFromNothing(t, s.Store().Path("e"))
	w.sameView("a session with no sources", "Save ∘ Load", []string{string(checkpointOf(t, fs, "e"))}, []string{string(empty)})
	newSessionOver(t, s, "h", live.sources(t))
	w.register(c)
	checkFileMatchesReference(t, s, "h", "registered, not federated")
	saved := live.clone()
	path := s.Store().Path("h")
	// The file cannot be continued after these until a save: a torn
	// append or a reindented checkpoint in the file, a step that failed
	// half-way or a backfill in the live session.
	torn, indented, unjournaled := false, false, false
	slots, _ := w.shelf.Table("slots")
	shelfSaved := slots.Len() // the SQL rows the file holds

	// The reader asks of whichever session "h" names: Q7 while each event
	// runs, and a Shelf read, slowed, while /invalidate is sent. pause
	// holds it off while the oracle writes rows the session reads.
	var client atomic.Pointer[testClient]
	client.Store(c)
	var pause sync.RWMutex
	var reading sync.WaitGroup
	jobs, stop, stopped := make(chan []byte), make(chan struct{}), make(chan struct{})
	q7, _ := json.Marshal(map[string]any{"session": "h", "query": ispider.Table1Queries()[6].IQL})
	shelfRead, _ := json.Marshal(map[string]any{"session": "h", "query": "[x | {k, x} <- <<shelf_slots, label>>]"})
	tick := func(q []byte) {
		reading.Add(1)
		jobs <- q
	}
	go func() {
		defer close(stopped)
		for {
			var q []byte
			select {
			case <-stop:
				return
			case q = <-jobs:
			}
			pause.RLock()
			cl := client.Load()
			resp, err := cl.srv.Client().Post(cl.srv.URL+"/query", "application/json", bytes.NewReader(q))
			if err == nil {
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			pause.RUnlock()
			reading.Done()
			if err != nil {
				t.Error(err)
			} else if resp.StatusCode >= http.StatusInternalServerError {
				t.Errorf("the reader's query = %d", resp.StatusCode)
			}
		}
	}()
	defer func() { close(stop); <-stopped }()

	// ref is the reference of live: it takes live's requests as they
	// come, and is built again from them after what no request brings
	// about — rows inserted, a restore — and after a refused request,
	// which must leave nothing. Its view is asked once per state of live,
	// and the view over saved once per state of the file.
	var ref struct {
		s    *Server
		c    *testClient
		view []string
	}
	var savedView []string
	drop := func() {
		if ref.c != nil {
			ref.c.srv.Close()
		}
		ref.s, ref.c = nil, nil
	}
	defer drop()
	reference := func() (*Server, *testClient) {
		if ref.s == nil {
			ref.s, ref.c = w.replay(live)
		}
		return ref.s, ref.c
	}
	// written is the checkpoint s would write, read back.
	written := func(s *Server, _ *testClient) string { return string(readBack(checkpointOf(t, s, "h"))) }
	var checked []byte // the file as a restore of it was last checked
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
	// markSaved makes the file the live session's.
	markSaved := func() {
		saved, savedView, torn, indented, unjournaled = live.clone(), nil, false, false, false
		shelfSaved = slots.Len()
	}
	// reset makes the live session the one saved, as a restart does.
	reset := func() {
		if !reflect.DeepEqual(live, saved) {
			drop()
			ref.view = nil
		}
		live, unjournaled = saved.clone(), false
	}
	restart := func() {
		s, c = start()
		client.Store(c)
		reset()
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
			_, remote := w.(query.Pinger) // SQL and REST: every other kind is in memory
			if want := !remote && !indented && live.sameRows(saved, w.SchemaName()); (w == held[i]) != want {
				t.Fatalf("%s: the restore took over %s: %v, want %v", stage(), w.SchemaName(), w == held[i], want)
			}
		}
		if reused := read != nil && bytes.Equal(read.data, checkpoint); (after.file.read == read) != reused {
			t.Fatalf("%s: the restore reused the checkpoint it read: %v, want %v", stage(), after.file.read == read, reused)
		}
		reset()
	}
	// attempt sends a request to the live session and to the reference,
	// which must answer alike, and returns whether it was accepted and
	// the answer; a request the reference accepts, or one that fails
	// half-way, is one that changed the session.
	attempt := func(r oracleReq, halfway bool) (bool, string) {
		rs, rc := reference()
		wantStatus, want := w.send(rs, rc, r)
		if status, got := w.send(s, c, r); status != wantStatus || got != want {
			t.Fatalf("%s: %s %v = %d %s, want %d %s", stage(), r.path, r.body["name"], status, got, wantStatus, want)
		}
		if r.status = wantStatus; wantStatus >= 300 && !halfway {
			drop()
		} else {
			live.reqs = append(live.reqs, r)
			ref.view = nil
		}
		return wantStatus < 300, want
	}
	// saving sends a request that autosaves the session when it is
	// accepted: one save, a checkpoint exactly when one is due.
	saving := func(r oracleReq, step []core.Step) bool {
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
		due := r.path == "/federate" || torn || indented || unjournaled || compacts || !live.sameRows(saved, "")
		if ok, _ := attempt(r, false); !ok {
			return false
		}
		if a, k := saves(s); a != all+1 || (k != cps) != due {
			t.Fatalf("%s: the save wrote %d files, %d of them checkpoints; want one, a checkpoint: %v", stage(), a-all, k-cps, due)
		}
		markSaved()
		if mode.restoreEvery {
			restore()
		}
		return true
	}

	plan := ispider.IntersectionPlan()
	// The plan in any order, X1, X3 and X4 among it, and X2 once X1 is in.
	steps := []core.Step{oracleExtras[0], oracleExtras[2], oracleExtras[3]}
	for _, st := range plan {
		steps = append(steps, st.Step())
	}
	events := []string{"federate", "step", "step", "step", "step", "rejected", "halfway", "query", "insert", "insert", "checkpoint", "torn"}
	if mode.restoreEvery {
		events = append(events, "restore", "restart", "crash", "edit", "reindent")
	}
	if mode.degraded {
		events = append(events, "probe")
	}
	for len(history) < 20 && ch.more() {
		ev := events[ch.intn(len(events))]
		if len(live.reqs) == 0 && ch.intn(3) == 0 {
			ev = "federate" // federation comes early in most histories, not in all
		}
		tick(q7)
		switch ev {
		case "federate":
			r := oracleReq{path: "/federate", body: map[string]any{"session": "h", "name": "F", "auto_drop": mode.autoDrop}}
			if r.down = mode.degraded && ch.intn(2) == 0; r.down {
				ev += " (Shop down)"
			}
			if !saving(r, nil) {
				ev += " (refused)"
			}
		case "probe":
			// Shop is up again: a probe backfills what federation skipped.
			if _, answer := attempt(oracleReq{path: "probe"}, false); answer != "0 recovered" {
				ev += " (recovered)"
				unjournaled = true
				live.reqs[len(live.reqs)-1].recovered = true
			}
		case "step":
			if len(steps) == 0 {
				continue
			}
			i := ch.intn(len(steps))
			ev += " " + steps[i].Name
			if !saving(oracleReq{path: "/" + steps[i].Kind, body: stepBody("h", steps[i])}, steps[i:i+1]) {
				ev += " (refused)"
				break
			}
			if steps[i].Name == "X1" {
				steps = append(steps, oracleExtras[1])
			}
			if ig, err := current().integrator(); err == nil && steps[i].Name == "X4" && !slices.Contains(ig.Skipped(), "Shop") {
				// Both backends' rows are in the object: Shelf's labels and
				// Shop's barcodes.
				if _, got := ask(c, "POST", "/query", map[string]any{"session": "h", "query": "<<UCodes>>"}); !strings.Contains(got, "bottom") || !strings.Contains(got, "B-1") {
					t.Fatalf("%s: <<UCodes>> = %s, want Shelf's and Shop's rows", stage(), got)
				}
			}
			steps = slices.Delete(steps, i, i+1)
		case "rejected":
			st := oracleRejected[ch.intn(len(oracleRejected))]
			ev += " " + st.Name
			if ok, _ := attempt(oracleReq{path: "/" + st.Kind, body: stepBody("h", st)}, false); ok {
				t.Fatalf("%s: %s was accepted", stage(), ev)
			}
		case "halfway":
			// An intersection named as the next global schema: its schema is
			// stored, and the global schema's then is not. Federation is
			// the first request that changed the session, and every later
			// one but a probe that recovered nothing rebuilt the global
			// schema.
			built := slices.DeleteFunc(slices.Clone(live.reqs), func(r oracleReq) bool { return r.path == "probe" && !r.recovered })
			if len(built) == 0 {
				continue
			}
			name := fmt.Sprintf("GS%d", len(built))
			ev += " " + name
			st := core.Step{Kind: core.StepIntersect, Name: name, Mappings: []core.Mapping{core.Entity("<<U"+name+">>",
				core.From("Shelf", "[{'SHELF', k} | k <- <<slots>>]"))}}
			ig := func() *core.Integrator {
				ig, err := current().integrator()
				if err != nil {
					t.Fatal(err)
				}
				return ig
			}
			_, taken := ig().Repo().Schema(name)
			versions := len(ig().Versions())
			if ok, _ := attempt(oracleReq{path: "/intersect", body: stepBody("h", st)}, true); ok {
				t.Fatalf("%s: %s was accepted", stage(), ev)
			}
			// Both halves: the intersection's schema is stored now, and no
			// global version is published. A step refused up front stores
			// neither.
			if _, stored := ig().Repo().Schema(name); taken || !stored || len(ig().Versions()) != versions {
				t.Fatalf("%s: %s did not fail half-way: the name taken before %v, its schema stored %v, %d versions after %d",
					stage(), ev, taken, stored, len(ig().Versions()), versions)
			}
			unjournaled = true
		case "query":
			// Nothing changed since the last view: a cached session serves
			// it from the result cache.
		case "insert":
			pause.Lock()
			switch k := ch.intn(5); {
			case k < 3:
				_, ws := current().sources()
				src := ws[k].(*wrapper.Relational)
				tb := src.DB().Tables()[ch.intn(len(src.DB().Tables()))]
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
				slots.MustInsert(int64(slots.Len()+1), fmt.Sprintf("slot-%02d", slots.Len()+1))
				ev += " Shelf"
				savedView = nil
			}
			pause.Unlock()
			drop()
			ref.view = nil
			// The reader's Shelf fetch is in flight, as a rule, when the
			// invalidation lands: it must not keep what it read.
			sqlmem.SetDelay(w.dsn, 2*time.Millisecond)
			tick(shelfRead)
			c.must("POST", "/sessions/h/invalidate", nil, http.StatusOK)
			reading.Wait()
			sqlmem.SetDelay(w.dsn, 0)
		case "checkpoint":
			// Forced, and held to the writer Store.Save replaced.
			checkFileMatchesReference(t, s, "h", stage())
			markSaved()
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
			i := ch.intn(len(saved.notes))
			old := saved.notes[i]
			edited := map[byte]string{'n': "m", 'm': "n"}[old[0]] + old[1:]
			data, _ := file()
			if bytes.Count(data, []byte(`"`+old+`"`)) != 1 {
				t.Fatalf("%s: the file holds %q %d times, want once", stage(), old, bytes.Count(data, []byte(`"`+old+`"`)))
			}
			if err := os.WriteFile(path, bytes.Replace(data, []byte(`"`+old+`"`), []byte(`"`+edited+`"`), 1), 0o644); err != nil {
				t.Fatal(err)
			}
			saved.notes[i], savedView = edited, nil
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

		if ref.view == nil {
			_, rc := reference()
			ref.view, _, _ = w.view(rc)
		}
		// A torn append and a forced checkpoint write the file alone.
		if ev != "torn" && ev != "checkpoint" {
			got, warned, served := w.view(c)
			w.sameView(stage(), "the live session", got, ref.view)
			if ev == "query" && mode.cached && warned > 0 {
				if served != warned {
					t.Fatalf("%s: asked again, %d of %d answers with warnings came from the result cache", stage(), served, warned)
				}
				history[len(history)-1] += " (warned, cached)"
			}
		}
		// The file, unless the event left it and the rows it does not hold
		// as they were.
		data, _ := file()
		if bytes.Equal(data, checked) && ev != "insert Shelf" {
			continue
		}
		checked = data
		if savedView == nil && reflect.DeepEqual(live, saved) {
			savedView = append(slices.Clone(ref.view), written(reference()))
		} else if savedView == nil {
			rs, rc := w.replay(saved)
			v, _, _ := w.view(rc)
			savedView = append(v, written(rs, rc))
			rc.srv.Close()
		}
		fs, fc := restoredFromNothing(t, path)
		got, _, _ := w.view(fc)
		cp := checkpointOf(t, fs, "h")
		if bytes.IndexByte(data, recordSep) < 0 && !indented && slots.Len() == shelfSaved {
			// One checkpoint, of the SQL rows there are: Save ∘ Load is the identity.
			w.sameView(stage(), "Save ∘ Load", []string{string(cp)}, []string{string(data)})
		}
		w.sameView(stage(), "a session restored from nothing", append(got, string(readBack(cp))), savedView)
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
	t.Logf("%+v: %v", mode, history)
	return history
}
