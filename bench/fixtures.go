package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strconv"
	"sync/atomic"

	"github.com/dataspace/automed/internal/core"
	"github.com/dataspace/automed/internal/ispider"
	"github.com/dataspace/automed/internal/rel"
	"github.com/dataspace/automed/internal/server"
	"github.com/dataspace/automed/internal/sqlmem"
	"github.com/dataspace/automed/internal/wrapper"
)

// sizes are the workload dimensions. full is what the benchmark
// measures; tiny is the same shape small enough for go test.
type sizes struct {
	table1               ispider.Config
	table1Accessions     int
	hot                  ispider.Config
	hotSessions          int
	hotAccessions, hotQ6 int
	items, events, page  int
	orders, dims         int
	scanConsts           int
	payg                 ispider.Config
	// sample is how many ops of client 0's stream each pass of a
	// traced run issues. Passes are counted, not timed, so every exact
	// count repeats.
	sample map[string]int
	// probe sizes the case study the fixed-fixture layer probes run on.
	probe ispider.Config
}

var (
	// full sizes: table1 is the ISSUE's case-study scale. The scan
	// tables are sized so the measurement window holds 2 000 queries
	// while items (6 pages) and events (12 pages) stay larger than the
	// 4 096-row scan buffer, so scans stream and nothing about them is
	// cached; orders (2 pages) ⋈ dims is the materialised counterpart.
	full = sizes{
		table1:           ispider.Config{Proteins: 480, Searches: 20, HitsPerSearch: 20, PeptidesPerHit: 3},
		table1Accessions: 64,
		hot:              ispider.BenchConfig(),
		hotSessions:      8,
		hotAccessions:    100,
		hotQ6:            45,
		items:            24_000,
		events:           6_000,
		page:             500,
		orders:           8_000,
		dims:             1_000,
		scanConsts:       16,
		payg:             ispider.BenchConfig(),
		sample:           map[string]int{"table1_warm": 2000, "hot_repeat": 2000, "scan_large": 200, "payg_mixed": 500},
		probe:            ispider.BenchConfig(),
	}
	tiny = sizes{
		table1:           ispider.DefaultConfig(),
		table1Accessions: 4,
		hot:              ispider.DefaultConfig(),
		hotSessions:      2,
		hotAccessions:    6,
		hotQ6:            3,
		// 9 000 rows still exceed the scan buffer, so the tiny scans
		// stream too.
		items:      9_000,
		events:     2_000,
		page:       500,
		orders:     5_000,
		dims:       100,
		scanConsts: 3,
		payg:       ispider.DefaultConfig(),
		sample:     map[string]int{"table1_warm": 60, "hot_repeat": 60, "scan_large": 12, "payg_mixed": 60},
		probe:      ispider.DefaultConfig(),
	}
)

// A fixture is one set-up workload: the daemon on a loopback port, the
// per-client op streams with their oracle answers, and the handles the
// traced run needs to enter the program below the HTTP layer.
type fixture struct {
	srv  *server.Server
	base string
	// streamFor returns client id's op stream.
	streamFor func(id int) stream
	// stationary, when set, reports after the run whether the workload
	// left the daemon the size it found it (payg_mixed).
	stationary func() error
	// sess and ig are one fully integrated session and its integrator:
	// the target of the ladder's direct calls. Every session of a
	// workload holds the same sources and plan, so one stands for all.
	sess *server.Session
	ig   *core.Integrator
	// sources are the workload's wrappers, shared by its sessions.
	sources []wrapper.Wrapper
	cleanup []func()
}

// stop closes every listener and removes every file the set-up made.
func (f *fixture) stop() {
	for i := len(f.cleanup) - 1; i >= 0; i-- {
		f.cleanup[i]()
	}
	f.cleanup = nil
}

// newDaemon builds the daemon from the shipped defaults and serves it
// on a loopback port.
func newDaemon(f *fixture) {
	f.srv = server.New(server.DefaultConfig())
	ts := httptest.NewServer(f.srv.Handler())
	f.base = ts.URL
	f.cleanup = append(f.cleanup, ts.Close)
}

// servePost serves one POST in process into a writer that keeps the
// status and drops the body, so the call holds the daemon's work and
// none of a transport's.
func servePost(h http.Handler, path string, body []byte) int {
	w := &discardWriter{header: make(http.Header)}
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return w.status
}

type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// prime issues every op once, serially and in process, so that the
// extent memos, join indexes and plan cache a warm workload runs on are
// each built exactly once: two clients racing to fill them cold can
// leave duplicate extents cached, and the run then carries a larger
// heap for its whole length.
func prime(f *fixture, ops []*op) error {
	h := f.srv.Handler()
	for _, o := range ops {
		if status := servePost(h, o.path, o.body); status != http.StatusOK {
			return fmt.Errorf("priming %s %s: status %d", o.class, o.path, status)
		}
	}
	return nil
}

// newSession registers the sources in a new session, federates it and
// replays the plan through the session API, which invalidates the
// result cache exactly as the HTTP endpoints do.
func newSession(srv *server.Server, name string, sources []wrapper.Wrapper, plan []ispider.PlanStep) (*server.Session, *core.Integrator, error) {
	sess, err := srv.Sessions().Get(name, true)
	if err != nil {
		return nil, nil, err
	}
	for _, w := range sources {
		if err := sess.AddSource(w); err != nil {
			return nil, nil, err
		}
	}
	ig, err := sess.Federate(context.Background(), "F", false)
	if err != nil {
		return nil, nil, err
	}
	for _, st := range plan {
		if st.Kind == "intersect" {
			_, err = sess.Intersect(st.Name, st.Mappings, st.Enables...)
		} else {
			err = sess.Refine(st.Name, st.Refinement, st.Enables...)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("session %s step %s: %w", name, st.Name, err)
		}
	}
	return sess, ig, nil
}

// newOracle is the reference the responses are checked against: a
// private integrator over the same sources, evaluating serially over
// materialised extents, federated and not yet integrated.
func newOracle(sources []wrapper.Wrapper) (*core.Integrator, error) {
	ig, err := core.New(sources...)
	if err != nil {
		return nil, err
	}
	ig.Processor().Parallel = 1
	ig.Processor().ScanBuffer = -1
	if _, err := ig.Federate("F"); err != nil {
		return nil, err
	}
	return ig, nil
}

// oracleNeedle evaluates one text on the oracle.
func oracleNeedle(orc *core.Integrator, text string) ([]byte, error) {
	res, err := orc.Query(text)
	if err != nil {
		return nil, fmt.Errorf("oracle: %s: %w", text, err)
	}
	return needle(res.Value.String()), nil
}

func caseSources(cfg ispider.Config, seed uint64) ([]wrapper.Wrapper, error) {
	cfg.Seed = int64(seed)
	pedro, gpmdb, pepseeker, err := ispider.Wrappers(cfg)
	if err != nil {
		return nil, err
	}
	return []wrapper.Wrapper{pedro, gpmdb, pepseeker}, nil
}

// setupTable1 is table1_warm: one session at the full plan, Q1–Q7
// uniformly, result cache bypassed, extents warm.
func setupTable1(seed uint64, sz sizes, _ string) (*fixture, error) {
	f := &fixture{}
	var err error
	if f.sources, err = caseSources(sz.table1, seed); err != nil {
		return nil, err
	}
	newDaemon(f)
	plan := ispider.IntersectionPlan()
	const name = "t1"
	if f.sess, f.ig, err = newSession(f.srv, name, f.sources, plan); err != nil {
		return f, err
	}
	orc, err := newOracle(f.sources)
	if err != nil {
		return f, err
	}
	if err := ispider.ReplayPlan(orc, plan); err != nil {
		return f, err
	}
	n := sz.table1Accessions
	texts := caseTexts(rngFor(seed, rngPools), sz.table1,
		map[string]int{"Q1": n, "Q2": len(descWords), "Q3": len(organisms), "Q4": 1, "Q5": n, "Q6": 1, "Q7": 1})
	var classes [][]*op
	for _, id := range classIDs(texts) {
		var ops []*op
		for _, text := range texts[id] {
			want, err := oracleNeedle(orc, text)
			if err != nil {
				return f, err
			}
			ops = append(ops, &op{class: id, query: true, text: text, session: name,
				path: "/query", body: queryBody(name, text, true), want: want})
		}
		if err := prime(f, ops); err != nil {
			return f, err
		}
		classes = append(classes, ops)
	}
	f.streamFor = func(id int) stream { return newBlockStream(rngFor(seed, id), classes) }
	return f, nil
}

// setupHot is hot_repeat: several identical sessions over shared
// wrapper instances, zipf-popular texts answered from the result
// cache.
func setupHot(seed uint64, sz sizes, _ string) (*fixture, error) {
	f := &fixture{}
	var err error
	if f.sources, err = caseSources(sz.hot, seed); err != nil {
		return nil, err
	}
	newDaemon(f)
	plan := ispider.IntersectionPlan()
	names := make([]string, sz.hotSessions)
	for i := range names {
		names[i] = "hot-" + strconv.Itoa(i)
		sess, ig, err := newSession(f.srv, names[i], f.sources, plan)
		if err != nil {
			return f, err
		}
		if i == 0 {
			f.sess, f.ig = sess, ig
		}
	}
	orc, err := newOracle(f.sources)
	if err != nil {
		return f, err
	}
	if err := ispider.ReplayPlan(orc, plan); err != nil {
		return f, err
	}
	rng := rngFor(seed, rngPools)
	byID := caseTexts(rng, sz.hot, map[string]int{"Q1": sz.hotAccessions, "Q2": len(descWords),
		"Q3": len(organisms), "Q5": sz.hotAccessions, "Q6": sz.hotQ6})
	// Popularity rank: each class's texts are spread evenly over the
	// ranks (a class with n texts holds ranks at (j+½)/n of the way
	// down), so the zipf head holds the same classes whatever the seed
	// and only the constants differ.
	type ranked struct {
		class, text string
		at          float64
	}
	var texts []ranked
	for _, id := range classIDs(byID) {
		rng.Shuffle(len(byID[id]), func(i, j int) { byID[id][i], byID[id][j] = byID[id][j], byID[id][i] })
		for j, t := range byID[id] {
			texts = append(texts, ranked{id, t, (float64(j) + 0.5) / float64(len(byID[id]))})
		}
	}
	slices.SortStableFunc(texts, func(a, b ranked) int { return cmp.Compare(a.at, b.at) })
	ops := make([][][2]*op, len(names))
	for s := range ops {
		ops[s] = make([][2]*op, len(texts))
	}
	for t, rt := range texts {
		want, err := oracleNeedle(orc, rt.text)
		if err != nil {
			return f, err
		}
		for s, name := range names {
			for nc := range 2 {
				ops[s][t][nc] = &op{class: rt.class, query: true, text: rt.text, session: name,
					path: "/query", body: queryBody(name, rt.text, nc == 1), want: want}
			}
		}
	}
	for s := range ops {
		warm := make([]*op, len(texts))
		for t := range texts {
			warm[t] = ops[s][t][0]
		}
		if err := prime(f, warm); err != nil {
			return f, err
		}
	}
	f.streamFor = func(id int) stream {
		r := rngFor(seed, id)
		return &zipfStream{rng: r, ops: ops,
			sessions: rand.NewZipf(r, 1.2, 1, uint64(len(names)-1)),
			texts:    rand.NewZipf(r, 1.1, 1, uint64(len(texts)-1))}
	}
	return f, nil
}

// scanMod is the number of distinct val values in the scanned tables:
// row counts are multiples of it and val is a bijection of the row
// number modulo it, so count(val < c) is rows/scanMod × c exactly.
const scanMod = 1000

// dsnSeq keeps the sqlmem registrations of repeated set-ups apart.
var dsnSeq atomic.Int64

// sqlSource registers db with the in-process driver and wraps it as a
// live SQL source paged at the wrapper's default page size.
func sqlSource(f *fixture, name string, db *rel.DB) (wrapper.Wrapper, error) {
	dsn := fmt.Sprintf("bench-%d-%s", dsnSeq.Add(1), name)
	sqlmem.Register(dsn, db)
	f.cleanup = append(f.cleanup, func() { sqlmem.Unregister(dsn) })
	return wrapper.NewSQL(name, wrapper.SQLConfig{Driver: sqlmem.DriverName, DSN: dsn})
}

// regionOf spreads dims over seven regions unevenly, so the join's
// answer depends on its constant.
func regionOf(dim int) string { return "R" + strconv.Itoa(dim*dim%7) }

// setupScan is scan_large: per client one session federating a large
// SQL table, a paginated REST collection, and a SQL ⋈ in-memory pair
// for the cold join. Answers are known in closed form from the
// generator, so the oracle never materialises what the daemon streams
// (peak_rss_mb stays the daemon's own).
func setupScan(seed uint64, sz sizes, _ string) (*fixture, error) {
	if sz.items%scanMod != 0 || sz.events%scanMod != 0 || sz.orders%sz.dims != 0 {
		return nil, fmt.Errorf("scan_large: row counts must be multiples of %d (orders of dims)", scanMod)
	}
	f := &fixture{}
	rng := rngFor(seed, rngData)
	// 7919 and 7907 are prime to scanMod and to any dims count used, so
	// i ↦ (i·p + off) mod m is a bijection on each block of m rows.
	offItems, offEvents, offOrders := rng.IntN(scanMod), rng.IntN(scanMod), rng.IntN(sz.dims)

	big := rel.NewDB("Big")
	items := big.MustCreateTable("items", []rel.Column{
		{Name: "id", Type: rel.Int}, {Name: "val", Type: rel.Int}, {Name: "label", Type: rel.String}}, "id")
	for i := range sz.items {
		items.MustInsert(int64(i), int64((i*7919+offItems)%scanMod), "L"+strconv.Itoa(i%5000))
	}
	shop := rel.NewDB("Shop")
	orders := shop.MustCreateTable("orders", []rel.Column{
		{Name: "id", Type: rel.Int}, {Name: "dim", Type: rel.Int}, {Name: "amount", Type: rel.Float}}, "id")
	for i := range sz.orders {
		orders.MustInsert(int64(i), int64((i*7907+offOrders)%sz.dims), float64(i%97)+0.5)
	}
	dimDB := rel.NewDB("Dims")
	dims := dimDB.MustCreateTable("dims", []rel.Column{
		{Name: "id", Type: rel.Int}, {Name: "region", Type: rel.String}}, "id")
	perRegion := make(map[string]int)
	for d := range sz.dims {
		dims.MustInsert(int64(d), regionOf(d))
		perRegion[regionOf(d)]++
	}

	// The REST endpoint serves pre-encoded pages chained by Link
	// headers: its own cost is a map lookup and a write, so the
	// measured cost is the wrapper's fetch and decode.
	type event struct {
		ID  int    `json:"id"`
		Val int    `json:"val"`
		Tag string `json:"tag"`
	}
	var pages [][]byte
	for lo := 0; lo < sz.events; lo += sz.page {
		page := make([]event, 0, sz.page)
		for i := lo; i < min(lo+sz.page, sz.events); i++ {
			page = append(page, event{i, (i*7919 + offEvents) % scanMod, "T" + strconv.Itoa(i%100)})
		}
		b, err := json.Marshal(page)
		if err != nil {
			return nil, err
		}
		pages = append(pages, b)
	}
	feed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p, _ := strconv.Atoi(r.URL.Query().Get("page"))
		if r.URL.Path != "/events" || p < 0 || p >= len(pages) {
			http.NotFound(w, r)
			return
		}
		if p+1 < len(pages) {
			w.Header().Set("Link", fmt.Sprintf(`</events?page=%d>; rel="next"`, p+1))
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(pages[p])
	}))
	f.cleanup = append(f.cleanup, feed.Close)

	bigW, err := sqlSource(f, "Big", big)
	if err != nil {
		return f, err
	}
	shopW, err := sqlSource(f, "Shop", shop)
	if err != nil {
		return f, err
	}
	feedW, err := wrapper.NewREST("Feed", wrapper.RESTConfig{Endpoint: feed.URL,
		Collections: []wrapper.RESTCollection{{Name: "events", Fields: []string{"val", "tag"}}}})
	if err != nil {
		return f, err
	}
	dimW, err := wrapper.NewRelational("Dims", dimDB)
	if err != nil {
		return f, err
	}
	f.sources = []wrapper.Wrapper{bigW, feedW, shopW, dimW}
	newDaemon(f)

	pool := rngFor(seed, rngPools)
	// One constant from each of scanConsts equal strata of 1 … scanMod-1:
	// never an empty or a full scan, and the rows a class selects in
	// total barely depend on the seed.
	consts := func() []int {
		out := make([]int, sz.scanConsts)
		width := (scanMod - 1) / sz.scanConsts
		for i := range out {
			out[i] = 1 + i*width + pool.IntN(width)
		}
		return out
	}
	sqlConsts, restConsts := consts(), consts()
	count := func(n int) []byte { return needle(strconv.Itoa(n)) }
	perClient := make([][][]*op, clients)
	for c := range perClient {
		name := "scan-" + strconv.Itoa(c)
		sess, ig, err := newSession(f.srv, name, f.sources, nil)
		if err != nil {
			return f, err
		}
		if c == 0 {
			f.sess, f.ig = sess, ig
		}
		q := func(class, text string, want []byte, cold bool) *op {
			return &op{class: class, query: true, text: text, session: name, cold: cold,
				path: "/query", body: queryBody(name, text, true), want: want}
		}
		var scanSQL, scanREST, join []*op
		for _, c := range sqlConsts {
			scanSQL = append(scanSQL, q("scan_sql",
				fmt.Sprintf("count([k | {k, v} <- <<big_items, val>>; v < %d])", c),
				count(sz.items/scanMod*c), false))
		}
		for _, c := range restConsts {
			scanREST = append(scanREST, q("scan_rest",
				fmt.Sprintf("count([k | {k, v} <- <<feed_events, val>>; v < %d])", c),
				count(sz.events/scanMod*c), false))
		}
		for r := range 7 {
			region := "R" + strconv.Itoa(r)
			join = append(join, q("cold_join",
				fmt.Sprintf("count([{o, d} | {o, dk} <- <<shop_orders, dim>>; {d, r} <- <<dims_dims, region>>; d = dk; r = '%s'])", region),
				count(sz.orders/sz.dims*perRegion[region]), true))
		}
		perClient[c] = [][]*op{scanSQL, scanREST, join}
	}
	f.streamFor = func(id int) stream { return newBlockStream(rngFor(seed, id), perClient[id]) }
	return f, nil
}

// setupPayg is payg_mixed: a durable daemon where each client cycles
// its own session through restore → the whole plan, querying after
// every step.
func setupPayg(seed uint64, sz sizes, scratch string) (*fixture, error) {
	f := &fixture{}
	var err error
	if f.sources, err = caseSources(sz.payg, seed); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratch, "payg-")
	if err != nil {
		return nil, err
	}
	f.cleanup = append(f.cleanup, func() { _ = os.RemoveAll(dir) })
	newDaemon(f)
	if err := f.srv.OpenStore(dir); err != nil {
		return f, err
	}
	plan := ispider.IntersectionPlan()
	// The ladder's session is never restored, so its integrator stays
	// reachable.
	if f.sess, f.ig, err = newSession(f.srv, "ladder", f.sources, plan); err != nil {
		return f, err
	}

	// Oracle answers per schema version: step k's queries are checked
	// against the oracle as it stood after its own step k.
	orc, err := newOracle(f.sources)
	if err != nil {
		return f, err
	}
	wants := make([]map[string][]byte, len(plan))
	for k, st := range plan {
		if err := ispider.ReplayPlan(orc, plan[k:k+1]); err != nil {
			return f, err
		}
		wants[k] = make(map[string][]byte)
		for _, q := range ispider.Table1Queries() {
			if ispider.AnswerableAfter(q, st.Name) {
				if wants[k][q.ID], err = oracleNeedle(orc, q.IQL); err != nil {
					return f, err
				}
			}
		}
	}

	templates := make([]paygStream, clients)
	for c := range templates {
		name := "payg-" + strconv.Itoa(c)
		if _, _, err := newSession(f.srv, name, f.sources, nil); err != nil {
			return f, err
		}
		if _, err := f.srv.SnapshotSession(name); err != nil {
			return f, err
		}
		path := f.srv.Store().Path(name)
		baseline, err := os.ReadFile(path)
		if err != nil {
			return f, err
		}
		s := &templates[c]
		*s = paygStream{srv: f.srv, session: name, path: path, baseline: baseline}
		s.cycle = append(s.cycle, &op{class: "restore", session: name,
			path: "/sessions/" + name + "/restore", want: []byte(`"federated":true,"version":0`)})
		for k, st := range plan {
			// A step's response names the schema version it published;
			// a session that restore had not reset would answer with a
			// later one and fail here.
			s.cycle = append(s.cycle, &op{class: "step", session: name, path: "/" + st.Kind, body: stepBody(name, st),
				want: fmt.Appendf(nil, `"global_schema":"GS%d","version":%d`, k+1, k+1)})
			for range 2 { // evaluated after the invalidation, then a result-cache hit
				for _, q := range ispider.Table1Queries() {
					if want, ok := wants[k][q.ID]; ok {
						s.cycle = append(s.cycle, &op{class: q.ID, query: true, text: q.IQL, session: name,
							path: "/query", body: queryBody(name, q.IQL, false), want: want})
					}
				}
			}
		}
	}
	// Every stream starts at a restore, so a fresh one is a fresh
	// cycle whatever state an earlier stream left the session in.
	var streams []*paygStream
	f.streamFor = func(id int) stream {
		s := templates[id]
		streams = append(streams, &s)
		return &s
	}
	sessions := f.srv.Sessions().Len()
	f.stationary = func() error {
		if n := f.srv.Sessions().Len(); n != sessions {
			return fmt.Errorf("payg_mixed: %d sessions after the run, %d before", n, sessions)
		}
		for _, s := range streams {
			if s.err != nil {
				return s.err
			}
		}
		return nil
	}
	return f, nil
}

// stepBody renders a plan step as the /intersect or /refine request.
func stepBody(session string, st ispider.PlanStep) []byte {
	type fwd struct {
		Source string `json:"source,omitempty"`
		Query  string `json:"query"`
	}
	type mapping struct {
		Target  string `json:"target"`
		Forward []fwd  `json:"forward"`
	}
	conv := func(m core.Mapping) mapping {
		out := mapping{Target: m.Target}
		for _, sq := range m.Forward {
			out.Forward = append(out.Forward, fwd{sq.Source, sq.Query})
		}
		return out
	}
	body := map[string]any{"session": session, "name": st.Name, "enables": st.Enables}
	if st.Kind == "intersect" {
		ms := make([]mapping, len(st.Mappings))
		for i, m := range st.Mappings {
			ms[i] = conv(m)
		}
		body["mappings"] = ms
	} else {
		body["mapping"] = conv(st.Refinement)
	}
	b, err := json.Marshal(body)
	if err != nil {
		panic(err)
	}
	return b
}

// paygStream walks one session's cycle forever. Between cycles it
// puts the federated-only snapshot back on disk (untimed) for the
// restore that opens the next cycle, and checks that the finished
// cycle left the schema the size every earlier cycle did.
type paygStream struct {
	srv      *server.Server
	session  string
	path     string
	baseline []byte
	cycle    []*op
	pos      int
	objects  int // current-version object count after a full cycle
	err      error
}

func (s *paygStream) next() *op {
	if s.pos == len(s.cycle) {
		s.pos = 0
		if n, err := s.schemaObjects(); err != nil {
			s.err = err
		} else if s.objects == 0 {
			s.objects = n
		} else if n != s.objects {
			s.err = fmt.Errorf("payg_mixed: session %s ends a cycle with %d schema objects, earlier cycles with %d", s.session, n, s.objects)
		}
	}
	if s.pos == 0 {
		if err := os.WriteFile(s.path, s.baseline, 0o644); err != nil {
			s.err = err
		}
	}
	o := s.cycle[s.pos]
	s.pos++
	return o
}

// schemaObjects asks the daemon, in process, how many objects the
// session's current global schema has.
func (s *paygStream) schemaObjects() (int, error) {
	rec := httptest.NewRecorder()
	s.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/schemas?session="+s.session, nil))
	var resp struct {
		Versions []struct {
			Objects []string `json:"objects"`
		} `json:"versions"`
	}
	if err := json.NewDecoder(bytes.NewReader(rec.Body.Bytes())).Decode(&resp); err != nil || len(resp.Versions) == 0 {
		return 0, fmt.Errorf("payg_mixed: GET /schemas for %s: status %d, %v", s.session, rec.Code, err)
	}
	return len(resp.Versions[len(resp.Versions)-1].Objects), nil
}

// workloads names the four set-ups in the order -all runs them.
var workloads = []struct {
	name  string
	setup func(seed uint64, sz sizes, scratch string) (*fixture, error)
}{
	{"table1_warm", setupTable1},
	{"hot_repeat", setupHot},
	{"scan_large", setupScan},
	{"payg_mixed", setupPayg},
}
