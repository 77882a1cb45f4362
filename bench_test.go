package automed

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/dataspace/automed/internal/classical"
	"github.com/dataspace/automed/internal/core"
	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/ispider"
	"github.com/dataspace/automed/internal/match"
	"github.com/dataspace/automed/internal/rel"
	"github.com/dataspace/automed/internal/server"
	"github.com/dataspace/automed/internal/sqlmem"
	"github.com/dataspace/automed/internal/transform"
	"github.com/dataspace/automed/internal/wrapper"
)

// Benchmark harness for the paper's evaluation artefacts (see
// EXPERIMENTS.md): E1 = Table 1 queries, E2 = effort comparison,
// E3 = pay-as-you-go curve, F1-F4 = the construction figures, plus
// ablation micro-benchmarks for the substrates.

var (
	benchOnce sync.Once
	benchIG   *core.Integrator
	benchErr  error
)

// benchIntegrator builds the case-study integration once, reused by the
// query benchmarks (warm-path evaluation, as a deployed dataspace would
// run).
func benchIntegrator(b *testing.B) *core.Integrator {
	b.Helper()
	benchOnce.Do(func() {
		benchIG, benchErr = ispider.RunIntersection(ispider.BenchConfig(), false)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchIG
}

// BenchmarkTable1 runs each of the seven priority queries over the
// integrated global schema (E1). Sub-benchmarks are named by query id.
func BenchmarkTable1(b *testing.B) {
	ig := benchIntegrator(b)
	for _, q := range ispider.Table1Queries() {
		b.Run(q.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := ig.Query(q.IQL)
				if err != nil {
					b.Fatal(err)
				}
				if res.Value.Kind == iql.KindBag && res.Value.Len() == 0 {
					b.Fatalf("%s returned no results", q.ID)
				}
			}
		})
	}
}

// BenchmarkTable1Q1Cold re-answers Q1 with cold extent caches every
// iteration: the full GAV unfolding cost.
func BenchmarkTable1Q1Cold(b *testing.B) {
	ig := benchIntegrator(b)
	q, _ := ispider.QueryByID("Q1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ig.Processor().InvalidateCache()
		if _, err := ig.Query(q.IQL); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEffortIntersection builds the entire intersection-based
// integration from scratch (E2, intersection side: 26 manual steps and
// all tool-generated machinery).
func BenchmarkEffortIntersection(b *testing.B) {
	cfg := ispider.DefaultConfig()
	for i := 0; i < b.N; i++ {
		ig, err := ispider.RunIntersection(cfg, false)
		if err != nil {
			b.Fatal(err)
		}
		if ig.Report().TotalManual() != 26 {
			b.Fatalf("manual = %d", ig.Report().TotalManual())
		}
	}
}

// BenchmarkEffortClassical builds the entire classical integration
// (E2, baseline side: 95 counted non-trivial steps).
func BenchmarkEffortClassical(b *testing.B) {
	cfg := ispider.DefaultConfig()
	for i := 0; i < b.N; i++ {
		cb, err := ispider.RunClassical(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if cb.TotalNonTrivial() != 95 {
			b.Fatalf("non-trivial = %d", cb.TotalNonTrivial())
		}
	}
}

// BenchmarkPayAsYouGoCurve replays the plan step by step, probing query
// answerability after every iteration (E3).
func BenchmarkPayAsYouGoCurve(b *testing.B) {
	cfg := ispider.DefaultConfig()
	for i := 0; i < b.N; i++ {
		pedro, gpmdb, pepseeker, err := ispider.Wrappers(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ig, err := core.New(pedro, gpmdb, pepseeker)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ig.Federate("F"); err != nil {
			b.Fatal(err)
		}
		answerable := 0
		for _, step := range ispider.IntersectionPlan() {
			if err := ig.Apply(step.Step()); err != nil {
				b.Fatal(err)
			}
			for _, q := range ispider.Table1Queries() {
				if _, err := ig.Query(q.IQL); err == nil {
					answerable++
				}
			}
		}
		if answerable == 0 {
			b.Fatal("no queries became answerable")
		}
	}
}

// toySources builds the three bookstore-style sources used by the
// figure benchmarks.
func toySources(b *testing.B) []Wrapper {
	b.Helper()
	lib, err := NewSource("Library").
		Table("books", "id:int", "isbn", "title", "shelf").
		Insert("books", int64(1), "978-1", "Dataspaces", "A1").
		Insert("books", int64(2), "978-2", "Schema Matching", "A2").
		Wrap()
	if err != nil {
		b.Fatal(err)
	}
	shop, err := NewSource("Shop").
		Table("items", "sku", "barcode", "name", "price:float").
		Insert("items", "S1", "978-2", "Schema Matching", 30.0).
		Wrap()
	if err != nil {
		b.Fatal(err)
	}
	archive, err := NewSource("Archive").
		Table("scans", "scan_id:int", "format").
		Insert("scans", int64(9), "pdf").
		Wrap()
	if err != nil {
		b.Fatal(err)
	}
	return []Wrapper{lib, shop, archive}
}

var toyMappings = []Mapping{
	Entity("<<UBook>>",
		From("Library", "[{'LIB', k} | k <- <<books>>]"),
		From("Shop", "[{'SHOP', k} | k <- <<items>>]"),
	),
	Attribute("<<UBook, isbn>>",
		From("Library", "[{'LIB', k, x} | {k, x} <- <<books, isbn>>]"),
		From("Shop", "[{'SHOP', k, x} | {k, x} <- <<items, barcode>>]"),
	),
}

// BenchmarkFigure1UnionCompatible constructs the Fig. 1 topology:
// union-compatible schemas ident-merged into a global schema.
func BenchmarkFigure1UnionCompatible(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ws := toySources(b)
		cb, err := classical.New(ws...)
		if err != nil {
			b.Fatal(err)
		}
		err = cb.AddStage(classical.Stage{Name: "GS1", Concepts: []classical.Concept{
			{Object: "<<books>>", Identity: "Library",
				Mapped: []classical.MappedFrom{{Source: "Shop", Query: "[k | k <- <<items>>]", Counted: true}}},
			{Object: "<<books, isbn>>", Identity: "Library",
				Mapped: []classical.MappedFrom{{Source: "Shop", Query: "[{k, x} | {k, x} <- <<items, barcode>>]", Counted: true}}},
		}})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cb.Merge("GS"); err != nil {
			b.Fatal(err)
		}
		if _, err := cb.Query("count(<<books>>)"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2IntersectionSchema constructs a pairwise intersection
// schema in the canonical normal form (Fig. 2).
func BenchmarkFigure2IntersectionSchema(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ws := toySources(b)
		ig, err := core.New(ws...)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ig.Federate("F"); err != nil {
			b.Fatal(err)
		}
		in, err := ig.Intersect("I1", toyMappings)
		if err != nil {
			b.Fatal(err)
		}
		for _, pw := range in.PathwayBySource {
			if err := pw.IsIntersectionForm(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure3Federation builds the federated schema of all
// sources (Fig. 3).
func BenchmarkFigure3Federation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ig, err := core.New(toySources(b)...)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ig.Federate("F"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4GlobalSchema builds the global schema with redundancy
// dropping, G = I ∪ (ES1−I) ∪ (ES2−I) ∪ ES3 (Fig. 4).
func BenchmarkFigure4GlobalSchema(b *testing.B) {
	ws := toySources(b)
	ig, err := core.New(ws...)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ig.Federate("F"); err != nil {
		b.Fatal(err)
	}
	if _, err := ig.Intersect("I1", toyMappings); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ig.BuildGlobal(true); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Substrate ablations ----

// BenchmarkIQLParse measures the IQL front end on a Table-1-sized
// query.
func BenchmarkIQLParse(b *testing.B) {
	q, _ := ispider.QueryByID("Q5")
	for i := 0; i < b.N; i++ {
		if _, err := iql.Parse(q.IQL); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIQLEval measures raw comprehension evaluation over in-memory
// extents (a 3-generator join).
func BenchmarkIQLEval(b *testing.B) {
	n := 200
	pairs := make([]iql.Value, n)
	for i := range pairs {
		pairs[i] = iql.Tuple(iql.Int(int64(i)), iql.Int(int64(i%17)))
	}
	ext := iql.ExtentsFunc(func(parts []string) (iql.Value, error) {
		return iql.BagOf(pairs), nil
	})
	e := iql.MustParse("count([{a, c} | {a, x} <- <<t, u>>; {c, y} <- <<t, u>>; x = y])")
	ev := iql.NewEvaluator(ext)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Eval(e, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathwayReversal measures automatic BAV reversal of a
// case-study-sized pathway.
func BenchmarkPathwayReversal(b *testing.B) {
	ig := benchIntegrator(b)
	var pw *transform.Pathway
	for _, in := range ig.Intersections() {
		for _, p := range in.PathwayBySource {
			if pw == nil || p.Len() > pw.Len() {
				pw = p
			}
		}
	}
	if pw == nil {
		b.Fatal("no pathway")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rev := pw.Reverse()
		if rev.Len() != pw.Len() {
			b.Fatal("bad reversal")
		}
	}
}

// BenchmarkMatcher measures matcher throughput between the two largest
// case-study schemas.
func BenchmarkMatcher(b *testing.B) {
	_, gpmdb, pepseeker, err := ispider.Wrappers(ispider.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	m := match.New(match.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := m.Match(gpmdb.Schema(), pepseeker.Schema(), nil, nil)
		if len(out) == 0 {
			b.Fatal("no correspondences")
		}
	}
}

// BenchmarkFederationScaling measures Federate against source schema
// width.
func BenchmarkFederationScaling(b *testing.B) {
	for _, tables := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("tables=%d", tables), func(b *testing.B) {
			sb := NewSource("Wide")
			for t := 0; t < tables; t++ {
				sb.Table(fmt.Sprintf("t%03d", t), "id:int", "a", "b", "c")
			}
			w, err := sb.Wrap()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ig, err := core.New(w)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ig.Federate("F"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStepScaling measures what a pay-as-you-go step costs
// against the session before it (ROADMAP item 7): k sources of 20
// tables of three columns, federated, then 2k one-entity Intersect
// steps, the j-th over table j mod 20 of sources j and j+1 (mod k).
// Each iteration restores the checkpoint taken before the last step —
// its JSON decoded and core.Import, outside the timer — and takes the
// last step under it, after a collection, so ns/op and B/op are the
// last step's; restore-ms
// is the mean restore and checkpoint-bytes the checkpoint's size. b.N
// is chosen by the timed step alone, so run it with -benchtime Nx
// (k=64's restore takes seconds, and the process peaks near 0.7 GB).
func BenchmarkStepScaling(b *testing.B) {
	for _, k := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var ws []Wrapper
			for s := 0; s < k; s++ {
				sb := NewSource(fmt.Sprintf("S%03d", s))
				for t := 0; t < 20; t++ {
					sb.Table(fmt.Sprintf("t%03d", t), "id:int", "a", "b")
				}
				w, err := sb.Wrap()
				if err != nil {
					b.Fatal(err)
				}
				ws = append(ws, w)
			}
			step := func(ig *core.Integrator, j int) {
				from := func(s int) core.SourceQuery {
					return core.From(fmt.Sprintf("S%03d", s%k), fmt.Sprintf("[{'S%d', x} | x <- <<t%03d>>]", s%k, j%20))
				}
				if _, err := ig.Intersect(fmt.Sprintf("I%03d", j), []core.Mapping{core.Entity(fmt.Sprintf("<<E%03d>>", j), from(j), from(j+1))}); err != nil {
					b.Fatal(err)
				}
			}
			ig, err := core.New(ws...)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ig.Federate("F"); err != nil {
				b.Fatal(err)
			}
			for j := 0; j < 2*k-1; j++ {
				step(ig, j)
			}
			snap, err := ig.Export()
			if err != nil {
				b.Fatal(err)
			}
			var checkpoint bytes.Buffer
			if err := snap.WriteJSON(&checkpoint); err != nil {
				b.Fatal(err)
			}
			var restore time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				start := time.Now()
				var snap core.Snapshot
				if err := json.Unmarshal(checkpoint.Bytes(), &snap); err != nil {
					b.Fatal(err)
				}
				ig, err := core.Import(&snap)
				if err != nil {
					b.Fatal(err)
				}
				restore += time.Since(start)
				runtime.GC() // the restore's garbage is not the step's
				b.StartTimer()
				step(ig, 2*k-1)
			}
			b.ReportMetric(float64(restore.Microseconds())/1e3/float64(b.N), "restore-ms")
			b.ReportMetric(float64(checkpoint.Len()), "checkpoint-bytes")
		})
	}
}

// benchServerSetup builds a dataspace server over the toy bookstore
// integration and returns an httptest front end for it.
func benchServerSetup(b *testing.B) *httptest.Server {
	b.Helper()
	srv := server.New(server.DefaultConfig())
	sess, err := srv.Sessions().Get("default", true)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range toySources(b) {
		if err := sess.AddSource(w); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := sess.Federate(context.Background(), "F", false); err != nil {
		b.Fatal(err)
	}
	if _, err := sess.Intersect("I1", toyMappings); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	benchSrv = srv
	return ts
}

var benchSrv *server.Server

// coldSeq numbers the texts of BenchmarkServerQuery's cold regime.
var coldSeq int

// benchServerQuery posts one query and asserts HTTP 200.
func benchServerQuery(b *testing.B, ts *httptest.Server, body map[string]any) {
	b.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(buf))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		b.Fatalf("query status %d: %s", resp.StatusCode, msg)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkServerQuery measures one HTTP query through the dataspace
// server in its three cache regimes: cold (a text the plan cache has
// not seen, every iteration; result cache bypassed), plan-cached (parse
// skipped, full GAV evaluation), and result-cached (answer served from
// the result cache). The spread between the three is the serving layer's caching
// headroom; later perf PRs should widen it.
func BenchmarkServerQuery(b *testing.B) {
	const q = "count([{k, x} | {k, x} <- <<UBook, isbn>>])"
	ts := benchServerSetup(b)

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			coldSeq++ // never repeats, also across the harness's growing b.N rounds
			benchServerQuery(b, ts, map[string]any{"query": fmt.Sprintf("%s + 0 * %d", q, coldSeq), "no_cache": true})
		}
	})
	b.Run("plan-cached", func(b *testing.B) {
		body := map[string]any{"query": q, "no_cache": true}
		benchServerQuery(b, ts, body) // warm the plan cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchServerQuery(b, ts, body)
		}
	})
	b.Run("result-cached", func(b *testing.B) {
		body := map[string]any{"query": q}
		benchServerQuery(b, ts, body) // warm both caches
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchServerQuery(b, ts, body)
		}
	})
}

// caseServer builds a dataspace server whose named session holds the
// case-study sources at cfg, federated and then integrated by replaying
// plan through the session API.
func caseServer(tb testing.TB, cfg ispider.Config, session string, plan []ispider.PlanStep) *server.Server {
	tb.Helper()
	srv := server.New(server.DefaultConfig())
	caseSession(tb, srv, cfg, session, plan)
	return srv
}

// caseSession adds one federated case-study session to srv and replays
// plan on it.
func caseSession(tb testing.TB, srv *server.Server, cfg ispider.Config, session string, plan []ispider.PlanStep) {
	tb.Helper()
	pedro, gpmdb, pepseeker, err := ispider.Wrappers(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	sess, err := srv.Sessions().Get(session, true)
	if err != nil {
		tb.Fatal(err)
	}
	for _, w := range []Wrapper{pedro, gpmdb, pepseeker} {
		if err := sess.AddSource(w); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := sess.Federate(context.Background(), "F", false); err != nil {
		tb.Fatal(err)
	}
	for _, st := range plan {
		if st.Kind == "intersect" {
			_, err = sess.Intersect(st.Name, st.Mappings, st.Enables...)
		} else {
			err = sess.Refine(st.Name, st.Refinement, st.Enables...)
		}
		if err != nil {
			tb.Fatalf("step %s: %v", st.Name, err)
		}
	}
}

// discardResponse keeps a response's status and drops its body, so a
// ServeHTTP call into it holds the daemon's work and no transport's.
type discardResponse struct {
	header http.Header
	status int
}

func (w *discardResponse) Header() http.Header         { return w.header }
func (w *discardResponse) WriteHeader(status int)      { w.status = status }
func (w *discardResponse) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkServerTable1 is the in-`go test` twin of the benchmark's
// table1_warm workload (bench/README.md), at that workload's sizes: each
// Table 1 query posted to the daemon's handler in process, result cache
// bypassed, extents and plan cache warm — evaluation into the encoder,
// canonical ordering and the response write, without a socket. The
// workload deals the seven texts evenly, so B/op summed over Q1–Q7 and
// divided by seven is its alloc_kb_per_op less the benchmark client's
// ≈ 6 KiB: a claim on that metric can be read here in half a minute
// before ten pairs are spent on it. `make profile` profiles it, so a
// performance issue starts from where the time and the bytes go.
func BenchmarkServerTable1(b *testing.B) {
	h := caseServer(b, ispider.Table1WarmConfig(), "default", ispider.IntersectionPlan()).Handler()
	for _, q := range ispider.Table1Queries() {
		body := queryBody(b, "default", q.IQL)
		servePost(b, h, "/query", body) // warm the extent memos, join indexes and plan cache
		b.Run(q.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				servePost(b, h, "/query", body)
			}
		})
	}
}

// queryBody is a POST /query body for one text, result cache bypassed.
func queryBody(tb testing.TB, session, text string) []byte {
	body, err := json.Marshal(map[string]any{"session": session, "query": text, "no_cache": true})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// servePost serves one POST in process and fails on any status but 2xx.
func servePost(tb testing.TB, h http.Handler, path string, body []byte) {
	if status := postStatus(h, path, body); status < 200 || status > 299 {
		tb.Fatalf("POST %s %s: status %d", path, body, status)
	}
}

// postStatus is servePost for goroutines that may not call Fatal: it
// returns the response status, 0 when the request could not be built.
func postStatus(h http.Handler, path string, body []byte) int {
	// http.NewRequest, not httptest's: that one parses the request back
	// out of a 4 KiB bufio.Reader, a tenth of a small query's
	// allocation.
	r, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return 0
	}
	w := &discardResponse{header: make(http.Header)}
	h.ServeHTTP(w, r)
	return w.status
}

// BenchmarkServerScan is the in-`go test` twin of the benchmark's
// scan_large workload (bench/README.md), one sub-benchmark per class at
// the workload's sizes: scan_sql counts the rows of a 24 000-row sqlmem
// table under a filter the source takes — one SELECT COUNT(*) there,
// where it streamed the table in pages of 4 096 — scan_rest streams a
// 6 000-record collection in Link-chained pages of 500, and cold_join
// drops the session's extents and then joins 8 000 SQL rows to 1 000
// in-memory ones. Each is count(...) of a
// comprehension posted to the daemon's handler in process, result cache
// bypassed. `make profile` profiles it beside BenchmarkServerTable1.
func BenchmarkServerScan(b *testing.B) {
	const items, events, page, orders, dims = 24_000, 6_000, 500, 8_000, 1_000
	sqlSource := func(name string, db *rel.DB) Wrapper {
		dsn := "bench-scan-" + name
		sqlmem.Register(dsn, db)
		b.Cleanup(func() { sqlmem.Unregister(dsn) })
		w, err := OpenSQL(name, SQLConfig{Driver: sqlmem.DriverName, DSN: dsn})
		if err != nil {
			b.Fatal(err)
		}
		return w
	}
	big := rel.NewDB("Big")
	bigItems := big.MustCreateTable("items", []rel.Column{
		{Name: "id", Type: rel.Int}, {Name: "val", Type: rel.Int}, {Name: "label", Type: rel.String}}, "id")
	for i := 0; i < items; i++ {
		bigItems.MustInsert(int64(i), int64(i*7919%1000), "L"+strconv.Itoa(i%5000))
	}
	shop := rel.NewDB("Shop")
	shopOrders := shop.MustCreateTable("orders", []rel.Column{
		{Name: "id", Type: rel.Int}, {Name: "dim", Type: rel.Int}, {Name: "amount", Type: rel.Float}}, "id")
	for i := 0; i < orders; i++ {
		shopOrders.MustInsert(int64(i), int64(i*7907%dims), float64(i%97)+0.5)
	}
	dimDB := rel.NewDB("Dims")
	dimTable := dimDB.MustCreateTable("dims", []rel.Column{
		{Name: "id", Type: rel.Int}, {Name: "region", Type: rel.String}}, "id")
	for d := 0; d < dims; d++ {
		dimTable.MustInsert(int64(d), "R"+strconv.Itoa(d*d%7))
	}
	dimW, err := wrapper.NewRelational("Dims", dimDB)
	if err != nil {
		b.Fatal(err)
	}

	// Pre-encoded pages: the endpoint's own cost is a slice index and a
	// write, so what is measured is the wrapper's fetch and decode.
	var pages [][]byte
	for lo := 0; lo < events; lo += page {
		var buf bytes.Buffer
		buf.WriteByte('[')
		for i := lo; i < lo+page; i++ {
			if i > lo {
				buf.WriteByte(',')
			}
			fmt.Fprintf(&buf, `{"id":%d,"val":%d,"tag":"T%d"}`, i, i*7919%1000, i%100)
		}
		buf.WriteByte(']')
		pages = append(pages, buf.Bytes())
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
		w.Write(pages[p])
	}))
	b.Cleanup(feed.Close)
	feedW, err := OpenREST("Feed", RESTConfig{Endpoint: feed.URL,
		Collections: []wrapper.RESTCollection{{Name: "events", Fields: []string{"val", "tag"}}}})
	if err != nil {
		b.Fatal(err)
	}

	srv := server.New(server.DefaultConfig())
	sess, err := srv.Sessions().Get("scan", true)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []Wrapper{sqlSource("Big", big), feedW, sqlSource("Shop", shop), dimW} {
		if err := sess.AddSource(w); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := sess.Federate(context.Background(), "F", false); err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	for _, class := range []struct {
		name, text string
		cold       bool
	}{
		{"scan_sql", "count([k | {k, v} <- <<big_items, val>>; v < 500])", false},
		{"scan_rest", "count([k | {k, v} <- <<feed_events, val>>; v < 500])", false},
		{"cold_join", "count([{o, d} | {o, dk} <- <<shop_orders, dim>>; {d, r} <- <<dims_dims, region>>; d = dk; r = 'R2'])", true},
	} {
		body := queryBody(b, "scan", class.text)
		servePost(b, h, "/query", body)
		b.Run(class.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if class.cold {
					servePost(b, h, "/sessions/scan/invalidate", nil)
				}
				servePost(b, h, "/query", body)
			}
		})
	}
}

// BenchmarkServerPayg is the in-`go test` twin of the benchmark's
// payg_mixed workload (bench/README.md), one cycle per session per
// iteration at the workload's size: restore the federated-only
// snapshot, then each of the five plan steps with its autosave into
// b.TempDir(), and after each step the Table 1 queries it made
// answerable, twice (evaluated, then a result-cache hit) — all posted to
// the daemon's handler in process. "one" is a single session; "two" is
// the benchmark's two clients: two goroutines, a session each, walking
// the same cycle side by side, so what one session's persistence makes
// the other wait for shows as the distance between the two ns/op (and
// in the mutex profile `make profile` takes). In "two" each goroutine
// puts its baseline file back inside the timed region, one write of the
// file without fsync per cycle. `make profile` profiles both, so a
// write-path issue starts from Server.persist and restoreSession in a
// profile.
func BenchmarkServerPayg(b *testing.B) {
	b.Run("one", func(b *testing.B) { benchServerPayg(b, 1) })
	b.Run("two", func(b *testing.B) { benchServerPayg(b, 2) })
}

func benchServerPayg(b *testing.B, clients int) {
	type post struct {
		path string
		body []byte
	}
	type client struct {
		path     string // the session's file
		baseline []byte
		cycle    []post
	}
	srv := server.New(server.DefaultConfig())
	if err := srv.OpenStore(b.TempDir()); err != nil {
		b.Fatal(err)
	}
	cs := make([]client, clients)
	for c := range cs {
		name := "payg-" + strconv.Itoa(c)
		caseSession(b, srv, ispider.BenchConfig(), name, nil)
		if _, err := srv.SnapshotSession(name); err != nil {
			b.Fatal(err)
		}
		cl := &cs[c]
		cl.path = srv.Store().Path(name)
		var err error
		if cl.baseline, err = os.ReadFile(cl.path); err != nil {
			b.Fatal(err)
		}
		cl.cycle = []post{{path: "/sessions/" + name + "/restore"}}
		for _, st := range ispider.IntersectionPlan() {
			step := map[string]any{"session": name, "name": st.Name, "enables": st.Enables}
			if st.Kind == "intersect" {
				step["mappings"] = st.Mappings
			} else {
				step["mapping"] = st.Refinement
			}
			body, err := json.Marshal(step)
			if err != nil {
				b.Fatal(err)
			}
			cl.cycle = append(cl.cycle, post{"/" + st.Kind, body})
			for range 2 {
				for _, q := range ispider.Table1Queries() {
					if ispider.AnswerableAfter(q, st.Name) {
						body, err := json.Marshal(map[string]any{"session": name, "query": q.IQL})
						if err != nil {
							b.Fatal(err)
						}
						cl.cycle = append(cl.cycle, post{"/query", body})
					}
				}
			}
		}
	}
	h := srv.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	if clients == 1 {
		cl := cs[0]
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := os.WriteFile(cl.path, cl.baseline, 0o644); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for _, p := range cl.cycle {
				servePost(b, h, p.path, p.body)
			}
		}
	} else {
		var wg sync.WaitGroup
		for _, cl := range cs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < b.N; i++ {
					if err := os.WriteFile(cl.path, cl.baseline, 0o644); err != nil {
						b.Error(err)
						return
					}
					for _, p := range cl.cycle {
						if status := postStatus(h, p.path, p.body); status < 200 || status > 299 {
							b.Errorf("POST %s %s: status %d", p.path, p.body, status)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
	b.ReportMetric(float64(len(cs[0].cycle)), "ops/cycle")
}

// benchServerPost posts JSON to a path and decodes the JSON response.
func benchServerPost(b *testing.B, ts *httptest.Server, path string, body map[string]any) map[string]any {
	b.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode >= 300 {
		b.Fatalf("%s status %d: %v", path, resp.StatusCode, out)
	}
	return out
}

// BenchmarkIterationWarmCache measures the payoff of dependency-tracked
// invalidation: after an integration iteration that touches an
// unrelated scheme (<<UScan>> from Archive), a warm repeated query over
// <<UBook, isbn>> is still answered from cache — pinned and latest
// queries straight from the result cache (it is keyed by the resolved
// query, not the version), and evaluations that bypass it from warm
// extent memos — instead of being re-unfolded from the sources as the
// old purge-everything path forced.
func BenchmarkIterationWarmCache(b *testing.B) {
	const q = "count([{k, x} | {k, x} <- <<UBook, isbn>>])"
	ts := benchServerSetup(b) // federate (v0) + intersect I1 (v1)

	// Warm the result cache at the published version 1: the answer
	// serves every version that resolves q alike.
	pinned := map[string]any{"query": q, "version": 1}
	benchServerPost(b, ts, "/query", pinned)

	// One unrelated iteration: integrate Archive's scans. Its touch-set
	// ({UScan, UScan|format}) is disjoint from every warm UBook answer.
	benchServerPost(b, ts, "/refine", map[string]any{
		"name": "scans",
		"mapping": map[string]any{
			"target": "<<UScan, format>>",
			"forward": []map[string]any{
				{"source": "Archive", "query": "[{'ARC', k, x} | {k, x} <- <<scans, format>>]"},
			},
		},
	})

	b.Run("pinned-result-cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out := benchServerPost(b, ts, "/query", pinned)
			if !out["result_cached"].(bool) {
				b.Fatal("warm pinned query was not served from the result cache after an unrelated iteration")
			}
		}
	})

	b.Run("latest-result-cached", func(b *testing.B) {
		latest := map[string]any{"query": q}
		for i := 0; i < b.N; i++ {
			out := benchServerPost(b, ts, "/query", latest)
			if !out["result_cached"].(bool) || out["version"].(float64) != 2 {
				b.Fatalf("warm latest query after an unrelated iteration = %v; want it from the result cache at version 2", out)
			}
		}
	})

	b.Run("current-extents-warm", func(b *testing.B) {
		sess, err := benchSrv.Sessions().Get("default", false)
		if err != nil {
			b.Fatal(err)
		}
		benchServerPost(b, ts, "/query", map[string]any{"query": q, "no_cache": true}) // warm at the new version
		memo0, src0 := sess.ExtentCacheStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchServerPost(b, ts, "/query", map[string]any{"query": q, "no_cache": true})
		}
		b.StopTimer()
		memo1, src1 := sess.ExtentCacheStats()
		if memo1.Misses != memo0.Misses || src1.Misses != src0.Misses {
			b.Fatalf("re-unfolding happened after an unrelated iteration: memo misses %d->%d, source misses %d->%d",
				memo0.Misses, memo1.Misses, src0.Misses, src1.Misses)
		}
	})
}

// BenchmarkSchemeParse measures scheme parsing/printing round trips.
func BenchmarkSchemeParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc, err := hdm.ParseScheme("<<UProteinHit, dbsearch>>")
		if err != nil {
			b.Fatal(err)
		}
		if sc.String() == "" {
			b.Fatal("empty")
		}
	}
}

// BenchmarkReverseProcessor measures building the LAV-direction
// processor (materialise global + reverse pathways).
func BenchmarkReverseProcessor(b *testing.B) {
	ig := benchIntegrator(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ig.ReverseProcessor(); err != nil {
			b.Fatal(err)
		}
	}
}
