// Command loadgen drives the dataspace daemon with realistic traffic
// and reports what the admission-control machinery did about it: many
// concurrent sessions, zipf-skewed query popularity (a few hot
// sessions, a long cold tail), integration steps (/intersect, /refine)
// issued mid-flight while queries run, and an optional open-loop
// arrival stream on top of the closed-loop workers.
//
// Two modes:
//
//   - Self-serve (default): boots the server in-process on a random
//     port with the configured -max-inflight/-max-queue, so the whole
//     run is hermetic — this is what `make load-smoke` uses.
//   - Remote: -addr points at a running automedd; the server's own
//     limits apply.
//
// After the run it scrapes GET /metrics, fails on malformed Prometheus
// exposition or missing queue families, and writes a JSON report —
// client-observed p50/p95/p99, reject rate, throughput, and the
// server's queue counters — to -out (default stdout).
//
// With -smoke the run doubles as a CI gate: it exits non-zero unless
// queries succeeded, the exposition parsed, and (when the configured
// limits force queuing) admission control visibly engaged.
//
// With -fault each session also carries a fault-injected source with a
// seeded error rate, flaky queries join the mix, and workers
// periodically invalidate their session's extent cache so queries keep
// hitting the failing source instead of its warm cache. The report
// then counts degraded (stale-fallback) answers, and -smoke
// additionally requires that some appeared — exercising the circuit
// breakers and stale-extent fallback under concurrency.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dataspace/automed/internal/obs"
	"github.com/dataspace/automed/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

type config struct {
	addr        string
	sessions    int
	workers     int
	rate        float64
	duration    time.Duration
	zipfS       float64
	maxInflight int
	maxQueue    int
	mutateEvery int
	rows        int
	out         string
	smoke       bool
	fault       bool
	errorRate   float64
	invalEvery  int
}

// report is the committed output shape; it deliberately carries no
// timestamps so reruns differ only where the measurement differs.
type report struct {
	Config struct {
		Sessions    int     `json:"sessions"`
		Workers     int     `json:"workers"`
		RatePerSec  float64 `json:"open_loop_rate_per_sec"`
		DurationSec float64 `json:"duration_sec"`
		ZipfS       float64 `json:"zipf_s"`
		MaxInflight int     `json:"max_inflight"`
		MaxQueue    int     `json:"max_queue"`
	} `json:"config"`
	Totals struct {
		Requests    uint64 `json:"requests"`
		OK          uint64 `json:"ok"`
		Rejected429 uint64 `json:"rejected_429"`
		Dropped503  uint64 `json:"dropped_503"`
		Errors      uint64 `json:"errors"`
		Mutations   uint64 `json:"mutations"`
		Degraded    uint64 `json:"degraded"`
	} `json:"totals"`
	RejectRate    float64 `json:"reject_rate"`
	ThroughputRPS float64 `json:"throughput_rps"`
	LatencyMs     struct {
		Count uint64  `json:"count"`
		Mean  float64 `json:"mean"`
		Max   float64 `json:"max"`
		P50   float64 `json:"p50"`
		P95   float64 `json:"p95"`
		P99   float64 `json:"p99"`
	} `json:"latency_ms"`
	Queue json.RawMessage `json:"server_queue"`
}

func run() error {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "", "target daemon base URL (empty = boot the server in-process)")
	flag.IntVar(&cfg.sessions, "sessions", 64, "concurrent integration sessions to drive")
	flag.IntVar(&cfg.workers, "workers", 32, "closed-loop workers (each sends its next request when the last returns)")
	flag.Float64Var(&cfg.rate, "rate", 0, "open-loop arrivals per second on top of the workers (0 = closed loop only)")
	flag.DurationVar(&cfg.duration, "duration", 10*time.Second, "measurement window")
	flag.Float64Var(&cfg.zipfS, "zipf-s", 1.2, "zipf skew of session popularity (>1; higher = hotter head)")
	flag.IntVar(&cfg.maxInflight, "max-inflight", 16, "self-serve server's admission limit")
	flag.IntVar(&cfg.maxQueue, "max-queue", 64, "self-serve server's queue bound")
	flag.IntVar(&cfg.mutateEvery, "mutate-every", 40, "every Nth worker request is an /intersect or /refine instead of a query (0 = queries only)")
	flag.IntVar(&cfg.rows, "rows", 32, "rows per table in each session's sources")
	flag.StringVar(&cfg.out, "out", "", "write the JSON report here (empty = stdout)")
	flag.BoolVar(&cfg.smoke, "smoke", false, "CI mode: assert queries succeeded and admission control engaged")
	flag.BoolVar(&cfg.fault, "fault", false, "add a fault-injected source per session and count degraded answers")
	flag.Float64Var(&cfg.errorRate, "fault-error-rate", 0.3, "seeded per-fetch failure probability of the fault sources (with -fault)")
	flag.IntVar(&cfg.invalEvery, "invalidate-every", 25, "every Nth worker request invalidates the session's extent cache (with -fault)")
	flag.Parse()

	base := cfg.addr
	if base == "" {
		scfg := server.DefaultConfig()
		scfg.MaxInflight = cfg.maxInflight
		scfg.MaxQueue = cfg.maxQueue
		srv := server.New(scfg)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
		go httpSrv.Serve(ln)
		defer httpSrv.Close()
		base = "http://" + ln.Addr().String()
		fmt.Fprintf(os.Stderr, "loadgen: self-serve server on %s (max-inflight %d, max-queue %d)\n",
			base, cfg.maxInflight, cfg.maxQueue)
	}

	client := &http.Client{Timeout: 60 * time.Second}
	// Mutation names carry the pid so repeated runs against the same
	// daemon never collide with intersections from an earlier run.
	g := &generator{cfg: cfg, base: base, client: client, nonce: uint64(os.Getpid()),
		lat: obs.NewHistogram(latencyBoundsMs)}
	if err := g.setup(); err != nil {
		return err
	}
	g.drive()
	rep, err := g.report()
	if err != nil {
		return err
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if cfg.out == "" {
		os.Stdout.Write(buf)
	} else if err := os.WriteFile(cfg.out, buf, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"loadgen: %d requests, %d ok, %d rejected (429), %d dropped (503), %d errors, %d degraded; p50 %.2fms p99 %.2fms\n",
		rep.Totals.Requests, rep.Totals.OK, rep.Totals.Rejected429, rep.Totals.Dropped503,
		rep.Totals.Errors, rep.Totals.Degraded, rep.LatencyMs.P50, rep.LatencyMs.P99)
	if cfg.smoke {
		return g.assertSmoke(rep)
	}
	return nil
}

// latencyBoundsMs mirror the server's query-latency buckets so the
// client-side histogram quantiles are comparable.
var latencyBoundsMs = []float64{0.1, 0.5, 1, 5, 25, 100, 500, 2500, 10000}

type generator struct {
	cfg    config
	base   string
	client *http.Client

	lat       *obs.Histogram
	requests  atomic.Uint64
	ok        atomic.Uint64
	rejected  atomic.Uint64
	dropped   atomic.Uint64
	errors    atomic.Uint64
	mutations atomic.Uint64
	degraded  atomic.Uint64
	mutSeq    atomic.Uint64
	nonce     uint64
	queries   []string

	elapsed time.Duration
}

func (g *generator) sessionName(i int) string { return fmt.Sprintf("load-%03d", i) }

// setup registers every session's two inline sources and federates, so
// each session is queryable before the load starts. A 409 means the
// session survived an earlier loadgen run against the same daemon —
// it's already set up, so the run is repeatable without a restart.
func (g *generator) setup() error {
	for i := 0; i < g.cfg.sessions; i++ {
		sess := g.sessionName(i)
		lib := make([][]any, g.cfg.rows)
		shop := make([][]any, g.cfg.rows)
		for r := range lib {
			lib[r] = []any{r, fmt.Sprintf("978-%d-%d", i, r), fmt.Sprintf("Book %d", r)}
			shop[r] = []any{fmt.Sprintf("S%d", r), fmt.Sprintf("978-%d-%d", i, r), float64(r) + 0.5}
		}
		if err := g.post("/sources", map[string]any{
			"session": sess, "name": "Library",
			"tables": []map[string]any{{"name": "books", "columns": []string{"id:int", "isbn", "title"}, "rows": lib}},
		}, http.StatusCreated, http.StatusConflict); err != nil {
			return fmt.Errorf("setting up %s: %w", sess, err)
		}
		if err := g.post("/sources", map[string]any{
			"session": sess, "name": "Shop",
			"tables": []map[string]any{{"name": "items", "columns": []string{"sku", "barcode", "price:float"}, "rows": shop}},
		}, http.StatusCreated, http.StatusConflict); err != nil {
			return fmt.Errorf("setting up %s: %w", sess, err)
		}
		if g.cfg.fault {
			flaky := make([][]any, g.cfg.rows)
			for r := range flaky {
				flaky[r] = []any{r, fmt.Sprintf("part-%d", r)}
			}
			if err := g.post("/sources", map[string]any{
				"session": sess, "name": "Flaky",
				"fault": map[string]any{
					"tables": []map[string]any{{"name": "parts", "columns": []string{"id:int", "label"}, "rows": flaky}},
					// Per-session seeds keep the failure streams distinct
					// but reproducible run to run.
					"config": map[string]any{"error_rate": g.cfg.errorRate, "seed": i + 1},
				},
			}, http.StatusCreated, http.StatusConflict); err != nil {
				return fmt.Errorf("setting up %s: %w", sess, err)
			}
		}
		if err := g.post("/federate", map[string]any{"session": sess, "name": "F"}, http.StatusCreated, http.StatusConflict); err != nil {
			return fmt.Errorf("federating %s: %w", sess, err)
		}
	}
	g.queries = queryBodies
	if g.cfg.fault {
		g.queries = append(append([]string(nil), queryBodies...),
			"count(<<flaky_parts>>)",
			"count([x | {k, x} <- <<flaky_parts, label>>])",
		)
	}
	return nil
}

// queryBodies are the query mix, cheap to expensive.
var queryBodies = []string{
	"count(<<library_books>>)",
	"count(<<shop_items>>)",
	"count(<<library_books, title>>)",
	"max([x | {k, x} <- <<shop_items, price>>])",
	"count([{k1, k2} | {k1, x1} <- <<library_books, isbn>>; {k2, x2} <- <<shop_items, barcode>>; x1 = x2])",
}

// drive runs the closed-loop workers (plus the optional open-loop
// stream) for the configured duration.
func (g *generator) drive() {
	deadline := time.Now().Add(g.cfg.duration)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < g.cfg.workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Deterministic per-worker streams: the workload shape is
			// reproducible run to run; only the timing varies.
			rng := rand.New(rand.NewPCG(0x10ad, uint64(id)))
			zipf := rand.NewZipf(rng, g.cfg.zipfS, 1, uint64(g.cfg.sessions-1))
			for n := 0; time.Now().Before(deadline); n++ {
				sess := g.sessionName(int(zipf.Uint64()))
				if g.cfg.mutateEvery > 0 && n%g.cfg.mutateEvery == g.cfg.mutateEvery-1 {
					g.mutate(sess)
					continue
				}
				if g.cfg.fault && g.cfg.invalEvery > 0 && n%g.cfg.invalEvery == g.cfg.invalEvery-1 {
					g.invalidate(sess)
					continue
				}
				g.query(sess, g.queries[rng.IntN(len(g.queries))], rng.IntN(4) == 0)
			}
		}(w)
	}
	if g.cfg.rate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(0x10ad, 0xffff))
			zipf := rand.NewZipf(rng, g.cfg.zipfS, 1, uint64(g.cfg.sessions-1))
			tick := time.NewTicker(time.Duration(float64(time.Second) / g.cfg.rate))
			defer tick.Stop()
			var open sync.WaitGroup
			for time.Now().Before(deadline) {
				<-tick.C
				sess := g.sessionName(int(zipf.Uint64()))
				q := g.queries[rng.IntN(len(g.queries))]
				open.Add(1)
				go func() { // open loop: do not wait for the previous arrival
					defer open.Done()
					g.query(sess, q, false)
				}()
			}
			open.Wait()
		}()
	}
	wg.Wait()
	g.elapsed = time.Since(start)
}

// query sends one POST /query and records the client-observed outcome,
// including whether the answer was degraded (served from a stale
// extent while its source was unreachable).
func (g *generator) query(sess, q string, noCache bool) {
	body := map[string]any{"session": sess, "query": q}
	if noCache {
		body["no_cache"] = true
	}
	start := time.Now()
	status, resp, err := g.doRead("/query", body)
	g.record(status, err, time.Since(start))
	if err == nil && status == http.StatusOK && bytes.Contains(resp, []byte(`"degraded":true`)) {
		g.degraded.Add(1)
	}
}

// invalidate drops one session's cached extents mid-flight, forcing
// subsequent queries back to the (possibly failing) sources.
func (g *generator) invalidate(sess string) {
	start := time.Now()
	status, err := g.do("/sessions/"+sess+"/invalidate", nil)
	g.record(status, err, time.Since(start))
}

// mutate issues one integration step mid-flight: an intersection with a
// unique target (even steps) or a refinement (odd), exactly the
// workload that races schema versioning against live queries.
func (g *generator) mutate(sess string) {
	n := g.mutSeq.Add(1)
	var path string
	var body map[string]any
	if n%2 == 0 {
		path = "/intersect"
		body = map[string]any{
			"session": sess,
			"name":    fmt.Sprintf("I%dx%d", g.nonce, n),
			"mappings": []map[string]any{{
				"target": fmt.Sprintf("<<UBook%dx%d>>", g.nonce, n),
				"forward": []map[string]any{
					{"source": "Library", "query": "[{'LIB', k} | k <- <<books>>]"},
					{"source": "Shop", "query": "[{'SHOP', k} | k <- <<items>>]"},
				},
			}},
		}
	} else {
		path = "/refine"
		body = map[string]any{
			"session": sess,
			"name":    fmt.Sprintf("R%dx%d", g.nonce, n),
			"mapping": map[string]any{
				"target": fmt.Sprintf("<<Title%dx%d>>", g.nonce, n),
				"forward": []map[string]any{
					{"source": "Library", "query": "[k | k <- <<books>>]"},
				},
			},
		}
	}
	start := time.Now()
	status, err := g.do(path, body)
	g.record(status, err, time.Since(start))
	if err == nil && status == http.StatusCreated {
		g.mutations.Add(1)
	}
}

// record folds one response into the counters; only accepted requests
// feed the latency histogram (rejections return in microseconds and
// would drag the quantiles down).
func (g *generator) record(status int, err error, d time.Duration) {
	g.requests.Add(1)
	switch {
	case err != nil:
		g.errors.Add(1)
	case status == http.StatusOK || status == http.StatusCreated:
		g.ok.Add(1)
		g.lat.Observe(d)
	case status == http.StatusTooManyRequests:
		g.rejected.Add(1)
	case status == http.StatusServiceUnavailable:
		g.dropped.Add(1)
	default:
		g.errors.Add(1)
	}
}

func (g *generator) report() (*report, error) {
	rep := &report{}
	rep.Config.Sessions = g.cfg.sessions
	rep.Config.Workers = g.cfg.workers
	rep.Config.RatePerSec = g.cfg.rate
	rep.Config.DurationSec = g.cfg.duration.Seconds()
	rep.Config.ZipfS = g.cfg.zipfS
	rep.Config.MaxInflight = g.cfg.maxInflight
	rep.Config.MaxQueue = g.cfg.maxQueue

	rep.Totals.Requests = g.requests.Load()
	rep.Totals.OK = g.ok.Load()
	rep.Totals.Rejected429 = g.rejected.Load()
	rep.Totals.Dropped503 = g.dropped.Load()
	rep.Totals.Errors = g.errors.Load()
	rep.Totals.Mutations = g.mutations.Load()
	rep.Totals.Degraded = g.degraded.Load()
	if rep.Totals.Requests > 0 {
		rep.RejectRate = float64(rep.Totals.Rejected429) / float64(rep.Totals.Requests)
	}
	if g.elapsed > 0 {
		rep.ThroughputRPS = float64(rep.Totals.OK) / g.elapsed.Seconds()
	}
	h := g.lat.Snapshot()
	rep.LatencyMs.Count = h.Count
	rep.LatencyMs.Mean = h.MeanMs()
	rep.LatencyMs.Max = h.MaxMs()
	rep.LatencyMs.P50 = h.Quantile(0.50)
	rep.LatencyMs.P95 = h.Quantile(0.95)
	rep.LatencyMs.P99 = h.Quantile(0.99)

	// The server's view: validate the Prometheus exposition and embed
	// the queue counters from the JSON snapshot.
	text, err := g.get("/metrics", "")
	if err != nil {
		return nil, err
	}
	if err := obs.ValidateExposition(text); err != nil {
		return nil, fmt.Errorf("invalid Prometheus exposition after load: %w", err)
	}
	for _, fam := range []string{
		"automed_queue_inflight", "automed_queue_depth",
		"automed_queue_admitted_total", "automed_queue_rejected_total",
		"automed_queue_wait_seconds_bucket",
	} {
		if !bytes.Contains(text, []byte(fam)) {
			return nil, fmt.Errorf("exposition lacks %s after load", fam)
		}
	}
	jsonBody, err := g.get("/metrics?format=json", "application/json")
	if err != nil {
		return nil, err
	}
	var snap struct {
		Queue json.RawMessage `json:"queue"`
	}
	if err := json.Unmarshal(jsonBody, &snap); err != nil {
		return nil, fmt.Errorf("decoding JSON metrics: %w", err)
	}
	rep.Queue = snap.Queue
	return rep, nil
}

// assertSmoke is the CI verdict: traffic flowed, nothing errored
// unexpectedly, and when the limits forced queuing the controller
// answered with 429s rather than unbounded buffering.
func (g *generator) assertSmoke(rep *report) error {
	if rep.Totals.OK == 0 {
		return fmt.Errorf("smoke: no request succeeded")
	}
	// Under fault injection errors are the point: a cold extent whose
	// fetch fails has no stale copy to fall back on and fails closed.
	if !g.cfg.fault && rep.Totals.Errors > 0 {
		return fmt.Errorf("smoke: %d unexpected errors", rep.Totals.Errors)
	}
	var q struct {
		Admitted uint64 `json:"admitted_total"`
	}
	if err := json.Unmarshal(rep.Queue, &q); err != nil {
		return fmt.Errorf("smoke: queue snapshot: %w", err)
	}
	if q.Admitted == 0 {
		return fmt.Errorf("smoke: admission control admitted nothing")
	}
	if g.cfg.fault && rep.Totals.Degraded == 0 {
		return fmt.Errorf("smoke: fault injection produced no degraded answers")
	}
	fmt.Fprintln(os.Stderr, "loadgen: smoke ok")
	return nil
}

// ---- HTTP plumbing ----

func (g *generator) post(path string, body any, want ...int) error {
	status, err := g.do(path, body)
	if err != nil {
		return err
	}
	for _, w := range want {
		if status == w {
			return nil
		}
	}
	return fmt.Errorf("POST %s = %d, want %v", path, status, want)
}

func (g *generator) do(path string, body any) (int, error) {
	status, _, err := g.doRead(path, body)
	return status, err
}

func (g *generator) doRead(path string, body any) (int, []byte, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := g.client.Post(g.base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}

func (g *generator) get(path, accept string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, g.base+path, nil)
	if err != nil {
		return nil, err
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s = %d (%s)", path, resp.StatusCode, firstLine(data))
	}
	return data, nil
}

func firstLine(b []byte) string {
	s := string(b)
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	return s
}
