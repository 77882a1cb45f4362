package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"slices"
	"time"

	"github.com/dataspace/automed/internal/core"
	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/obs"
	"github.com/dataspace/automed/internal/server"
	"github.com/dataspace/automed/internal/wrapper"
)

// The traced run. Spans are recorded by the benchmark, outside the
// program, so the layers of one query cannot be bracketed in place.
// Instead they form a ladder: the same query, under the same cache
// state, is issued at successively deeper public entry points, and a
// rung's self time is the median of its paired differences with the
// next rung.
//
//	http     loopback POST /query, no_cache
//	handler  Server.Handler().ServeHTTP into a writer that drops the body
//	core     Integrator.QueryExprAt
//	query    Processor.EvalContext
//	iql      Evaluator.Eval over materialised extents, at the daemon's width
//
// Two more timings sit beside the ladder: cached (the handler rung with
// the result cache on — what hot_repeat mostly pays) and serial (the
// iql rung at width 1 — the sharding ablation's other arm).
var rungs = []string{"http", "handler", "core", "query", "iql", "cached", "serial"}

// ladderTexts bounds the distinct texts per class the ladder times.
const ladderTexts = 4

// span is one timed call, in the shape the choosing-metrics guide
// asks for: name, the op it belongs to, the span that caused it, start
// and end. Times are nanoseconds since the trace began.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Op     int    `json:"op_id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	ops   int
}

// newOp returns the identifier the spans of one more op share.
func (t *tracer) newOp() int {
	t.ops++
	return t.ops
}

// record appends a span and returns its id (ids start at 1; parent 0
// is "none").
func (t *tracer) record(name string, op, parent int, start time.Time, d time.Duration) int {
	id := len(t.spans) + 1
	s := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{ID: id, Name: name, Op: op, Parent: parent, Start: s, End: s + d.Nanoseconds()})
	return id
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// traced is a traced run: one client, counted passes over the first
// ops of client 0's stream, then the ladder and the layer probes.
func traced(o options) (*report, error) {
	setup, err := setupFor(o.workload)
	if err != nil {
		return nil, err
	}
	f, err := setup(o.seed, o.sizes, o.scratch)
	if err != nil {
		if f != nil {
			f.stop()
		}
		return nil, fmt.Errorf("%s: set-up: %w", o.workload, err)
	}
	defer f.stop()
	rep := &report{Workload: o.workload, Seed: o.seed, Traced: true, Machine: thisMachine(o.scratch)}
	rep.Result.Metrics = make(map[string]metric)
	put := func(name string, v float64, unit string) { rep.Result.Metrics[name] = metric{v, unit} }
	tr := &tracer{t0: time.Now()}
	c := newClient(f.base)
	defer c.close()
	n := o.sizes.sample[o.workload]
	g, err := newGauge(o.gaugeRead)
	if err != nil {
		return nil, err
	}
	defer g.close()
	sam := &sampler{g: g}
	if err := sam.tick(); err != nil {
		return nil, err
	}

	// Pass 1 on the freshly set-up daemon: the counters it leaves
	// behind are exact for a seed.
	counted := pass(c, f, n, "", nil, rep)
	if err := counters(c, counted, put); err != nil {
		return nil, err
	}
	// The overhead passes come in rounds of three over the same ops:
	// plain, with a benchmark span per op, and with the daemon's own
	// inline trace requested. A round lasts a second or two, so each op
	// meets its counterparts under much the same machine.
	m := max(n*int(min(max(1500*time.Millisecond/max(counted.total, 1), 1), 20))/overheadRounds, 1)
	var plain, spanned, inline []*passStats
	for range overheadRounds {
		plain = append(plain, pass(c, f, m, "", nil, rep))
		spanned = append(spanned, pass(c, f, m, "", tr, rep))
		inline = append(inline, pass(c, f, m, "X-Automed-Trace", nil, rep))
		if err := sam.tick(); err != nil {
			return nil, err
		}
	}
	put("bench.span_overhead_pct", overheadPct(plain, spanned), "%")
	put("obs.trace_overhead_pct", overheadPct(plain, inline), "%")
	stageUs := make(map[string]int64)
	var traceUs int64
	for _, p := range inline {
		for stage, self := range p.stageUs {
			stageUs[stage] += self
		}
		traceUs += p.traceUs
	}
	for _, stage := range obsStages {
		put("obs.stage_pct."+stage, 100*float64(stageUs[stage])/float64(max(traceUs, 1)), "%")
	}
	if f.stationary != nil {
		if err := f.stationary(); err != nil {
			rep.Errors = append(rep.Errors, err.Error())
		}
	}

	lad, err := newLadder(f, c, counted.ops)
	if err != nil {
		return nil, err
	}
	if err := lad.climb(tr, sam.tick); err != nil {
		return nil, err
	}
	rep.Ladder = lad.perClass()
	w := lad.weighted
	put("server.http_us", lad.self("http", "handler"), "us")
	put("server.handler_us", lad.self("handler", "core"), "us")
	put("server.cached_hit_us", w("cached"), "us")
	put("core.query_us", lad.self("core", "query"), "us")
	put("query.eval_us", w("query"), "us")
	put("query.resolve_us", lad.self("query", "iql"), "us")
	put("iql.eval_us", w("serial"), "us")
	put("iql.eval_sharded_us", w("iql"), "us")
	put("iql.eval_slow_us", lad.slowest("serial"), "us")
	put("iql.steps_per_query", lad.weightedOf(func(t *ladderText) float64 { return float64(t.steps) }), "count")
	for _, probe := range []func() error{
		func() error { lad.probeValues(put); return lad.probeCold(put) },
		func() error { probeParse(counted.ops, put); return probeWrappers(f.sources, put) },
		func() error { return probeCore(o.sizes.probe, o.seed, put) },
		func() error { probeCache(put); return probeStore(o.sizes.probe, o.seed, o.scratch, put) },
	} {
		if err := probe(); err != nil {
			return nil, err
		}
		if err := sam.tick(); err != nil {
			return nil, err
		}
	}

	// Every time above was taken at whatever speed the machine had; the
	// report gives them at reference speed, like the untraced run's.
	rep.MachineSpeed = speed(sam.readings)
	for name, m := range rep.Result.Metrics {
		rep.Result.Metrics[name] = m.atSpeed(rep.MachineSpeed)
	}
	for _, rungs := range rep.Ladder {
		for rung := range rungs {
			rungs[rung] *= rep.MachineSpeed
		}
	}
	rep.Result.Correct = len(rep.Errors) == 0 && rep.Result.Attempted > 0
	if o.traceOut != "" {
		if err := tr.write(o.traceOut); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// sampler reads the gauge between the steps of a traced run, at most
// once every gaugeEvery so that the readings cost a traced run a tenth
// of its length.
type sampler struct {
	g        *gauge
	last     time.Time
	readings []float64
}

const gaugeEvery = 2 * time.Second

func (s *sampler) tick() error {
	if time.Since(s.last) < gaugeEvery {
		return nil
	}
	r, err := s.g.reading()
	s.readings = append(s.readings, r)
	s.last = time.Now()
	return err
}

// overheadRounds is how many rounds of overhead passes a traced run
// makes.
const overheadRounds = 5

// obsStages are the daemon's own span stages whose self times the
// inline-trace pass aggregates.
var obsStages = []string{obs.StageQueue, obs.StageParse, obs.StageResultCache, obs.StagePrefetch,
	obs.StageExtent, obs.StageFetch, obs.StageEval, obs.StageRender}

// passStats is what one counted pass saw.
type passStats struct {
	ops []*op
	// durs[i] is how long ops[i] took; 0 if it failed.
	durs      []time.Duration
	total     time.Duration
	respBytes int
	// stageUs sums, per stage, the self time of the daemon's inline
	// spans; traceUs sums the traced requests' own totals.
	stageUs map[string]int64
	traceUs int64
}

// overheadPct is what the extra work of the passes in with costs, as a
// share of the plain passes' op time. Pass for pass both issued the same
// ops in the same order, so each op is compared with itself: per class
// the median of the paired differences, which a slow spell of the
// machine pushes up and down alike, times the class's count.
func overheadPct(plain, with []*passStats) float64 {
	diffs := make(map[string][]float64)
	total := 0.0
	for r, p := range plain {
		for i, o := range p.ops {
			if pd, wd := p.durs[i], with[r].durs[i]; pd > 0 && wd > 0 {
				diffs[o.class] = append(diffs[o.class], us(wd-pd))
				total += us(pd)
			}
		}
	}
	extra := 0.0
	for _, ds := range diffs {
		extra += float64(len(ds)) * median(ds)
	}
	return 100 * extra / max(total, 1)
}

// pass issues the first n ops of a fresh client-0 stream, checking
// every response. With header set, each query asks for the daemon's
// inline trace and the stage self times are collected; with tr set, a
// span is recorded per op.
func pass(c *client, f *fixture, n int, header string, tr *tracer, rep *report) *passStats {
	p := &passStats{stageUs: make(map[string]int64)}
	st := f.streamFor(0)
	for range n {
		o := st.next()
		p.ops = append(p.ops, o)
		h := ""
		if o.query {
			h = header
		}
		start := time.Now()
		d, err := c.do(o, h)
		rep.Result.Attempted++
		if err != nil {
			rep.Result.Failed++
			if len(rep.Errors) < 5 {
				rep.Errors = append(rep.Errors, err.Error())
			}
			p.durs = append(p.durs, 0)
			continue
		}
		p.durs = append(p.durs, d)
		p.total += d
		p.respBytes += c.buf.Len()
		if tr != nil {
			tr.record("op:"+o.class, tr.newOp(), 0, start, d)
		}
		if h != "" {
			p.addInline(c.buf.Bytes())
		}
	}
	return p
}

// addInline folds one response's inline trace into the stage totals. A
// span's self time is its duration minus its children's.
func (p *passStats) addInline(body []byte) {
	var resp struct {
		Trace *obs.TraceJSON `json:"trace"`
	}
	if json.Unmarshal(body, &resp) != nil || resp.Trace == nil {
		return
	}
	self := make(map[int]int64, len(resp.Trace.Spans))
	for _, s := range resp.Trace.Spans {
		self[s.ID] += s.DurUs
		self[s.Parent] -= s.DurUs
	}
	for _, s := range resp.Trace.Spans {
		p.stageUs[s.Stage] += max(self[s.ID], 0)
	}
	p.traceUs += resp.Trace.DurUs
}

// counters reads the daemon's own counters after the first pass.
func counters(c *client, p *passStats, put func(string, float64, string)) error {
	resp, err := c.http.Get(c.base + "/metrics?format=json")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var m server.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return fmt.Errorf("decoding /metrics: %w", err)
	}
	put("server.plan_cache_hit_ratio", m.PlanCache.HitRate, "ratio")
	put("server.result_cache_hit_ratio", m.ResultCache.HitRate, "ratio")
	put("server.queue_waited", float64(m.Queue.Wait.Count), "count")
	put("server.resp_bytes_per_op", float64(p.respBytes)/float64(max(len(p.ops), 1)), "B")
	put("query.extent_memo_hit_ratio", m.ExtentCache.HitRate, "ratio")
	put("query.source_cache_hit_ratio", m.SourceCache.HitRate, "ratio")
	put("query.sharded_evals", float64(m.Eval.ParallelEvals), "count")
	put("query.serial_evals", float64(m.Eval.SerialEvals), "count")
	var fetches, rows, bytes, errs, retries float64
	for _, s := range m.Sources {
		fetches += float64(s.Fetches)
		rows += float64(s.Rows)
		bytes += float64(s.Bytes)
		errs += float64(s.Errors)
		retries += float64(s.Retries)
	}
	put("wrapper.fetches", fetches, "count")
	put("wrapper.fetch_rows", rows, "count")
	put("wrapper.fetch_bytes", bytes, "B")
	put("wrapper.fetch_errors", errs, "count")
	put("wrapper.fetch_retries", retries, "count")
	return nil
}

// ladderText is one query text with everything the rungs need.
type ladderText struct {
	class string
	cold  bool
	body  [2][]byte // no_cache, cached
	expr  iql.Expr  // parsed, as the handler's plan cache holds it
	canon iql.Expr  // scheme references canonicalised, as core hands it to query
	reps  int
	times map[string][]float64 // rung → µs samples
	steps int                  // evaluation steps of the serial rung (exact)
	value iql.Value
}

type ladder struct {
	f       *fixture
	c       *client
	texts   []*ladderText
	weight  map[string]float64 // class → share of the sample's query ops
	classes []string
	ext     iql.Extents // the global schema, materialised
	indexes *iql.JoinIndexCache
	width   int
}

// newLadder picks the texts to time (the first few distinct ones of
// each class in the sample) and the class weights (each class's share
// of the sample's queries).
func newLadder(f *fixture, c *client, sample []*op) (*ladder, error) {
	l := &ladder{f: f, c: c, weight: make(map[string]float64), indexes: iql.NewJoinIndexCache(0),
		width: f.ig.Processor().ParallelStats().Width}
	seen := make(map[string]bool)
	perClass := make(map[string]int)
	queries := 0
	global := f.ig.Global()
	for _, o := range sample {
		if !o.query {
			continue
		}
		queries++
		l.weight[o.class]++
		if seen[o.text] || perClass[o.class] == ladderTexts {
			continue
		}
		seen[o.text] = true
		perClass[o.class]++
		expr, err := iql.Parse(o.text)
		if err != nil {
			return nil, err
		}
		var rerr error
		canon := iql.SubstituteSchemes(expr, func(parts []string) (iql.Expr, bool) {
			obj, err := global.Resolve(parts)
			if err != nil {
				rerr = err
				return nil, false
			}
			return iql.Ref(obj.Scheme.Parts()...), true
		})
		if rerr != nil {
			return nil, fmt.Errorf("ladder: %s: %w", o.text, rerr)
		}
		session := f.sess.Name()
		l.texts = append(l.texts, &ladderText{class: o.class, cold: o.cold, expr: expr, canon: canon,
			body:  [2][]byte{queryBody(session, o.text, true), queryBody(session, o.text, false)},
			times: make(map[string][]float64)})
	}
	for cl := range l.weight {
		l.weight[cl] /= float64(queries)
		l.classes = append(l.classes, cl)
	}
	slices.Sort(l.classes)
	mat, err := f.ig.Processor().Materialize(global)
	if err != nil {
		return nil, err
	}
	l.ext = iql.ExtentsFunc(func(parts []string) (iql.Value, error) {
		v, ok := mat[hdm.NewScheme(parts...).Key()]
		if !ok {
			return iql.Value{}, fmt.Errorf("ladder: no materialised extent for %v", parts)
		}
		return v, nil
	})
	return l, nil
}

// climb times every rung of every text. Cold classes have their
// session's extents invalidated (untimed) before each timing, which is
// the cache state their ops run under.
func (l *ladder) climb(tr *tracer, tick func() error) error {
	ctx := context.Background()
	h := l.f.srv.Handler()
	proc := l.f.ig.Processor()
	serve := func(body []byte) error {
		if status := servePost(h, "/query", body); status != http.StatusOK {
			return fmt.Errorf("ladder: handler rung: status %d", status)
		}
		return nil
	}
	for _, t := range l.texts {
		eval := func(width int) func() error {
			return func() error {
				// A new evaluator per call, as the processor makes one
				// per query; the join-index cache is shared, as the
				// processor's is.
				ev := &iql.Evaluator{Ext: l.ext, Indexes: l.indexes, Parallel: width}
				v, err := ev.Eval(t.canon, nil)
				t.value, t.steps = v, ev.Steps()
				return err
			}
		}
		calls := map[string]func() error{
			"http": func() error {
				status, err := l.c.post("/query", t.body[0], "")
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("ladder: http rung: status %d: %s", status, firstLine(l.c.buf.Bytes()))
				}
				return err
			},
			"handler": func() error { return serve(t.body[0]) },
			"cached":  func() error { return serve(t.body[1]) },
			"core": func() error {
				_, err := l.f.ig.QueryExprAt(ctx, core.CurrentVersion, t.expr)
				return err
			},
			"query": func() error {
				_, _, _, err := proc.EvalContext(ctx, t.canon)
				return err
			},
			"iql":    eval(l.width),
			"serial": eval(1),
		}
		timed := func(rung string) (time.Time, time.Duration, error) {
			if t.cold {
				l.f.sess.InvalidateExtents()
				if rung == "cached" { // the invalidation emptied the result cache too
					if err := calls[rung](); err != nil {
						return time.Time{}, 0, err
					}
				}
			}
			start := time.Now()
			err := calls[rung]()
			return start, time.Since(start), err
		}
		// Pilot: the first call warms plan cache, memos and indexes
		// and sizes the repeat count, so fast texts get more samples.
		_, pilot, err := timed("http")
		if err != nil {
			return err
		}
		t.reps = int(min(max(20*time.Millisecond/max(pilot, 1), 11), 30))
		if err := calls["cached"](); err != nil { // fills the result cache for the cached rung
			return err
		}
		// Rungs interleave within a repetition, so drift (heap growth,
		// a busy neighbour) lands on every rung of a repetition alike
		// and cancels in the paired differences.
		for range t.reps {
			parent, op := 0, tr.newOp()
			for k, rung := range rungs {
				start, d, err := timed(rung)
				if err != nil {
					return fmt.Errorf("ladder: %s rung of %s: %w", rung, t.class, err)
				}
				t.times[rung] = append(t.times[rung], us(d))
				id := tr.record(rung, op, parent, start, d)
				// The five ladder rungs nest, each caused by the one
				// above it; cached and serial hang off the root.
				if parent = id; k >= 4 {
					parent = 0
				}
			}
		}
		if err := tick(); err != nil {
			return err
		}
	}
	return nil
}

// classMedian is the median over every sample of a class's texts.
func (l *ladder) classMedian(class, rung string) float64 {
	var xs []float64
	for _, t := range l.texts {
		if t.class == class {
			xs = append(xs, t.times[rung]...)
		}
	}
	return median(xs)
}

// perQuery turns a per-class figure into one per query of the
// workload: the classes weighted by their share of the stream.
func (l *ladder) perQuery(of func(class string) float64) float64 {
	sum := 0.0
	for _, cl := range l.classes {
		sum += l.weight[cl] * of(cl)
	}
	return sum
}

// weighted is a rung's cost per query of the workload.
func (l *ladder) weighted(rung string) float64 {
	return l.perQuery(func(cl string) float64 { return l.classMedian(cl, rung) })
}

// self is a rung's self time per query of the workload: per class, the
// median of the paired differences between the rung and the one below.
func (l *ladder) self(rung, below string) float64 {
	return l.perQuery(func(cl string) float64 {
		var xs []float64
		for _, t := range l.texts {
			if t.class == cl {
				for i, x := range t.times[rung] {
					xs = append(xs, x-t.times[below][i])
				}
			}
		}
		return median(xs)
	})
}

// weightedOf does the same for a per-text quantity; the texts of a
// class count equally.
func (l *ladder) weightedOf(of func(*ladderText) float64) float64 {
	return l.perQuery(func(cl string) float64 {
		sum, n := 0.0, 0
		for _, t := range l.texts {
			if t.class == cl {
				sum += of(t)
				n++
			}
		}
		return sum / float64(n)
	})
}

// slowest is a rung's median for the class where it is largest: the
// class the 99th percentile lives in.
func (l *ladder) slowest(rung string) float64 {
	worst := 0.0
	for _, cl := range l.classes {
		worst = max(worst, l.classMedian(cl, rung))
	}
	return worst
}

func (l *ladder) perClass() map[string]map[string]float64 {
	out := make(map[string]map[string]float64)
	for _, cl := range l.classes {
		out[cl] = make(map[string]float64)
		for _, rung := range rungs {
			out[cl][rung] = l.classMedian(cl, rung)
		}
	}
	return out
}

// timeIt returns the median of reps timings of fn.
func timeIt(reps int, fn func()) time.Duration {
	ds := make([]time.Duration, reps)
	for i := range ds {
		start := time.Now()
		fn()
		ds[i] = time.Since(start)
	}
	slices.Sort(ds)
	return ds[reps/2]
}

// probeValues times turning each text's answer into the two shapes a
// response carries.
func (l *ladder) probeValues(put func(string, float64, string)) {
	var sink int
	put("iql.render_us", l.weightedOf(func(t *ladderText) float64 {
		return us(timeIt(5, func() { sink += len(t.value.String()) }))
	}), "us")
	put("iql.encode_us", l.weightedOf(func(t *ladderText) float64 {
		return us(timeIt(5, func() {
			b, _ := json.Marshal(iql.EncodeValue(t.value)) // values of evaluated queries always encode
			sink += len(b)
		}))
	}), "us")
	runtime.KeepAlive(sink)
}

// probeCold times the first evaluation after every cached extent is
// dropped, and the rate at which that evaluation pulled rows from the
// sources.
func (l *ladder) probeCold(put func(string, float64, string)) error {
	proc := l.f.ig.Processor()
	sources := obs.NewSources()
	ctx := obs.WithSources(context.Background(), sources)
	var total time.Duration
	var failed error
	put("query.cold_extent_ms", l.weightedOf(func(t *ladderText) float64 {
		d := timeIt(3, func() {
			proc.InvalidateCache()
			start := time.Now()
			if _, _, _, err := proc.EvalContext(ctx, t.canon); err != nil {
				failed = err
			}
			total += time.Since(start)
		})
		return ms(d)
	}), "ms")
	if failed != nil {
		return fmt.Errorf("cold evaluation: %w", failed)
	}
	var rows int64
	for _, s := range sources.Snapshot() {
		rows += s.Rows
	}
	put("query.cold_rows_per_s", float64(rows)/total.Seconds(), "rows/s")
	return nil
}

// probeParse times iql.Parse per distinct text of the sample.
func probeParse(sample []*op, put func(string, float64, string)) {
	seen := make(map[string]bool)
	var sum float64
	for _, o := range sample {
		if !o.query || seen[o.text] || len(seen) == 64 {
			continue
		}
		seen[o.text] = true
		sum += us(timeIt(9, func() { _, _ = iql.Parse(o.text) })) // the texts parsed at set-up
	}
	put("iql.parse_us", sum/float64(max(len(seen), 1)), "us")
}

// probeWrappers fetches every object of every source once through
// each of the wrapper layer's two interfaces: the materialised extent
// and the drained scanner.
func probeWrappers(sources []wrapper.Wrapper, put func(string, float64, string)) error {
	ctx := context.Background()
	var rows int
	var failed error
	extent := timeIt(3, func() {
		rows = 0
		for _, w := range sources {
			for _, o := range w.Schema().Objects() {
				v, err := w.Extent(o.Scheme.Parts())
				if err != nil {
					failed = err
				}
				rows += v.Len()
			}
		}
	})
	scan := timeIt(3, func() {
		for _, w := range sources {
			ss, ok := w.(wrapper.ScanSourcer)
			if !ok {
				failed = fmt.Errorf("source %s has no scanner", w.SchemaName())
				return
			}
			for _, o := range w.Schema().Objects() {
				sc, err := ss.ExtentScanner(ctx, o.Scheme.Parts())
				if err != nil {
					failed = err
					continue
				}
				for sc.Next(ctx) {
				}
				if err := sc.Err(); err != nil {
					failed = err
				}
				sc.Close()
			}
		}
	})
	if failed != nil {
		return fmt.Errorf("wrapper probe: %w", failed)
	}
	put("wrapper.extent_ms", ms(extent), "ms")
	put("wrapper.extent_rows_per_s", float64(rows)/extent.Seconds(), "rows/s")
	put("wrapper.scan_rows_per_s", float64(rows)/scan.Seconds(), "rows/s")
	return nil
}
