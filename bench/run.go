package main

import (
	"bytes"
	"cmp"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// clients is the closed loop's width: two keep-alive connections, one
// per core of the sandbox. The callers of a dataspace endpoint (a
// shell, an integration UI, analyst scripts) each wait for their reply
// before asking again, which is what a closed loop models.
const clients = 2

// setupRepeats is how many times a run sets the workload up; setup_s is
// the median and the last set-up serves the run.
const setupRepeats = 5

// A metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// atSpeed puts a metric measured while the machine ran at the given
// speed (1 = the reference machine, see gauge.go) at reference speed:
// times stretch or shrink with the machine, rates the other way, and
// counts, sizes and ratios not at all.
func (m metric) atSpeed(speed float64) metric {
	switch m.Unit {
	case "ns", "us", "ms", "s":
		m.Value *= speed
	case "1/s", "rows/s":
		m.Value /= speed
	}
	return m
}

// result is the last line a run prints: the driver's contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sliceLen is the length of the slices a measurement window is cut
// into. At the slowest workload's ~105 ops/s the calm half of a 22 s
// window still pools some 1 100 queries, so its 99th percentile has
// ten samples beyond it.
const sliceLen = 2 * time.Second

// sliceStat is one slice of the window, kept in the detailed report so
// drift and bursts can be seen.
type sliceStat struct {
	Ops     int     `json:"ops"`
	Seconds float64 `json:"seconds"`
	// Gauge is the mean of the gauge readings before and after.
	Gauge float64 `json:"gauge"`
	// Calm marks the slices the end-to-end metrics are taken over.
	Calm bool `json:"calm"`
}

// classStat is the detailed report's per-class latency summary.
type classStat struct {
	N     int     `json:"n"`
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// report is one run in full: the result line plus what explains it.
type report struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	Machine  machine `json:"machine"`
	Result   result  `json:"result"`
	// Samples is the sample count behind each timed metric.
	Samples map[string]int       `json:"samples,omitempty"`
	Classes map[string]classStat `json:"classes,omitempty"`
	Slices  []sliceStat          `json:"slices,omitempty"`
	// MachineSpeed is the gauge's verdict on the window (1 = the
	// reference machine); Raw are the timed metrics before it was
	// applied.
	MachineSpeed float64            `json:"machine_speed,omitempty"`
	Raw          map[string]float64 `json:"raw,omitempty"`
	// Ladder is the traced run's per-class breakdown of the rungs.
	Ladder map[string]map[string]float64 `json:"ladder_us,omitempty"`
	Errors []string                      `json:"errors,omitempty"`
}

// client is one closed-loop caller: one connection, one op stream.
type client struct {
	base string
	http *http.Client
	buf  bytes.Buffer
}

func newClient(base string) *client {
	// One connection per client, kept alive; the transport is private
	// so two clients can never share it.
	return &client{base: base, http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// post sends one request and reads the whole response into the
// client's buffer.
func (c *client) post(path string, body []byte, header string) (int, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if header != "" {
		req.Header.Set(header, "1")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// do issues one op and reports how long the timed request took and
// what, if anything, was wrong with the answer. A transport error, a
// status outside 2xx (429 and 503 included) or a body that does not
// carry the oracle's answer is a failed op.
func (c *client) do(o *op, header string) (time.Duration, error) {
	if o.cold {
		if status, err := c.post("/sessions/"+o.session+"/invalidate", nil, ""); err != nil || status != http.StatusOK {
			return 0, fmt.Errorf("%s: invalidate: status %d, %v", o.class, status, err)
		}
	}
	start := time.Now()
	status, err := c.post(o.path, o.body, header)
	d := time.Since(start)
	switch {
	case err != nil:
		return d, fmt.Errorf("%s: %w", o.class, err)
	case status < 200 || status > 299:
		return d, fmt.Errorf("%s: status %d: %s", o.class, status, firstLine(c.buf.Bytes()))
	case o.want != nil && !bytes.Contains(c.buf.Bytes(), o.want):
		return d, fmt.Errorf("%s: answer differs from the oracle's: want %.80s in %.200s", o.class, o.want, c.buf.Bytes())
	}
	return d, nil
}

func firstLine(b []byte) string {
	s, _, _ := strings.Cut(string(b), "\n")
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// sample is one successful op: what it was and how long its timed
// request took.
type sample struct {
	o *op
	d time.Duration
}

// tally is what one client saw in one phase.
type tally struct {
	samples   []sample
	attempted int
	failed    int
	errs      []string // first few failures, for the report
}

// drive runs every client's closed loop for d and returns what they
// saw and how long that really took (each client's last op ends after
// the deadline).
func drive(cs []*client, streams []stream, d time.Duration) ([]*tally, time.Duration) {
	tallies := make([]*tally, len(cs))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i := range cs {
		t := &tally{}
		tallies[i] = t
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				o := streams[i].next()
				d, err := cs[i].do(o, "")
				t.attempted++
				if err != nil {
					t.failed++
					if len(t.errs) < 5 {
						t.errs = append(t.errs, err.Error())
					}
					continue
				}
				t.samples = append(t.samples, sample{o, d})
			}
		}()
	}
	wg.Wait()
	return tallies, time.Since(start)
}

// quantile reads the q-quantile off sorted samples exactly (nearest
// rank), not from histogram buckets.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// options are one run's parameters.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	// warmup runs before the measurement window, so plan caches,
	// extent memos and connection set-up are paid before timing starts.
	warmup time.Duration
	sizes  sizes
	// gaugeRead is the length of one gauge reading.
	gaugeRead time.Duration
	// scratch is where a workload may create files (payg_mixed's
	// store); it must exist.
	scratch string
	// traceOut, when set, receives the traced run's spans.
	traceOut string
}

func setupFor(name string) (func(uint64, sizes, string) (*fixture, error), error) {
	for _, w := range workloads {
		if w.name == name {
			return w.setup, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// setUp sets the workload up setupRepeats times and keeps the last. It
// returns the median set-up time, so a later change that moves work
// into set-up shows beyond one run's noise, and the machine's speed
// meanwhile: the gauge is read before and after every set-up.
func setUp(o options, g *gauge) (f *fixture, seconds, machineSpeed float64, err error) {
	setup, err := setupFor(o.workload)
	if err != nil {
		return nil, 0, 0, err
	}
	times := make([]float64, 0, setupRepeats)
	readings := make([]float64, 0, setupRepeats+1)
	read := func() error {
		r, err := g.reading()
		readings = append(readings, r)
		return err
	}
	if err := read(); err != nil {
		return nil, 0, 0, err
	}
	for range setupRepeats {
		if f != nil {
			f.stop()
		}
		// Collect the previous set-up's garbage now, so that the next
		// one is not billed for it.
		runtime.GC()
		start := time.Now()
		f, err = setup(o.seed, o.sizes, o.scratch)
		times = append(times, time.Since(start).Seconds())
		if err == nil {
			err = read()
		}
		if err != nil {
			if f != nil {
				f.stop()
			}
			return nil, 0, 0, fmt.Errorf("%s: set-up: %w", o.workload, err)
		}
	}
	return f, median(times), speed(readings), nil
}

// measure is an untraced run: set-up, warm-up, one measurement window
// with every response checked, and the end-to-end metrics.
func measure(o options) (*report, error) {
	g, err := newGauge(o.gaugeRead)
	if err != nil {
		return nil, err
	}
	defer g.close()
	f, setupS, setupSpeed, err := setUp(o, g)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	rep, err := measureOn(f, o, g)
	if err != nil {
		return nil, err
	}
	rep.Raw["setup_s"] = setupS
	rep.Result.Metrics["setup_s"] = metric{setupS, "s"}.atSpeed(setupSpeed)
	rep.Samples["setup_s"] = setupRepeats
	return rep, nil
}

// measureOn measures a workload that is already set up: everything but
// setup_s.
func measureOn(f *fixture, o options, g *gauge) (*report, error) {
	cs := make([]*client, clients)
	streams := make([]stream, clients)
	for i := range cs {
		cs[i] = newClient(f.base)
		defer cs[i].close()
		streams[i] = f.streamFor(i)
	}

	warm, _ := drive(cs, streams, o.warmup)
	window := time.Duration(o.seconds * float64(time.Second))
	// Set-up and warm-up garbage goes back to the operating system
	// first, so the resident set sampled below is the window's own.
	debug.FreeOSMemory()
	rss := watchRSS()

	// The window is cut into slices with a gauge reading before and
	// after each. Throughput and latency are taken over the calmer half
	// of the slices — those that completed the most ops, since a
	// neighbour's burst only ever takes throughput away — and put at
	// reference machine speed by the calmer half of the readings. A
	// change to the code moves every slice alike and the gauge not at
	// all, so nothing it does is hidden.
	n := max(int(window/sliceLen), 1)
	per := window / time.Duration(n)
	slicesOf := make([][]*tally, n)
	rep := &report{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Machine: thisMachine(o.scratch),
		Classes: make(map[string]classStat), Slices: make([]sliceStat, n)}
	readings := make([]float64, 0, n+1)
	read := func() error {
		r, err := g.reading()
		readings = append(readings, r)
		return err
	}
	var allocated uint64
	for i := range n {
		if err := read(); err != nil {
			return nil, err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var elapsed time.Duration
		slicesOf[i], elapsed = drive(cs, streams, per)
		runtime.ReadMemStats(&after)
		allocated += after.TotalAlloc - before.TotalAlloc
		rep.Slices[i].Seconds = elapsed.Seconds()
	}
	if err := read(); err != nil {
		return nil, err
	}
	peakRSS, err := rss()
	if err != nil {
		return nil, err
	}

	// Failures during warm-up count too: a wrong answer is wrong
	// whenever it is given.
	for _, t := range warm {
		rep.Result.Failed += t.failed
		rep.Result.Attempted += t.failed
		rep.Errors = append(rep.Errors, t.errs...)
	}
	byClass := make(map[string][]time.Duration)
	bySlice := make([][]time.Duration, n)
	for i, tallies := range slicesOf {
		for _, t := range tallies {
			rep.Result.Attempted += t.attempted
			rep.Result.Failed += t.failed
			rep.Errors = append(rep.Errors, t.errs...)
			rep.Slices[i].Ops += len(t.samples)
			for _, s := range t.samples {
				byClass[s.o.class] = append(byClass[s.o.class], s.d)
				if s.o.query {
					bySlice[i] = append(bySlice[i], s.d)
				}
			}
		}
		rep.Slices[i].Gauge = (readings[i] + readings[i+1]) / 2
	}
	if f.stationary != nil {
		if err := f.stationary(); err != nil {
			rep.Errors = append(rep.Errors, err.Error())
		}
	}
	ops := rep.Result.Attempted - rep.Result.Failed
	rep.Result.Correct = len(rep.Errors) == 0 && ops > 0
	for c, l := range byClass {
		slices.Sort(l)
		rep.Classes[c] = classStat{N: len(l), P50Ms: ms(quantile(l, 0.5)), P99Ms: ms(quantile(l, 0.99))}
	}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	rate := func(i int) float64 { return float64(rep.Slices[i].Ops) / rep.Slices[i].Seconds }
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(rate(b), rate(a)) })
	calm := order[:(n+1)/2]
	calmOps, calmSeconds := 0, 0.0
	var queries []time.Duration
	for _, i := range calm {
		rep.Slices[i].Calm = true
		calmOps += rep.Slices[i].Ops
		calmSeconds += rep.Slices[i].Seconds
		queries = append(queries, bySlice[i]...)
	}
	slices.Sort(queries)
	rep.MachineSpeed = speed(readings)
	rep.Raw = make(map[string]float64)
	rep.Result.Metrics = map[string]metric{
		"alloc_kb_per_op": {float64(allocated) / 1024 / float64(max(rep.Result.Attempted, 1)), "KiB"},
		"peak_rss_mb":     {peakRSS, "MiB"},
	}
	for name, m := range map[string]metric{
		"ops_per_s":    {float64(calmOps) / calmSeconds, "1/s"},
		"query_p50_ms": {ms(quantile(queries, 0.5)), "ms"},
		"query_p99_ms": {ms(quantile(queries, 0.99)), "ms"},
	} {
		rep.Raw[name] = m.Value
		rep.Result.Metrics[name] = m.atSpeed(rep.MachineSpeed)
	}
	rep.Samples = map[string]int{"ops_per_s": calmOps, "query_p50_ms": len(queries), "query_p99_ms": len(queries)}
	return rep, nil
}

// watchRSS samples the process's resident set ten times a second until
// the returned function is called, which reports the largest sample in
// MiB: the memory the operator's OOM killer would have seen during the
// window. (VmHWM would also count the repeated set-ups before it.)
func watchRSS() func() (float64, error) {
	stop := make(chan struct{})
	done := make(chan struct{})
	var peak float64
	var failed error
	sample := func() {
		data, err := os.ReadFile("/proc/self/statm")
		if err != nil {
			failed = err
			return
		}
		fields := strings.Fields(string(data))
		if len(fields) < 2 {
			failed = fmt.Errorf("unexpected /proc/self/statm: %q", data)
			return
		}
		pages, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			failed = err
			return
		}
		peak = max(peak, pages*float64(os.Getpagesize())/(1<<20))
	}
	go func() {
		defer close(done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			sample()
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	return func() (float64, error) {
		close(stop)
		<-done
		return peak, failed
	}
}
