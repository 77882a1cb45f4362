package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"time"
)

// The gauge measures how fast the machine is right now.
//
// This sandbox shares its host: for minutes at a time everything in it
// runs a fifth to two fifths slower, then recovers. Ten runs of one
// commit then spread by 6–20 %, far beyond any bound worth having, and
// no statistic taken inside a run helps when the whole run is slow. So
// every run also times an internal standard, a fixed piece of work that
// shares no code with the program — a closed loop of two clients
// posting a 64-row JSON document to a standard-library echo server that
// decodes and re-encodes it: syscalls, scheduler, allocation, JSON and
// GC, the same kind of work as the daemon's — in short reads between
// the slices of the measurement window and the steps of a traced run.
// Times and rates are reported at reference machine speed: multiplied,
// respectively divided, by the gauge's reading relative to
// gaugeNominal. Because the gauge shares no code with the program, a
// change to the program cannot move it.
type gauge struct {
	srv     *httptest.Server
	body    []byte
	clients []*client
	read    time.Duration
}

// gaugeNominal is the gauge's reading, in echo requests per second, on
// the machine the benchmark was defined on (2 cores of a 2.1 GHz Xeon)
// when nothing disturbs it. It only fixes the scale of the reported
// times: on another machine every metric moves by one constant factor.
const gaugeNominal = 8000.0

func newGauge(read time.Duration) (*gauge, error) {
	rows := make([]map[string]any, 64)
	for i := range rows {
		rows[i] = map[string]any{"id": i, "val": i * 7 % 1000, "label": fmt.Sprintf("L%03d", i), "ratio": float64(i) + 0.5}
	}
	body, err := json.Marshal(rows)
	if err != nil {
		return nil, err
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var doc []map[string]any
		if err := json.NewDecoder(r.Body).Decode(&doc); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		out, err := json.Marshal(doc)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_, _ = w.Write(out)
	}))
	g := &gauge{srv: srv, body: body, read: read}
	for range clients {
		g.clients = append(g.clients, newClient(srv.URL))
	}
	return g, nil
}

func (g *gauge) close() {
	for _, c := range g.clients {
		c.close()
	}
	g.srv.Close()
}

// reading runs the echo loop for one read and returns echo requests
// per second.
func (g *gauge) reading() (float64, error) {
	var wg sync.WaitGroup
	counts := make([]int, len(g.clients))
	errs := make([]error, len(g.clients))
	start := time.Now()
	deadline := start.Add(g.read)
	for i, c := range g.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if status, err := c.post("", g.body, ""); err != nil || status != http.StatusOK {
					errs[i] = fmt.Errorf("gauge: status %d, %v", status, err)
					return
				}
				counts[i]++
			}
		}()
	}
	wg.Wait()
	total := 0
	for i, n := range counts {
		if errs[i] != nil {
			return 0, errs[i]
		}
		total += n
	}
	return float64(total) / time.Since(start).Seconds(), nil
}

// speed turns a series of readings into the machine's speed relative
// to the reference: the mean of the faster half of the readings over
// gaugeNominal. A neighbour's burst only ever slows a reading, so the
// faster half is the better estimate — the same reasoning, and the same
// half, as for the workload's own slices.
func speed(readings []float64) float64 {
	s := slices.Clone(readings)
	slices.Sort(s)
	s = s[len(s)/2:]
	sum := 0.0
	for _, r := range s {
		sum += r
	}
	return sum / float64(len(s)) / gaugeNominal
}
