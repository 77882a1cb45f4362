package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// acquireNow admits immediately or fails the test.
func acquireNow(t *testing.T, a *admission, session string) func() {
	t.Helper()
	release, _, err := a.acquire(context.Background(), session)
	if err != nil {
		t.Fatalf("acquire(%q): %v", session, err)
	}
	return release
}

func TestAdmissionLimitAndQueueBound(t *testing.T) {
	a := newAdmission(1, 1)
	release := acquireNow(t, a, "s1")

	// The second request parks; the third finds the queue full.
	type res struct {
		release func()
		wait    time.Duration
		err     error
	}
	second := make(chan res, 1)
	go func() {
		r, w, err := a.acquire(context.Background(), "s1")
		second <- res{r, w, err}
	}()
	waitForDepth(t, a, 1)
	if _, _, err := a.acquire(context.Background(), "s2"); err != errOverCapacity {
		t.Fatalf("acquire beyond the queue bound = %v, want errOverCapacity", err)
	}

	release()
	got := <-second
	if got.err != nil {
		t.Fatalf("queued acquire failed: %v", got.err)
	}
	if got.wait <= 0 {
		t.Error("queued acquire reports zero wait")
	}
	got.release()
	if st := a.stats(); st.Inflight != 0 || st.Depth != 0 {
		t.Errorf("stats after release = %+v, want idle", st)
	}
}

// TestAdmissionFairQueue pins the round-robin guarantee: a hot
// session with a deep backlog cannot starve a session that queued one
// request.
func TestAdmissionFairQueue(t *testing.T) {
	a := newAdmission(1, 64)
	release := acquireNow(t, a, "seed")

	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup

	// Eight hog requests first, then one from the small session; each
	// parks before the next enqueues so FIFO order is deterministic.
	for i := 0; i < 8; i++ {
		enqueueOne(t, a, "hog", &wg, &mu, &order)
	}
	enqueueOne(t, a, "small", &wg, &mu, &order)
	waitForDepth(t, a, 9)

	release()
	wg.Wait()

	pos := -1
	for i, s := range order {
		if s == "small" {
			pos = i
		}
	}
	if pos < 0 {
		t.Fatal("small session's request never ran")
	}
	// Round-robin alternates sessions, so the small
	// session is served by the second grant — long before the hog
	// backlog empties.
	if pos > 2 {
		t.Errorf("small session served at position %d of %d; hog starved it", pos, len(order))
	}
}

// enqueueOne parks one waiter for session and records its completion.
func enqueueOne(t *testing.T, a *admission, session string, wg *sync.WaitGroup, mu *sync.Mutex, order *[]string) {
	t.Helper()
	before := queueDepth(a)
	wg.Add(1)
	go func() {
		defer wg.Done()
		r, _, err := a.acquire(context.Background(), session)
		if err != nil {
			t.Errorf("acquire(%q): %v", session, err)
			return
		}
		mu.Lock()
		*order = append(*order, session)
		mu.Unlock()
		r()
	}()
	waitForDepth(t, a, before+1)
}

func queueDepth(a *admission) int { return a.stats().Depth }

// waitForDepth polls until the queue holds exactly want waiters.
func waitForDepth(t *testing.T, a *admission, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if queueDepth(a) == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queue depth never reached %d (at %d)", want, queueDepth(a))
}

// TestAdmissionNoGoroutineLeak drives parked waiters through the three
// ways a queued request can exit — grant, context cancellation, and
// drain — and checks every waiter goroutine unwinds. A leaked waiter
// would pin its request context (and, under load, the admission mutex
// wait chain) for the life of the process.
func TestAdmissionNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	a := newAdmission(1, 32)
	release := acquireNow(t, a, "held")

	// Batch 1 exits by cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r, _, err := a.acquire(ctx, "cancelled"); err == nil {
				r()
			}
		}()
	}
	waitForDepth(t, a, 8)
	cancel()
	wg.Wait()

	// Batch 2 is granted one by one as each holder releases.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, _, err := a.acquire(context.Background(), "granted")
			if err != nil {
				t.Errorf("granted batch: %v", err)
				return
			}
			r()
		}()
	}
	waitForDepth(t, a, 4)
	release()
	wg.Wait()

	// Batch 3 exits when the server begins draining.
	release = acquireNow(t, a, "held")
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := a.acquire(context.Background(), "drained"); err != errDraining {
				t.Errorf("drained waiter = %v, want errDraining", err)
			}
		}()
	}
	waitForDepth(t, a, 8)
	a.beginDrain()
	wg.Wait()
	release()
	if err := a.waitIdle(context.Background()); err != nil {
		t.Fatalf("waitIdle: %v", err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked through the admission queue: %d at start, %d after",
				base, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestAdmissionCancelWhileQueued(t *testing.T) {
	a := newAdmission(1, 8)
	release := acquireNow(t, a, "s1")
	defer release()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := a.acquire(ctx, "s1")
		errc <- err
	}()
	waitForDepth(t, a, 1)
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("cancelled acquire = %v, want context.Canceled", err)
	}
	if st := a.stats(); st.Depth != 0 {
		t.Errorf("cancelled waiter still counted: %+v", st)
	}
}

func TestAdmissionDrainWakesWaiters(t *testing.T) {
	a := newAdmission(1, 8)
	release := acquireNow(t, a, "s1")

	errc := make(chan error, 1)
	go func() {
		_, _, err := a.acquire(context.Background(), "s1")
		errc <- err
	}()
	waitForDepth(t, a, 1)
	a.beginDrain()
	if err := <-errc; err != errDraining {
		t.Fatalf("drained waiter = %v, want errDraining", err)
	}
	if _, _, err := a.acquire(context.Background(), "s2"); err != errDraining {
		t.Fatalf("acquire while draining = %v, want errDraining", err)
	}
	// The in-flight request still finishes and idle unblocks.
	done := make(chan error, 1)
	go func() { done <- a.waitIdle(context.Background()) }()
	release()
	if err := <-done; err != nil {
		t.Fatalf("waitIdle: %v", err)
	}
}

// TestServerOverloadReturns429 drives the HTTP surface: with the single
// slot held and no queue, a query is rejected with 429 + Retry-After
// instead of piling up, and the rejection is visible in /metrics.
func TestServerOverloadReturns429(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInflight = 1
	cfg.MaxQueue = 0
	s, c := newTestClient(t, cfg)
	registerBookstore(c, "", 1)
	c.must("POST", "/federate", map[string]any{"name": "F"}, http.StatusCreated)

	release, _, err := s.adm.acquire(context.Background(), "default")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(c.srv.URL+"/query", "application/json",
		strings.NewReader(`{"query": "count(<<library_books>>)"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("query at capacity = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 has no Retry-After header")
	}
	var body apiError
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding 429 body: %v", err)
	}
	if body.Error == "" {
		t.Error("429 body has no error message")
	}
	release()

	// Capacity freed: the same query succeeds, and the metrics recorded
	// the rejection.
	c.must("POST", "/query", map[string]any{"query": "count(<<library_books>>)"}, http.StatusOK)
	m := c.must("GET", "/metrics", nil, http.StatusOK)
	queue := m["queue"].(map[string]any)
	if queue["rejected_total"].(float64) < 1 {
		t.Errorf("queue.rejected_total = %v, want >= 1", queue["rejected_total"])
	}
	if queue["max_inflight"].(float64) != 1 {
		t.Errorf("queue.max_inflight = %v, want 1", queue["max_inflight"])
	}
}

// TestServerFairQueueAcrossSessions holds the only slot, backlogs one
// session over HTTP with deliberately slow queries, then checks a
// second session's single query is served long before the backlog
// empties. Slow queries (a sleeping REST backend, cache bypassed) make
// the serialized grant order dominate scheduling noise.
func TestServerFairQueueAcrossSessions(t *testing.T) {
	const step = 60 * time.Millisecond
	const hogs = 6
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/books") {
			time.Sleep(step)
		}
		fmt.Fprint(w, `[{"id": 1}]`)
	}))
	defer slow.Close()

	// Every query targets its own collection so each one pays the slow
	// fetch (per-session extent caches would otherwise absorb all but
	// the first and let scheduling noise decide the finishing order).
	collections := make([]map[string]any, hogs)
	for i := range collections {
		collections[i] = map[string]any{"name": fmt.Sprintf("books%d", i), "fields": []string{"id"}}
	}
	cfg := DefaultConfig()
	cfg.MaxInflight = 1
	cfg.MaxQueue = 32
	s, c := newTestClient(t, cfg)
	for _, sess := range []string{"hog", "small"} {
		c.must("POST", "/sources", map[string]any{
			"session": sess,
			"name":    "R",
			"rest": map[string]any{
				"endpoint":    slow.URL,
				"collections": collections,
			},
		}, http.StatusCreated)
		c.must("POST", "/federate", map[string]any{"session": sess, "name": "F"}, http.StatusCreated)
	}

	release, _, err := s.adm.acquire(context.Background(), "seed")
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	done := make(map[string][]time.Time)
	var wg sync.WaitGroup
	post := func(session string, coll int) {
		defer wg.Done()
		status, _ := c.do("POST", "/query", map[string]any{
			"session":  session,
			"query":    fmt.Sprintf("count(<<r_books%d>>)", coll),
			"no_cache": true,
		})
		if status != http.StatusOK {
			t.Errorf("session %q query = %d, want 200", session, status)
			return
		}
		mu.Lock()
		done[session] = append(done[session], time.Now())
		mu.Unlock()
	}
	for i := 0; i < hogs; i++ {
		wg.Add(1)
		go post("hog", i)
		waitForDepth(t, s.adm, i+1)
	}
	wg.Add(1)
	go post("small", 0)
	waitForDepth(t, s.adm, hogs+1)

	release()
	wg.Wait()

	if len(done["small"]) != 1 || len(done["hog"]) != hogs {
		t.Fatalf("completions: small=%d hog=%d", len(done["small"]), len(done["hog"]))
	}
	// Round-robin grants the small session's lone query second; with
	// every query costing ~step it must beat at least half the hog
	// backlog. FIFO (the bug this guards against) would finish it last.
	smallAt := done["small"][0]
	beaten := 0
	for _, h := range done["hog"] {
		if smallAt.Before(h) {
			beaten++
		}
	}
	if beaten < hogs/2 {
		t.Errorf("small session's query beat only %d of %d hog queries; the hot session starved it", beaten, hogs)
	}
}

// TestDrainRejectsNewWork pins the draining responses on a live
// handler: queries 503 with Retry-After and /healthz goes unready so
// load balancers stop routing here.
func TestDrainRejectsNewWork(t *testing.T) {
	s, c := newTestClient(t, DefaultConfig())
	registerBookstore(c, "", 1)
	c.must("POST", "/federate", map[string]any{"name": "F"}, http.StatusCreated)

	s.BeginDrain()
	resp, err := http.Post(c.srv.URL+"/query", "application/json",
		strings.NewReader(`{"query": "count(<<library_books>>)"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("query while draining = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining 503 has no Retry-After header")
	}

	hresp, err := http.Get(c.srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("GET /healthz while draining = %d, want 503", hresp.StatusCode)
	}
	var health map[string]any
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "draining" {
		t.Errorf(`healthz status = %v, want "draining"`, health["status"])
	}
	if m := c.must("GET", "/metrics", nil, http.StatusOK); m["queue"].(map[string]any)["draining"] != true {
		t.Error("metrics do not report draining")
	}
}

// TestServeGracefulDrain covers the SIGTERM path end to end: a slow
// in-flight query keeps running across the signal and completes, new
// work is rejected with 503, /healthz goes unready, sessions are
// flushed to the store, and ServeGraceful returns nil (no request
// dropped).
func TestServeGracefulDrain(t *testing.T) {
	// A REST backend whose extent fetch is slow pins the in-flight
	// query across the SIGTERM.
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/books" {
			time.Sleep(400 * time.Millisecond)
		}
		fmt.Fprint(w, `[{"id": 1, "title": "A"}]`)
	}))
	defer slow.Close()

	dir := t.TempDir()
	s := New(DefaultConfig())
	if err := s.OpenStore(dir); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	served := make(chan error, 1)
	go func() { served <- s.ServeGraceful(ctx, ln, 5*time.Second) }()

	postJSON := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf [4096]byte
		n, _ := resp.Body.Read(buf[:])
		return resp.StatusCode, buf[:n]
	}
	if code, body := postJSON("/sources", fmt.Sprintf(
		`{"name": "R", "rest": {"endpoint": %q, "collections": [{"name": "books", "fields": ["id", "title"]}]}}`,
		slow.URL)); code != http.StatusCreated {
		t.Fatalf("POST /sources = %d: %s", code, body)
	}
	if code, body := postJSON("/federate", `{"name": "F"}`); code != http.StatusCreated {
		t.Fatalf("POST /federate = %d: %s", code, body)
	}

	// Launch the slow query, wait until it is admitted, then SIGTERM.
	// (Draining responses to new work are covered by
	// TestDrainRejectsNewWork — after the signal the listener is closing,
	// so new connections here would race it.)
	inflight := make(chan int, 1)
	go func() {
		code, _ := postJSON("/query", `{"query": "count(<<r_books>>)", "no_cache": true}`)
		inflight <- code
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.QueueStats().Inflight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow query never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// The in-flight query completes; the server exits cleanly; the
	// session snapshot reached the store.
	if code := <-inflight; code != http.StatusOK {
		t.Errorf("in-flight query across SIGTERM = %d, want 200", code)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("ServeGraceful = %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeGraceful never returned")
	}
	snap := filepath.Join(dir, fileName("default"))
	if _, err := os.Stat(snap); err != nil {
		t.Errorf("drain did not flush the session snapshot: %v", err)
	}
}
