package query

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/rel"
	"github.com/dataspace/automed/internal/sqlmem"
	"github.com/dataspace/automed/internal/wrapper"
)

// slowRESTBackend serves one collection per source with an injected
// per-request latency and per-path request accounting.
type slowRESTBackend struct {
	srv   *httptest.Server
	delay time.Duration

	mu    sync.Mutex
	calls map[string]int
}

func newSlowRESTBackend(t *testing.T, delay time.Duration, payloads map[string]string) *slowRESTBackend {
	t.Helper()
	b := &slowRESTBackend{delay: delay, calls: make(map[string]int)}
	b.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b.mu.Lock()
		b.calls[r.URL.Path]++
		b.mu.Unlock()
		time.Sleep(b.delay)
		body, ok := payloads[r.URL.Path]
		if !ok {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, body)
	}))
	t.Cleanup(b.srv.Close)
	return b
}

func (b *slowRESTBackend) callCount(path string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.calls[path]
}

// TestRemoteWrapperPrefetchOverlap is the concurrency regression guard
// for remote sources: a join over two collections of a deliberately
// slow REST backend must pay roughly the maximum of the two fetch
// latencies (the prefetch pool overlaps them), not their sum, and the
// backend must see exactly one request per extent — the prefetched
// fetch and the evaluation's fetch coalesce through singleflight.
func TestRemoteWrapperPrefetchOverlap(t *testing.T) {
	const delay = 100 * time.Millisecond
	backend := newSlowRESTBackend(t, delay, map[string]string{
		"/r": `[{"id": 1, "k": 10}, {"id": 2, "k": 20}]`,
		"/s": `[{"id": 3, "k": 10}, {"id": 4, "k": 20}]`,
	})
	newSource := func(name, coll string) *wrapper.REST {
		w, err := wrapper.NewREST(name, wrapper.RESTConfig{
			Endpoint:    backend.srv.URL,
			Collections: []wrapper.RESTCollection{{Name: coll, Fields: []string{"id", "k"}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	p := New()
	if err := p.AddSource(newSource("A", "r")); err != nil {
		t.Fatal(err)
	}
	if err := p.AddSource(newSource("B", "s")); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	v, err := p.Query(`[{x, y} | {x, kx} <- <<r, k>>; {y, ky} <- <<s, k>>; ky = kx]`)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 2 {
		t.Fatalf("join result = %s", v)
	}
	// Serial fetching would cost >= 2*delay; overlapped fetching costs
	// ~max = 1*delay. The bound distinguishes the two with CI headroom.
	if elapsed >= 2*delay {
		t.Errorf("query took %v over two %v-slow remote sources; fetches did not overlap", elapsed, delay)
	}
	for _, path := range []string{"/r", "/s"} {
		if got := backend.callCount(path); got != 1 {
			t.Errorf("backend saw %d requests for %s, want exactly 1 (singleflight)", got, path)
		}
	}
}

// TestCoalescedFetchSurvivesInitiatorCancellation: when a short-
// deadline request initiates a slow remote fetch and a healthy request
// coalesces onto it, the initiator's cancellation must not fail the
// healthy request — it retries the fetch under its own context.
func TestCoalescedFetchSurvivesInitiatorCancellation(t *testing.T) {
	const delay = 150 * time.Millisecond
	backend := newSlowRESTBackend(t, delay, map[string]string{
		"/r": `[{"id": 1}, {"id": 2}]`,
	})
	w, err := wrapper.NewREST("A", wrapper.RESTConfig{
		Endpoint:    backend.srv.URL,
		Collections: []wrapper.RESTCollection{{Name: "r", Fields: []string{"id"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := New()
	if err := p.AddSource(w); err != nil {
		t.Fatal(err)
	}

	shortCtx, cancelShort := context.WithTimeout(context.Background(), delay/3)
	defer cancelShort()
	done := make(chan error, 1)
	go func() {
		_, _, _, err := p.EvalContext(shortCtx, iql.MustParse("count(<<r>>)"))
		done <- err
	}()
	// Let the short request initiate the fetch, then coalesce onto it
	// with a request that has all the time in the world.
	time.Sleep(delay / 6)
	v, _, _, err := p.EvalContext(context.Background(), iql.MustParse("count(<<r>>)"))
	if err != nil {
		t.Fatalf("healthy request inherited the initiator's cancellation: %v", err)
	}
	if v.Kind != iql.KindInt || v.I() != 2 {
		t.Fatalf("count = %s, want 2", v)
	}
	if err := <-done; err == nil {
		t.Error("short-deadline request unexpectedly succeeded")
	}
}

// TestRemoteSQLQueryHonoursDeadline checks a per-request deadline cuts
// through to a slow SQL backend mid-fetch instead of waiting it out.
func TestRemoteSQLQueryHonoursDeadline(t *testing.T) {
	db := rel.NewDB("S")
	tb := db.MustCreateTable("t", []rel.Column{{Name: "id", Type: rel.Int}}, "")
	tb.MustInsert(int64(1))
	const dsn = "query-slow-sql"
	sqlmem.Register(dsn, db)
	w, err := wrapper.NewSQL("S", wrapper.SQLConfig{Driver: sqlmem.DriverName, DSN: dsn})
	if err != nil {
		t.Fatal(err)
	}
	// Introspection is done; only extent fetches pay the delay.
	sqlmem.SetDelay(dsn, 5*time.Second)
	p := New()
	if err := p.AddSource(w); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, _, err = p.EvalContext(ctx, iql.MustParse("count(<<t>>)"))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("query against a 5s-slow backend beat a 50ms deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error = %v, want deadline exceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("deadline enforcement took %v; cancellation did not reach the backend fetch", elapsed)
	}
}
