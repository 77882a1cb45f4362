package wrapper_test

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/wrapper"
)

func TestRESTDiscovery(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/":
			fmt.Fprint(w, `{"books": [{"id": 1, "title": "A"}], "loans": [{"ref": "L1"}]}`)
		case "/books":
			fmt.Fprint(w, `[{"id": 1, "title": "A"}]`)
		case "/loans":
			fmt.Fprint(w, `[{"ref": "L1"}]`)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	w, err := wrapper.NewREST("R", wrapper.RESTConfig{Endpoint: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	// books: nodal + id + title; loans: nodal + ref (key inferred as
	// the only field since "id" is absent).
	if w.Schema().Len() != 5 {
		t.Errorf("discovered schema has %d objects:\n%s", w.Schema().Len(), w.Schema().Describe())
	}
	v, err := w.Extent([]string{"loans"})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(iql.Bag(iql.Str("L1"))) {
		t.Errorf("loans extent = %s", v)
	}
}

func TestRESTPathNormalization(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v2/stock" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, `[{"id": 1}]`)
	}))
	defer srv.Close()
	// A declared path without a leading slash still resolves against
	// the endpoint instead of mangling the URL.
	w, err := wrapper.NewREST("R", wrapper.RESTConfig{
		Endpoint:    srv.URL,
		Collections: []wrapper.RESTCollection{{Name: "stock", Path: "v2/stock", Fields: []string{"id"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := w.Extent([]string{"stock"})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(iql.Bag(iql.Int(1))) {
		t.Errorf("extent = %s", v)
	}
}

func TestRESTRetryOnceOn5xx(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, "flaky", http.StatusBadGateway)
			return
		}
		fmt.Fprint(w, `[{"id": 1}]`)
	}))
	defer srv.Close()
	w, err := wrapper.NewREST("R", wrapper.RESTConfig{
		Endpoint:    srv.URL,
		Collections: []wrapper.RESTCollection{{Name: "books", Fields: []string{"id"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := w.Extent([]string{"books"})
	if err != nil {
		t.Fatalf("one 502 defeated the retry: %v", err)
	}
	if !v.Equal(iql.Bag(iql.Int(1))) {
		t.Errorf("extent = %s", v)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("backend saw %d requests, want 2 (original + one retry)", got)
	}
}

func TestRESTNoRetryOn4xxAndRetryBound(t *testing.T) {
	var calls atomic.Int32
	status := http.StatusNotFound
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "nope", status)
	}))
	defer srv.Close()
	w, err := wrapper.NewREST("R", wrapper.RESTConfig{
		Endpoint:    srv.URL,
		Collections: []wrapper.RESTCollection{{Name: "books", Fields: []string{"id"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Extent([]string{"books"}); err == nil {
		t.Fatal("404 fetch succeeded")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("a 404 was retried: %d requests", got)
	}
	// Persistent 5xx: exactly one retry, then failure.
	calls.Store(0)
	status = http.StatusInternalServerError
	if _, err := w.Extent([]string{"books"}); err == nil {
		t.Fatal("persistent 500 fetch succeeded")
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("persistent 500 saw %d requests, want 2", got)
	}
}

func TestRESTResponseBudget(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `[{"id": 1, "blob": %q}]`, strings.Repeat("x", 4096))
	}))
	defer srv.Close()
	w, err := wrapper.NewREST("R", wrapper.RESTConfig{
		Endpoint:    srv.URL,
		MaxBytes:    512,
		Collections: []wrapper.RESTCollection{{Name: "books", Fields: []string{"blob", "id"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = w.Extent([]string{"books"})
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("oversized response error = %v, want a budget violation", err)
	}
}

func TestRESTTimeout(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Second)
	}))
	defer srv.Close()
	w, err := wrapper.NewREST("R", wrapper.RESTConfig{
		Endpoint:    srv.URL,
		Timeout:     50 * time.Millisecond,
		Collections: []wrapper.RESTCollection{{Name: "books", Fields: []string{"id"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := w.Extent([]string{"books"}); err == nil {
		t.Fatal("slow endpoint did not time out")
	}
	// Two attempts of 50ms each, far below the handler's sleep.
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("timeout fetch took %v", elapsed)
	}
}

func TestRESTMalformedPayloads(t *testing.T) {
	payload := ""
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, payload)
	}))
	defer srv.Close()
	w, err := wrapper.NewREST("R", wrapper.RESTConfig{
		Endpoint:    srv.URL,
		Collections: []wrapper.RESTCollection{{Name: "books", Fields: []string{"id", "meta"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		`{"not": "an array"}`,
		`[1, 2, 3]`,
		`[{"id": 1}] trailing`,
		`[{"id": {"nested": true}}]`,
		`[{"id": 1e400}]`,
		`[null]`,
		`[{"id": 1}`,
	} {
		payload = bad
		if _, err := w.Extent([]string{"books"}); err == nil {
			t.Errorf("payload %q decoded without error", bad)
		}
	}
	// Wrong-typed fields are fine as long as they are scalars: the
	// common data model is dynamically typed.
	payload = `[{"id": "k1", "meta": false}]`
	v, err := w.Extent([]string{"books", "meta"})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(iql.Bag(iql.Tuple(iql.Str("k1"), iql.Bool(false)))) {
		t.Errorf("meta extent = %s", v)
	}
	// A record without the declared key fails the extent.
	payload = `[{"meta": true}]`
	if _, err := w.Extent([]string{"books"}); err == nil {
		t.Error("record without its key field was accepted")
	}
}

func TestRESTRestoreFallsBackWhenEndpointDies(t *testing.T) {
	srv := restBackend(t)
	w, err := wrapper.NewREST("R", wrapper.RESTConfig{
		Endpoint:    srv.URL,
		Collections: []wrapper.RESTCollection{{Name: "books", Fields: []string{"id", "title"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := w.Extent([]string{"books", "title"})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	restored, err := wrapper.Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	assertHeldNotServed(t, restored, snap, want, srv.URL)
	// The original wrapper has no fallback; the outage surfaces.
	if _, err := w.Extent([]string{"books", "title"}); err == nil {
		t.Error("live wrapper with a dead endpoint succeeded")
	}
}

// TestRESTRetryBacksOff asserts the retry waits before re-sending: a
// zero-delay re-GET against an already-struggling endpoint is a retry
// storm in miniature.
func TestRESTRetryBacksOff(t *testing.T) {
	var calls atomic.Int32
	var gap atomic.Int64 // ns between the two requests
	var first atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			first.Store(time.Now().UnixNano())
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
		default:
			gap.Store(time.Now().UnixNano() - first.Load())
			fmt.Fprint(w, `[{"id": 1}]`)
		}
	}))
	defer srv.Close()
	w, err := wrapper.NewREST("R", wrapper.RESTConfig{
		Endpoint:     srv.URL,
		Collections:  []wrapper.RESTCollection{{Name: "books", Fields: []string{"id"}}},
		RetryBackoff: 80 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Extent([]string{"books"}); err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("backend saw %d requests, want 2", got)
	}
	// Jitter spans [0.5, 1.5) of the base delay; anything under half is
	// a missing backoff.
	if g := time.Duration(gap.Load()); g < 40*time.Millisecond {
		t.Errorf("retry re-sent after %v, want >= 40ms of backoff", g)
	}
}

// TestRESTRetryHonors429RetryAfter asserts a 429 is retried (unlike
// other 4xx) and that the server's Retry-After sets the wait, capped at
// the fetch timeout so a hostile header cannot park the client.
func TestRESTRetryHonors429RetryAfter(t *testing.T) {
	var calls atomic.Int32
	var gap atomic.Int64
	var first atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			first.Store(time.Now().UnixNano())
			w.Header().Set("Retry-After", "30") // capped at Timeout below
			http.Error(w, "slow down", http.StatusTooManyRequests)
		default:
			gap.Store(time.Now().UnixNano() - first.Load())
			fmt.Fprint(w, `[{"id": 1}]`)
		}
	}))
	defer srv.Close()
	w, err := wrapper.NewREST("R", wrapper.RESTConfig{
		Endpoint:    srv.URL,
		Collections: []wrapper.RESTCollection{{Name: "books", Fields: []string{"id"}}},
		Timeout:     300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Extent([]string{"books"}); err != nil {
		t.Fatalf("429 defeated the retry: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("backend saw %d requests, want 2 (429 + honored retry)", got)
	}
	g := time.Duration(gap.Load())
	if g < 250*time.Millisecond {
		t.Errorf("retry after %v ignored Retry-After (want ~300ms cap)", g)
	}
	if g > 5*time.Second {
		t.Errorf("retry after %v was not capped at the fetch timeout", g)
	}
}

// TestRESTErrorResponsesReuseConnection counts TCP connections across
// repeated failing fetches: getBody drains error bodies before closing,
// so the keep-alive connection goes back in the pool instead of being
// redialled for every attempt.
func TestRESTErrorResponsesReuseConnection(t *testing.T) {
	var conns, calls atomic.Int32
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error": "not found", "detail": "`+strings.Repeat("x", 512)+`"}`, http.StatusNotFound)
	}))
	srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	w, err := wrapper.NewREST("R", wrapper.RESTConfig{
		Endpoint:    srv.URL,
		Collections: []wrapper.RESTCollection{{Name: "books", Fields: []string{"id"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := w.Extent([]string{"books"}); err == nil {
			t.Fatal("404 fetch succeeded")
		}
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("server saw %d requests, want 4", got)
	}
	if got := conns.Load(); got != 1 {
		t.Errorf("4 failing fetches used %d connections, want 1 (error bodies not drained?)", got)
	}
}

// TestRESTExtentAndScannerWalkOneChain: a whole extent and a drained
// scanner follow a pagination chain the same way — the same GETs in the
// same order, the same rows and the same error text — over three pages
// of which the middle one has no value for the projected field, over a
// chain whose second page links to itself, and over one whose second
// page is a 404.
func TestRESTExtentAndScannerWalkOneChain(t *testing.T) {
	var mu sync.Mutex
	var gets []string
	var last int            // the page that ends the chain
	self, missing := -1, -1 // the page that links to itself, the page that is a 404
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		gets = append(gets, r.URL.RequestURI())
		mu.Unlock()
		p, _ := strconv.Atoi(r.URL.Query().Get("page"))
		switch {
		case p == missing:
			http.NotFound(w, r)
			return
		case p == self:
			w.Header().Set("Link", `</events?page=`+strconv.Itoa(p)+`>; rel="next"`)
		case p < last:
			w.Header().Set("Link", `</events?page=`+strconv.Itoa(p+1)+`>; rel="next"`)
		}
		if p == 1 {
			fmt.Fprint(w, `[{"id": 10, "val": null}, {"id": 11}]`) // no val: no rows
			return
		}
		fmt.Fprintf(w, `[{"id": %d, "val": "a%d"}, {"id": %d, "val": "b%d"}]`, 10*p, p, 10*p+1, p)
	}))
	defer srv.Close()
	w, err := wrapper.NewREST("R", wrapper.RESTConfig{Endpoint: srv.URL,
		Collections: []wrapper.RESTCollection{{Name: "events", Fields: []string{"val"}}}})
	if err != nil {
		t.Fatal(err)
	}
	walk := func(f func() (iql.Value, error)) (rows iql.Value, errText string, urls []string) {
		mu.Lock()
		gets = nil
		mu.Unlock()
		rows, err := f()
		if err != nil {
			errText = err.Error()
		}
		mu.Lock()
		defer mu.Unlock()
		return rows, errText, gets
	}
	parts := []string{"events", "val"}
	for _, tc := range []struct {
		name                string
		last, self, missing int
		wantGets            int
		wantErr             string
	}{
		{"three pages", 2, -1, -1, 3, ""},
		{"a self-link", 2, 1, -1, 2, "next link points at itself"},
		{"a 404 on page 2", 2, -1, 1, 2, "unexpected status 404"},
	} {
		last, self, missing = tc.last, tc.self, tc.missing
		extent, extentErr, extentGets := walk(func() (iql.Value, error) { return w.Extent(parts) })
		scanned, scanErr, scanGets := walk(func() (iql.Value, error) {
			scn, err := w.ExtentScanner(context.Background(), parts)
			if err != nil {
				return iql.Value{}, err
			}
			var rows []iql.Value
			for scn.Next(context.Background()) {
				rows = append(rows, scn.Page()...)
			}
			return iql.BagOf(rows), scn.Err()
		})
		if !slices.Equal(extentGets, scanGets) || len(extentGets) != tc.wantGets {
			t.Errorf("%s: Extent sent %v, the scanner %v; want %d GETs each", tc.name, extentGets, scanGets, tc.wantGets)
		}
		if extentErr != scanErr || !strings.Contains(extentErr, tc.wantErr) || (tc.wantErr == "") != (extentErr == "") {
			t.Errorf("%s: Extent failed with %q, the scanner with %q; want %q", tc.name, extentErr, scanErr, tc.wantErr)
		}
		if tc.wantErr == "" && (!extent.Equal(scanned) || extent.Len() != 4) {
			t.Errorf("%s: Extent read %s, the scanner %s; want the 4 rows of pages 0 and 2", tc.name, extent, scanned)
		}
	}
}
