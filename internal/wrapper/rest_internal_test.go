package wrapper

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestDecodeStrictBudgetBoundary pins the byte-budget boundary: a
// document of exactly maxBytes decodes, one byte more fails — the same
// accounting as getBody's body budget, so the two paths can never
// disagree about a payload at the limit.
func TestDecodeStrictBudgetBoundary(t *testing.T) {
	const budget = 64
	within := budgetDoc(budget)
	over := budgetDoc(budget + 1)
	if len(within) != budget || len(over) != budget+1 {
		t.Fatalf("bad fixtures: %d and %d bytes", len(within), len(over))
	}

	var v any
	if err := decodeStrict(strings.NewReader(within), budget, &v); err != nil {
		t.Errorf("document of exactly %d bytes rejected: %v", budget, err)
	}
	err := decodeStrict(strings.NewReader(over), budget, &v)
	if err == nil {
		t.Fatalf("document of %d bytes decoded despite a %d-byte budget", budget+1, budget)
	}
	if !strings.Contains(err.Error(), "budget") {
		t.Errorf("overflow error does not name the budget: %v", err)
	}

	// The page decoder has the same boundary.
	d := restDecoder{coll: "c", key: "id"}
	if _, err := d.page([]byte(within), budget, nil); err != nil {
		t.Errorf("page decoder rejected a document at the budget: %v", err)
	}
	if _, err := d.page([]byte(over), budget, nil); err == nil {
		t.Error("page decoder accepted a document one byte over the budget")
	}
}

func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"7", 7 * time.Second},
		{"0", 0},
		{"-3", 0},
		{"soon", 0},
		{time.Now().Add(-time.Hour).UTC().Format(time.RFC1123), 0}, // past dates mean "now"
	}
	for _, c := range cases {
		if got := parseRetryAfter(c.in); got != c.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	// An HTTP-date a minute out parses to roughly that delay.
	future := time.Now().Add(time.Minute).UTC().Format(http.TimeFormat)
	if got := parseRetryAfter(future); got < 50*time.Second || got > time.Minute {
		t.Errorf("parseRetryAfter(%q) = %v, want ~1m", future, got)
	}
}

// TestGetBodyReadsADeclaredLengthOnce: a page that declares its length
// is read into one buffer of that size, not through ReadAll's doubling
// one — about its size in bytes, not three times it. A response that
// declares none still arrives whole, and a body one byte over the
// budget still fails, declared or not.
func TestGetBodyReadsADeclaredLengthOnce(t *testing.T) {
	page := bytes.Repeat([]byte(`{"id": 12345, "val": 678, "tag": "T42"},`), 2500) // 100 KB
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/chunked" {
			// Two flushed writes: net/http cannot declare a length.
			w.Write(page[:len(page)/2])
			w.(http.Flusher).Flush()
			w.Write(page[len(page)/2:])
			return
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(page)))
		w.Write(page)
	}))
	defer srv.Close()
	ctx := context.Background()
	w := &REST{cfg: RESTConfig{MaxBytes: int64(len(page))}, client: &http.Client{}}
	perGet := func(path string) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 8; i++ {
			data, _, err := w.getBody(ctx, srv.URL+path)
			if err != nil || !bytes.Equal(data, page) {
				t.Fatalf("GET %s: %d bytes, %v", path, len(data), err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 8
	}
	perGet("/sized") // settle the connection pool
	sized, chunked := perGet("/sized"), perGet("/chunked")
	t.Logf("%d-byte page: %d bytes allocated a GET with a declared length, %d without", len(page), sized, chunked)
	if sized > uint64(len(page))*3/2 {
		t.Errorf("a %d-byte page of declared length took %d bytes to read", len(page), sized)
	}

	w.cfg.MaxBytes--
	for _, path := range []string{"/sized", "/chunked"} {
		if _, _, err := w.getBody(ctx, srv.URL+path); err == nil || !strings.Contains(err.Error(), "budget") {
			t.Errorf("GET %s one byte over the budget: error = %v, want a budget violation", path, err)
		}
	}
}
