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

	"github.com/dataspace/automed/internal/iql/iqltest"
)

// TestDecodeStrictBudgetBoundary pins the byte-budget boundary: a
// document of exactly maxBytes decodes, one byte more fails — in the
// reference decoder (rest_reference_test.go) as in the page decoder,
// and as in getBody's body budget, so no two of them disagree about a
// payload at the limit.
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
			data, _, err := w.getBody(ctx, srv.URL+path, 0)
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
		if _, _, err := w.getBody(ctx, srv.URL+path, 0); err == nil || !strings.Contains(err.Error(), "budget") {
			t.Errorf("GET %s one byte over the budget: error = %v, want a budget violation", path, err)
		}
	}
}

// TestScannerReadsChunkedPagesAtTheSizeOfTheLast: the pages of a
// pagination chain mostly come chunked — net/http declares no length for
// a body over 2 KB written without one — and are mostly of one size, so
// from the second page on each is read into a buffer sized from the one
// before it instead of through ReadAll's doubling one: a byte of body
// costs little over a byte to fetch, where it cost four or five. The
// records carry one long unprojected field, so a page decodes to ten
// rows and the read is what the bytes measure. A page
// that outgrows the guess still arrives whole, and one over the budget
// still fails.
func TestScannerReadsChunkedPagesAtTheSizeOfTheLast(t *testing.T) {
	const pageBytes = 17 << 10
	page := func(p, size int) []byte {
		var b bytes.Buffer
		b.WriteByte('[')
		for i := 0; i < 10; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(`{"id": ` + strconv.Itoa(p*10+i) + `, "val": 7, "blob": "` + strings.Repeat("x", size/10-40) + `"}`)
		}
		b.WriteByte(']')
		return b.Bytes()
	}
	// Pages are encoded before the server starts: the endpoint runs in
	// this process, and what it allocates per request is counted too.
	var pages [][]byte
	serve := func(sizes ...int) {
		pages = pages[:0]
		for p := 0; p < 9; p++ {
			pages = append(pages, page(p, sizes[p%len(sizes)]))
		}
	}
	chain := 1
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p, _ := strconv.Atoi(r.URL.Query().Get("page"))
		if p+1 < chain {
			w.Header().Set("Link", `</events?page=`+strconv.Itoa(p+1)+`>; rel="next"`)
		}
		w.Write(pages[p])
	}))
	defer srv.Close()
	w, err := NewREST("Feed", RESTConfig{Endpoint: srv.URL, MaxBytes: 64 << 10,
		Collections: []RESTCollection{{Name: "events", Key: "id", Fields: []string{"val"}}}})
	if err != nil {
		t.Fatal(err)
	}
	scan := func() {
		scn, err := w.ExtentScanner(context.Background(), []string{"events", "val"})
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		for scn.Next(context.Background()) {
			rows += len(scn.Page())
		}
		if err := scn.Err(); err != nil || rows != 10*chain {
			t.Fatalf("scanned %d rows of %d pages, %v", rows, chain, err)
		}
	}
	// What a page after the first costs: the difference between a chain
	// of nine and one of five, a quarter of it. That still holds what a
	// request costs whatever it carries (client and server are both in
	// this process), so the bound is on what doubling the body adds.
	perPage := func(size int) float64 {
		serve(size)
		chain = 9
		nine := iqltest.AllocBytesPerRun(8, scan)
		chain = 5
		return (nine - iqltest.AllocBytesPerRun(8, scan)) / 4
	}
	one, two := perPage(pageBytes), perPage(2*pageBytes)
	t.Logf("a chunked page after the first: %.0f bytes allocated at %d bytes, %.0f at %d: %.2f a byte of body",
		one, pageBytes, two, 2*pageBytes, (two-one)/pageBytes)
	if two-one > 1.5*pageBytes {
		t.Errorf("%d more bytes of chunked page took %.0f more bytes to fetch, want under %d",
			pageBytes, two-one, pageBytes*3/2)
	}

	// A chain whose pages double and shrink: the guess is wrong both ways
	// and every page still arrives whole (scan counts its rows).
	serve(2<<10, 20<<10, 3<<10, 40<<10)
	chain = 8
	scan()
	// One page over the budget fails the scan, guessed size or not.
	serve(2<<10, 65<<10)
	scn, err := w.ExtentScanner(context.Background(), []string{"events", "val"})
	if err != nil {
		t.Fatal(err)
	}
	for scn.Next(context.Background()) {
	}
	if err := scn.Err(); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("a page over the budget after a small one: error = %v, want a budget violation", err)
	}
}
