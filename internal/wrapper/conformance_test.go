package wrapper_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/rel"
	"github.com/dataspace/automed/internal/sqlmem"
	"github.com/dataspace/automed/internal/wrapper"
	"github.com/dataspace/automed/internal/wrapper/wrappertest"
)

// conformanceDB is the fixture every relational-shaped factory shares:
// two tables, every cell type, NULLs, and an int64 beyond float64
// precision (the snapshot round-trip must keep it exact).
func conformanceDB() *rel.DB {
	db := rel.NewDB("S")
	books := db.MustCreateTable("books", []rel.Column{
		{Name: "id", Type: rel.Int},
		{Name: "title", Type: rel.String},
		{Name: "price", Type: rel.Float},
		{Name: "instock", Type: rel.Bool},
	}, "id")
	books.MustInsert(int64(1), "Dataspaces", 10.5, true)
	books.MustInsert(int64(2), nil, 20.0, false)
	books.MustInsert(int64(1<<60+7), "Precision", nil, nil)
	loans := db.MustCreateTable("loans", []rel.Column{
		{Name: "loan", Type: rel.String},
		{Name: "book", Type: rel.Int},
	}, "loan")
	loans.MustInsert("L1", int64(1))
	loans.MustInsert("L2", nil)
	return db
}

func TestWrapperConformanceCSV(t *testing.T) {
	wrappertest.Run(t, func(t *testing.T) wrapper.Wrapper {
		dir := t.TempDir()
		if err := rel.WriteCSVDir(conformanceDB(), dir); err != nil {
			t.Fatal(err)
		}
		w, err := wrapper.NewCSVDir("S", dir)
		if err != nil {
			t.Fatal(err)
		}
		return w
	})
}

func TestWrapperConformanceStatic(t *testing.T) {
	wrappertest.Run(t, func(t *testing.T) wrapper.Wrapper {
		st := wrapper.NewStatic("G")
		if err := st.Add(hdm.MustScheme("<<UBook>>"), hdm.Nodal, "sql", "table",
			iql.Bag(iql.Int(1), iql.Int(2))); err != nil {
			t.Fatal(err)
		}
		if err := st.Add(hdm.MustScheme("<<UBook, title>>"), hdm.Link, "sql", "column",
			iql.Bag(iql.Tuple(iql.Int(1), iql.Str("a")), iql.Tuple(iql.Int(2), iql.Str("b")))); err != nil {
			t.Fatal(err)
		}
		return st
	})
}

const conformanceXML = `
<library>
  <book isbn="978-1"><title>Dataspaces</title><author>Franklin</author></book>
  <book isbn="978-2"><title>Schema Matching</title></book>
</library>`

func TestWrapperConformanceXML(t *testing.T) {
	wrappertest.Run(t, func(t *testing.T) wrapper.Wrapper {
		w, err := wrapper.NewXML("X", strings.NewReader(conformanceXML))
		if err != nil {
			t.Fatal(err)
		}
		return w
	})
}

var conformanceDSN atomic.Int64

func TestWrapperConformanceSQL(t *testing.T) {
	for _, dialect := range []string{wrapper.DialectSQLite, wrapper.DialectInformationSchema, wrapper.DialectPostgres} {
		t.Run(dialect, func(t *testing.T) {
			// One DSN per dialect run: the suite's factories must agree on
			// the backing database but stay isolated from other tests.
			dsn := fmt.Sprintf("conformance-%d", conformanceDSN.Add(1))
			sqlmem.Register(dsn, conformanceDB())
			wrappertest.Run(t, func(t *testing.T) wrapper.Wrapper {
				w, err := wrapper.NewSQL("S", wrapper.SQLConfig{
					Driver:  sqlmem.DriverName,
					DSN:     dsn,
					Dialect: dialect,
				})
				if err != nil {
					t.Fatal(err)
				}
				return w
			})
		})
	}
}

// TestWrapperConformanceSQLPaged runs the suite with a page size
// smaller than every table, so extents and scans cross keyset
// page boundaries (including a NULL-bearing row mid-page).
func TestWrapperConformanceSQLPaged(t *testing.T) {
	dsn := fmt.Sprintf("conformance-%d", conformanceDSN.Add(1))
	sqlmem.Register(dsn, conformanceDB())
	wrappertest.Run(t, func(t *testing.T) wrapper.Wrapper {
		w, err := wrapper.NewSQL("S", wrapper.SQLConfig{
			Driver:        sqlmem.DriverName,
			DSN:           dsn,
			FetchPageRows: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	})
}

// TestWrapperConformanceSQLNullKeys covers tables without a declared
// primary key whose fallback key column contains NULLs: a table's
// extent is the bag of its key values, NULL is not a key, so rows with
// NULL keys are absent from both arities — through Extent and through
// the scanner alike (the suite's ScannerMatchesExtent enforces the
// latter).
func TestWrapperConformanceSQLNullKeys(t *testing.T) {
	db := rel.NewDB("N")
	m := db.MustCreateTable("m", []rel.Column{
		{Name: "a", Type: rel.Int},
		{Name: "b", Type: rel.String},
	}, "b")
	m.MustInsert(nil, "x")
	m.MustInsert(int64(1), "y")
	m.MustInsert(int64(2), "z")
	dsn := fmt.Sprintf("conformance-%d", conformanceDSN.Add(1))
	sqlmem.Register(dsn, db)
	// Hide the declared key from introspection: the wrapper falls back
	// to the first column, "a", which holds a NULL.
	sqlmem.SetNoPK(dsn, "m")
	factory := func(t *testing.T) wrapper.Wrapper {
		w, err := wrapper.NewSQL("N", wrapper.SQLConfig{
			Driver:        sqlmem.DriverName,
			DSN:           dsn,
			FetchPageRows: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	wrappertest.Run(t, factory)

	w := factory(t)
	nodal, err := w.Extent([]string{"m"})
	if err != nil {
		t.Fatal(err)
	}
	if want := iql.Bag(iql.Int(1), iql.Int(2)); !nodal.Equal(want) {
		t.Errorf("<<m>> = %s, want %s (NULL key skipped)", nodal, want)
	}
	link, err := w.Extent([]string{"m", "b"})
	if err != nil {
		t.Fatal(err)
	}
	want := iql.Bag(
		iql.Tuple(iql.Int(1), iql.Str("y")),
		iql.Tuple(iql.Int(2), iql.Str("z")),
	)
	if !link.Equal(want) {
		t.Errorf("<<m, b>> = %s, want %s (NULL-keyed row skipped in both arities)", link, want)
	}
}

// restBackend serves a fixed two-collection JSON API for the
// conformance suite, httptest-hosted so fetches go over real HTTP.
func restBackend(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /books", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `[
			{"id": 1, "title": "Dataspaces", "price": 10.5, "instock": true},
			{"id": 2, "price": 20, "instock": false},
			{"id": 1152921504606846983, "title": "Precision"}
		]`)
	})
	mux.HandleFunc("GET /loans", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `[{"id": "L1", "book": 1}, {"id": "L2"}]`)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestWrapperConformanceREST(t *testing.T) {
	srv := restBackend(t)
	wrappertest.Run(t, func(t *testing.T) wrapper.Wrapper {
		w, err := wrapper.NewREST("R", wrapper.RESTConfig{
			Endpoint: srv.URL,
			Collections: []wrapper.RESTCollection{
				{Name: "books", Fields: []string{"id", "instock", "price", "title"}},
				{Name: "loans", Fields: []string{"book", "id"}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	})
}

// pagedRESTBackend serves the same records as restBackend but one per
// response, chained with Link rel="next" headers (relative targets, so
// resolution against the final request URL is exercised too).
func pagedRESTBackend(t *testing.T) *httptest.Server {
	t.Helper()
	pages := map[string][]string{
		"books": {
			`[{"id": 1, "title": "Dataspaces", "price": 10.5, "instock": true}]`,
			`[{"id": 2, "price": 20, "instock": false}]`,
			`[{"id": 1152921504606846983, "title": "Precision"}]`,
		},
		"loans": {
			`[{"id": "L1", "book": 1}]`,
			`[{"id": "L2"}]`,
		},
	}
	mux := http.NewServeMux()
	for name, ps := range pages {
		mux.HandleFunc("GET /"+name, func(w http.ResponseWriter, r *http.Request) {
			page := 0
			if q := r.URL.Query().Get("page"); q != "" {
				fmt.Sscanf(q, "%d", &page)
			}
			if page >= len(ps) {
				http.NotFound(w, r)
				return
			}
			if page < len(ps)-1 {
				w.Header().Set("Link", fmt.Sprintf(`</%s?page=%d>; rel="next"`, name, page+1))
			}
			fmt.Fprint(w, ps[page])
		})
	}
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestWrapperConformanceRESTPaginated runs the suite against a backend
// that splits every collection across Link-chained pages: extents and
// scans must be byte-identical to the single-page serving.
func TestWrapperConformanceRESTPaginated(t *testing.T) {
	srv := pagedRESTBackend(t)
	factory := func(t *testing.T) wrapper.Wrapper {
		w, err := wrapper.NewREST("R", wrapper.RESTConfig{
			Endpoint: srv.URL,
			Collections: []wrapper.RESTCollection{
				{Name: "books", Fields: []string{"id", "instock", "price", "title"}},
				{Name: "loans", Fields: []string{"book", "id"}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	wrappertest.Run(t, factory)

	// Paginated and single-page servings must agree byte for byte.
	flat := restBackend(t)
	wf, err := wrapper.NewREST("R", wrapper.RESTConfig{
		Endpoint: flat.URL,
		Collections: []wrapper.RESTCollection{
			{Name: "books", Fields: []string{"id", "instock", "price", "title"}},
			{Name: "loans", Fields: []string{"book", "id"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wp := factory(t)
	for _, o := range wf.Schema().Objects() {
		want, err := wf.Extent(o.Scheme.Parts())
		if err != nil {
			t.Fatal(err)
		}
		got, err := wp.Extent(o.Scheme.Parts())
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("paginated extent of %s = %s, want %s", o.Scheme, got, want)
		}
	}
}

// BenchmarkRESTDiscovery guards the discovery path's allocation
// profile: decoding each collection's raw JSON must not copy the body
// (bytes.NewReader over the RawMessage, not a string round trip).
func BenchmarkRESTDiscovery(b *testing.B) {
	var records strings.Builder
	records.WriteString(`{"items": [`)
	for i := 0; i < 500; i++ {
		if i > 0 {
			records.WriteString(",")
		}
		fmt.Fprintf(&records, `{"id": %d, "v": "value-%d"}`, i, i)
	}
	records.WriteString(`]}`)
	body := records.String()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, body)
	}))
	defer srv.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wrapper.NewREST("R", wrapper.RESTConfig{Endpoint: srv.URL}); err != nil {
			b.Fatal(err)
		}
	}
}
