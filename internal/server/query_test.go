package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/dataspace/automed/internal/cache"
	"github.com/dataspace/automed/internal/core"
	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/iql/iqltest"
	"github.com/dataspace/automed/internal/ispider"
	"github.com/dataspace/automed/internal/jsontext"
	"github.com/dataspace/automed/internal/obs"
	"github.com/dataspace/automed/internal/wrapper"
)

// The reference encoding: the response as it was built before answers
// were encoded straight to bytes — the value turned into maps, slices
// and boxed scalars (refValueJSON), the rendering taken as a string,
// and the whole envelope walked by encoding/json. Every test below
// holds the encoder that replaced it to these bytes.

type refQueryResp struct {
	Session      string            `json:"session"`
	Value        any               `json:"value"`
	Rendered     string            `json:"rendered"`
	Warnings     []string          `json:"warnings,omitempty"`
	Version      int               `json:"version"`
	Schema       string            `json:"schema"`
	PlanCached   bool              `json:"plan_cached"`
	ResultCached bool              `json:"result_cached"`
	Degraded     bool              `json:"degraded,omitempty"`
	ElapsedUs    int64             `json:"elapsed_us"`
	Explain      map[string]string `json:"explain,omitempty"`
	Trace        *obs.TraceJSON    `json:"trace,omitempty"`
}

func refValueJSON(v iql.Value) any {
	switch v.Kind {
	case iql.KindNull:
		return nil
	case iql.KindBool:
		return v.B()
	case iql.KindInt:
		return v.I()
	case iql.KindFloat:
		return v.F()
	case iql.KindString:
		return v.S()
	case iql.KindTuple:
		items := make([]any, len(v.Items()))
		for i, it := range v.Items() {
			items[i] = refValueJSON(it)
		}
		return map[string]any{"tuple": items}
	case iql.KindBag:
		sorted, err := iql.SortBag(v)
		if err != nil {
			sorted = v
		}
		items := make([]any, len(sorted.Items()))
		for i, it := range sorted.Items() {
			items[i] = refValueJSON(it)
		}
		return map[string]any{"bag": items}
	case iql.KindVoid:
		return map[string]any{"const": "Void"}
	case iql.KindAny:
		return map[string]any{"const": "Any"}
	}
	return v.String()
}

// refEncode is writeJSON's encoder.
func refEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(v)
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), err
}

// refFragment is the "value" and "rendered" members as the reference
// writes them.
func refFragment(v iql.Value) ([]byte, error) {
	val, err := refEncode(refValueJSON(v))
	if err != nil {
		return nil, err
	}
	rendered, err := refEncode(v.String())
	if err != nil {
		return nil, err
	}
	return []byte(`"value":` + string(val) + `,"rendered":` + string(rendered)), nil
}

// checkFragment encodes v both ways and fails on any difference, in
// bytes or in whether and how encoding fails.
func checkFragment(t *testing.T, v iql.Value) {
	t.Helper()
	want, wantErr := refFragment(v)
	ans := Answer{Result: core.Result{Value: v}}
	err := ans.render()
	switch {
	case wantErr != nil && err == nil:
		t.Fatalf("%s: encoded to %s, the reference fails: %v", v, ans.fragment, wantErr)
	case wantErr != nil:
		if want := "server: encoding response: " + wantErr.Error(); err.Error() != want {
			t.Fatalf("%s: error %q, want %q", v, err, want)
		}
		if errStatus(err) != http.StatusInternalServerError {
			t.Fatalf("%s: %v maps to status %d, want 500", v, err, errStatus(err))
		}
	case err != nil:
		t.Fatalf("%s: %v, the reference encodes it", v, err)
	case !bytes.Equal(ans.fragment, want):
		t.Fatalf("%s:\n got %s\nwant %s", v, ans.fragment, want)
	}
}

func TestAnswerEncodingMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for n := 0; n < 5000; n++ {
		checkFragment(t, iqltest.Value(r, 3))
	}
	for _, s := range iqltest.Strings {
		checkFragment(t, iql.Str(s))
		// Every string as the session name, the one envelope member
		// writeAnswer encodes itself.
		want, _ := refEncode(s)
		if got := jsontext.AppendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("jsontext.AppendString(%q) = %s, want %s", s, got, want)
		}
	}
	for _, i := range iqltest.Ints {
		checkFragment(t, iql.Int(i))
	}
	for _, f := range append(iqltest.NonFinite, iqltest.Floats...) {
		checkFragment(t, iql.Float(f))
		checkFragment(t, iql.Bag(iql.Int(1), iql.Tuple(iql.Str("deep"), iql.Float(f))))
	}
}

// FuzzAnswerEncoding runs the same comparison on values composed from a
// fuzzed string, integer and float. Its seed corpus is the cross of the
// edge scalars, so `go test -run '^Fuzz'` (make fuzz-seeds) covers them
// as plain tests.
func FuzzAnswerEncoding(f *testing.F) {
	floats := append(iqltest.NonFinite, iqltest.Floats...)
	for n, s := range iqltest.Strings {
		f.Add(s, iqltest.Ints[n%len(iqltest.Ints)], floats[n%len(floats)], uint8(n))
	}
	for n, x := range floats {
		f.Add(iqltest.Strings[n%len(iqltest.Strings)], iqltest.Ints[n%len(iqltest.Ints)], x, uint8(n+3))
	}
	f.Fuzz(func(t *testing.T, s string, i int64, x float64, shape uint8) {
		checkFragment(t, iqltest.Compose(s, i, x, shape))
	})
}

// post sends one POST /query and returns the status and the raw body.
func (c *testClient) post(body map[string]any) (int, []byte) {
	c.t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.srv.Client().Post(c.srv.URL+"/query", "application/json", bytes.NewReader(buf))
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// caseStudySession integrates the case-study sources at cfg in the
// server's default session.
func caseStudySession(t *testing.T, srv *Server, cfg ispider.Config) *Session {
	t.Helper()
	pedro, gpmdb, pepseeker, err := ispider.Wrappers(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := srv.Sessions().Get("default", true)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []wrapper.Wrapper{pedro, gpmdb, pepseeker} {
		if err := sess.AddSource(w); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Federate(context.Background(), "F", false); err != nil {
		t.Fatal(err)
	}
	for _, st := range ispider.IntersectionPlan() {
		if st.Kind == "intersect" {
			_, err = sess.Intersect(st.Name, st.Mappings, st.Enables...)
		} else {
			err = sess.Refine(st.Name, st.Refinement, st.Enables...)
		}
		if err != nil {
			t.Fatalf("step %s: %v", st.Name, err)
		}
	}
	return sess
}

// TestQueryResponseBytesMatchReference answers Table 1's Q7 at the
// benchmark's size over HTTP, cold and then from the result cache, and
// holds each whole response body to the reference encoding of the same
// result: member order, omitted members, escaping and the trailing
// newline included.
func TestQueryResponseBytesMatchReference(t *testing.T) {
	srv, c := newTestClient(t, DefaultConfig())
	sess := caseStudySession(t, srv, ispider.BenchConfig())
	var q7 string
	for _, q := range ispider.Table1Queries() {
		if q.ID == "Q7" {
			q7 = q.IQL
		}
	}
	ig, err := sess.integrator()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ig.QueryExprAt(context.Background(), core.CurrentVersion, iql.MustParse(q7))
	if err != nil {
		t.Fatal(err)
	}
	if res.Value.Len() < 100 {
		t.Fatalf("Q7 has %d rows; the comparison wants a large answer", res.Value.Len())
	}

	for _, resultCached := range []bool{false, true} {
		status, got := c.post(map[string]any{"query": q7})
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, got)
		}
		var meta struct {
			PlanCached bool  `json:"plan_cached"`
			ElapsedUs  int64 `json:"elapsed_us"`
		}
		if err := json.Unmarshal(got, &meta); err != nil {
			t.Fatal(err)
		}
		want, err := refEncode(refQueryResp{
			Session:      "default",
			Value:        refValueJSON(res.Value),
			Rendered:     res.Value.String(),
			Warnings:     res.Warnings,
			Version:      res.Version,
			Schema:       res.Schema,
			PlanCached:   meta.PlanCached,
			ResultCached: resultCached,
			ElapsedUs:    meta.ElapsedUs,
		})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		if !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("result_cached=%v: %d bytes, reference %d; first difference at byte %d:\n got …%s\nwant …%s",
				resultCached, len(got), len(want), i, got[i:min(i+80, len(got))], want[i:min(i+80, len(want))])
		}
	}
}

// TestUnencodableAnswerIsNotCached: a source holding NaN and +Inf makes
// an answer JSON cannot carry. It is answered 500 with a request id,
// each time it is asked, and never enters the result cache; a query
// that filters the bad rows out is answered as usual.
func TestUnencodableAnswerIsNotCached(t *testing.T) {
	srv, c := newTestClient(t, DefaultConfig())
	src := wrapper.NewStatic("Probe")
	if err := src.Add(hdm.MustScheme("<<reading>>"), hdm.Nodal, "", "", iql.Bag(iql.Int(1), iql.Int(2), iql.Int(3))); err != nil {
		t.Fatal(err)
	}
	if err := src.Add(hdm.MustScheme("<<reading, level>>"), hdm.Link, "", "", iql.Bag(
		iql.Tuple(iql.Int(1), iql.Float(0.5)),
		iql.Tuple(iql.Int(2), iql.Float(math.NaN())),
		iql.Tuple(iql.Int(3), iql.Float(math.Inf(1))),
	)); err != nil {
		t.Fatal(err)
	}
	sess, err := srv.Sessions().Get("default", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.AddSource(src); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Federate(context.Background(), "F", false); err != nil {
		t.Fatal(err)
	}

	for n := 0; n < 2; n++ {
		status, body := c.post(map[string]any{"query": "<<probe_reading, level>>"})
		var apiErr apiError
		if err := json.Unmarshal(body, &apiErr); err != nil {
			t.Fatalf("ask %d: %v in %s", n, err, body)
		}
		if status != http.StatusInternalServerError ||
			!strings.HasPrefix(apiErr.Error, "server: encoding response: json: unsupported value:") || apiErr.RequestID == "" {
			t.Fatalf("ask %d: status %d, body %s; want 500, the encoder's error and a request id", n, status, body)
		}
	}
	if st := sess.ResultCacheStats(); st.Len != 0 || st.Hits != 0 {
		t.Errorf("result cache after two failed answers: %+v, want no entry and no hit", st)
	}
	status, body := c.post(map[string]any{"query": "[{k, x} | {k, x} <- <<probe_reading, level>>; x < 1.0]"})
	if want := `"rendered":"[{1, 0.5}]"`; status != http.StatusOK || !bytes.Contains(body, []byte(want)) {
		t.Errorf("filtered query: status %d, body %s; want 200 with %s", status, body, want)
	}
}

// TestResultCostCountsTheFragment: the result cache is charged what an
// answer holds — its value's footprint and its fragment's exact length.
func TestResultCostCountsTheFragment(t *testing.T) {
	small := Answer{Result: core.Result{Value: iql.Bag(iql.Str("x"))}}
	large := small
	if err := small.render(); err != nil {
		t.Fatal(err)
	}
	large.fragment = append(append([]byte(nil), small.fragment...), make([]byte, 1000)...)
	if got := resultCost(large) - resultCost(small); got != 1000 {
		t.Errorf("1000 more fragment bytes cost %d", got)
	}
	if len(small.fragment) != cap(small.fragment) {
		t.Errorf("fragment holds %d bytes in %d: the slack is cached but not charged", len(small.fragment), cap(small.fragment))
	}
}

type discardResponse struct{ header http.Header }

func (w discardResponse) Header() http.Header       { return w.header }
func (discardResponse) WriteHeader(int)             {}
func (discardResponse) Write(p []byte) (int, error) { return len(p), nil }

// TestCachedHitAllocatesAConstant pins a result-cache hit, tracing off,
// from Session.Query to the response written: the same few allocations
// whether the answer has ten rows or two thousand, because the hit
// copies the cached fragment and walks nothing.
func TestCachedHitAllocatesAConstant(t *testing.T) {
	srv := New(DefaultConfig())
	sess, err := srv.Sessions().Get("default", true)
	if err != nil {
		t.Fatal(err)
	}
	src := wrapper.NewStatic("Probe")
	for _, n := range []int{10, 2000} {
		els := make([]iql.Value, n)
		for i := range els {
			els[i] = iql.Tuple(iql.Int(int64(i)), iql.Str(fmt.Sprintf("row %d", i)))
		}
		if err := src.Add(hdm.MustScheme(fmt.Sprintf("<<t%d, v>>", n)), hdm.Link, "", "", iql.BagOf(els)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.AddSource(src); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Federate(context.Background(), "F", false); err != nil {
		t.Fatal(err)
	}
	plans := cache.New[plan](cache.Options{MaxEntries: 16})
	req := httptest.NewRequest(http.MethodPost, "/query", nil)
	w := discardResponse{header: make(http.Header)}

	allocsAt := func(n int) float64 {
		q := fmt.Sprintf("<<probe_t%d, v>>", n)
		hit := func() {
			ans, outcome, err := sess.Query(context.Background(), plans, q, core.CurrentVersion, false)
			if err != nil || ans.Value.Len() != n {
				t.Fatalf("%s: %d rows, err %v", q, ans.Value.Len(), err)
			}
			writeAnswer(w, req, sess.Name(), ans, queryResp{Version: ans.Version, Schema: ans.Schema,
				PlanCached: outcome.PlanCached, ResultCached: outcome.ResultCached})
		}
		hit() // evaluate, encode and cache
		allocs := testing.AllocsPerRun(20, hit)
		if _, outcome, _ := sess.Query(context.Background(), plans, q, core.CurrentVersion, false); !outcome.ResultCached {
			t.Fatalf("%s: not answered from the result cache", q)
		}
		return allocs
	}
	// Not "equal": under the race detector sync.Pool drops buffers at
	// random, and the larger answer's response buffer is then grown anew.
	const limit = 12
	if small, large := allocsAt(10), allocsAt(2000); small > limit || large > limit {
		t.Errorf("a cached hit allocates %.0f times for 10 rows and %.0f for 2000; want at most %d for either", small, large, limit)
	}
}

// TestAnswerBytesPerRow pins what a row of a Q7-shaped answer — a
// four-way join on the key, two floats in every row — allocates from
// Session.Query to the encoded fragment, result cache bypassed: the head
// tuple, the row's places in its shard's bag and in the answer, and its
// share of the fragment. The element arenas of the encoder are
// recycled; a row cost twice this when a Value was 72 bytes and the
// answer was walked three times.
func TestAnswerBytesPerRow(t *testing.T) {
	srv := New(DefaultConfig())
	sess, err := srv.Sessions().Get("default", true)
	if err != nil {
		t.Fatal(err)
	}
	src := wrapper.NewStatic("Ions")
	sizes := []int{1000, 3000}
	for _, n := range sizes {
		cols := map[string][]iql.Value{}
		for i := 0; i < n; i++ {
			k := iql.Int(int64(i))
			cols["hit"] = append(cols["hit"], iql.Tuple(k, iql.Int(int64(i/7))))
			cols["type"] = append(cols["type"], iql.Tuple(k, iql.Str("by"[i%2:i%2+1])))
			cols["mz"] = append(cols["mz"], iql.Tuple(k, iql.Float(100+float64(i)*0.37)))
			cols["intensity"] = append(cols["intensity"], iql.Tuple(k, iql.Float(float64(i%997)/8)))
		}
		for col, els := range cols {
			if err := src.Add(hdm.MustScheme(fmt.Sprintf("<<ion%d, %s>>", n, col)), hdm.Link, "", "", iql.BagOf(els)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sess.AddSource(src); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Federate(context.Background(), "F", false); err != nil {
		t.Fatal(err)
	}
	plans := cache.New[plan](cache.Options{MaxEntries: 16})
	bytesAt := func(n int) float64 {
		q := fmt.Sprintf("[{h, t, mz, i} | {k, h} <- <<ions_ion%[1]d, hit>>; {k2, t} <- <<ions_ion%[1]d, type>>; k2 = k; "+
			"{k3, mz} <- <<ions_ion%[1]d, mz>>; k3 = k; {k4, i} <- <<ions_ion%[1]d, intensity>>; k4 = k]", n)
		// The least of ten runs, not their mean: the arenas come from a
		// sync.Pool, the race detector makes a pool drop a quarter of
		// what it is given, and a run that finds it empty pays for
		// arenas, not for rows.
		least := math.Inf(1)
		for i := 0; i < 10; i++ {
			least = min(least, iqltest.AllocBytesPerRun(1, func() {
				ans, _, err := sess.Query(context.Background(), plans, q, core.CurrentVersion, true)
				if err != nil || ans.Value.Len() != n {
					t.Fatalf("%s: %d rows, err %v", q, ans.Value.Len(), err)
				}
			}))
		}
		return least
	}
	small, large := bytesAt(sizes[0]), bytesAt(sizes[1])
	perRow := (large - small) / float64(sizes[1]-sizes[0])
	t.Logf("a %d-row answer allocates %.0f bytes, a %d-row one %.0f: %.1f a row", sizes[0], small, sizes[1], large, perRow)
	if perRow > 400 {
		t.Errorf("a row of a Q7-shaped answer allocates %.1f bytes, want at most 400", perRow)
	}
}
