package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
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

// fragmentOf is the "value" and "rendered" members as the server writes
// them for an answer that evaluates to v: e evaluated into the encoder,
// the rendering, escaped as it was written, copied after the JSON, an
// unencodable value the server's encodingError.
func fragmentOf(e iql.Expr) ([]byte, error) {
	enc := iql.Encoding{JSON: []byte(`"value":`)}
	if err := new(iql.Evaluator).EvalEncoded(&enc, e, nil); err != nil {
		var unencodable *iql.EncodingError
		if errors.As(err, &unencodable) {
			err = &encodingError{unencodable.Err}
		}
		return nil, err
	}
	return appendRendered(enc.JSON, enc.Text), nil
}

// checkFragment encodes v both ways and fails on any difference, in
// bytes or in whether and how encoding fails. A bag is encoded a third
// way, which must not differ from the second: as the elements of a
// comprehension over it, one at a time through the encoding sink.
func checkFragment(t *testing.T, v iql.Value) {
	t.Helper()
	want, wantErr := refFragment(v)
	exprs := []iql.Expr{&iql.Lit{Val: v}}
	if v.Kind == iql.KindBag {
		exprs = append(exprs, &iql.Comp{Head: &iql.Var{Name: "x"},
			Quals: []iql.Qual{&iql.Generator{Pat: &iql.VarPat{Name: "x"}, Src: exprs[0]}}})
	}
	for _, e := range exprs {
		got, err := fragmentOf(e)
		switch {
		case wantErr != nil && err == nil:
			t.Fatalf("%s: encoded to %s, the reference fails: %v", e, got, wantErr)
		case wantErr != nil:
			if want := "server: encoding response: " + wantErr.Error(); err.Error() != want {
				t.Fatalf("%s: error %q, want %q", e, err, want)
			}
			if errStatus(err) != http.StatusInternalServerError {
				t.Fatalf("%s: %v maps to status %d, want 500", e, err, errStatus(err))
			}
		case err != nil:
			t.Fatalf("%s: %v, the reference encodes it", e, err)
		case !bytes.Equal(got, want):
			t.Fatalf("%s:\n got %s\nwant %s", e, got, want)
		}
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

// refBody is the whole response body as the reference writes it for
// res, the members only the serving of it knows — plan_cached,
// result_cached, elapsed_us — read back from the response it is held
// against.
func refBody(res core.Result, got []byte) ([]byte, error) {
	var meta struct {
		PlanCached   bool  `json:"plan_cached"`
		ResultCached bool  `json:"result_cached"`
		ElapsedUs    int64 `json:"elapsed_us"`
	}
	if err := json.Unmarshal(got, &meta); err != nil {
		return nil, err
	}
	want, err := refEncode(refQueryResp{
		Session:      "default",
		Value:        refValueJSON(res.Value),
		Rendered:     res.Value.String(),
		Warnings:     res.Warnings,
		Version:      res.Version,
		Schema:       res.Schema,
		PlanCached:   meta.PlanCached,
		ResultCached: meta.ResultCached,
		ElapsedUs:    meta.ElapsedUs,
	})
	return append(want, '\n'), err
}

// diffBodies describes where got leaves want, "" when it does not.
func diffBodies(got, want []byte) string {
	if bytes.Equal(got, want) {
		return ""
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	return fmt.Sprintf("%d bytes, reference %d; first difference at byte %d:\n got …%s\nwant …%s",
		len(got), len(want), i, got[i:min(i+80, len(got))], want[i:min(i+80, len(want))])
}

// table1References evaluates Table 1 by the materialising path, the
// reference of every response below.
func table1References(t *testing.T, sess *Session) map[string]core.Result {
	t.Helper()
	ig, err := sess.integrator()
	if err != nil {
		t.Fatal(err)
	}
	refs := map[string]core.Result{}
	for _, q := range ispider.Table1Queries() {
		res, err := ig.QueryExprAt(context.Background(), core.CurrentVersion, iql.MustParse(q.IQL))
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		refs[q.IQL] = res
	}
	return refs
}

// TestQueryResponseBytesMatchReference answers Table 1 at the
// benchmark's size over HTTP and holds each whole response body to the
// reference encoding of the materialised result: member order, omitted
// members, escaping and the trailing newline included. One text goes
// uncached, then into the result cache, then out of it; and different
// answers — the largest (Q7), a tuple of two bags (Q4), small ones —
// follow each other through the same pooled buffers and arenas.
func TestQueryResponseBytesMatchReference(t *testing.T) {
	srv, c := newTestClient(t, DefaultConfig())
	sess := caseStudySession(t, srv, ispider.BenchConfig())
	refs := table1References(t, sess)
	text := map[string]string{}
	for _, q := range ispider.Table1Queries() {
		text[q.ID] = q.IQL
	}
	if rows := refs[text["Q7"]].Value.Len(); rows < 100 {
		t.Fatalf("Q7 has %d rows; the comparison wants a large answer", rows)
	}

	for n, step := range []struct {
		id           string
		noCache      bool
		resultCached bool
	}{
		{"Q7", true, false}, {"Q7", false, false}, {"Q7", false, true},
		{"Q4", true, false}, {"Q2", true, false}, {"Q7", true, false}, {"Q1", true, false},
		{"Q4", false, false}, {"Q7", false, true}, {"Q4", false, true},
		{"Q3", true, false}, {"Q5", true, false}, {"Q6", true, false},
	} {
		status, got := c.post(map[string]any{"query": text[step.id], "no_cache": step.noCache})
		if status != http.StatusOK {
			t.Fatalf("step %d, %s: status %d: %s", n, step.id, status, got)
		}
		want, err := refBody(refs[text[step.id]], got)
		if err != nil {
			t.Fatal(err)
		}
		if d := diffBodies(got, want); d != "" {
			t.Fatalf("step %d, %s no_cache=%v: %s", n, step.id, step.noCache, d)
		}
		if cached := bytes.Contains(got, []byte(`"result_cached":true`)); cached != step.resultCached {
			t.Fatalf("step %d, %s no_cache=%v: result_cached=%v, want %v", n, step.id, step.noCache, cached, step.resultCached)
		}
	}
}

// TestConcurrentAnswersMatchReference posts eight different texts from
// eight goroutines, round after round, every other one past the result
// cache, and holds every response to its own reference: the response
// buffers, rendering buffers and element arenas are pooled, and an
// answer that reached the client through another's, or was written from
// a buffer already handed back, shows here (and under -race).
func TestConcurrentAnswersMatchReference(t *testing.T) {
	srv, c := newTestClient(t, DefaultConfig())
	sess := caseStudySession(t, srv, ispider.DefaultConfig())
	refs := table1References(t, sess)
	texts := make([]string, 0, 8)
	for _, q := range ispider.Table1Queries() {
		texts = append(texts, q.IQL)
	}
	ig, _ := sess.integrator()
	extra := "[{k, a} | {s, k, a} <- <<UProtein, accession_num>>]"
	res, err := ig.QueryExprAt(context.Background(), core.CurrentVersion, iql.MustParse(extra))
	if err != nil {
		t.Fatal(err)
	}
	refs[extra] = res
	texts = append(texts, extra)

	const rounds = 200
	var wg sync.WaitGroup
	for g, q := range texts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < rounds; n++ {
				body, _ := json.Marshal(map[string]any{"query": q, "no_cache": (n+g)%2 == 0})
				resp, err := c.srv.Client().Post(c.srv.URL+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("%s, round %d: status %d, err %v: %s", q, n, resp.StatusCode, err, got)
					return
				}
				want, err := refBody(refs[q], got)
				if err != nil {
					t.Errorf("%s, round %d: %v in %s", q, n, err, got)
					return
				}
				if d := diffBodies(got, want); d != "" {
					t.Errorf("%s, round %d: %s", q, n, d)
					return
				}
			}
		}()
	}
	wg.Wait()
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

// TestResultCostCountsTheFragment: the result cache is charged what a
// cached answer holds — its fragment at its exact length and the strings
// beside it; there is no value to charge — and what it holds is the
// exact-length copy, not the response buffer the fragment was written
// in.
func TestResultCostCountsTheFragment(t *testing.T) {
	small := Answer{Schema: "F", fragment: []byte(`"value":1,"rendered":"1"`)}
	large := small
	large.fragment = append(append([]byte(nil), small.fragment...), make([]byte, 1000)...)
	if got := resultCost(large) - resultCost(small); got != 1000 {
		t.Errorf("1000 more fragment bytes cost %d", got)
	}

	srv := New(DefaultConfig())
	sess := caseStudySession(t, srv, ispider.DefaultConfig())
	plans := cache.New[plan](cache.Options{MaxEntries: 16})
	q := ispider.Table1Queries()[1].IQL
	first := &respBuf{b: make([]byte, 0, 1<<16)}
	if _, _, err := sess.Query(context.Background(), first, plans, q, core.CurrentVersion, false); err != nil {
		t.Fatal(err)
	}
	hit, outcome, err := sess.Query(context.Background(), new(respBuf), plans, q, core.CurrentVersion, false)
	if err != nil || !outcome.ResultCached {
		t.Fatalf("second ask: cached %v, err %v", outcome.ResultCached, err)
	}
	if !bytes.Equal(hit.fragment, first.b) {
		t.Errorf("cached fragment\n %s\nis not what the miss wrote:\n %s", hit.fragment, first.b)
	}
	if len(hit.fragment) != cap(hit.fragment) {
		t.Errorf("fragment holds %d bytes in %d: the slack is cached but not charged", len(hit.fragment), cap(hit.fragment))
	}
	if len(first.b) > 0 && len(hit.fragment) > 0 && &first.b[0] == &hit.fragment[0] {
		t.Error("the cached fragment is the response buffer")
	}
}

// discardResponse is a response nobody reads: it keeps the status, the
// length of the body, and how many tuples — rows, in the answers below —
// the body holds.
type discardResponse struct {
	header             http.Header
	status, size, rows int
}

func (w *discardResponse) Header() http.Header { return w.header }
func (w *discardResponse) WriteHeader(s int)   { w.status = s }
func (w *discardResponse) Write(p []byte) (int, error) {
	w.size += len(p)
	w.rows += bytes.Count(p, []byte(`{"tuple":`))
	return len(p), nil
}

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
	w := &discardResponse{header: make(http.Header)}

	allocsAt := func(n int) float64 {
		q := fmt.Sprintf("<<probe_t%d, v>>", n)
		hit := func() {
			buf := respBufPool.Get().(*respBuf)
			defer respBufPool.Put(buf)
			openAnswer(buf, sess.Name())
			ans, outcome, err := sess.Query(context.Background(), buf, plans, q, core.CurrentVersion, false)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			w.rows = 0
			writeAnswer(w, req, buf, queryResp{Version: ans.Version, Schema: ans.Schema,
				PlanCached: outcome.PlanCached, ResultCached: outcome.ResultCached})
			if w.rows != n {
				t.Fatalf("%s: %d rows written, want %d", q, w.rows, n)
			}
		}
		hit() // evaluate, encode and cache
		allocs := iqltest.Least(10, func() float64 { return testing.AllocsPerRun(2, hit) })
		if _, outcome, _ := sess.Query(context.Background(), new(respBuf), plans, q, core.CurrentVersion, false); !outcome.ResultCached {
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

// joinSession is a session over one static source of six two-column
// objects <<t1, v>> … <<t6, v>>, each rows rows {k, "row k"} keyed 0 up,
// federated — so its objects are virtual, memoised once read — and the
// extents by the federated names, the reference's.
func joinSession(t *testing.T, srv *Server, name string, rows int) (*Session, iql.Extents) {
	t.Helper()
	sess, err := srv.Sessions().Get(name, true)
	if err != nil {
		t.Fatal(err)
	}
	src := wrapper.NewStatic("Probe")
	els := make([]iql.Value, rows)
	for i := range els {
		els[i] = iql.Tuple(iql.Int(int64(i)), iql.Str(fmt.Sprintf("row %d", i)))
	}
	extents := map[string]iql.Value{}
	for n := 1; n <= 6; n++ {
		if err := src.Add(hdm.MustScheme(fmt.Sprintf("<<t%d, v>>", n)), hdm.Link, "", "", iql.BagOf(els)); err != nil {
			t.Fatal(err)
		}
		extents[fmt.Sprintf("probe_t%d, v", n)] = iql.BagOf(els)
	}
	if err := sess.AddSource(src); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Federate(context.Background(), "F", false); err != nil {
		t.Fatal(err)
	}
	return sess, iql.ExtentsFunc(func(parts []string) (iql.Value, error) {
		if v, ok := extents[strings.Join(parts, ", ")]; ok {
			return v, nil
		}
		return iql.Value{}, fmt.Errorf("no extent <<%s>>", strings.Join(parts, ", "))
	})
}

// joinQuery is an equi-join of the first gens of joinSession's objects
// on their key, whatever gens its answer is <<t1, v>>'s rows.
func joinQuery(gens int) string {
	q := "[{k, a} | {k, a} <- <<probe_t1, v>>"
	for n := 2; n <= gens; n++ {
		q += fmt.Sprintf("; {k%[1]d, x%[1]d} <- <<probe_t%[1]d, v>>; k%[1]d = k", n)
	}
	return q + "]"
}

// TestWarmPlanAllocatesNoAnalysis pins a plan-cache hit, result cache
// bypassed, tracing off, over memoised extents: a two-generator and a
// six-generator equi-join with the same answer allocate the same number
// of times. A warm query evaluates the AST the plan cache holds — no
// canonical copy — through the analysis and the evaluation state parked
// on its comprehension, and reads a memoised extent without building its
// span's name: nothing it allocates grows with the generators.
func TestWarmPlanAllocatesNoAnalysis(t *testing.T) {
	srv := New(DefaultConfig())
	// At least joinIndexCacheMin rows, so the join indexes are cached.
	sess, _ := joinSession(t, srv, "default", 40)
	plans := cache.New[plan](cache.Options{MaxEntries: 16})
	buf := new(respBuf)
	allocsAt := func(gens int) float64 {
		q := joinQuery(gens)
		ask := func() QueryOutcome {
			buf.b = buf.b[:0]
			_, outcome, err := sess.Query(context.Background(), buf, plans, q, core.CurrentVersion, true)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			return outcome
		}
		ask() // parse, analyse, read and memoise the extents, build the indexes
		// The least of many single runs: under the race detector a
		// sync.Pool drops what it is given at random, and a run that finds
		// one empty pays for a buffer.
		allocs := iqltest.Least(50, func() float64 { return testing.AllocsPerRun(1, func() { ask() }) })
		if outcome := ask(); !outcome.PlanCached || outcome.ResultCached {
			t.Fatalf("%s: %+v, want a plan-cache hit past the result cache", q, outcome)
		}
		return allocs
	}
	two, six := allocsAt(2), allocsAt(6)
	t.Logf("a warm plan allocates %.0f times for a two-generator join, %.0f for a six-generator one", two, six)
	if two != six {
		t.Errorf("a warm plan allocates %.0f times for a two-generator join and %.0f for a six-generator one; want the same", two, six)
	}
}

// TestPlanCostChargesTheAnalysis holds what the plan cache is charged
// for a Table 1 plan beyond its text — iql.PlanFootprint — to what
// evaluating the plan leaves on its AST, measured: the heap a hundred
// fresh parses of the query hold once each has been evaluated over warm
// extents, less what they held before. The charge must cover it, and
// not by more than twice over.
func TestPlanCostChargesTheAnalysis(t *testing.T) {
	srv := New(DefaultConfig())
	sess := caseStudySession(t, srv, ispider.DefaultConfig())
	ig, err := sess.integrator()
	if err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC() // the first only moves what sync.Pools hold aside
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	for _, q := range ispider.Table1Queries() {
		if _, err := ig.QueryExprAt(context.Background(), core.CurrentVersion, iql.MustParse(q.IQL)); err != nil {
			t.Fatalf("%s: %v", q.ID, err) // warms the extents and join indexes
		}
		trees := make([]iql.Expr, 100)
		for i := range trees {
			trees[i] = iql.MustParse(q.IQL)
		}
		before := heap()
		for _, e := range trees {
			if _, err := ig.QueryExprAt(context.Background(), core.CurrentVersion, e); err != nil {
				t.Fatalf("%s: %v", q.ID, err)
			}
		}
		pinned := float64(heap()-before) / float64(len(trees))
		charged := float64(iql.PlanFootprint(trees[0]))
		t.Logf("%s: evaluation pins %.0f bytes on the AST, the plan cache is charged %.0f", q.ID, pinned, charged)
		if charged < pinned || charged > 2*pinned {
			t.Errorf("%s: evaluation pins %.0f bytes on the AST, the plan cache is charged %.0f for them", q.ID, pinned, charged)
		}
		runtime.KeepAlive(trees)
	}
}

// TestTable1CacheCharges holds what Table 1 charges the extent caches
// and the join-index cache — Q1 to Q7 evaluated once each, in order, at
// ispider.DefaultConfig — to the bytes they were charged when a freshly
// filled extent was walked for its size up to three times: by the
// source read, by the memo entry over it, and by each join index built
// over it. It is walked once now (a fill carries its footprint), and a
// join run's entry is charged nothing until it is recorded.
func TestTable1CacheCharges(t *testing.T) {
	srv := New(DefaultConfig())
	sess := caseStudySession(t, srv, ispider.DefaultConfig())
	ig, err := sess.integrator()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range ispider.Table1Queries() {
		if _, err := ig.QueryExprAt(context.Background(), core.CurrentVersion, iql.MustParse(q.IQL)); err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
	}
	memo, src := ig.Processor().CacheStats()
	idx := ig.Processor().JoinIndexStats()
	if memo.Bytes != 234979 || src.Bytes != 144360 || idx.Bytes != 343568 {
		t.Errorf("Table 1 charged the memo %d bytes, the source extents %d and the join indexes %d; want 234979, 144360 and 343568",
			memo.Bytes, src.Bytes, idx.Bytes)
	}
}

// TestSharedPlanAcrossSessions evaluates one cached plan from eight
// goroutines, four in each of two sessions, result cache bypassed, and
// holds every answer to the reference's bytes. The sessions share the
// AST, so its comprehensions' analysis, and every evaluation takes the
// state parked on a comprehension or makes its own: the count's nested
// comprehension is entered by every goroutine at once. The plan's
// three-generator join is a join run each session has walked and
// recorded before the goroutines start, so all four of a session's
// goroutines replay the one record at once, every time. make flake runs
// it thirty times under -race.
func TestSharedPlanAcrossSessions(t *testing.T) {
	srv := New(DefaultConfig())
	const rows = 138
	var ext iql.Extents
	sessions := make([]*Session, 2)
	for i, name := range []string{"a", "b"} {
		sessions[i], ext = joinSession(t, srv, name, rows)
	}
	q := "{" + joinQuery(3) + ", count([k | {k, a} <- <<probe_t2, v>>; count([j | {j, b} <- <<probe_t3, v>>; j < k]) > 50])}"
	v, err := iqltest.Eval(iql.MustParse(q), ext, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refFragment(v)
	if err != nil {
		t.Fatal(err)
	}
	plans := cache.New[plan](cache.Options{MaxEntries: 16})
	for _, sess := range sessions {
		for range 2 { // the walk that leaves the run's entry, the one that records it
			if _, _, err := sess.Query(context.Background(), new(respBuf), plans, q, core.CurrentVersion, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The join-index cache is the daemon's: both sessions' runs are in it.
	replays := func() uint64 {
		_, _, index := srv.reg.caches.extents.Stats()
		return index.Replays
	}
	before := replays()
	var wg sync.WaitGroup
	for g := range 8 {
		sess := sessions[g%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range 5 {
				buf := new(respBuf)
				if _, _, err := sess.Query(context.Background(), buf, plans, q, core.CurrentVersion, true); err != nil {
					t.Errorf("session %s, round %d: %v", sess.Name(), n, err)
					return
				}
				if d := diffBodies(buf.b, want); d != "" {
					t.Errorf("session %s, round %d: %s", sess.Name(), n, d)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := plans.Stats(); st.Len != 1 {
		t.Errorf("%d plans cached, want the one all evaluations shared", st.Len)
	}
	if n := replays() - before; n != 40 {
		t.Errorf("%d join runs replayed, want 40: one in each of the eight goroutines' five queries", n)
	}
}

// TestAnswerBytesPerRow pins what a row of a Q7-shaped answer — a
// four-way join on the key, two floats in every row — allocates from
// handleQuery to the written response. Result cache bypassed, nothing:
// the head is evaluated into the plan's scratch row, encoded into
// recycled arenas and gathered onto the recycled response buffer, so a
// row is never a tuple, never has a place in a bag, and its bytes exist
// once. On its way into the result cache, its share of the one copy the
// cache keeps. (A row cost 400 bytes when the answer was materialised,
// walked and copied out.)
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
	h := srv.Handler()
	// measure returns the least bytes one POST of the n-row query
	// allocates, and the length of its response.
	measure := func(n int, noCache bool) (float64, int) {
		q := fmt.Sprintf("[{h, t, mz, i} | {k, h} <- <<ions_ion%[1]d, hit>>; {k2, t} <- <<ions_ion%[1]d, type>>; k2 = k; "+
			"{k3, mz} <- <<ions_ion%[1]d, mz>>; k3 = k; {k4, i} <- <<ions_ion%[1]d, intensity>>; k4 = k]", n)
		body, err := json.Marshal(map[string]any{"query": q, "no_cache": noCache})
		if err != nil {
			t.Fatal(err)
		}
		w := &discardResponse{header: make(http.Header)}
		// The least of thirty runs, not their mean: buffers and arenas
		// come from sync.Pools, a collection empties them (so there is
		// none meanwhile), the race detector makes a pool drop a quarter
		// of what it is given, and a run that finds one empty pays for
		// buffers, not for rows.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		least := iqltest.Least(30, func() float64 {
			return iqltest.AllocBytesPerRun(1, func() {
				// Every run of the cacheable case is a miss that caches.
				sess.caches.results.Purge()
				r, err := http.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				*w = discardResponse{header: w.header}
				h.ServeHTTP(w, r)
				if w.status != http.StatusOK || w.rows != n {
					t.Fatalf("%d-row query: status %d, %d rows in the response", n, w.status, w.rows)
				}
			})
		})
		return least, w.size
	}
	perRow := func(noCache bool) (alloc, resp float64) {
		small, smallLen := measure(sizes[0], noCache)
		large, largeLen := measure(sizes[1], noCache)
		rows := float64(sizes[1] - sizes[0])
		t.Logf("no_cache=%v: a %d-row answer allocates %.0f bytes, a %d-row one %.0f: %.1f a row of %.1f response bytes",
			noCache, sizes[0], small, sizes[1], large, (large-small)/rows, float64(largeLen-smallLen)/rows)
		return (large - small) / rows, float64(largeLen-smallLen) / rows
	}
	const slack = 16
	if alloc, _ := perRow(true); alloc > slack {
		t.Errorf("result cache bypassed, a row of a Q7-shaped answer allocates %.1f bytes, want at most %d", alloc, slack)
	}
	if alloc, resp := perRow(false); alloc > resp+slack {
		t.Errorf("on its way into the result cache, a row of a Q7-shaped answer allocates %.1f bytes, "+
			"want at most its %.1f bytes of fragment and %d", alloc, resp, slack)
	}
}
