package query

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/iql/iqltest"
	"github.com/dataspace/automed/internal/jsontext"
	"github.com/dataspace/automed/internal/obs"
	"github.com/dataspace/automed/internal/rel"
	"github.com/dataspace/automed/internal/sqlmem"
	"github.com/dataspace/automed/internal/wrapper"
)

// The oracle: every way the processor answers a query is held to the
// reference evaluator, iqltest.Eval, over generated worlds laid out on
// three providers — a static source (M), a SQL source over sqlmem (T)
// and a paged REST source over httptest (R) — and a virtual object over
// the last two. The ways are the product of: serial or sharded;
// materialised, or streamed in pages of 1 and 7 rows; cold or memo-warm;
// fresh, or degraded (every source failing after a good read, through
// wrapper.Fault, and served stale); a bag answer, its count folded here,
// or its count taken at the SQL source; built, or written by
// EvalEncoded. One more way shares a plan: a tree parsed afresh is
// analysed by a cold evaluation on one processor and evaluated as that
// left it, warm, by another's session and evaluators, as a cached plan
// is by every session of the server. And one replays: the same tree
// evaluated cold, then warm twice, on one processor, so that a join
// run is walked, recorded and replayed. Of each it asserts that
//
//   - the value is Eval's (iqltest.Same), or both fail;
//   - over permuted extents the answer is alike (iqltest.Alike), or both
//     fail, unless the query calls a builtin whose answer depends on
//     element order;
//   - warnings, dependency keys and steps are the serial, materialised,
//     built run's in the same state (cold, warm or degraded), and a count
//     folded here takes the bag's steps and one, the call's — a count
//     taken at the source being the exception;
//   - an encoded answer's JSON is AppendJSONAndText's of the same mode's
//     built answer and byte for byte that of Eval's answer, its text the
//     built answer's rendering escaped for a JSON string
//     (jsontext.AppendEscaped), and an answer JSON cannot carry an
//     *iql.EncodingError.

// TestOracle runs the oracle over generated queries, and asserts that
// the modes ran as named: the sharded ones sharded some evaluation and
// the serial ones none, the paged ones stream <<t>> past the cache,
// which the materialised ones fill, and the replayed one replayed.
func TestOracle(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	var sharded, replayed uint64
	for range 20 {
		w := iqltest.NewWorld(r)
		o := newOracle(t, w, r)
		for range 25 {
			o.check(t, w.Query(r))
		}
		replayed += o.replayed
		for _, m := range o.direct {
			n := m.p.ParallelStats().ParallelEvals
			if sharded += n; m.p.Parallel == 1 && n > 0 {
				t.Errorf("%s: %d evaluations sharded", m.name, n)
			}
			eval(m.p, iql.MustParse("[x | x <- <<t>>]"), false, true)
			if streamed := !m.p.st.srcExt.Peek(addrOf(m.p, "T", "t")); streamed == strings.HasSuffix(m.name, "materialised") {
				t.Errorf("%s: <<t>> of %d rows streamed %v", m.name, len(w.Table.Rows), streamed)
			}
		}
	}
	if sharded == 0 {
		t.Error("no evaluation sharded")
	}
	if replayed == 0 {
		t.Error("the replayed mode replayed no join run")
	}
}

// FuzzOracle runs the oracle over iqltest.EdgeWorld on any query text
// that parses; the seeds are iqltest.Corpus, generated queries, and the
// shapes every mode must agree on: counts the SQL source can take,
// joins, a large scan.
func FuzzOracle(f *testing.F) {
	for _, src := range iqltest.Corpus {
		f.Add(src)
	}
	r := rand.New(rand.NewSource(28))
	w := iqltest.EdgeWorld()
	for range 12 {
		f.Add(w.Query(r))
	}
	for _, src := range []string{
		"count([k | {k, v} <- <<t, n>>; v < 5])", "count([k | {k, v} <- <<t, n>>; 2 >= v; k > -1])",
		"count([x | x <- <<t>>; x = 9007199254740993])", "count([k | {k, v} <- <<t, f>>; v < 5])",
		"[{k, v, w} | {k, v} <- <<t, n>>; {j, w} <- <<r, n>>; j = k]", "[k | y <- <<r>>; {k, k} <- <<pairs>>; k = y]",
		"first([{i, k} | {i, k} <- <<big>>; k > 0])", "[{s, k} | {s, k, v} <- <<U>>; v >= 1]",
	} {
		f.Add(src)
	}
	o := newOracle(f, w, r)
	f.Fuzz(func(t *testing.T, src string) {
		e, err := iql.Parse(src)
		if err != nil || len(src) > 256 {
			return
		}
		ev := iql.NewEvaluator(o.ref)
		ev.MaxSteps = 100_000
		if _, err := ev.Eval(e, nil); err != nil && strings.Contains(err.Error(), "exceeded") {
			return // too large to answer in every mode
		}
		o.check(t, src)
	})
}

// oracle is one world laid out on providers, the processors of every
// mode over them, and the permuted worlds' processors.
type oracle struct {
	ref    iql.Extents
	direct []mode // the first is the reference of warnings, keys and steps
	faults []*wrapper.Fault
	// faulted builds a fresh processor over the faults (no breaker history,
	// no last good extent), serial or sharded.
	faulted  func(parallel int) *Processor
	permuted []permutation
	// replayed counts the join runs the replayed mode replayed.
	replayed uint64
}

type mode struct {
	name string
	p    *Processor
}

type permutation struct {
	ref iql.Extents
	p   *Processor
}

var oracleDSN atomic.Int64

func newOracle(tb testing.TB, w *iqltest.World, r *rand.Rand) *oracle {
	tb.Helper()
	o := &oracle{ref: w.Extents()}
	static := staticObjects(tb, "M", w.Objects)
	dsn := fmt.Sprintf("oracle-%d", oracleDSN.Add(1))
	sqlmem.Register(dsn, sqlTable(w.Table))
	tb.Cleanup(func() { sqlmem.Unregister(dsn) })
	srv := restCollection(tb, w.Collection)
	// sources opens the world's sources, pages of rows rows. Each mode
	// has wrappers of its own: a wrapper instance carries the epoch its
	// cached extents are addressed by, so a cold run of one mode would
	// otherwise make every mode over the same instances cold.
	sources := func(rows int) []Sourcer {
		sq, err := wrapper.NewSQL("T", wrapper.SQLConfig{Driver: sqlmem.DriverName, DSN: dsn, FetchPageRows: rows})
		if err != nil {
			tb.Fatal(err)
		}
		rest, err := wrapper.NewREST("R", wrapper.RESTConfig{Endpoint: srv.URL, Collections: []wrapper.RESTCollection{
			{Name: "r", Path: fmt.Sprintf("/%d/r", rows), Fields: []string{"n", "f", "s"}}}})
		if err != nil {
			tb.Fatal(err)
		}
		return []Sourcer{static, sq, rest}
	}
	processor := func(parallel, scanBuffer int, srcs ...Sourcer) *Processor {
		p := New()
		p.Parallel, p.ScanBuffer = parallel, scanBuffer
		for _, s := range srcs {
			if err := p.AddSource(s); err != nil {
				tb.Fatal(err)
			}
		}
		defineView(p, w)
		return p
	}
	for _, parallel := range []int{1, 8} {
		o.direct = append(o.direct,
			mode{fmt.Sprintf("parallel %d, materialised", parallel), processor(parallel, -1, sources(7)...)},
			mode{fmt.Sprintf("parallel %d, pages of 1", parallel), processor(parallel, 1, sources(1)...)},
			mode{fmt.Sprintf("parallel %d, pages of 7", parallel), processor(parallel, 1, sources(7)...)})
	}
	var faulty []Sourcer
	for _, s := range sources(7) {
		f, err := wrapper.NewFault(s.(wrapper.Wrapper), wrapper.FaultConfig{})
		if err != nil {
			tb.Fatal(err)
		}
		o.faults, faulty = append(o.faults, f), append(faulty, f)
	}
	o.faulted = func(parallel int) *Processor {
		p := processor(parallel, -1, faulty...)
		p.SetBreaker(BreakerConfig{Enabled: true})
		return p
	}
	reversed := func(n int) []int {
		order := make([]int, n)
		for i := range order {
			order[i] = n - 1 - i
		}
		return order
	}
	for _, order := range []func(int) []int{reversed, r.Perm} {
		pw := w.Permuted(order)
		o.permuted = append(o.permuted, permutation{pw.Extents(), processor(1, -1, staticObjects(tb, "P", pw.Base()))})
	}
	return o
}

// staticObjects lays extents out as a static source's objects.
func staticObjects(tb testing.TB, name string, objects map[string]iql.Value) *wrapper.Static {
	w := wrapper.NewStatic(name)
	for key, v := range objects {
		sc := hdm.NewScheme(strings.Split(key, ", ")...)
		if err := w.Add(sc, hdm.Nodal, "", "", v); err != nil {
			tb.Fatal(err)
		}
	}
	return w
}

// sqlTable lays a table out in a relational database, row by row.
func sqlTable(t iqltest.Table) *rel.DB {
	db := rel.NewDB("T")
	cols := []rel.Column{{Name: "id", Type: rel.Int}}
	for _, c := range iqltest.Columns {
		cols = append(cols, rel.Column{Name: c.Name, Type: map[iql.Kind]rel.Type{iql.KindInt: rel.Int, iql.KindFloat: rel.Float, iql.KindString: rel.String}[c.Kind]})
	}
	tb := db.MustCreateTable(t.Name, cols, "id")
	for _, row := range t.Rows {
		cells := make([]any, len(row))
		for i, v := range row {
			cells[i] = map[iql.Kind]any{iql.KindInt: v.I(), iql.KindFloat: v.F(), iql.KindString: v.S()}[v.Kind]
		}
		tb.MustInsert(cells...)
	}
	return db
}

// restCollection serves a table's rows as JSON records, paged by the
// first path segment (/1/r, /7/r) through rel="next" links.
func restCollection(tb testing.TB, t iqltest.Table) *httptest.Server {
	records := make([]string, len(t.Rows))
	for i, row := range t.Rows {
		fields := []string{`"id":` + strconv.FormatInt(row[0].I(), 10)}
		for c, v := range row[1:] {
			text := "null"
			switch v.Kind {
			case iql.KindInt:
				text = strconv.FormatInt(v.I(), 10)
			case iql.KindFloat:
				text = strconv.FormatFloat(v.F(), 'e', -1, 64)
			case iql.KindString:
				b, _ := json.Marshal(v.S()) // a string of the collection is valid UTF-8
				text = string(b)
			}
			fields = append(fields, strconv.Quote(iqltest.Columns[c].Name)+":"+text)
		}
		records[i] = "{" + strings.Join(fields, ",") + "}"
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		size, err := strconv.Atoi(strings.Split(strings.TrimPrefix(r.URL.Path, "/"), "/")[0])
		if err != nil || size <= 0 {
			http.NotFound(w, r)
			return
		}
		page, _ := strconv.Atoi(r.URL.Query().Get("page"))
		lo, hi := min(page*size, len(records)), min((page+1)*size, len(records))
		if hi < len(records) {
			w.Header().Set("Link", fmt.Sprintf(`<%s?page=%d>; rel="next"`, r.URL.Path, page+1))
		}
		fmt.Fprint(w, "["+strings.Join(records[lo:hi], ",")+"]")
	}))
	tb.Cleanup(srv.Close)
	return srv
}

// defineView defines <<U>> as the world has it.
func defineView(p *Processor, w *iqltest.World) {
	p.DefineAll([]ObjectDef{
		{Scheme: hdm.MustScheme("<<U>>"), Derivation: Derivation{Query: iql.MustParse(w.View[0]), Via: "t", Scope: "T"}},
		{Scheme: hdm.MustScheme("<<U>>"), Derivation: Derivation{Query: iql.MustParse(w.View[1]), Via: "r", Scope: "R", Lower: w.Lower}},
	})
}

// run is one evaluation and what it was observed to do.
type run struct {
	val         iql.Value
	json, text  []byte
	err         error
	warns, deps []string
	steps       int
	encoded     bool // val is not built: json and text are the answer
	counted     bool // a count was taken at a source
}

// eval evaluates e on p, built or encoded, cold (every cache emptied
// first) or as the caches stand.
func eval(p *Processor, e iql.Expr, encoded, cold bool) run {
	if cold {
		p.InvalidateCache()
	}
	srcs := obs.NewSources()
	var dst *iql.Encoding
	if encoded {
		dst = new(iql.Encoding)
	}
	v, s, err := p.eval(obs.WithSources(context.Background(), srcs), e, "", dst)
	out := run{val: v, err: err, steps: s.budget.Used(), encoded: encoded}
	if encoded && err == nil {
		out.json, out.text = dst.JSON, dst.Text
	}
	if err == nil {
		out.warns, out.deps = s.report()
		for i, w := range out.warns {
			// A stale extent's age, and whether a fetch failed or the breaker
			// refused it, move between evaluations; that it is stale does not.
			out.warns[i], _, _ = strings.Cut(w, " (age ")
		}
		out.warns = slices.Compact(out.warns)
	}
	for _, snap := range srcs.Snapshot() {
		out.counted = out.counted || snap.Counted > 0
	}
	return out
}

// check holds every mode's answer to src, and to the count of it when
// it is a comprehension, to the reference.
func (o *oracle) check(t *testing.T, src string) {
	t.Helper()
	// formsOf is a parse of src, and its count when it is a comprehension.
	formsOf := func() []iql.Expr {
		e := iql.MustParse(src)
		if c, ok := e.(*iql.Comp); ok {
			return []iql.Expr{e, &iql.Call{Fn: "count", Args: []iql.Expr{c}}}
		}
		return []iql.Expr{e}
	}
	forms := formsOf()
	e := forms[0]
	// The reference answers, and the reference runs of each form in each
	// state: the first, serial, materialised and built, of the state.
	wants := make([]iql.Value, len(forms))
	wantErrs := make([]error, len(forms))
	for form, f := range forms {
		wants[form], wantErrs[form] = iqltest.Eval(f, o.ref, nil)
	}
	// The reference answers' JSON: their floats carry no digits, so an
	// encoded answer whose source cells carried theirs (T's, R's) must
	// lay them out as a search does. Only JSON: text is in the order of
	// evaluation.
	wantJSON := make([][]byte, len(forms))
	for form := range forms {
		if wantErrs[form] == nil {
			wantJSON[form], _, _ = iql.AppendJSONAndText(nil, nil, wants[form])
		}
	}
	type key struct{ form, state int }
	refs := map[key]run{}
	same := func(where string, form, state int, got run) {
		t.Helper()
		ref, ok := refs[key{form, state}]
		if !ok {
			refs[key{form, state}] = got
		}
		if d := iqltest.Mismatch(got.val, got.err, wants[form], wantErrs[form]); d != "" && !got.encoded {
			t.Errorf("%s, %s: %s", forms[form], where, d)
			return
		}
		if !ok {
			return
		}
		var unencodable *iql.EncodingError
		if got.err != nil || ref.err != nil {
			if (got.err == nil) != (ref.err == nil) && !errors.As(got.err, &unencodable) {
				t.Errorf("%s, %s: error %v; the reference's %v", forms[form], where, got.err, ref.err)
			}
			return
		}
		if !slices.Equal(got.warns, ref.warns) || !slices.Equal(got.deps, ref.deps) {
			t.Errorf("%s, %s: warnings %q, keys %q; the reference's %q, %q", forms[form], where, got.warns, got.deps, ref.warns, ref.deps)
		}
		if got.steps != ref.steps && !got.counted && !ref.counted {
			t.Errorf("%s, %s: %d steps; the reference's %d", forms[form], where, got.steps, ref.steps)
		}
	}
	encodes := func(where string, form int, built, enc run) {
		t.Helper()
		if built.err != nil || enc.err != nil {
			var unencodable *iql.EncodingError
			if (built.err == nil) != (enc.err == nil) && !(built.err == nil && errors.As(enc.err, &unencodable)) {
				t.Errorf("%s, %s: encoded error %v, built %v", forms[form], where, enc.err, built.err)
			}
			return
		}
		json, _, err := iql.AppendJSONAndText(nil, nil, built.val)
		if err != nil || !bytes.Equal(json, enc.json) {
			t.Errorf("%s, %s: encoded %s; built %s (%v)", forms[form], where, enc.json, json, err)
		}
		if text := jsontext.AppendEscaped(nil, built.val.String()); !bytes.Equal(text, enc.text) {
			t.Errorf("%s, %s: encoded the text %s; built, escaped, %s", forms[form], where, enc.text, text)
		}
		if !bytes.Equal(enc.json, wantJSON[form]) {
			t.Errorf("%s, %s: encoded %s; the reference %s", forms[form], where, enc.json, wantJSON[form])
		}
	}
	folds := func(where string, bag, count run) {
		t.Helper()
		if bag.err == nil && count.err == nil && !count.counted && count.steps != bag.steps+1 {
			t.Errorf("%s, %s: the count took %d steps, the bag %d", forms[1], where, count.steps, bag.steps)
		}
	}

	for _, m := range o.direct {
		var bags [2]run
		for form := range forms {
			for state, cold := range []bool{true, false} {
				where := m.name + map[bool]string{true: ", cold", false: ", warm"}[cold]
				built := eval(m.p, forms[form], false, cold)
				same(where, form, state, built)
				enc := eval(m.p, forms[form], true, cold)
				same(where+", encoded", form, state, enc)
				encodes(where, form, built, enc)
				if form == 0 {
					bags[state] = built
				} else {
					folds(where, bags[state], built)
				}
			}
		}
	}

	// A shared plan: serial and materialised, then sharded and in pages.
	cold, warm := o.direct[0], o.direct[len(o.direct)-1]
	for form, f := range formsOf() {
		same(cold.name+", cold, a fresh plan", form, 0, eval(cold.p, f, false, true))
		where := warm.name + ", warm, the plan of " + cold.name
		built := eval(warm.p, f, false, false)
		same(where, form, 1, built)
		enc := eval(warm.p, f, true, false)
		same(where+", encoded", form, 1, enc)
		encodes(where, form, built, enc)
	}

	// Replayed: one processor, one plan, three evaluations of each form —
	// a cold walk that leaves each join run's entry, a warm one that
	// records it, a warm one that replays it — built and encoded.
	rep := o.direct[0]
	replays := rep.p.JoinIndexStats().Replays
	for form, f := range forms {
		for round := range 3 {
			where := fmt.Sprintf("%s, replayed, round %d", rep.name, round+1)
			built := eval(rep.p, f, false, round == 0)
			same(where, form, min(round, 1), built)
			enc := eval(rep.p, f, true, round == 0)
			same(where+", encoded", form, min(round, 1), enc)
			encodes(where, form, built, enc)
		}
	}
	o.replayed += rep.p.JoinIndexStats().Replays - replays

	// Degraded: a good read of every source, then every source failing.
	faulted := []*Processor{o.faulted(1), o.faulted(8)}
	for form := range forms {
		for _, p := range faulted {
			same(fmt.Sprintf("parallel %d, fresh", p.Parallel), form, 2, eval(p, forms[form], false, true))
		}
	}
	for _, f := range o.faults {
		f.Set(wrapper.FaultConfig{ErrorRate: 1})
	}
	for form := range forms {
		for _, p := range faulted {
			where := fmt.Sprintf("parallel %d, degraded", p.Parallel)
			built := eval(p, forms[form], false, true)
			same(where, form, 3, built)
			enc := eval(p, forms[form], true, true)
			same(where+", encoded", form, 3, enc)
			encodes(where, form, built, enc)
		}
	}
	for _, f := range o.faults {
		f.Set(wrapper.FaultConfig{})
	}

	if iqltest.Ordered(e) {
		return
	}
	orig := refs[key{0, 0}]
	for i, pm := range o.permuted {
		v, err := pm.p.Eval(e)
		if (err == nil) != (orig.err == nil) || err == nil && !iqltest.Alike(v, orig.val) {
			t.Errorf("%s over permuted extents (%d): %s, %v; as they were: %s, %v", e, i, v, err, orig.val, orig.err)
		}
		want, wantErr := iqltest.Eval(e, pm.ref, nil)
		if d := iqltest.Mismatch(v, err, want, wantErr); d != "" {
			t.Errorf("%s over permuted extents (%d): %s", e, i, d)
		}
	}
}
