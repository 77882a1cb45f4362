package iql_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/iql/iqltest"
	"github.com/dataspace/automed/internal/jsontext"
)

// The bare evaluator's oracle: agree holds every way an iql.Evaluator
// evaluates a query to the reference evaluator, iqltest.Eval. The tests
// that call it differ only in the queries and the extents. (Every way
// the query processor evaluates one is held to it by internal/query's
// TestOracle.)

// modes are the ways the evaluator walks a generator: serially, sharded
// four ways, pulling its extents in pages of seven rows, and replayed:
// one evaluator, and so one JoinIndexCache, evaluates the form three
// times — a join run's walk, its recorded walk, and its replay.
var modes = []struct {
	name   string
	ev     func(ext iql.Extents) *iql.Evaluator
	rounds int
}{
	{"serial", func(ext iql.Extents) *iql.Evaluator { return iql.NewEvaluator(ext) }, 1},
	{"sharded", func(ext iql.Extents) *iql.Evaluator {
		ev := iql.NewEvaluator(ext)
		ev.Parallel, ev.MinShardRows = 4, 8
		return ev
	}, 1},
	{"streamed", func(ext iql.Extents) *iql.Evaluator { return iql.NewEvaluator(pagedExtents{ext}) }, 1},
	{"replayed", func(ext iql.Extents) *iql.Evaluator { return iql.NewEvaluator(ext) }, 3},
}

// runsReplayed counts the join runs the replayed mode replayed.
var runsReplayed atomic.Uint64

// pagedExtents serves every bag extent as a stream of seven-row pages;
// pagesServed counts the pages any of them served.
type pagedExtents struct{ iql.Extents }

var pagesServed atomic.Int64

func (p pagedExtents) ExtentStream(parts []string) (iql.RowStream, bool, error) {
	v, err := p.Extent(parts)
	if err != nil || v.Kind != iql.KindBag {
		return nil, false, err
	}
	return &pagedStream{rest: v.Items()}, true, nil
}

type pagedStream struct{ page, rest []iql.Value }

func (s *pagedStream) Next() bool {
	n := min(7, len(s.rest))
	s.page, s.rest = s.rest[:n], s.rest[n:]
	pagesServed.Add(int64(min(n, 1)))
	return n > 0
}
func (s *pagedStream) Page() []iql.Value { return s.page }
func (s *pagedStream) Err() error        { return nil }
func (s *pagedStream) Close() error      { s.rest = nil; return nil }

// envOf binds vars, as an enclosing let would.
func envOf(vars map[string]iql.Value) *iql.Env {
	env := iql.NewEnv()
	for name, v := range vars {
		env.Bind(name, v)
	}
	return env
}

// agree evaluates src over ext with vars bound, in every mode, built and
// encoded, and the count of it when it is a comprehension, and asserts
// that
//   - the value is iqltest.Eval's (iqltest.Same: its bags in the same
//     order), or both fail;
//   - an encoded answer, after what its destination held, is the built
//     one's JSON as AppendJSONAndText writes it and its rendering escaped
//     for a JSON string, jsontext.AppendEscaped(String), byte for byte,
//     and counts the built one's rows; an evaluation error stays one,
//     and an answer JSON cannot carry is an *iql.EncodingError;
//   - every mode, encoded or not, takes the serial steps, and a count
//     one more than its comprehension: the call's;
//
// and so of each of the replayed mode's three rounds.
//
// A text that does not parse is skipped.
func agree(t *testing.T, ext iql.Extents, vars map[string]iql.Value, src string) {
	t.Helper()
	e, err := iql.Parse(src)
	if err != nil {
		return
	}
	forms := []iql.Expr{e}
	if c, ok := e.(*iql.Comp); ok {
		forms = append(forms, &iql.Call{Fn: "count", Args: []iql.Expr{c}})
	}
	env := envOf(vars)
	bagSteps := 0
	for form, f := range forms {
		want, wantErr := iqltest.Eval(f, ext, vars)
		steps := 0
		for i, m := range modes {
			ev, enc := m.ev(ext), m.ev(ext)
			for round := range m.rounds {
				name := m.name
				if m.rounds > 1 {
					name = fmt.Sprintf("%s, round %d", m.name, round+1)
				}
				if got, err := ev.Eval(f, env); i == 0 {
					steps = ev.Steps()
					agreeOnce(t, f, name, got, err, want, wantErr, ev, enc, env, -1)
				} else {
					agreeOnce(t, f, name, got, err, want, wantErr, ev, enc, env, steps)
				}
			}
			if m.rounds > 1 {
				runsReplayed.Add(ev.Indexes.Stats().Replays)
			}
		}
		if form == 0 {
			bagSteps = steps
		} else if wantErr == nil && steps != bagSteps+1 {
			t.Errorf("%s: %d steps; the comprehension %d", f, steps, bagSteps)
		}
	}
}

// agreeOnce holds one evaluation of f in one mode — ev's, which answered
// got and err, and enc's, which is to answer it encoded — to the
// reference's want and wantErr, and, unless steps is negative, to the
// serial steps.
func agreeOnce(t *testing.T, f iql.Expr, name string, got iql.Value, err error, want iql.Value, wantErr error,
	ev, enc *iql.Evaluator, env *iql.Env, steps int) {
	t.Helper()
	if d := iqltest.Mismatch(got, err, want, wantErr); d != "" {
		t.Errorf("%s, %s: %s", f, name, d)
		return
	}
	// Encoded after a prefix, as the server writes after "value":.
	dst := iql.Encoding{JSON: []byte("json:"), Text: []byte("text:")}
	encErr := enc.EvalEncoded(&dst, f, env)
	json, _, jsonErr := iql.AppendJSONAndText([]byte("json:"), nil, got)
	text := jsontext.AppendEscaped([]byte("text:"), got.String())
	rows := 1
	if got.Kind == iql.KindBag {
		rows = got.Len()
	}
	var unencodable *iql.EncodingError
	switch {
	case err != nil || jsonErr != nil:
		if encErr == nil || errors.As(encErr, &unencodable) != (err == nil) {
			t.Errorf("%s, %s: encoded, the error %v; built, %v and %v", f, name, encErr, err, jsonErr)
		}
	case encErr != nil || !bytes.Equal(dst.JSON, json) || dst.Rows != rows:
		t.Errorf("%s, %s: encoded %s (%d rows), %v; built %s", f, name, dst.JSON, dst.Rows, encErr, json)
	case !bytes.Equal(dst.Text, text):
		t.Errorf("%s, %s: encoded the text %s; built, escaped, %s", f, name, dst.Text, text)
	case enc.Steps() != ev.Steps():
		t.Errorf("%s, %s: %d steps encoded, %d built", f, name, enc.Steps(), ev.Steps())
	}
	if steps >= 0 && err == nil && ev.Steps() != steps {
		t.Errorf("%s, %s: %d steps; serially %d", f, name, ev.Steps(), steps)
	}
}

// TestOptimizerEquivalenceProperty holds the evaluator — memoised
// sources, slot-bound patterns, hash joins, replayed join runs, the
// count fold, sharded and streamed scans, the encoding sink — to the
// reference on generated queries over generated worlds, and asserts
// that the modes ran as named.
func TestOptimizerEquivalenceProperty(t *testing.T) {
	pages, replayed := pagesServed.Load(), runsReplayed.Load()
	r := rand.New(rand.NewSource(27))
	for range 40 {
		w := iqltest.NewWorld(r)
		ext := w.Extents()
		for range 25 {
			agree(t, ext, nil, w.Query(r))
		}
	}
	if pagesServed.Load() == pages {
		t.Error("the streamed mode read no page")
	}
	if runsReplayed.Load() == replayed {
		t.Error("the replayed mode replayed no join run")
	}
}

// TestParallelMatchesSerial holds the shard-sensitive queries to the
// reference over extents large enough to shard, and asserts that they
// do.
func TestParallelMatchesSerial(t *testing.T) {
	ext := iql.ParallelExtents(500)
	for _, src := range iql.ParallelQueries {
		agree(t, ext, nil, src)
	}
	ev := modes[1].ev(ext)
	ev.Stats = new(iql.EvalStats)
	if _, err := ev.Eval(iql.MustParse(iql.ParallelQueries[0]), nil); err != nil || len(ev.Stats.Sharded()) == 0 {
		t.Errorf("the sharded mode ran %s serially: %v", iql.ParallelQueries[0], err)
	}
}

// FuzzParsePrint: any text that parses prints as text that parses back
// to an expression printing the same, and meaning the same — over the
// edge extents, the same value or the same error.
func FuzzParsePrint(f *testing.F) {
	for _, src := range slices.Concat(iqltest.Corpus, iql.RoundTripTexts) {
		f.Add(src)
	}
	ext, env := iqltest.EdgeWorld().Extents(), envOf(iqltest.EdgeVars)
	eval := func(e iql.Expr) (iql.Value, string) {
		ev := iql.NewEvaluator(ext)
		ev.MaxSteps = 20_000
		v, err := ev.Eval(e, env)
		if err != nil {
			return v, err.Error()
		}
		return v, ""
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 256 {
			return // a few dozen nested 'let x = x + x' would double a string past memory
		}
		e, err := iql.Parse(src)
		if err != nil {
			return
		}
		printed := e.String()
		back, err := iql.Parse(printed)
		if err != nil {
			t.Fatalf("%q prints as %q, which does not parse: %v", src, printed, err)
		}
		if again := back.String(); again != printed {
			t.Fatalf("%q prints as %q, which prints as %q", src, printed, again)
		}
		v, verr := eval(e)
		w, werr := eval(back)
		if verr != werr || verr == "" && !iqltest.Same(v, w) {
			t.Errorf("%q is %s, %s; printed as %q, %s, %s", src, v, verr, printed, w, werr)
		}
	})
}

// The hash-bucketed Distinct, member, SortBag and bag equality, held to
// the reference evaluator's on generated bags salted with duplicates,
// against another bag, an element, or a copy with its bags permuted.
func TestDistinctMatchesKeyReferenceProperty(t *testing.T) { conformOnBags(t, "distinct") }
func TestMemberMatchesKeyReferenceProperty(t *testing.T)   { conformOnBags(t, "member") }
func TestSortBagMatchesKeyReferenceProperty(t *testing.T)  { conformOnBags(t, "sort") }
func TestBagEqualMatchesKeyReferenceProperty(t *testing.T) { conformOnBags(t, "=") }

func conformOnBags(t *testing.T, op string) {
	r := rand.New(rand.NewSource(int64(len(op))))
	for range 1500 {
		els := make([]iql.Value, r.Intn(8))
		for i := range els {
			els[i] = iqltest.Value(r, 2)
		}
		if len(els) > 0 {
			els = append(els, els[r.Intn(len(els))], permuted(r, els[r.Intn(len(els))]))
		}
		bag := iql.BagOf(els)
		other := []iql.Value{iqltest.Value(r, 3), permuted(r, bag), iql.Null()}[r.Intn(3)]
		if len(els) > 0 && r.Intn(3) == 0 {
			other = els[r.Intn(len(els))]
		}
		args := []iql.Expr{&iql.Lit{Val: bag}}
		if op == "member" {
			args = append(args, &iql.Lit{Val: other})
		}
		var e iql.Expr = &iql.Call{Fn: op, Args: args}
		if op == "=" {
			e = &iql.Binary{Op: op, L: &iql.Lit{Val: bag}, R: &iql.Lit{Val: other}}
		}
		got, err := iql.NewEvaluator(nil).Eval(e, nil)
		want, wantErr := iqltest.Eval(e, nil, nil)
		if d := iqltest.Mismatch(got, err, want, wantErr); d != "" {
			t.Fatalf("%s: %s", e, d)
		}
	}
}

// permuted returns v with every bag in it, at any depth, shuffled.
func permuted(r *rand.Rand, v iql.Value) iql.Value {
	if v.Kind != iql.KindBag && v.Kind != iql.KindTuple {
		return v
	}
	items := make([]iql.Value, v.Len())
	for i, it := range v.Items() {
		items[i] = permuted(r, it)
	}
	if v.Kind == iql.KindTuple {
		return iql.Tuple(items...)
	}
	r.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	return iql.BagOf(items)
}
