package iql_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/iql/iqltest"
	"github.com/dataspace/automed/internal/ispider"
)

// An encoded evaluation (Evaluator.EvalEncoded) writes an answer as it
// evaluates it; the materialising one (Eval, then AppendJSONAndText)
// builds the answer and then walks it. These tests hold the first to the
// second: the same bytes, the same rows, the same steps, limits that
// trip at the same count with the same words, a context asked at the
// same steps, and — when a value evaluates that JSON cannot carry — the
// same precedence of an evaluation error over the encoding error.

// edgeExtents are small extents made of the values where an encoder and
// its reference come apart: NULLs, ints beside the floats they tie with
// under the canonical key (5 and 5.0), the integers either side of ±2⁵³,
// duplicates, strings that need escaping, nested tuples and bags, an
// empty bag, and one extent JSON cannot carry.
func edgeExtents() iql.Extents {
	r := rand.New(rand.NewSource(21))
	mixed := make([]iql.Value, 40)
	for i := range mixed {
		mixed[i] = iqltest.Value(r, 2)
	}
	var pairs []iql.Value
	vals := []iql.Value{iql.Null(), iql.Int(5), iql.Float(5), iql.Float(5.5), iql.Int(1 << 53), iql.Int(1<<53 + 1),
		iql.Float(1 << 53), iql.Int(-(1 << 53) - 1), iql.Str("it's"), iql.Str(`say "hi"`), iql.Str("kinase 7"),
		iql.Float(1e21), iql.Float(1e-7), iql.Bool(true), iql.Int(5)}
	for i, v := range vals {
		pairs = append(pairs, iql.Tuple(iql.Int(int64(i%6)), v))
	}
	pairs = append(pairs, pairs[3], iql.Tuple(iql.Null(), iql.Null()), iql.Int(9), iql.Tuple(iql.Int(1)))
	nums := []iql.Value{iql.Int(5), iql.Float(5), iql.Int(-1), iql.Float(2.5), iql.Int(1<<53 - 1), iql.Int(1 << 53),
		iql.Int(1<<53 + 1), iql.Int(-(1 << 53)), iql.Int(-(1 << 53) + 1), iql.Float(5), iql.Int(5), iql.Int(10), iql.Int(9)}
	bad := []iql.Value{iql.Tuple(iql.Int(1), iql.Float(0.5)), iql.Tuple(iql.Int(2), iql.Float(math.NaN())),
		iql.Tuple(iql.Int(3), iql.Float(math.Inf(1))), iql.Tuple(iql.Int(4), iql.Str("four"))}
	// Zeros tie under the canonical key and differ in JSON (0, -0): the
	// one place the tie-break of the canonical order shows in an answer.
	// Enough of them that the sort is not an insertion sort, which is
	// stable whether it means to be or not.
	zeros := make([]iql.Value, 96)
	for i := range zeros {
		zeros[i] = []iql.Value{iql.Int(0), iql.Float(math.Copysign(0, -1)), iql.Float(0), iql.Int(1)}[(i*7)%4]
	}
	ext := map[string]iql.Value{
		"mixed": iql.BagOf(mixed), "pairs": iql.BagOf(pairs), "nums": iql.BagOf(nums), "zeros": iql.BagOf(zeros),
		"empty": iql.Bag(), "bad": iql.BagOf(bad), "scalar": iql.Int(7),
	}
	return iql.ExtentsFunc(func(parts []string) (iql.Value, error) {
		if v, ok := ext[strings.Join(parts, ", ")]; ok {
			return v, nil
		}
		return iql.NoExtents.Extent(parts)
	})
}

// encodedCases are the expressions the differential runs over
// edgeExtents, and the fuzzer's seeds: every shape of head, both arms of
// the encoded entry point, and the errors of each side in both orders.
var encodedCases = []string{
	// The sink's arm: a comprehension at the top.
	"[x | x <- <<mixed>>]",
	"[{k, v} | {k, v} <- <<pairs>>]",
	"[{v, k, [k, v], {k}} | {k, v} <- <<pairs>>]",
	"[1 | x <- <<mixed>>]",
	`['it\'s' | x <- <<nums>>]`,
	"[{} | x <- <<nums>>]",
	"[{c, k} | {k, v} <- <<pairs>>]", // c is bound by the environment, as an outer let binds it
	"[x | x <- <<empty>>]",
	"[x | x <- <<nums>>; x >= 5]",
	"[x | x <- <<zeros>>]",
	"[{x, 'z'} | x <- <<zeros>>; x < 1]",
	"[{x, y} | x <- <<nums>>; y <- <<nums>>; y = x]",
	"[{a, b} | {k, a} <- <<pairs>>; {k2, b} <- <<pairs>>; k2 = k]",
	"[{k, [w | {j, w} <- <<pairs>>; j = k]} | {k, v} <- <<pairs>>]",
	"[{k, count([w | {j, w} <- <<pairs>>; j = k])} | {k, v} <- <<pairs>>]",
	"[[y | y <- <<nums>>; y = x] | x <- <<nums>>]",
	"[if x > 5 then {x, 'big'} else {x} | x <- <<nums>>]",
	"[d | {k, d} <- <<pairs>>; k = 4; contains(d, 'kinase')]",
	"[x | x <- [3, 1, 2, 1, 3.0]]",
	"[x | x <- Void]",
	// A tuple expression of them, and around other things.
	"{[k | {k, v} <- <<pairs>>], [v | {k, v} <- <<pairs>>; k > 2]}",
	"{[k | {k, v} <- <<pairs>>], count(<<mixed>>), 'x', {[x | x <- <<nums>>]}}",
	"{}",
	// Everything else is evaluated and then encoded.
	"count([x | x <- <<mixed>>])",
	"<<mixed>>",
	"<<scalar>>",
	"[x | x <- <<mixed>>] ++ [y | y <- <<nums>>]",
	"distinct([k | {k, v} <- <<pairs>>])",
	"sort(<<nums>>)",
	"let c = 7 in [{c, k} | {k, v} <- <<pairs>>]",
	"if count(<<empty>>) = 0 then [x | x <- <<nums>>] else <<empty>>",
	"[1, 2.0, 'three', {4, [5]}, Void, Any]",
	"Range [x | x <- <<nums>>] Any",
	"1e308 * 10.0",
	// Evaluation errors, encoding errors, and one before the other.
	"[v + 1 | {k, v} <- <<pairs>>]",
	"[x | x <- <<scalar>>]",
	"[x | x <- <<nowhere>>]",
	"[y | x <- <<nums>>; x]",
	"[undefined | x <- <<nums>>]",
	"[{k, x} | {k, x} <- <<bad>>]",
	"[{k, x} | {k, x} <- <<bad>>; x < 1.0]",
	"[{k, x * 2.0} | {k, x} <- <<bad>>]",
	"{[x | {k, x} <- <<bad>>], [x | x <- <<nums>>]}",
	"{[x | {k, x} <- <<bad>>], [x + 1 | {k, x} <- <<pairs>>]}",
	"{1e308 * 10.0, [x | x <- <<nums>>], [1 / (x - x) | x <- <<nums>>]}",
	"<<bad>>",
}

// outcome is everything an evaluation can be observed to have done.
type outcome struct {
	json, text []byte
	rows       int
	err        string
	encoding   bool // err is the failure to encode a value that evaluated
	steps      int
}

func evaluator(ext iql.Extents, budget *iql.StepBudget, ctx context.Context) *iql.Evaluator {
	ev := iql.NewEvaluator(ext)
	ev.Budget, ev.Ctx = budget, ctx
	return ev
}

// materialised is the reference: Eval, then one walk of the value.
func materialised(ext iql.Extents, e iql.Expr, env *iql.Env, maxSteps int, ctx context.Context) outcome {
	budget := &iql.StepBudget{Max: maxSteps}
	v, err := evaluator(ext, budget, ctx).Eval(e, env)
	o := outcome{steps: budget.Used()}
	if err != nil {
		o.err = err.Error()
		return o
	}
	o.rows = 1
	if v.Kind == iql.KindBag {
		o.rows = v.Len()
	}
	if o.json, o.text, err = iql.AppendJSONAndText(nil, nil, v); err != nil {
		o = outcome{steps: o.steps, err: err.Error(), encoding: true}
	}
	return o
}

// encoded is the evaluation under test. It appends after a prefix, as
// the server does after "value":, which must come back untouched.
func encoded(t *testing.T, ext iql.Extents, e iql.Expr, env *iql.Env, maxSteps int, ctx context.Context) outcome {
	t.Helper()
	budget := &iql.StepBudget{Max: maxSteps}
	enc := iql.Encoding{JSON: []byte("json:"), Text: []byte("text:")}
	err := evaluator(ext, budget, ctx).EvalEncoded(&enc, e, env)
	o := outcome{steps: budget.Used()}
	if err != nil {
		var unencodable *iql.EncodingError
		if o.encoding = errors.As(err, &unencodable); o.encoding {
			err = unencodable.Err
		}
		o.err = err.Error()
		return o
	}
	var okJSON, okText bool
	if o.json, okJSON = bytes.CutPrefix(enc.JSON, []byte("json:")); !okJSON {
		t.Errorf("%s: the JSON destination's prefix is gone: %s", e, enc.JSON)
	}
	if o.text, okText = bytes.CutPrefix(enc.Text, []byte("text:")); !okText {
		t.Errorf("%s: the text destination's prefix is gone: %s", e, enc.Text)
	}
	o.rows = enc.Rows
	return o
}

func (o outcome) diff(ref outcome) string {
	switch {
	case o.err != ref.err || o.encoding != ref.encoding:
		return "error " + o.describeErr() + ", the reference's " + ref.describeErr()
	case !bytes.Equal(o.json, ref.json):
		return "JSON\n " + string(o.json) + "\nthe reference's\n " + string(ref.json)
	case !bytes.Equal(o.text, ref.text):
		return "text\n " + string(o.text) + "\nthe reference's\n " + string(ref.text)
	case o.rows != ref.rows:
		return "rows differ"
	case o.steps != ref.steps:
		return "steps differ"
	}
	return ""
}

func (o outcome) describeErr() string {
	switch {
	case o.err == "":
		return "none"
	case o.encoding:
		return "encoding: " + o.err
	}
	return o.err
}

// checkEncoded holds one expression's encoded evaluation to the
// materialising one: unlimited, then at the step limit that just lets
// the reference through and at the one that just does not.
func checkEncoded(t *testing.T, ext iql.Extents, e iql.Expr, env *iql.Env) {
	t.Helper()
	ref := materialised(ext, e, env, 0, nil)
	if d := encoded(t, ext, e, env, 0, nil).diff(ref); d != "" {
		t.Errorf("%s: %s (steps %d)", e, d, ref.steps)
		return
	}
	for _, limit := range []int{ref.steps, ref.steps - 1} {
		if limit <= 0 {
			continue
		}
		want := materialised(ext, e, env, limit, nil)
		if limit < ref.steps && !strings.Contains(want.err, "exceeded") {
			t.Fatalf("%s: the reference takes %d steps and passes a limit of %d: %+v", e, ref.steps, limit, want)
		}
		if d := encoded(t, ext, e, env, limit, nil).diff(want); d != "" {
			t.Errorf("%s under a limit of %d steps: %s", e, limit, d)
		}
	}
}

func TestEncodedMatchesMaterialisedOnEdgeValues(t *testing.T) {
	ext := edgeExtents()
	env := iql.NewEnv()
	env.Bind("c", iql.Str("outer"))
	for _, src := range encodedCases {
		checkEncoded(t, ext, iql.MustParse(src), env)
	}
}

// TestEncodedBagIsInStableKeyOrder holds the order of an encoded bag to a
// reference that shares no code with it — the materialising path sorts
// with the same sort — the elements' Key() strings, stably sorted: "value"
// in canonical key order, ties in element order.
func TestEncodedBagIsInStableKeyOrder(t *testing.T) {
	ext := edgeExtents()
	for _, src := range []string{"[x | x <- <<zeros>>]", "[{x, 'z'} | x <- <<zeros>>; x < 1]", "[x | x <- <<nums>>]", "[{v, k} | {k, v} <- <<pairs>>]"} {
		e := iql.MustParse(src)
		v, err := iql.NewEvaluator(ext).Eval(e, nil)
		if err != nil {
			t.Fatal(err)
		}
		els := slices.Clone(v.Items())
		sort.SliceStable(els, func(a, b int) bool { return els[a].Key() < els[b].Key() })
		want := []byte(`{"bag":[`)
		for i, el := range els {
			if i > 0 {
				want = append(want, ',')
			}
			if want, _, err = iql.AppendJSONAndText(want, nil, el); err != nil {
				t.Fatal(err)
			}
		}
		want = append(want, "]}"...)
		if got := encoded(t, ext, e, nil, 0, nil); !bytes.Equal(got.json, want) {
			t.Errorf("%s:\n got %s\nwant %s", src, got.json, want)
		}
	}
}

// countingContext counts how often it is asked whether it is done.
type countingContext struct {
	context.Context
	asked *int
}

func (c countingContext) Err() error {
	*c.asked++
	return c.Context.Err()
}

// TestEncodedMatchesMaterialisedOnTable1 runs the paper's seven queries
// over the case study's extents, and asks of the largest that the
// context is polled as often either way.
func TestEncodedMatchesMaterialisedOnTable1(t *testing.T) {
	ig, err := ispider.RunIntersection(ispider.BenchConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	extents := map[string]iql.Value{}
	ext := iql.ExtentsFunc(func(parts []string) (iql.Value, error) {
		key := strings.Join(parts, ", ")
		if v, ok := extents[key]; ok {
			return v, nil
		}
		v, err := ig.Extent("<<" + key + ">>")
		if err == nil {
			extents[key] = v
		}
		return v, err
	})
	for _, q := range ispider.Table1Queries() {
		e := iql.MustParse(q.IQL)
		checkEncoded(t, ext, e, nil)
		if q.ID != "Q7" {
			continue
		}
		var refAsked, gotAsked int
		ref := materialised(ext, e, nil, 0, countingContext{context.Background(), &refAsked})
		got := encoded(t, ext, e, nil, 0, countingContext{context.Background(), &gotAsked})
		if ref.steps < 2048 || refAsked < 3 {
			t.Fatalf("Q7 takes %d steps and asks its context %d times: too few to compare", ref.steps, refAsked)
		}
		if d := got.diff(ref); d != "" || gotAsked != refAsked {
			t.Errorf("Q7 under a context: %s; context asked %d times, the reference's %d", d, gotAsked, refAsked)
		}
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		if d := encoded(t, ext, e, nil, 0, cancelled).diff(materialised(ext, e, nil, 0, cancelled)); d != "" {
			t.Errorf("Q7 under a cancelled context: %s", d)
		}
	}
}

// TestEncodedComprehensionAllocatesNothingPerRow: a comprehension whose
// head is a tuple, evaluated into warm buffers, costs the same few
// allocations whether it yields a thousand rows or two thousand — no
// head tuple, no place in a bag.
func TestEncodedComprehensionAllocatesNothingPerRow(t *testing.T) {
	expr := iql.MustParse("[{k, d, 1.5} | {s, k, d} <- <<rows>>; contains(d, 'P0')]")
	var enc iql.Encoding
	allocsAt := func(n int) float64 {
		extent := rows(n)
		ext := iql.ExtentsFunc(func([]string) (iql.Value, error) { return extent, nil })
		// The arenas are pooled: the least of several runs found them warm.
		return iqltest.Least(10, func() float64 {
			return testing.AllocsPerRun(1, func() {
				enc.JSON, enc.Text = enc.JSON[:0], enc.Text[:0]
				if err := iql.NewEvaluator(ext).EvalEncoded(&enc, expr, nil); err != nil || enc.Rows != n {
					t.Fatalf("%d rows: %d encoded, err %v", n, enc.Rows, err)
				}
			})
		})
	}
	allocsAt(2000) // warm the destination and the pooled arenas
	const slack = 8
	if grew := allocsAt(2000) - allocsAt(1000); grew > slack {
		t.Errorf("1000 more rows cost %.0f more allocations, want at most %d", grew, slack)
	}
}

// FuzzEvalEncoded takes a query text: whatever parses is evaluated over
// edgeExtents both ways under a step limit, and the two must agree on
// everything checkEncoded compares — fail alike or succeed alike, equal
// bytes, equal steps — without a panic. The seeds are Table 1's texts
// (whose references edgeExtents does not know: both sides must fail
// alike), the differential's cases and the lexer's edge tokens; `go test
// -run '^Fuzz'` (make fuzz-seeds) runs them as plain tests.
func FuzzEvalEncoded(f *testing.F) {
	for _, q := range ispider.Table1Queries() {
		f.Add(q.IQL)
	}
	for _, src := range encodedCases {
		f.Add(src)
	}
	for _, src := range []string{
		"", " ", "-- a comment\n[x | x <- <<nums>>] -- and another",
		"<<nums >>", "<< pairs , x>>", "<<>>", "<<a, >>", "<<a>b>>", "<<nums",
		"[x|x<-<<nums>>;x<>5;x<=9;x>=-1;x<10;x>0]", "[x | x <- <<nums>>; not (x = 5) and x < 9 or x = 10]",
		"'it\\'s'", "'back\\\\slash'", "'unterminated", "'\\x'", "'日本語' + '😀'",
		"1e5", "1E+5", "1e", "1.e5", "1.5e-3", "007", "9223372036854775807", "9223372036854775808", "1e999",
		"--5", "- -5", "5 - -5", "5--5", "1 / 0", "7 / 2", "6 / 3", "[1, 2] ++ [3]", "1 ++ 2",
		"{1, {2, {3}}}", "[[], [[]], {}]", "Void", "Any", "Range Void Any", "True and not False", "null",
		"count(1, 2)", "nosuch(1)", "max(<<nums>>)", "avg([x | x <- <<nums>>])", "first(<<empty>>)",
		"tostring(<<pairs>>)", "member(<<nums>>, 5.0)", "flatten([<<nums>>, <<empty>>])",
		"let x = <<nums>> in [{y, count(x)} | y <- x]", "[x | {x, x} <- <<pairs>>]", "[_ | _ <- <<nums>>]",
		"[x | {5, x} <- <<pairs>>]", "[x | x <- <<nums>>; y <- [x, x]; y > 4]", "@", "[x |", "[x | x <- ]",
	} {
		f.Add(src)
	}
	ext := edgeExtents()
	env := iql.NewEnv()
	env.Bind("c", iql.Str("outer"))
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 256 {
			return // a few dozen nested 'let x = x + x' would double a string past memory
		}
		e, err := iql.Parse(src)
		if err != nil {
			return
		}
		const maxSteps = 20_000
		ref := materialised(ext, e, env, maxSteps, nil)
		if d := encoded(t, ext, e, env, maxSteps, nil).diff(ref); d != "" {
			t.Errorf("%q: %s", src, d)
		}
	})
}
