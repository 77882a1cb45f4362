package iql_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/iql/iqltest"
)

// count(comprehension) asks its extents for the number first, when the
// comprehension is a Selection of its one generator's extent. These
// tests hold the analysis to its rule — what is asked, as which
// Selection, and what is never asked — and the answer to the plain
// evaluator's, whether the extents answer or decline.

// countingExtents is a scripted iql.CountExtents over fixed extents. It
// records what it is asked and either declines everything or answers as
// a typed backend would: only where every component the Selection
// compares is an integer in every element of the asked-for shape, so
// that no comparison could have failed here.
type countingExtents struct {
	ext     map[string][]iql.Value
	answers bool
	asked   []iql.Selection
	refs    []string
}

func (c *countingExtents) Extent(parts []string) (iql.Value, error) {
	els, ok := c.ext[strings.Join(parts, ",")]
	if !ok {
		return iql.Value{}, fmt.Errorf("no extent %v", parts)
	}
	return iql.BagOf(els), nil
}

func (c *countingExtents) ExtentCount(parts []string, sel iql.Selection) (int64, bool, error) {
	c.asked = append(c.asked, sel)
	c.refs = append(c.refs, strings.Join(parts, ","))
	els, ok := c.ext[strings.Join(parts, ",")]
	if !ok || !c.answers {
		return 0, false, nil
	}
	var n int64
	for _, el := range els {
		comps := []iql.Value{el}
		if sel.Arity > 0 {
			if el.Kind != iql.KindTuple || el.Len() != sel.Arity {
				continue
			}
			comps = el.Items()
		}
		keep := true
		for _, cond := range sel.Conds {
			v := comps[cond.Comp]
			if v.Kind != iql.KindInt {
				return 0, false, nil // not a column of integers: decline
			}
			switch cond.Op {
			case "=":
				keep = keep && v.I() == cond.Lit
			case "<":
				keep = keep && v.I() < cond.Lit
			case "<=":
				keep = keep && v.I() <= cond.Lit
			case ">":
				keep = keep && v.I() > cond.Lit
			case ">=":
				keep = keep && v.I() >= cond.Lit
			default:
				panic("unknown operator " + cond.Op)
			}
		}
		if keep {
			n++
		}
	}
	return n, true, nil
}

func TestSelectionAnalysis(t *testing.T) {
	sel := func(arity int, conds ...iql.Cond) *iql.Selection {
		return &iql.Selection{Arity: arity, Conds: conds}
	}
	for _, tc := range []struct {
		query string
		want  *iql.Selection // nil: the extents are not asked
	}{
		{"count([k | {k, v} <- <<t, c>>; v < 5])", sel(2, iql.Cond{Comp: 1, Op: "<", Lit: 5})},
		{"count([k | {k, v} <- <<t, c>>])", sel(2)},
		{"count([x | x <- <<t>>])", sel(0)},
		{"count([x | x <- <<t>>; x = 3])", sel(0, iql.Cond{Op: "=", Lit: 3})},
		// The literal may come first: the comparison is turned round.
		{"count([k | {k, v} <- <<t, c>>; 5 > v])", sel(2, iql.Cond{Comp: 1, Op: "<", Lit: 5})},
		{"count([k | {k, v} <- <<t, c>>; 5 >= v])", sel(2, iql.Cond{Comp: 1, Op: "<=", Lit: 5})},
		{"count([k | {k, v} <- <<t, c>>; 5 < v])", sel(2, iql.Cond{Comp: 1, Op: ">", Lit: 5})},
		{"count([k | {k, v} <- <<t, c>>; 5 <= v])", sel(2, iql.Cond{Comp: 1, Op: ">=", Lit: 5})},
		{"count([k | {k, v} <- <<t, c>>; 5 = v])", sel(2, iql.Cond{Comp: 1, Op: "=", Lit: 5})},
		// '-' applied to an int literal is an int literal.
		{"count([k | {k, v} <- <<t, c>>; v >= -5; -9223372036854775807 < k])", sel(2,
			iql.Cond{Comp: 1, Op: ">=", Lit: -5}, iql.Cond{Comp: 0, Op: ">", Lit: -9223372036854775807})},
		// Several filters are a conjunction, in order.
		{"count([k | {k, v} <- <<t, c>>; v >= 10; 90 > v; k <= 7])", sel(2,
			iql.Cond{Comp: 1, Op: ">=", Lit: 10}, iql.Cond{Comp: 1, Op: "<", Lit: 90}, iql.Cond{Comp: 0, Op: "<=", Lit: 7})},
		// "_" binds nothing and may repeat; the head may be a literal or
		// tuples of variables and literals.
		{"count([1 | _ <- <<t>>])", sel(0)},
		{"count([k | {k, _} <- <<t, c>>; k > 1])", sel(2, iql.Cond{Comp: 0, Op: ">", Lit: 1})},
		{"count([{'x', {v, 1.5}} | {_, _, v} <- <<t, c>>; v = 0])", sel(3, iql.Cond{Comp: 2, Op: "=", Lit: 0})},

		// A name twice in the pattern, a nested or literal sub-pattern, the
		// empty tuple: not a flat tuple of distinct variables.
		{"count([k | {k, k} <- <<t, c>>])", nil},
		{"count([k | {k, {a, b}} <- <<t, c>>])", nil},
		{"count([k | {k, 1} <- <<t, c>>])", nil},
		{"count([1 | {} <- <<t, c>>])", nil},
		{"count([1 | 3 <- <<t>>])", nil},
		// Only integers are compared at a source.
		{"count([k | {k, v} <- <<t, c>>; v < 5.0])", nil},
		{"count([k | {k, v} <- <<t, c>>; v = 'a'])", nil},
		{"count([k | {k, v} <- <<t, c>>; v = True])", nil},
		{"count([k | {k, v} <- <<t, c>>; v < -5.5])", nil},
		// Only = < <= > >=, one comparison a filter, a variable beside a
		// literal.
		{"count([k | {k, v} <- <<t, c>>; v <> 5])", nil},
		{"count([k | {k, v} <- <<t, c>>; v < 5 and v > 1])", nil},
		{"count([k | {k, v} <- <<t, c>>; not (v < 5)])", nil},
		{"count([k | {k, v} <- <<t, c>>; k < v])", nil},
		{"count([k | {k, v} <- <<t, c>>; 1 < 2])", nil},
		{"count([k | {k, v} <- <<t, c>>; v - 1 < 0])", nil},
		{"count([k | {k, v} <- <<t, c>>; v < 2 + 3])", nil},
		{"count([k | {k, _} <- <<t, c>>; _ < 5])", nil},
		{"let z = 1 in count([k | {k, v} <- <<t, c>>; z < 5])", nil},
		// One filter the source cannot take, wherever it stands.
		{"count([k | {k, v} <- <<t, c>>; v < 5; v + 1 < 3])", nil},
		{"count([k | {k, v} <- <<t, c>>; v + 1 < 3; v < 5])", nil},
		// A second generator, or none first.
		{"count([k | {k, v} <- <<t, c>>; v < 5; x <- <<t>>])", nil},
		{"count([k | {k, v} <- <<t, c>>; x <- <<t>>; x = k])", nil},
		{"count([k | 1 = 1; {k, v} <- <<t, c>>])", nil},
		// The generator draws from something else than a reference.
		{"count([k | {k, v} <- [{1, 2}]; v < 5])", nil},
		{"count([k | {k, v} <- <<t, c>> ++ <<t, c>>])", nil},
		// A head that evaluates anything but pattern variables.
		{"let z = 1 in count([z | {k, v} <- <<t, c>>])", nil},
		{"count([k + 1 | {k, v} <- <<t, c>>])", nil},
		{"count([count(<<t>>) | {k, v} <- <<t, c>>])", nil},
		{"count([[k] | {k, v} <- <<t, c>>])", nil},
		{"count([_ | {k, _} <- <<t, c>>])", nil},
		// Not count of a comprehension at all.
		{"count(<<t>>)", nil},
		{"[k | {k, v} <- <<t, c>>; v < 5]", nil},
	} {
		ext := &countingExtents{ext: map[string][]iql.Value{
			"t":   {iql.Int(1), iql.Int(3)},
			"t,c": {iql.Tuple(iql.Int(1), iql.Int(2)), iql.Tuple(iql.Int(3), iql.Int(7))},
		}}
		e, err := iql.Parse(tc.query)
		if err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		// The answer is not this test's business, and some of these fail.
		_, _ = iql.NewEvaluator(ext).Eval(e, nil)
		switch {
		case tc.want == nil && len(ext.asked) > 0:
			t.Errorf("%s: asked the extents to count %+v, want no such question", tc.query, ext.asked)
		case tc.want != nil && (len(ext.asked) != 1 || !reflect.DeepEqual(ext.asked[0], *tc.want)):
			t.Errorf("%s: asked the extents to count %+v, want once %+v", tc.query, ext.asked, *tc.want)
		}
	}
}

// TestSelectionAskedAtTheTopLevelOnly: a count nested under a generator
// runs once per enclosing binding and would ask the backend as often, so
// only a count no generator loop encloses (genDepth 0) asks at all —
// inside a let, an if or an arithmetic expression it still does.
func TestSelectionAskedAtTheTopLevelOnly(t *testing.T) {
	ext := &countingExtents{answers: true, ext: map[string][]iql.Value{
		"t": {iql.Int(1), iql.Int(3), iql.Int(5)},
		"u": {iql.Int(1), iql.Int(2)},
	}}
	for _, tc := range []struct {
		query string
		want  string
		asks  int
	}{
		{"[count([k | k <- <<t>>; k < 4]) | x <- <<u>>]", "[2, 2]", 0},
		{"[x | x <- <<u>>; count([k | k <- <<t>>; k < 4]) = 2]", "[1, 2]", 0},
		{"1 + count([k | k <- <<t>>; k < 4])", "3", 1},
		{"let n = count([k | k <- <<t>>; k < 4]) in if n = 2 then count([k | k <- <<u>>]) else 0", "2", 2},
	} {
		ext.asked = nil
		v, err := iql.NewEvaluator(ext).EvalString(tc.query)
		if err != nil || v.String() != tc.want {
			t.Errorf("%s = %s, %v, want %s", tc.query, v, err, tc.want)
		}
		if len(ext.asked) != tc.asks {
			t.Errorf("%s: the extents were asked %d times, want %d", tc.query, len(ext.asked), tc.asks)
		}
	}
}

// selectionExtents builds extents a typed backend could hold — columns
// of one kind each, integers off the iqltest edges with duplicates —
// and ones it could not: a column of anything, and rows of other shapes
// among the pairs.
func selectionExtents(r *rand.Rand) map[string][]iql.Value {
	ints := func() iql.Value {
		if r.Intn(3) == 0 {
			return iql.Int(iqltest.Ints[r.Intn(len(iqltest.Ints))])
		}
		return iql.Int(int64(r.Intn(12) - 6))
	}
	columns := map[string]func() iql.Value{
		"ints":    ints,
		"floats":  func() iql.Value { return iql.Float(iqltest.Floats[r.Intn(len(iqltest.Floats))]) },
		"strings": func() iql.Value { return iql.Str(iqltest.Strings[r.Intn(len(iqltest.Strings))]) },
		"mixed":   func() iql.Value { return iqltest.Value(r, 1) },
		"mostly": func() iql.Value { // integers but for the odd float
			if r.Intn(8) == 0 {
				return iql.Float(2.5)
			}
			return ints()
		},
	}
	ext := map[string][]iql.Value{"empty": nil}
	for name, cell := range columns {
		keys, pairs := make([]iql.Value, r.Intn(40)), make([]iql.Value, 0, 48)
		for i := range keys {
			keys[i] = cell()
		}
		for n := r.Intn(40); n > 0; n-- {
			pairs = append(pairs, iql.Tuple(ints(), cell()))
			if r.Intn(6) == 0 { // a row of another shape among them
				pairs = append(pairs, []iql.Value{iql.Tuple(ints(), cell(), ints()), ints(), iql.Tuple()}[r.Intn(3)])
			}
		}
		ext[name] = keys
		ext["t,"+name] = pairs
	}
	return ext
}

// TestSelectionCountMatchesPlainEvaluation is the differential: over
// generated extents and generated countable comprehensions, an
// evaluator whose extents decline every count and one whose extents
// answer where a typed backend could give the plain evaluator's answer,
// error included — and the declining one takes the plain evaluator's
// steps, while an answered count takes three: the call, the
// comprehension and the reference.
func TestSelectionCountMatchesPlainEvaluation(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	ops := []string{"=", "<", "<=", ">", ">="}
	lit := func() string {
		// Not the one int no literal writes: '-' applies to a literal
		// that must fit int64 itself.
		if n := iqltest.Ints[r.Intn(len(iqltest.Ints))]; r.Intn(4) == 0 && n != math.MinInt64 {
			return fmt.Sprint(n)
		}
		return fmt.Sprint(r.Intn(12) - 6)
	}
	answered := 0
	for n := 0; n < 400; n++ {
		ext := selectionExtents(r)
		names := []string{"ints", "floats", "strings", "mixed", "mostly", "empty"}
		name := names[r.Intn(len(names))]
		var query string
		cond := func(v string) string {
			if r.Intn(2) == 0 {
				return lit() + " " + ops[r.Intn(len(ops))] + " " + v
			}
			return v + " " + ops[r.Intn(len(ops))] + " " + lit()
		}
		if r.Intn(3) == 0 {
			query = "count([x | x <- <<" + name + ">>"
			for f := r.Intn(3); f > 0; f-- {
				query += "; " + cond("x")
			}
		} else {
			query = "count([{v, k} | {k, v} <- <<t, " + name + ">>"
			for f := r.Intn(3); f > 0; f-- {
				query += "; " + cond([]string{"k", "v"}[r.Intn(2)])
			}
		}
		query += "])"

		plain := iql.NewEvaluator(iql.ExtentsFunc((&countingExtents{ext: ext}).Extent))
		want, wantErr := plain.EvalString(query)
		for _, answers := range []bool{false, true} {
			ce := &countingExtents{ext: ext, answers: answers}
			ev := iql.NewEvaluator(ce)
			got, err := ev.EvalString(query)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || (err == nil && !got.Equal(want)) {
				t.Fatalf("%s, extents answering %v: %s, %v; the plain evaluator: %s, %v", query, answers, got, err, want, wantErr)
			}
			if len(ce.asked) != 1 {
				t.Fatalf("%s: the extents were asked %d times, want once", query, len(ce.asked))
			}
			steps := plain.Steps()
			if _, ok, _ := ce.ExtentCount(strings.Split(ce.refs[0], ","), ce.asked[0]); ok {
				steps = 3
				answered++
			}
			if ev.Steps() != steps {
				t.Errorf("%s, extents answering %v: %d steps, want %d", query, answers, ev.Steps(), steps)
			}
		}
	}
	if answered < 100 {
		t.Errorf("the answering extents answered %d of 400 counts: the generator hardly tests them", answered)
	}
}

// TestSelectionCountUnderAStepLimit: a limit the local scan would trip
// lets an answered count through — a budget bounds the work done here,
// and the rows were walked at the source — while the same limit still
// trips when the extents decline.
func TestSelectionCountUnderAStepLimit(t *testing.T) {
	els := make([]iql.Value, 100)
	for i := range els {
		els[i] = iql.Int(int64(i))
	}
	const query = "count([k | k <- <<t>>; k < 40])"
	for _, answers := range []bool{true, false} {
		ev := iql.NewEvaluator(&countingExtents{ext: map[string][]iql.Value{"t": els}, answers: answers})
		ev.MaxSteps = 3
		v, err := ev.EvalString(query)
		if answers && (err != nil || !v.Equal(iql.Int(40))) {
			t.Errorf("answered at the source under a 3-step limit: %s, %v, want 40", v, err)
		}
		if !answers && (err == nil || !strings.Contains(err.Error(), "exceeded 3 steps")) {
			t.Errorf("declined under a 3-step limit: %s, %v, want the limit to trip", v, err)
		}
	}
}
