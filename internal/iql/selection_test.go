package iql_test

import (
	"fmt"
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
		v, err := iql.NewEvaluator(ext).Eval(iql.MustParse(tc.query), nil)
		if err != nil || v.String() != tc.want {
			t.Errorf("%s = %s, %v, want %s", tc.query, v, err, tc.want)
		}
		if len(ext.asked) != tc.asks {
			t.Errorf("%s: the extents were asked %d times, want %d", tc.query, len(ext.asked), tc.asks)
		}
	}
}

// TestSelectionCountMatchesPlainEvaluation: counts a typed backend could
// take — over integers with the iqltest edges among them, the literal on
// either side, at and beside the boundary — and counts it must decline
// — over floats, strings, mixed values, rows of other shapes — are the
// reference evaluator's whether the extents answer or decline; a
// declined count takes the plain evaluator's steps, an answered one
// three: the call, the comprehension and the reference.
func TestSelectionCountMatchesPlainEvaluation(t *testing.T) {
	ext := map[string][]iql.Value{"empty": nil}
	for i, n := range iqltest.Ints {
		ext["ints"] = append(ext["ints"], iql.Int(n), iql.Int(int64(i%5)))
		ext["t,ints"] = append(ext["t,ints"], iql.Tuple(iql.Int(int64(i%7)), iql.Int(n)))
		ext["t,floats"] = append(ext["t,floats"], iql.Tuple(iql.Int(n), iql.Float(iqltest.Floats[i])))
		ext["t,mixed"] = append(ext["t,mixed"], iql.Tuple(iql.Int(n), []iql.Value{iql.Int(n), iql.Str("s"), iql.Float(2.5)}[i%3]))
		ext["t,shapes"] = append(ext["t,shapes"], []iql.Value{iql.Tuple(iql.Int(n), iql.Int(1)), iql.Int(n), iql.Tuple()}[i%3])
	}
	answered := 0
	for _, query := range []string{
		"count([x | x <- <<ints>>])", "count([x | x <- <<ints>>; x < 3])", "count([x | x <- <<ints>>; 3 <= x; 9 > x])",
		"count([x | x <- <<ints>>; 4 < x])",
		"count([x | x <- <<ints>>; x = 9007199254740993])", "count([x | x <- <<ints>>; -9223372036854775807 >= x])",
		"count([{v, k} | {k, v} <- <<t, ints>>; v > 9007199254740992; k < 5])", "count([{v, k} | {k, v} <- <<t, ints>>; 1 = k])",
		"count([{v, k} | {k, v} <- <<t, floats>>; v < 5])", "count([{v, k} | {k, v} <- <<t, floats>>; k >= 0])",
		"count([{v, k} | {k, v} <- <<t, mixed>>; v < 5])", "count([{v, k} | {k, v} <- <<t, mixed>>; k > -1])",
		"count([{v, k} | {k, v} <- <<t, shapes>>; v >= 1])", "count([x | x <- <<empty>>; x = 1])",
	} {
		plain := iql.NewEvaluator(iql.ExtentsFunc((&countingExtents{ext: ext}).Extent))
		_, _ = plain.Eval(iql.MustParse(query), nil) // its steps are the ones to take
		want, wantErr := iqltest.Eval(iql.MustParse(query), plain.Ext, nil)
		for _, answers := range []bool{false, true} {
			ce := &countingExtents{ext: ext, answers: answers}
			ev := iql.NewEvaluator(ce)
			got, err := ev.Eval(iql.MustParse(query), nil)
			if d := iqltest.Mismatch(got, err, want, wantErr); d != "" {
				t.Errorf("%s, extents answering %v: %s", query, answers, d)
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
	if answered != 12 {
		t.Errorf("the answering extents answered %d counts, want the 12 over integers", answered)
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
		v, err := ev.Eval(iql.MustParse(query), nil)
		if answers && (err != nil || !v.Equal(iql.Int(40))) {
			t.Errorf("answered at the source under a 3-step limit: %s, %v, want 40", v, err)
		}
		if !answers && (err == nil || !strings.Contains(err.Error(), "exceeded 3 steps")) {
			t.Errorf("declined under a 3-step limit: %s, %v, want the limit to trip", v, err)
		}
	}
}
