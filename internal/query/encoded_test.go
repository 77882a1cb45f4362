package query

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/wrapper"
)

// TestEncodedMatchesEvalContext holds Processor.EvalEncoded to
// EvalContext — the same processor, the same state, one evaluation after
// the other — on the answer's bytes, its warnings, its dependency set
// and the steps the whole query took (the session's budget: unfolded
// derivations included), over direct references, a tagged union across
// two sources and a lower-bound object: with every extent cold, from the
// memo, and with one source down and its extents served stale.
func TestEncodedMatchesEvalContext(t *testing.T) {
	steady := staticSource(t, "Steady", map[string]iql.Value{
		"<<protein>>": iql.Bag(iql.Int(1), iql.Int(2), iql.Int(3)),
		"<<protein, acc>>": iql.Bag(iql.Tuple(iql.Int(1), iql.Str("P1")), iql.Tuple(iql.Int(2), iql.Str("P2")),
			iql.Tuple(iql.Int(3), iql.Null())),
	})
	flakyInner := staticSource(t, "Flaky", map[string]iql.Value{
		"<<hit>>": iql.Bag(iql.Int(7), iql.Int(8)),
		"<<hit, acc>>": iql.Bag(iql.Tuple(iql.Int(7), iql.Str("P2")), iql.Tuple(iql.Int(8), iql.Str("it's")),
			iql.Tuple(iql.Int(8), iql.Float(5))),
	})
	flaky, err := wrapper.NewFault(flakyInner, wrapper.FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p := New()
	p.SetBreaker(testBreakerConfig())
	for _, src := range []Sourcer{steady, flaky} {
		if err := p.AddSource(src); err != nil {
			t.Fatal(err)
		}
	}
	p.Define(hdm.MustScheme("<<UAcc>>"), iql.MustParse("[{'S', k, a} | {k, a} <- <<protein, acc>>]"), "test", "Steady")
	p.Define(hdm.MustScheme("<<UAcc>>"), iql.MustParse("[{'F', k, a} | {k, a} <- <<hit, acc>>]"), "test", "Flaky")
	p.DefineAll([]ObjectDef{{Scheme: hdm.MustScheme("<<Lower>>"), Derivation: Derivation{Query: iql.MustParse("[k | k <- <<protein>>]"), Via: "test", Scope: "Steady", Lower: true}}})

	texts := []string{
		"[{s, k} | {s, k, a} <- <<UAcc>>; a = 'P2']",
		"[{s, k, a} | {s, k, a} <- <<UAcc>>]",
		"{[k | k <- <<Lower>>], [a | {k, a} <- <<hit, acc>>]}",
		"[{k, a, b} | {k, a} <- <<hit, acc>>; {s, j, b} <- <<UAcc>>; b = a]",
		"count(<<UAcc>>)",
		"<<hit, acc>>",
		"[a + 1 | {s, k, a} <- <<UAcc>>]",
		"[k | k <- <<nowhere>>]",
	}

	type observed struct {
		json, text  string
		warns, deps []string
		steps       int
		err         string
	}
	observe := func(e iql.Expr, dst *iql.Encoding) observed {
		v, s, err := p.eval(context.Background(), e, "", dst)
		o := observed{steps: s.budget.Used()}
		if err != nil {
			o.err = err.Error()
			return o
		}
		if dst == nil {
			dst = new(iql.Encoding)
			if dst.JSON, dst.Text, err = iql.AppendJSONAndText(nil, nil, v); err != nil {
				t.Fatal(err)
			}
		}
		o.json, o.text = string(dst.JSON), string(dst.Text)
		o.warns, o.deps = s.report()
		for i, w := range o.warns {
			// A stale extent's age and the breaker's state move between two
			// evaluations; what is served, and that it is stale, does not.
			o.warns[i], _, _ = strings.Cut(w, " (age ")
		}
		o.warns = slices.Compact(o.warns)
		return o
	}
	check := func(state string, cold bool, wantDegraded bool) {
		t.Helper()
		for _, src := range texts {
			e := iql.MustParse(src)
			if cold {
				p.InvalidateCache()
			}
			ref := observe(e, nil)
			if cold {
				p.InvalidateCache()
			}
			got := observe(e, new(iql.Encoding))
			if got.err != ref.err || got.json != ref.json || got.text != ref.text || got.steps != ref.steps ||
				!slices.Equal(got.warns, ref.warns) || !slices.Equal(got.deps, ref.deps) {
				t.Errorf("%s, %s:\n encoded   %+v\n reference %+v", state, src, got, ref)
			}
			// Every text that evaluates reads the source that is down.
			if ref.err == "" && slices.ContainsFunc(ref.warns, IsDegraded) != wantDegraded {
				t.Errorf("%s, %s: warnings %v, want degraded=%v", state, src, ref.warns, wantDegraded)
			}
		}
	}
	check("cold", true, false)
	for _, src := range texts {
		observe(iql.MustParse(src), nil) // fill the memo
	}
	check("memo-warm", false, false)
	flaky.Set(wrapper.FaultConfig{ErrorRate: 1})
	check("degraded", true, true)

	// An answer JSON cannot carry is the evaluation's own error here, not
	// a later stage's: typed, so that a server can tell it from a query's.
	bad := staticSource(t, "Bad", map[string]iql.Value{"<<reading>>": iql.Bag(iql.Float(1), iql.Float(math.NaN()))})
	if err := p.AddSource(bad); err != nil {
		t.Fatal(err)
	}
	_, _, err = p.EvalEncoded(context.Background(), iql.MustParse("[x | x <- <<reading>>]"), new(iql.Encoding))
	var unencodable *iql.EncodingError
	if !errors.As(err, &unencodable) {
		t.Errorf("NaN in an answer: err %v, want an *iql.EncodingError", err)
	}
}
