package iql_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/dataspace/automed/internal/iql"
)

// runExtents are the extents the join-run queries draw: two keyed
// attribute extents p and q (keys 0…39, q's missing every seventh),
// a bag of ints xs, and pairs, whose second components are strings and
// none 'T', one element of which is no pair at all.
func runExtents() iql.Extents {
	var p, q, xs, pairs []iql.Value
	for k := range 40 {
		p = append(p, iql.Tuple(iql.Int(int64(k)), iql.Int(int64(k%9))))
		if k%7 != 3 {
			q = append(q, iql.Tuple(iql.Int(int64(k)), iql.Int(int64(k%5-2))))
		}
		pairs = append(pairs, iql.Tuple(iql.Int(int64(k%13)), iql.Str(string(rune('a'+k%4)))))
	}
	for x := range 6 {
		xs = append(xs, iql.Int(int64(x*7)))
	}
	pairs = append(pairs, iql.Int(5))
	objects := map[string]iql.Value{"p": iql.BagOf(p), "q": iql.BagOf(q), "xs": iql.BagOf(xs), "pairs": iql.BagOf(pairs)}
	return iql.ExtentsFunc(func(parts []string) (iql.Value, error) {
		if v, ok := objects[strings.Join(parts, ", ")]; ok {
			return v, nil
		}
		return iql.Value{}, fmt.Errorf("no extent <<%s>>", strings.Join(parts, ", "))
	})
}

// runQueries are join runs and the shapes next to them that are not
// runs, or not whole ones: a probe that is an expression, or a variable
// bound outside the run, keeps its generator out.
var runQueries = []string{
	flat,
	"[{a, b} | {k, a} <- <<p>>; a = 3; {k2, b} <- <<q>>; k2 = k]",
	"[{a, b, c, d} | {k, a} <- <<p>>; {k2, b} <- <<q>>; k2 = k; {k3, c} <- <<p>>; k3 = k; {k4, d} <- <<q>>; k4 = k2; d = -1]",
	"[{b, a} | {b, 'T'} <- <<pairs>>; {k, a} <- <<pairs>>; k = b]",
	"[{b, a} | {b, 'T'} <- <<pairs>>; {k, a} <- <<p>>; k = b; {k2, c} <- <<q>>; k2 = k]",
	"[{k, a} | {k, k} <- <<pairs>>; {k2, a} <- <<pairs>>; k2 = k]",
	"[{x, a, b} | x <- <<xs>>; {k, a} <- <<p>>; {k2, b} <- <<q>>; k2 = k; a > x / 7]",
	"[{x, b} | x <- <<xs>>; {k, a} <- <<p>>; {k2, b} <- <<q>>; k2 = x + 0]",
	"[{x, b} | x <- <<xs>>; {k, a} <- <<p>>; {k2, b} <- <<q>>; k2 = x]",
	"[{x, b} | x <- <<xs>>; {k, a} <- <<p>>; k = 7; {k2, b} <- <<q>>; k2 = k + x]",
	"[{a, count([y | y <- <<xs>>; y < a * 5])} | {k, a} <- <<p>>; {k2, b} <- <<q>>; k2 = k; a > b]",
	"[{a, c} | {k, a} <- <<p>>; {k2, b} <- <<q>>; k2 = k; b > 0; {j, c} <- <<p>>; {j2, d} <- <<q>>; j2 = j; j < a]",
	"[a / b | {k, a} <- <<p>>; {k2, b} <- <<q>>; k2 = k]",
	"[{a, b} | {k, a} <- <<p>>; {k2, b} <- <<q>>; k2 = k; {k3, s} <- <<pairs>>; k3 = a; s = 'b']",
	"[{a, b} | {k, a} <- <<p>>; {k2, b} <- <<nowhere>>; k2 = k]",
	"[[b | {k2, b} <- <<q>>; k2 = k; {k3, c} <- <<p>>; k3 = k2] | {k, a} <- <<p>>; a = 2]",
	"count([a | {k, a} <- <<p>>; {k2, b} <- <<q>>; k2 = k; {k3, c} <- <<q>>; k3 = b])",
}

// TestJoinRunsAgree holds the join-run shapes to the reference in every
// mode, the replayed one's three rounds included, and asserts that the
// replayed mode replayed.
func TestJoinRunsAgree(t *testing.T) {
	replayed := runsReplayed.Load()
	ext := runExtents()
	for _, src := range runQueries {
		agree(t, ext, nil, src)
	}
	if runsReplayed.Load() == replayed {
		t.Error("the replayed mode replayed no join run")
	}
}

// TestJoinRunStepLimits: under a step limit, each of a replayed run's
// rounds fails, or answers, as its walk does.
func TestJoinRunStepLimits(t *testing.T) {
	ext := runExtents()
	for _, src := range runQueries[:7] {
		atStepLimits(t, ext, nil, src)
	}
}

// scopeVars are the caller's variables the scoping shapes see: a, which
// a generator shadows, and z, which none binds.
var scopeVars = map[string]iql.Value{"a": iql.Int(100), "z": iql.Int(4)}

// scopeQueries are the shapes of scoping, each around a join run where
// one fits: a nested comprehension that rebinds an outer generator's
// name; a let shadowing a generator's variable, and a generator a let's;
// a pattern that repeats a name; a filter or a probe key naming an
// outer comprehension's variable; a caller's variable shadowed by a
// generator, and one read beside it; a member's variable read only by
// the filter right after its run; a probe that is a let of an earlier
// generator's variable; a source naming an outer comprehension's
// variables, joined; and a repeated name keyed on its last component.
var scopeQueries = []string{
	"[{k, [{k, b} | {k, b} <- <<q>>; k = a]} | {k, a} <- <<p>>; {k2, b} <- <<q>>; k2 = k; a < 3]",
	"[[{a, b} | {k, a} <- <<p>>; {k2, b} <- <<q>>; k2 = k; a = x] | x <- <<xs>>; x < 20]",
	"[let a = b + 1 in {a, k} | {k, a} <- <<p>>; {k2, b} <- <<q>>; k2 = k]",
	"let k = 100 in [{k, a} | {k, a} <- <<p>>; {k2, b} <- <<q>>; k2 = k; k < 9]",
	"[let y = a in [{y, b, k} | {k2, b} <- <<q>>; k2 = k; let k = b in k < y] | {k, a} <- <<p>>; a > 6]",
	"[{x, b} | {x, x} <- <<pairs>>; {k2, b} <- <<q>>; k2 = x]",
	"[{k, a} | {k, {a, a}} <- [{1, {2, 3}}, {2, {4, 5}}]; {k2, b} <- <<q>>; k2 = k]",
	"[[b | {k2, b} <- <<q>>; k2 = k; b > a - 6] | {k, a} <- <<p>>]",
	"[count([c | {j, c} <- <<p>>; {j2, d} <- <<q>>; j2 = j; j = k]) | {k, a} <- <<p>>; k < 5]",
	"[{a, z, b} | {k, a} <- <<p>>; {k2, b} <- <<q>>; k2 = k; a < z]",
	"[b | {k, a} <- <<p>>; {k2, b} <- <<q>>; k2 = k; a > 3]",
	correlated,
	"[{a, b} | {k, a} <- <<p>>; {k2, b} <- <<q>>; k2 = (let z = k in z)]",
	"[[x | x <- [k, a]; x = k] | {k, a} <- <<p>>; a < 4]",
	"count([x | {x, x} <- <<pairs>>; x = 4])",
}

// correlated probes q on an outer comprehension's variable; flat is the
// same join of p and q in one comprehension.
const (
	correlated = "[[b | {k2, b} <- <<q>>; k2 = k] | {k, a} <- <<p>>]"
	flat       = "[{a, b} | {k, a} <- <<p>>; {k2, b} <- <<q>>; k2 = k]"
)

// TestCorrelatedProbeIsIndexed: a probe naming an outer comprehension's
// variable is keyed on the inner generator's index, so the correlated
// subquery costs about what the flat join does; scanning q once for
// every row of p takes 5,596 steps here, the join 219.
func TestCorrelatedProbeIsIndexed(t *testing.T) {
	steps := func(src string) int {
		ev := iql.NewEvaluator(runExtents())
		if _, err := ev.Eval(iql.MustParse(src), nil); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		return ev.Steps()
	}
	if c, f := steps(correlated), steps(flat); c > 2*f {
		t.Errorf("%s: %d steps; the flat join %d", correlated, c, f)
	}
}

// TestScopesAgree holds the scoping shapes, with the caller's variables
// bound, to the reference in every mode, and at every step limit each
// round of a replaying evaluator to a walk under the same limit.
func TestScopesAgree(t *testing.T) {
	replayed := runsReplayed.Load()
	ext := runExtents()
	for _, src := range scopeQueries {
		agree(t, ext, scopeVars, src)
		atStepLimits(t, ext, scopeVars, src)
	}
	if runsReplayed.Load() == replayed {
		t.Error("the replayed mode replayed no join run")
	}
}

// atStepLimits evaluates src under step limits from 1 to one past its
// steps, by a fresh evaluator (the walk) and by the first, second and
// third round of one evaluator whose rounds before the limited one are
// unlimited (the recorded and the replayed), and asserts that each
// round fails, or answers, as the walk does.
func atStepLimits(t *testing.T, ext iql.Extents, vars map[string]iql.Value, src string) {
	t.Helper()
	e, env := iql.MustParse(src), envOf(vars)
	full := iql.NewEvaluator(ext)
	if _, err := full.Eval(e, env); err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	for limit := 1; limit <= full.Steps()+1; limit += max(1, full.Steps()/100) {
		walk := iql.NewEvaluator(ext)
		walk.MaxSteps = limit
		want, wantErr := walk.Eval(e, env)
		for rounds := 1; rounds <= 3; rounds++ {
			ev := iql.NewEvaluator(ext)
			for round := range rounds {
				ev.MaxSteps = full.Steps() + 1
				if round == rounds-1 {
					ev.MaxSteps = limit
				}
				got, err := ev.Eval(e, env)
				if round < rounds-1 {
					continue
				}
				if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() || err == nil && !got.Equal(want) {
					t.Errorf("%s, limit %d, round %d: %s, %v; walked %s, %v", src, limit, rounds, got, err, want, wantErr)
				}
			}
		}
	}
}
