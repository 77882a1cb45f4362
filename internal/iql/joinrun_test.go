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
	"[{a, b} | {k, a} <- <<p>>; {k2, b} <- <<q>>; k2 = k]",
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
		e := iql.MustParse(src)
		full := iql.NewEvaluator(ext)
		if _, err := full.Eval(e, nil); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		for limit := 1; limit <= full.Steps()+1; limit += max(1, full.Steps()/40) {
			walk := iql.NewEvaluator(ext)
			walk.MaxSteps = limit
			want, wantErr := walk.Eval(e, nil)
			ev := iql.NewEvaluator(ext)
			for round := range 3 {
				ev.MaxSteps = full.Steps() + 1 // an unlimited walk, then a record, before the limited round
				if round == 2 {
					ev.MaxSteps = limit
				}
				got, err := ev.Eval(e, nil)
				if round < 2 {
					continue
				}
				if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() || err == nil && !got.Equal(want) {
					t.Errorf("%s, limit %d: replayed %s, %v; walked %s, %v", src, limit, got, err, want, wantErr)
				}
			}
		}
	}
}
