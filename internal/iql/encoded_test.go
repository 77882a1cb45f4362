package iql_test

import (
	"bytes"
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
// evaluates it; agree holds its JSON to AppendJSONAndText of the built
// answer, its text to the built one's rendering escaped for a JSON
// string, its steps to the built one's, and its value to the reference.

// TestEncodedMatchesMaterialisedOnEdgeValues: generated queries over the
// edge world.
func TestEncodedMatchesMaterialisedOnEdgeValues(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	w := iqltest.EdgeWorld()
	ext := w.Extents()
	for range 200 {
		agree(t, ext, iqltest.EdgeVars, w.Query(r))
	}
}

// TestEncodedMatchesMaterialisedOnTable1: the paper's seven queries over
// the case study's extents.
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
		agree(t, ext, nil, q.IQL)
	}
}

// TestEncodedBagIsInStableKeyOrder holds the order of an encoded bag to a
// reference that shares no code with it — the materialising path sorts
// with the same sort — the elements' Key() strings, stably sorted: "value"
// in canonical key order, ties in element order.
func TestEncodedBagIsInStableKeyOrder(t *testing.T) {
	ext := iqltest.EdgeWorld().Extents()
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
		var got iql.Encoding
		if err := iql.NewEvaluator(ext).EvalEncoded(&got, e, nil); err != nil || !bytes.Equal(got.JSON, want) {
			t.Errorf("%s:\n got %s, %v\nwant %s", src, got.JSON, err, want)
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

// FuzzEvalEncoded holds whatever parses to the reference over the edge
// world, as agree does, when the serial evaluator answers it within
// 20,000 steps. The seeds are Table 1's texts (whose references the edge
// world does not know: every way must fail alike) and iqltest.Corpus;
// `go test -run '^Fuzz'` (make fuzz-seeds) runs them as plain tests.
func FuzzEvalEncoded(f *testing.F) {
	for _, q := range ispider.Table1Queries() {
		f.Add(q.IQL)
	}
	for _, src := range iqltest.Corpus {
		f.Add(src)
	}
	ext := iqltest.EdgeWorld().Extents()
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 256 {
			return // a few dozen nested 'let x = x + x' would double a string past memory
		}
		ev := iql.NewEvaluator(ext)
		ev.MaxSteps = 20_000
		e, err := iql.Parse(src)
		if err == nil {
			_, err = ev.Eval(e, nil)
		}
		if err != nil && strings.Contains(err.Error(), "exceeded") {
			return
		}
		agree(t, ext, iqltest.EdgeVars, src)
	})
}
