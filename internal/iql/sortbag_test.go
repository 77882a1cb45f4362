package iql_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/iql/iqltest"
)

// TestSortBagMatchesStableKeySort holds SortBag and BagOrder to the
// order they replaced — a stable sort of the elements by their Key()
// strings under < — on values drawn from the edges of every scalar
// encoding, ties (5 beside 5.0, duplicates) included.
func TestSortBagMatchesStableKeySort(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for n := 0; n < 2000; n++ {
		els := make([]iql.Value, r.Intn(12))
		for i := range els {
			els[i] = iqltest.Value(r, 2)
		}
		if len(els) > 1 {
			els = append(els, els[r.Intn(len(els))], iql.Int(5), iql.Float(5), iql.Int(5))
		}
		bag := iql.BagOf(els)

		want := make([]int, len(els))
		keys := make([]string, len(els))
		for i, e := range els {
			want[i], keys[i] = i, e.Key()
		}
		sort.SliceStable(want, func(a, b int) bool { return keys[want[a]] < keys[want[b]] })

		order, err := iql.BagOrder(bag)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(order) != fmt.Sprint(want) {
			t.Fatalf("BagOrder(%s) = %v, stable key sort %v", bag, order, want)
		}
		sorted, err := iql.SortBag(bag)
		if err != nil {
			t.Fatal(err)
		}
		for i, el := range want {
			if got := sorted.Items()[i]; got.String() != els[el].String() {
				t.Fatalf("SortBag(%s)[%d] = %s, stable key sort has %s", bag, i, got, els[el])
			}
		}
	}
	if _, err := iql.SortBag(iql.Int(1)); err == nil {
		t.Error("SortBag of a non-collection: no error")
	}
}

// rows returns n {source, key, value} rows shaped like a Table 1 extent.
func rows(n int) iql.Value {
	els := make([]iql.Value, n)
	for i := range els {
		els[i] = iql.Tuple(iql.Str("PEDRO"), iql.Int(int64(n-i)), iql.Str(fmt.Sprintf("P%05d", i%97)))
	}
	return iql.BagOf(els)
}

// TestSortBagAllocsIndependentOfSize pins SortBag's allocations to a
// constant: the sorted bag, the key arena, its offsets, the permutation
// and the arena's first few growths, however many elements there are.
// One key string per element is what it replaced.
func TestSortBagAllocsIndependentOfSize(t *testing.T) {
	const limit = 16
	for _, n := range []int{1000, 8000} {
		bag := rows(n)
		allocs := iqltest.Least(10, func() float64 { // the arenas are pooled
			return testing.AllocsPerRun(1, func() {
				if _, err := iql.SortBag(bag); err != nil {
					t.Fatal(err)
				}
			})
		})
		if allocs > limit {
			t.Errorf("SortBag of %d rows: %.0f allocations, want at most %d", n, allocs, limit)
		}
	}
}

// TestJoinAllocatesNothingPerGeneratorEntry pins the scope reuse of
// compCtx.enter: in a two-generator equi-join the inner generator is
// entered once per outer row, so doubling the outer rows may add only
// what the doubled output costs — one tuple per emitted row and the
// output slice's growth — and nothing per entry.
func TestJoinAllocatesNothingPerGeneratorEntry(t *testing.T) {
	expr := iql.MustParse("[{x, z} | {k, x} <- <<outer>>; {j, z} <- <<inner>>; j = k]")
	inner := make([]iql.Value, 64)
	for i := range inner {
		inner[i] = iql.Tuple(iql.Int(int64(i)), iql.Str("z"))
	}
	allocsAt := func(n int) float64 {
		outer := make([]iql.Value, n)
		for i := range outer {
			outer[i] = iql.Tuple(iql.Int(int64(i%len(inner))), iql.Int(int64(i)))
		}
		ext := iql.ExtentsFunc(func(parts []string) (iql.Value, error) {
			if parts[0] == "outer" {
				return iql.BagOf(outer), nil
			}
			return iql.BagOf(inner), nil
		})
		return testing.AllocsPerRun(5, func() {
			v, err := iql.NewEvaluator(ext).Eval(expr, nil)
			if err != nil || v.Len() != n {
				t.Fatalf("join over %d rows: %d rows, err %v", n, v.Len(), err)
			}
		})
	}
	const perRow, slack = 1, 32 // the head's tuple; growths of the output slice
	if grew := allocsAt(2000) - allocsAt(1000); grew > 1000*perRow+slack {
		t.Errorf("1000 more outer rows cost %.0f more allocations, want at most %d: "+
			"something is allocated per generator entry", grew, 1000*perRow+slack)
	}
}

// TestBuiltinFilterAllocatesNothingPerElement pins where a builtin
// call's arguments live: a filter calling a two-argument builtin once
// per element — Table 1's Q2 is contains(d, keyword) over every protein
// — may cost what the evaluation costs however many elements there are,
// and nothing per call.
func TestBuiltinFilterAllocatesNothingPerElement(t *testing.T) {
	expr := iql.MustParse("count([k | {s, k, d} <- <<rows>>; contains(d, 'P0004')])")
	allocsAt := func(n int) float64 {
		extent := rows(n)
		ext := iql.ExtentsFunc(func([]string) (iql.Value, error) { return extent, nil })
		return testing.AllocsPerRun(5, func() {
			if v, err := iql.NewEvaluator(ext).Eval(expr, nil); err != nil || v.I() == 0 || v.I() == int64(n) {
				t.Fatalf("%d rows: counted %s, err %v", n, v, err)
			}
		})
	}
	const slack = 4
	if grew := allocsAt(2000) - allocsAt(1000); grew > slack {
		t.Errorf("1000 more elements cost %.0f more allocations, want at most %d: "+
			"something is allocated per builtin call", grew, slack)
	}
}
