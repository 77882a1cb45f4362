package iql_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/iql/iqltest"
)

// whole is the key position that stands for the row itself.
const whole = -1

// scanKey is the reference the index is held to: the rows a scan keeps,
// those that have every key component (a tuple long enough) and whose
// components Equal the key's, in extent order.
func scanKey(rows []iql.Value, comps []int, key []iql.Value) []int32 {
	var out []int32
rows:
	for r, el := range rows {
		for n, c := range comps {
			k := el
			if c != whole {
				if el.Kind != iql.KindTuple || c >= len(el.Items()) {
					continue rows
				}
				k = el.Items()[c]
			}
			if !k.Equal(key[n]) {
				continue rows
			}
		}
		out = append(out, int32(r))
	}
	return out
}

// TestJoinIndexMatchesScan: for every probe key the chain of a JoinIndex
// is exactly the rows a scan would keep, in extent order — over NULLs,
// ints beside their floats, ±2⁵³±1, NaN, duplicates, tuples and bags as
// keys (a bag beside a permutation of itself), rows of the wrong shape,
// one to three key components, one component twice and the whole
// element, at sizes either side of where the table doubles. (Equal is
// not transitive where a float sits between two ints beyond ±2⁵³; the
// generator draws no such float, and no index over Equal could group
// such keys.)
func TestJoinIndexMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	for _, n := range []int{0, 1, 31, 32, 5000} {
		// Few distinct components, so that keys repeat and chains are long.
		pool := []iql.Value{iql.Null(), iql.Int(1), iql.Float(1), iql.Float(math.NaN()),
			iql.Int(1 << 53), iql.Int(1<<53 + 1), iql.Int(-(1 << 53) - 1), iql.Float(math.Copysign(0, -1)), iql.Int(0),
			iql.Bag(iql.Int(1), iql.Str("a"), iql.Int(1)), iql.Bag(iql.Str("a"), iql.Float(1), iql.Int(1)),
			iql.Tuple(iql.Int(2), iql.Float(math.NaN())), iql.Tuple()}
		for len(pool) < 24 {
			pool = append(pool, iqltest.Value(r, 2))
		}
		pick := func() iql.Value { return pool[r.Intn(len(pool))] }
		rows := make([]iql.Value, n)
		for i := range rows {
			switch r.Intn(12) {
			case 0:
				rows[i] = pick() // any shape, scalars included
			case 1:
				rows[i] = iql.Tuple(pick())
			case 2:
				rows[i] = iql.Tuple(pick(), pick(), pick(), pick())
			default:
				rows[i] = iql.Tuple(pick(), pick(), pick())
			}
		}
		for _, comps := range [][]int{{whole}, {0}, {2}, {1, 0}, {0, 1, 2}, {1, 1}, {3, whole}} {
			ix := iql.NewJoinIndex(rows, comps)
			probe := func(key []iql.Value) {
				t.Helper()
				var got []int32
				for row := ix.Probe(key); row >= 0; row = ix.Next(row) {
					got = append(got, row)
				}
				if want := scanKey(rows, comps, key); !slices.Equal(got, want) {
					t.Fatalf("%d rows keyed on %v, key %v: chain %v, a scan keeps %v", n, comps, key, got, want)
				}
			}
			key := make([]iql.Value, len(comps))
			for _, el := range rows { // every key that is there
				for k, c := range comps {
					switch {
					case c == whole:
						key[k] = el
					case el.Kind == iql.KindTuple && c < len(el.Items()):
						key[k] = el.Items()[c]
					default:
						key[k] = pick()
					}
				}
				probe(key)
			}
			for i := 0; i < 200; i++ { // and keys that mostly are not
				for k := range key {
					key[k] = pick()
				}
				probe(key)
			}
		}
	}
}

// TestValueIndexFootprint: what the join-index cache is charged for an
// index beyond its rows stays within a quarter of the heap building the
// index allocates, for single and composite keys, so -cache-bytes bounds
// what it says; a build is three allocations whatever the row count and
// the arity, and a probe none. The sizes straddle the points where the
// table doubles.
func TestValueIndexFootprint(t *testing.T) {
	for _, n := range []int{32, 100, 1000, 1024, 1025, 5000, 100000} {
		rows := make([]iql.Value, n)
		var rowBytes int64
		for i := range rows {
			rows[i] = iql.Tuple(iql.Int(int64(i%500)), iql.Int(int64(i)), iql.Str("row"))
			rowBytes += rows[i].Footprint()
		}
		ext := iql.ExtentsFunc(func([]string) (iql.Value, error) { return iql.BagOf(rows), nil })
		for _, q := range []struct {
			comps []int
			text  string
		}{
			{[]int{0}, "count([x | k <- [7]; {a, b, x} <- <<t>>; a = k])"},
			{[]int{1, 0}, "count([x | k <- [7]; {a, b, x} <- <<t>>; b = k; a = k])"},
		} {
			var ix *iql.JoinIndex
			build := func() { ix = iql.NewJoinIndex(rows, q.comps) }
			measured := iqltest.AllocBytesPerRun(5, build)
			ev := iql.NewEvaluator(ext)
			ev.Indexes = iql.NewJoinIndexCache(0)
			if v, err := ev.Eval(iql.MustParse(q.text), nil); err != nil || v.I() < 1 {
				t.Fatalf("%s = %v, %v", q.text, v, err)
			}
			charged := float64(ev.Indexes.Stats().Bytes - rowBytes)
			if charged != float64(ix.Footprint()) || charged < 0.75*measured || charged > 1.25*measured {
				t.Errorf("%d rows keyed on %v: charged %.0f B beyond the rows, Footprint %d B, building it allocated %.0f B",
					n, q.comps, charged, ix.Footprint(), measured)
			}
			if n != 100 && n != 100000 {
				continue
			}
			if allocs := testing.AllocsPerRun(5, build); allocs > 3 {
				t.Errorf("%d rows keyed on %v: a build is %.0f allocations, want at most 3", n, q.comps, allocs)
			}
			key := make([]iql.Value, len(q.comps))
			for k := range key {
				key[k] = iql.Int(7)
			}
			found := 0
			if allocs := testing.AllocsPerRun(5, func() {
				for r := ix.Probe(key); r >= 0; r = ix.Next(r) {
					found++
				}
			}); allocs != 0 {
				t.Errorf("%d rows keyed on %v: a probe is %.0f allocations, want 0", n, q.comps, allocs)
			}
			if want := 6 * len(scanKey(rows, q.comps, key)); found != want || found == 0 {
				t.Errorf("%d rows keyed on %v: six probes walked %d rows, want %d", n, q.comps, found, want)
			}
		}
	}
}
