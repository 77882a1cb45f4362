// Package iqltest is what tests hold IQL evaluation to: Eval, the
// reference evaluator, and Builtins, the table it takes its builtins
// from (docs/iql.md prints it); worlds of extents and the queries over
// them to generate (NewWorld, EdgeWorld, Corpus); and random nested
// values whose scalars are drawn from the edges where an implementation
// and its reference come apart. It also holds the byte-counting twin of
// testing.AllocsPerRun and the least of several measurements, for the
// tests that pin what a row or an answer costs.
package iqltest

import (
	"math"
	"math/rand"
	"runtime"

	"github.com/dataspace/automed/internal/iql"
)

// Strings are the string scalars worth encoding: both quote kinds, the
// backslash, control bytes, the characters HTML escaping would touch,
// the two separators JSON escapes although they are valid, invalid
// UTF-8, and multi-byte text.
var Strings = []string{
	"", "a", "P00042", "it's", `say "hi"`, `back\slash`, `\'`,
	"tab\there", "line\nfeed", "\r\b\f", "nul\x00byte", "\x1f\x7f",
	"<script>&amp;</script>", "sep\u2028and\u2029", "bad\xffutf8", "\xc3", "\xe2\x80",
	"héllo wörld", "日本語", "😀", "s3:abc", "t(i1)", ",", ")",
}

// Ints are the integer scalars worth encoding: the ends of the range
// and their neighbours, the values either side of zero, values whose
// decimal keys do not sort numerically, and the values either side of
// ±2⁵³, which float64 cannot tell from their neighbours.
var Ints = []int64{0, 1, -1, 5, 9, 10, 11, 100, -5, -10,
	1<<53 - 1, 1 << 53, 1<<53 + 1, -(1 << 53) - 1, -(1 << 53), -(1 << 53) + 1,
	math.MaxInt64 - 1, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}

// Floats are the finite float scalars worth encoding: negative zero,
// integral floats that tie with Ints under the canonical key, and the
// magnitudes either side of the exponent cutoffs of JSON (1e-6, 1e21)
// and of %g (1e-4, 1e21).
var Floats = []float64{
	0, math.Copysign(0, -1), 5, 5.5, -5, 10, 0.1, 1e-4, 1e-5, 1e-6, 1e-7, 9.99e-7,
	1e15, 1e20, 1e21, 1.5e21, 1e100, -1e-9, 123456789.125,
	math.MaxFloat64, math.SmallestNonzeroFloat64,
}

// NonFinite are the floats JSON cannot carry.
var NonFinite = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}

// Value returns a random value nested at most depth levels deep. Bags
// hold duplicates and may be empty; NonFinite floats never occur.
func Value(r *rand.Rand, depth int) iql.Value {
	kinds := 10
	if depth <= 0 {
		kinds = 8
	}
	switch r.Intn(kinds) {
	case 0:
		return iql.Null()
	case 1:
		return iql.Bool(r.Intn(2) == 0)
	case 2:
		if r.Intn(2) == 0 {
			return iql.Int(Ints[r.Intn(len(Ints))])
		}
		return iql.Int(int64(r.Intn(40) - 20))
	case 3:
		switch r.Intn(3) {
		case 0:
			return iql.Float(Floats[r.Intn(len(Floats))])
		case 1:
			return iql.Float(float64(r.Intn(40) - 20)) // ties with the small ints
		}
		return iql.Float(float64(r.Intn(4000)-2000) / 16)
	case 4, 5:
		if r.Intn(2) == 0 {
			return iql.Str(Strings[r.Intn(len(Strings))])
		}
		return iql.Str(Strings[r.Intn(len(Strings))] + Strings[r.Intn(len(Strings))])
	case 6:
		return iql.Void()
	case 7:
		return iql.Any()
	case 8:
		items := make([]iql.Value, r.Intn(4))
		for i := range items {
			items[i] = Value(r, depth-1)
		}
		return iql.Tuple(items...)
	}
	items := make([]iql.Value, 0, 8)
	for n := r.Intn(6); n > 0; n-- {
		items = append(items, Value(r, depth-1))
		if r.Intn(3) == 0 {
			items = append(items, items[r.Intn(len(items))])
		}
	}
	return iql.BagOf(items)
}

// Compose builds a value out of one string, one integer and one float,
// so that a fuzzer mutating the three reaches every scalar encoding.
// shape picks how they are nested: alone, as a row, as a bag of scalars
// with duplicates and an int beside its float, or as a bag of rows
// around a nested bag.
func Compose(s string, i int64, x float64, shape uint8) iql.Value {
	row := iql.Tuple(iql.Str(s), iql.Int(i), iql.Float(x))
	switch shape % 6 {
	case 0:
		return iql.Str(s)
	case 1:
		return iql.Float(x)
	case 2:
		return row
	case 3:
		return iql.Bag(iql.Float(x), iql.Int(i), iql.Float(float64(i)), iql.Str(s), iql.Int(i),
			iql.Null(), iql.Bool(i%2 == 0), iql.Void(), iql.Any(), iql.Str(s+s), iql.Float(-x))
	case 4:
		return iql.Bag(row, iql.Tuple(iql.Str(s), iql.Float(float64(i)), iql.Float(x)), iql.Tuple(), iql.Bag(), row,
			iql.Tuple(iql.Bag(iql.Str(s), iql.Int(i)), iql.Bag(iql.Int(i), iql.Str(s))))
	}
	return iql.Tuple(iql.Bag(), iql.Bag(row, row), iql.Int(i))
}

// AllocBytesPerRun is testing.AllocsPerRun counting bytes: the average
// number of heap bytes a call of f allocates, after one call to warm
// up, with the scheduler held to one thread as AllocsPerRun holds it.
func AllocBytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// Least returns the least of tries measurements. It is what a pin on
// code that takes its buffers from a sync.Pool compares, measuring one
// run at a time: a collection empties a pool and the race detector's
// build makes Put drop a quarter of what it is handed, so some runs pay
// for buffers, not for what the pin is about, and a mean carries them.
func Least(tries int, measure func() float64) float64 {
	least := math.Inf(1)
	for i := 0; i < tries; i++ {
		least = min(least, measure())
	}
	return least
}
