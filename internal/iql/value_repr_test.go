package iql_test

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/iql/iqltest"
)

// The representation: what a Value costs, and that the accessors over
// its shared words read as the six side-by-side fields they replaced
// did.

func TestValueSizeAndComparability(t *testing.T) {
	ty := reflect.TypeOf(iql.Value{})
	if ty.Size() > 32 {
		t.Errorf("a Value is %d bytes, want at most 32", ty.Size())
	}
	if ty.Comparable() {
		t.Error("Value is comparable: == and map keys would compile and compare strings and items by pointer")
	}
	if v := (iql.Value{}); !v.IsNull() || v.Kind != iql.KindNull {
		t.Errorf("the zero Value is %s, want null", v)
	}
}

// readsAs fails unless v's accessors return exactly these, whatever its
// kind: the one that matches the kind its content, the others zero.
func readsAs(t *testing.T, v iql.Value, b bool, i int64, f float64, s string, items []iql.Value) {
	t.Helper()
	if v.B() != b || v.I() != i || math.Float64bits(v.F()) != math.Float64bits(f) || v.S() != s {
		t.Errorf("%s %s reads B=%v I=%d F=%v S=%q, want %v %d %v %q", v.Kind, v, v.B(), v.I(), v.F(), v.S(), b, i, f, s)
	}
	if items == nil && v.Cap() != 0 {
		t.Errorf("%s %s: Cap() = %d, want 0", v.Kind, v, v.Cap())
	}
	got := v.Items()
	if (got == nil) != (items == nil) || len(got) != len(items) || cap(got) != len(got) {
		t.Errorf("%s %s: Items() has len %d cap %d nil=%v, want len %d nil=%v and no spare capacity",
			v.Kind, v, len(got), cap(got), got == nil, len(items), items == nil)
	} else if len(got) > 0 && &got[0] != &items[0] {
		t.Errorf("%s %s: Items() is a copy of the slice the constructor was given", v.Kind, v)
	}
}

// holds is readsAs for a tuple or bag just built from items, whose
// capacity — what Items() no longer says — is then Cap().
func holds(t *testing.T, v iql.Value, items []iql.Value) {
	t.Helper()
	readsAs(t, v, false, 0, 0, "", items)
	if v.Cap() != cap(items) {
		t.Errorf("%s %s: Cap() = %d, want %d", v.Kind, v, v.Cap(), cap(items))
	}
}

func TestConstructorAccessorRoundTrips(t *testing.T) {
	readsAs(t, iql.Null(), false, 0, 0, "", nil)
	readsAs(t, iql.Void(), false, 0, 0, "", nil)
	readsAs(t, iql.Any(), false, 0, 0, "", nil)
	readsAs(t, iql.Bool(true), true, 0, 0, "", nil)
	readsAs(t, iql.Bool(false), false, 0, 0, "", nil)
	for _, i := range iqltest.Ints {
		readsAs(t, iql.Int(i), false, i, 0, "", nil)
	}
	for _, f := range append(iqltest.NonFinite, iqltest.Floats...) {
		readsAs(t, iql.Float(f), false, 0, f, "", nil)
	}
	for _, s := range iqltest.Strings {
		readsAs(t, iql.Str(s), false, 0, 0, s, nil)
		readsAs(t, iql.Str(s), false, 0, 0, s, nil)
	}

	// A bag of no elements has nil items unless it was given an empty
	// slice; either way it is the same bag.
	empty := []iql.Value{}
	holds(t, iql.Bag(), nil)
	holds(t, iql.BagOf(nil), nil)
	holds(t, iql.Tuple(), nil)
	holds(t, iql.BagOf(empty), empty)
	holds(t, iql.Tuple(empty...), empty)
	if a, b := iql.Bag(), iql.BagOf(empty); !a.Equal(b) || a.Key() != b.Key() || a.Hash() != b.Hash() || a.String() != "[]" || b.String() != "[]" {
		t.Errorf("the nil bag %s and the empty bag %s differ", a, b)
	}
	// The empty string is the same string wherever it was cut from.
	if a, b := iql.Str(""), iql.Str(strings.Repeat("x", 3)[3:]); !a.Equal(b) || a.Key() != b.Key() || a.Hash() != b.Hash() || b.S() != "" {
		t.Errorf("%s and an empty substring %s differ", a, b)
	}

	r := rand.New(rand.NewSource(17))
	for n := 0; n < 2000; n++ {
		items := make([]iql.Value, 1+r.Intn(4), 8) // spare capacity the Value must not hand on
		for i := range items {
			items[i] = iqltest.Value(r, 2)
		}
		holds(t, iql.Tuple(items...), items)
		holds(t, iql.Bag(items...), items)
		holds(t, iql.BagOf(items), items)
		// Every nested value reads as its kind says and as nothing else.
		var walk func(v iql.Value)
		walk = func(v iql.Value) {
			switch v.Kind {
			case iql.KindBool:
				readsAs(t, v, v.B(), 0, 0, "", nil)
			case iql.KindInt:
				readsAs(t, v, false, v.I(), 0, "", nil)
			case iql.KindFloat:
				readsAs(t, v, false, 0, v.F(), "", nil)
			case iql.KindString:
				readsAs(t, v, false, 0, 0, v.S(), nil)
			case iql.KindTuple, iql.KindBag:
				readsAs(t, v, false, 0, 0, "", v.Items())
				for _, it := range v.Items() {
					walk(it)
				}
			default:
				readsAs(t, v, false, 0, 0, "", nil)
			}
		}
		walk(iql.BagOf(items))
	}
}

// TestItemsAreClipped: tuples are carved side by side out of one array,
// so the capacity after one is its neighbour; an append to Items() must
// copy, not write there.
func TestItemsAreClipped(t *testing.T) {
	cells := []iql.Value{iql.Int(1), iql.Str("a"), iql.Int(2), iql.Str("b")}
	first, second := iql.Tuple(cells[:2]...), iql.Tuple(cells[2:]...)
	grown := append(first.Items(), iql.Str("intruder"))
	if got := second.String(); got != "{2, 'b'}" || cells[2].I() != 2 {
		t.Errorf("appending to %s overwrote its neighbour: %s", first, got)
	}
	if len(grown) != 3 || first.Len() != 2 || first.String() != "{1, 'a'}" {
		t.Errorf("append gave %d items and left the tuple as %s", len(grown), first)
	}
}

// TestCompareIntsExactly: two ints compare as ints over the whole int64
// range — exactly one of <, = and > holds of any pair, also either side
// of ±2⁵³ where float64 ties neighbours, and the order is the one sort
// (and a SQL source's integer column) gives them. An int beside a float
// compares exactly too.
func TestCompareIntsExactly(t *testing.T) {
	holds := func(a int64, op string, b int64) bool {
		t.Helper()
		cmp := &iql.Binary{Op: op, L: &iql.Lit{Val: iql.Int(a)}, R: &iql.Lit{Val: iql.Int(b)}}
		v, err := iql.NewEvaluator(nil).Eval(cmp, nil)
		if err != nil || v.Kind != iql.KindBool {
			t.Fatalf("%d %s %d = %s, %v", a, op, b, v, err)
		}
		return v.B()
	}
	for _, a := range iqltest.Ints {
		for _, b := range iqltest.Ints {
			lt, eq, gt := holds(a, "<", b), holds(a, "=", b), holds(a, ">", b)
			if lt != (a < b) || eq != (a == b) || gt != (a > b) {
				t.Errorf("%d against %d: < %v, = %v, > %v", a, b, lt, eq, gt)
			}
			if le, ge := holds(a, "<=", b), holds(a, ">=", b); le != (a <= b) || ge != (a >= b) {
				t.Errorf("%d against %d: <= %v, >= %v", a, b, le, ge)
			}
		}
	}
	if !holds(9007199254740993, ">", 9007199254740992) {
		t.Error("9007199254740993 > 9007199254740992 is False")
	}

	// sort goes by canonical key, which is numeric order among
	// non-negative ints of one width — the neighbours of 2⁵³ and of the
	// top of the range, the pairs float64 ties — and max and min go by
	// Compare over any ints.
	for _, run := range [][]int64{{1<<53 + 1, 1<<53 - 1, 1 << 53}, {math.MaxInt64, math.MaxInt64 - 1}} {
		items := make([]iql.Value, len(run))
		for i, n := range run {
			items[i] = iql.Int(n)
		}
		sorted, err := iql.SortBag(iql.BagOf(items))
		if err != nil {
			t.Fatal(err)
		}
		for i, els := 1, sorted.Items(); i < len(els); i++ {
			if !holds(els[i-1].I(), "<", els[i].I()) {
				t.Errorf("sort puts %s before %s, and < disagrees", els[i-1], els[i])
			}
		}
	}
	all := make([]iql.Expr, len(iqltest.Ints))
	for i, n := range iqltest.Ints {
		all[i] = &iql.Lit{Val: iql.Int(n)}
	}
	for fn, want := range map[string]int64{"max": math.MaxInt64, "min": math.MinInt64} {
		v, err := iql.NewEvaluator(nil).Eval(&iql.Call{Fn: fn, Args: []iql.Expr{&iql.BagExpr{Elems: all}}}, nil)
		if err != nil || !v.Equal(iql.Int(want)) {
			t.Errorf("%s of the ints = %s, %v, want %d", fn, v, err, want)
		}
	}

	if c, err := iql.Int(1<<53 + 1).Compare(iql.Float(1 << 53)); err != nil || c != 1 {
		t.Errorf("2^53+1 against the float 2^53 = %d, %v: an int beside a float compares exactly", c, err)
	}

	// Equality is transitive where float64 ties neighbours, so what is
	// built on it answers alike in every element order.
	for src, want := range map[string]string{
		"[9007199254740992, 9007199254740993] = [9007199254740992.0, 9007199254740992.0]": "False",
		"[9007199254740992.0, 9007199254740992.0] = [9007199254740992, 9007199254740993]": "False",
		"count(distinct([9007199254740992, 9007199254740993, 9007199254740992.0]))":       "2",
		"count(distinct([9007199254740992, 9007199254740992.0, 9007199254740993]))":       "2",
		"count(distinct([9007199254740993, 9007199254740992.0, 9007199254740992]))":       "2",
		"member([9007199254740993], 9007199254740992.0)":                                  "False",
		"member([9007199254740992], 9007199254740992.0)":                                  "True",
		"9223372036854775807 < 9223372036854775808.0":                                     "True",
		"-9223372036854775807 - 1 = -9223372036854775808.0":                               "True",
		"2 < 2.5 and -2 > -2.5 and 3 = 3.0":                                               "True",
	} {
		if v, err := iql.NewEvaluator(nil).Eval(iql.MustParse(src), nil); err != nil || v.String() != want {
			t.Errorf("%s = %s, %v, want %s", src, v, err, want)
		}
	}
}

// TestEqualValuesShareAKey: two values are Equal iff their keys are
// identical, at every magnitude where an integral float is an int's
// value, so Equal bags sort alike — and since the key orders a bag's
// JSON, answer alike where their numbers print alike. 2⁶³ is no int's
// value, so it keeps a float's key.
func TestEqualValuesShareAKey(t *testing.T) {
	for _, f := range []float64{1e15, -1e15, 1e15 + 2, 1 << 53, 1e18, -0x1p63, 0x1p63 - 1024} {
		fv, iv := iql.Float(f), iql.Int(int64(f))
		if !fv.Equal(iv) {
			t.Fatalf("%s and %s are not Equal", fv, iv)
		}
		if fv.Key() != iv.Key() {
			t.Errorf("%s keys %q, the Equal %s %q", fv, fv.Key(), iv, iv.Key())
		}
		a, b := iql.Bag(fv, iql.Int(0)), iql.Bag(iv, iql.Int(0))
		sa, errA := iql.SortBag(a)
		sb, errB := iql.SortBag(b)
		if errA != nil || errB != nil || !sa.Items()[0].Equal(sb.Items()[0]) {
			t.Errorf("the Equal bags %s and %s sort as %s and %s (%v, %v)", a, b, sa, sb, errA, errB)
		}
	}
	a, b := iql.Bag(iql.Float(1e15), iql.Int(0)), iql.Bag(iql.Int(1e15), iql.Int(0))
	ja, _, errA := iql.AppendJSONAndText(nil, nil, a)
	jb, _, errB := iql.AppendJSONAndText(nil, nil, b)
	if errA != nil || errB != nil || string(ja) != string(jb) {
		t.Errorf("the Equal bags %s and %s answer %s and %s (%v, %v)", a, b, ja, jb, errA, errB)
	}
	if k := iql.Float(0x1p63).Key(); !strings.HasPrefix(k, "f") {
		t.Errorf("2^63 keys %q, an int's key", k)
	}
}

// TestSourceFloatReadsAsFloat: a source cell's float carries its digits
// in a word no accessor of a float reads, so it reads, compares, hashes
// and costs as the plain float does, and as nothing else.
func TestSourceFloatReadsAsFloat(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	floats := append(append([]float64{800 + r.Float64()*2000, r.Float64(), 0x1p-1022, -0x1p-1074}, iqltest.Floats...), iqltest.NonFinite...)
	for _, f := range floats {
		src, plain := iql.SourceFloat(f), iql.Float(f)
		readsAs(t, src, false, 0, f, "", nil)
		if src.Len() != -1 || src.Footprint() != 32 {
			t.Errorf("%s: Len() = %d, Footprint() = %d, want -1 and 32", src, src.Len(), src.Footprint())
		}
		if src.Hash() != plain.Hash() {
			t.Errorf("%s hashes %x, the plain float %x", src, src.Hash(), plain.Hash())
		}
		for _, w := range []iql.Value{plain, iql.SourceFloat(f), iql.Int(int64(f)), iql.Float(f + 1), iql.SourceFloat(-f)} {
			if src.Equal(w) != plain.Equal(w) || w.Equal(src) != w.Equal(plain) {
				t.Errorf("%s = %s is %v, the plain float's %v", src, w, src.Equal(w), plain.Equal(w))
			}
			c, err := src.Compare(w)
			cp, errp := plain.Compare(w)
			if c != cp || (err == nil) != (errp == nil) {
				t.Errorf("%s against %s compares %d, %v, the plain float %d, %v", src, w, c, err, cp, errp)
			}
		}
	}
}
