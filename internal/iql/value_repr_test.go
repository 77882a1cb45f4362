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
		readsAs(t, iql.String_(s), false, 0, 0, s, nil)
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
