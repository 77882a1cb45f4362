package iql

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genValue generates random IQL values of bounded depth.
func genValue(r *rand.Rand, depth int) Value {
	max := 7
	if depth <= 0 {
		max = 5
	}
	switch r.Intn(max) {
	case 0:
		return Int(int64(r.Intn(200) - 100))
	case 1:
		return Float(float64(r.Intn(1000)) / 16)
	case 2:
		return Str(randWord(r))
	case 3:
		return Bool(r.Intn(2) == 0)
	case 4:
		return Void()
	case 5:
		n := r.Intn(3)
		items := make([]Value, n)
		for i := range items {
			items[i] = genValue(r, depth-1)
		}
		return Tuple(items...)
	default:
		n := r.Intn(3)
		items := make([]Value, n)
		for i := range items {
			items[i] = genValue(r, depth-1)
		}
		return BagOf(items)
	}
}

func randWord(r *rand.Rand) string {
	const letters = "abcxyz_ '\\"
	n := r.Intn(8)
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[r.Intn(len(letters))]
	}
	return string(b)
}

type genVal struct{ v Value }

func (genVal) Generate(r *rand.Rand, size int) reflect.Value {
	return reflect.ValueOf(genVal{v: genValue(r, 3)})
}

func TestValueEqualMatchesKeyProperty(t *testing.T) {
	f := func(a, b genVal) bool {
		return a.v.Equal(b.v) == (a.v.Key() == b.v.Key())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestValueEqualReflexiveSymmetricProperty(t *testing.T) {
	f := func(a, b genVal) bool {
		if !a.v.Equal(a.v) {
			return false
		}
		return a.v.Equal(b.v) == b.v.Equal(a.v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestBagUnionPropertiesProperty(t *testing.T) {
	mkBag := func(g genVal) Value {
		if g.v.Kind == KindBag || g.v.Kind == KindVoid {
			return g.v
		}
		return Bag(g.v)
	}
	commutative := func(a, b genVal) bool {
		x, y := mkBag(a), mkBag(b)
		u1, err1 := Union(x, y)
		u2, err2 := Union(y, x)
		if err1 != nil || err2 != nil {
			return false
		}
		return u1.Equal(u2)
	}
	if err := quick.Check(commutative, &quick.Config{MaxCount: 500}); err != nil {
		t.Errorf("commutativity: %v", err)
	}
	associative := func(a, b, c genVal) bool {
		x, y, z := mkBag(a), mkBag(b), mkBag(c)
		ab, _ := Union(x, y)
		abc1, _ := Union(ab, z)
		bc, _ := Union(y, z)
		abc2, _ := Union(x, bc)
		return abc1.Equal(abc2)
	}
	if err := quick.Check(associative, &quick.Config{MaxCount: 500}); err != nil {
		t.Errorf("associativity: %v", err)
	}
	identity := func(a genVal) bool {
		x := mkBag(a)
		u, err := Union(x, Void())
		if err != nil {
			return false
		}
		els, _ := x.Elements()
		return u.Equal(BagOf(els))
	}
	if err := quick.Check(identity, &quick.Config{MaxCount: 500}); err != nil {
		t.Errorf("identity: %v", err)
	}
	cardinality := func(a, b genVal) bool {
		x, y := mkBag(a), mkBag(b)
		u, _ := Union(x, y)
		ex, _ := x.Elements()
		ey, _ := y.Elements()
		return u.Len() == len(ex)+len(ey)
	}
	if err := quick.Check(cardinality, &quick.Config{MaxCount: 500}); err != nil {
		t.Errorf("cardinality: %v", err)
	}
}

func TestDistinctIdempotentProperty(t *testing.T) {
	f := func(a genVal) bool {
		v := a.v
		if v.Kind != KindBag && v.Kind != KindVoid {
			v = Bag(v)
		}
		d1, err := Distinct(v)
		if err != nil {
			return false
		}
		d2, err := Distinct(d1)
		if err != nil {
			return false
		}
		return d1.Equal(d2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestValueStringParsesBackProperty(t *testing.T) {
	f := func(a genVal) bool {
		if a.v.IsNull() || containsNull(a.v) {
			return true // null has no literal syntax inside collections
		}
		e, err := Parse(a.v.String())
		if err != nil {
			return false
		}
		ev := NewEvaluator(NoExtents)
		got, err := ev.Eval(e, nil)
		if err != nil {
			return false
		}
		// Void parses back as the Void constant which evaluates to
		// itself; an empty bag stays an empty bag.
		return got.Equal(a.v) || (a.v.Kind == KindVoid && got.Kind == KindVoid)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
		t.Error(err)
	}
}

func containsNull(v Value) bool {
	if v.IsNull() {
		return true
	}
	for _, it := range v.Items() {
		if containsNull(it) {
			return true
		}
	}
	return false
}
