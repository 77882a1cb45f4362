package iql

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// Property tests for the hash-based value runtime: hash–equality
// consistency, and equivalence of the hash-bucketed Distinct / SortBag
// / member implementations with the old canonical-key-string reference
// implementations they replaced.

// permuteBags returns a deep copy of v with every bag's element order
// shuffled: a multiset-equal but structurally reordered value.
func permuteBags(r *rand.Rand, v Value) Value {
	if len(v.Items()) == 0 {
		return v
	}
	items := make([]Value, len(v.Items()))
	for i, it := range v.Items() {
		items[i] = permuteBags(r, it)
	}
	if v.Kind == KindBag {
		r.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		return BagOf(items)
	}
	return Tuple(items...)
}

func TestHashEqualityConsistencyProperty(t *testing.T) {
	// v.Equal(w) must imply v.Hash() == w.Hash(). Random pairs rarely
	// collide, so also check each value against a bag-permuted copy of
	// itself (multiset-equal by construction).
	f := func(a, b genVal, seed int64) bool {
		if a.v.Equal(b.v) && a.v.Hash() != b.v.Hash() {
			t.Logf("equal values hash apart: %s vs %s", a.v, b.v)
			return false
		}
		perm := permuteBags(rand.New(rand.NewSource(seed)), a.v)
		if !a.v.Equal(perm) {
			t.Logf("bag permutation broke equality: %s vs %s", a.v, perm)
			return false
		}
		if a.v.Hash() != perm.Hash() {
			t.Logf("bag permutation changed hash: %s", a.v)
			return false
		}
		// Determinism: hashing is a pure function.
		return a.v.Hash() == a.v.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestHashNumericCrossKindProperty(t *testing.T) {
	f := func(n int32) bool {
		i, fl := Int(int64(n)), Float(float64(n))
		return i.Equal(fl) && i.Hash() == fl.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	if Int(0).Hash() != Float(negZero()).Hash() {
		t.Error("0 and -0.0 hash apart but compare equal")
	}
}

func negZero() float64 { z := 0.0; return -z }

// TestNaNNeverEqual pins the NaN policy: NaN compares unequal to
// everything, itself included, at every depth. The '=' operator always
// treated top-level NaN this way; the hash-based bag comparison made
// the behaviour uniform (canonical key strings used to render every
// NaN as "fNaN", so NaN was self-equal inside bags only).
func TestNaNNeverEqual(t *testing.T) {
	nan := Float(math.NaN())
	if nan.Equal(nan) {
		t.Error("NaN compares equal to itself")
	}
	if Bag(nan).Equal(Bag(nan)) {
		t.Error("bags of NaN compare equal")
	}
	if Tuple(nan).Equal(Tuple(nan)) {
		t.Error("tuples of NaN compare equal")
	}
	d, err := Distinct(Bag(nan, nan))
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 {
		t.Errorf("distinct deduplicated NaN: %s", d)
	}
}

// keyDistinct is the old canonical-key-string Distinct, kept as the
// reference implementation.
func keyDistinct(els []Value) []Value {
	seen := make(map[string]bool, len(els))
	out := make([]Value, 0, len(els))
	for _, e := range els {
		k := e.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, e)
		}
	}
	return out
}

// keyMember is the old canonical-key-string member scan.
func keyMember(els []Value, v Value) bool {
	k := v.Key()
	for _, e := range els {
		if e.Key() == k {
			return true
		}
	}
	return false
}

// asBag coerces a random value to a collection.
func asBag(g genVal) Value {
	if g.v.Kind == KindBag || g.v.Kind == KindVoid {
		return g.v
	}
	return Bag(g.v)
}

func TestDistinctMatchesKeyReferenceProperty(t *testing.T) {
	f := func(a genVal, dup genVal, seed int64) bool {
		bag := asBag(a)
		els, _ := bag.Elements()
		// Salt with duplicates so dedup actually fires.
		r := rand.New(rand.NewSource(seed))
		salted := append([]Value(nil), els...)
		for i := 0; i < 3 && len(els) > 0; i++ {
			salted = append(salted, permuteBags(r, els[r.Intn(len(els))]))
		}
		salted = append(salted, dup.v, dup.v)
		got, err := Distinct(BagOf(salted))
		if err != nil {
			return false
		}
		want := keyDistinct(salted)
		if len(got.Items()) != len(want) {
			t.Logf("distinct: got %s want %s", got, BagOf(want))
			return false
		}
		for i := range want {
			if got.Items()[i].String() != want[i].String() {
				t.Logf("distinct order: got %s want %s", got, BagOf(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Error(err)
	}
}

func TestMemberMatchesKeyReferenceProperty(t *testing.T) {
	f := func(a genVal, probe genVal, hit bool) bool {
		bag := asBag(a)
		els, _ := bag.Elements()
		v := probe.v
		if hit && len(els) > 0 {
			v = els[len(els)/2] // force a present element half the time
		}
		got := false
		for _, e := range els {
			if e.Equal(v) {
				got = true
				break
			}
		}
		return got == keyMember(els, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSortBagMatchesKeyReferenceProperty(t *testing.T) {
	// SortBag must order by canonical key exactly as the reference
	// decorate-stable-sort does, byte for byte (ties keep bag order).
	f := func(a genVal, seed int64) bool {
		bag := asBag(a)
		els, _ := bag.Elements()
		r := rand.New(rand.NewSource(seed))
		salted := append([]Value(nil), els...)
		if len(els) > 0 {
			salted = append(salted, els[r.Intn(len(els))])
		}
		got, err := SortBag(BagOf(salted))
		if err != nil {
			return false
		}
		type kv struct {
			k string
			v Value
		}
		dec := make([]kv, len(salted))
		for i, e := range salted {
			dec[i] = kv{k: e.Key(), v: e}
		}
		sort.SliceStable(dec, func(i, j int) bool { return dec[i].k < dec[j].k })
		if len(got.Items()) != len(dec) {
			return false
		}
		for i := range dec {
			if got.Items()[i].String() != dec[i].v.String() {
				t.Logf("sort: got %s", got)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Error(err)
	}
}

// TestValueSetMatchesEqual cross-checks ValueSet against quadratic
// Equal scans on random values.
func TestValueSetMatchesEqual(t *testing.T) {
	f := func(vals []genVal, probe genVal) bool {
		set := NewValueSet(len(vals))
		var kept []Value
		for _, g := range vals {
			inKept := false
			for _, k := range kept {
				if k.Equal(g.v) {
					inKept = true
					break
				}
			}
			if set.Add(g.v) == inKept {
				return false // Add must report the inverse of presence
			}
			if !inKept {
				kept = append(kept, g.v)
			}
		}
		if set.Len() != len(kept) {
			return false
		}
		want := false
		for _, k := range kept {
			if k.Equal(probe.v) {
				want = true
				break
			}
		}
		return set.Contains(probe.v) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
		t.Error(err)
	}
}

// TestBagEqualMatchesKeyReferenceProperty cross-checks the multiset
// bag equality against the canonical-key reference (sorted key
// comparison), including on permuted copies.
func TestBagEqualMatchesKeyReferenceProperty(t *testing.T) {
	keyOf := func(v Value) string { return v.Key() }
	ref := func(a, b Value) bool {
		ae, _ := a.Elements()
		be, _ := b.Elements()
		if len(ae) != len(be) {
			return false
		}
		ka := make([]string, len(ae))
		kb := make([]string, len(be))
		for i := range ae {
			ka[i] = keyOf(ae[i])
		}
		for i := range be {
			kb[i] = keyOf(be[i])
		}
		sort.Strings(ka)
		sort.Strings(kb)
		return reflect.DeepEqual(ka, kb)
	}
	f := func(a, b genVal, seed int64) bool {
		x, y := asBag(a), asBag(b)
		if x.Kind != KindBag {
			x = Bag()
		}
		if y.Kind != KindBag {
			y = Bag()
		}
		if x.Equal(y) != ref(x, y) {
			t.Logf("bag equal mismatch: %s vs %s", x, y)
			return false
		}
		perm := permuteBags(rand.New(rand.NewSource(seed)), x)
		return x.Equal(perm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Error(err)
	}
}
