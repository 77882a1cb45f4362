package iql

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property tests for the hash-based value runtime: hash–equality
// consistency. (The hash-bucketed Distinct, SortBag, member and bag
// equality are held to the reference evaluator's builtins in
// oracle_test.go.)

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
