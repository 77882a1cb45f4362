package iql

import (
	"testing"
)

func TestLexerComments(t *testing.T) {
	v := mustEval(t, "1 + 2 -- trailing comment", NoExtents)
	if !v.Equal(Int(3)) {
		t.Errorf("comment handling broke eval: %s", v)
	}
	v = mustEval(t, "-- leading\n7", NoExtents)
	if !v.Equal(Int(7)) {
		t.Errorf("leading comment: %s", v)
	}
}

func TestStringEscapes(t *testing.T) {
	cases := map[string]string{
		`'plain'`:       "plain",
		`'don\'t'`:      "don't",
		`'back\\slash'`: `back\slash`,
		`'trail\\'`:     `trail\`,
		`'\\\''`:        `\'`,
	}
	for src, want := range cases {
		v := mustEval(t, src, NoExtents)
		if v.Kind != KindString || v.S() != want {
			t.Errorf("%s = %q, want %q", src, v.S(), want)
		}
		// And re-render round trips.
		back := mustEval(t, v.String(), NoExtents)
		if back.S() != want {
			t.Errorf("re-render of %q = %q", want, back.S())
		}
	}
}

func TestSchemeWithSpacesLexes(t *testing.T) {
	// The paper writes <<protein, accession num>> with an embedded
	// space.
	e, err := Parse("[x | {k, x} <- <<protein, accession num>>]")
	if err != nil {
		t.Fatal(err)
	}
	refs := SchemeRefs(e)
	if len(refs) != 1 || refs[0][1] != "accession num" {
		t.Errorf("refs = %v", refs)
	}
}

func TestFloatLexing(t *testing.T) {
	cases := map[string]Value{
		"1.5":    Float(1.5),
		"2e3":    Float(2000),
		"2.5e-1": Float(0.25),
		"7":      Int(7),
	}
	for src, want := range cases {
		v := mustEval(t, src, NoExtents)
		if !v.Equal(want) {
			t.Errorf("%s = %s, want %s", src, v, want)
		}
	}
	// "2e" is an identifier error, not a float.
	if _, err := Parse("2e"); err == nil {
		t.Error("2e parsed")
	}
}

func TestNestedComprehensions(t *testing.T) {
	ext := testExtents()
	// A comprehension in the head of another.
	v := mustEval(t, "[{k, count([h | {h, p} <- <<hit, protein>>; p = k])} | k <- <<protein>>]", ext)
	want := Bag(
		Tuple(Int(1), Int(2)),
		Tuple(Int(2), Int(1)),
		Tuple(Int(3), Int(0)),
	)
	if !v.Equal(want) {
		t.Errorf("nested = %s, want %s", v, want)
	}
}

func TestLetAndIfInsideComprehension(t *testing.T) {
	ext := testExtents()
	v := mustEval(t,
		"[if k > 1 then 'big' else 'small' | k <- <<protein>>]", ext)
	if !v.Equal(Bag(Str("small"), Str("big"), Str("big"))) {
		t.Errorf("if in head = %s", v)
	}
	v = mustEval(t, "let n = 2 in [k | k <- <<protein>>; k >= n]", ext)
	if !v.Equal(Bag(Int(2), Int(3))) {
		t.Errorf("let around comp = %s", v)
	}
}

func TestGeneratorOverDependentSource(t *testing.T) {
	// The inner generator's source depends on the outer binding: the
	// optimiser must not memoise it.
	ext := testExtents()
	v := mustEval(t, "[x | k <- <<protein>>; x <- [k, k * 10]]", ext)
	want := Bag(Int(1), Int(10), Int(2), Int(20), Int(3), Int(30))
	if !v.Equal(want) {
		t.Errorf("dependent source = %s", v)
	}
}

func TestJoinOnLaterNonAdjacentFilter(t *testing.T) {
	// Equality filter separated from its generator by another filter:
	// first filter consumed by index, second evaluated normally.
	ext := testExtents()
	v := mustEval(t,
		"[h | {k, x} <- <<protein, acc>>; {h, p} <- <<hit, protein>>; p = k; h > 10]", ext)
	if !v.Equal(Bag(Int(11), Int(12))) {
		t.Errorf("join + residual filter = %s", v)
	}
}

func TestUnionOperatorWithVoid(t *testing.T) {
	v := mustEval(t, "Void ++ [1] ++ Void", NoExtents)
	if !v.Equal(Bag(Int(1))) {
		t.Errorf("Void union = %s", v)
	}
}

func TestAggregateEdgeCases(t *testing.T) {
	cases := map[string]Value{
		"sum([])":         Int(0),
		"count([])":       Int(0),
		"sum([1, 2.5])":   Float(3.5),
		"max(['a', 'b'])": Str("b"),
		"min(['a', 'b'])": Str("a"),
	}
	for src, want := range cases {
		v := mustEval(t, src, NoExtents)
		if !v.Equal(want) {
			t.Errorf("%s = %s, want %s", src, v, want)
		}
	}
	// avg/max/min of empty are null.
	for _, src := range []string{"avg([])", "max([])", "min([])"} {
		v := mustEval(t, src, NoExtents)
		if !v.IsNull() {
			t.Errorf("%s = %s, want null", src, v)
		}
	}
	// Mixed-kind aggregates error.
	ev := NewEvaluator(NoExtents)
	if _, err := ev.Eval(MustParse("sum(['a', 1])"), nil); err == nil {
		t.Error("sum over mixed kinds succeeded")
	}
	for _, src := range []string{"max(['a', 1])", "max([1, 'a'])", "min(['a', 1])", "min([1, 'a'])", "max([1, 'a', 2])"} {
		if v, err := ev.Eval(MustParse(src), nil); err == nil {
			t.Errorf("%s = %s over mixed kinds, want an error", src, v)
		}
	}
	// NaN is unordered: an ordered comparison with it is False, as '='
	// is, and max or min of a bag holding it is NaN, in any order.
	for src, want := range map[string]string{
		"let n = 1e308 * 10.0 - 1e308 * 10.0 in {n >= 1, n <= 1, n < 1, n > 1, n = 1, n <> 1}": "{False, False, False, False, False, True}",
		"let n = 1e308 * 10.0 - 1e308 * 10.0 in [x | x <- [n, 1, 2]; x >= 1]":                  "[1, 2]",
		"let n = 1e308 * 10.0 - 1e308 * 10.0 in {max([n, 1]), max([1, n]), min([1, n, 0])}":    "{NaN.0, NaN.0, NaN.0}",
	} {
		if v, err := ev.Eval(MustParse(src), nil); err != nil || v.String() != want {
			t.Errorf("%s = %s, %v, want %s", src, v, err, want)
		}
	}
}

func TestCompareEdgeCases(t *testing.T) {
	if _, err := Int(1).Compare(Str("a")); err == nil {
		t.Error("cross-kind Compare succeeded")
	}
	c, err := Int(1).Compare(Float(1.5))
	if err != nil || c >= 0 {
		t.Errorf("numeric cross Compare = %d %v", c, err)
	}
	c, err = Bool(false).Compare(Bool(true))
	if err != nil || c >= 0 {
		t.Errorf("bool Compare = %d %v", c, err)
	}
}
