package iql

import (
	"strings"
	"testing"
)

func mustEval(t *testing.T, src string, ext Extents) Value {
	t.Helper()
	ev := NewEvaluator(ext)
	v, err := ev.Eval(MustParse(src), nil)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

// RoundTripTexts print as text that parses back to what they parse to;
// FuzzParsePrint starts from them too.
var RoundTripTexts = []string{
	"42",
	"3.5",
	"'hello'",
	"True",
	"False",
	"Void",
	"Any",
	"x",
	"<<protein>>",
	"<<protein, accession_num>>",
	"{1, 2, 3}",
	"[1, 2, 3]",
	"[]",
	"[x | x <- <<protein>>]",
	"[{k, x} | {k, x} <- <<protein, accession_num>>; x = 'P1']",
	"[{'PEDRO', k} | k <- <<protein>>]",
	"(1 + 2)",
	"((1 + 2) * 3)",
	"(a ++ b)",
	"count(<<protein>>)",
	"distinct([1, 1, 2])",
	"Range Void Any",
	"Range [1, 2] Any",
	"if (x = 1) then 'one' else 'other'",
	"let y = 5 in (y + 1)",
	"(not True)",
	"(-x)",
	"[{k1, k2} | {k1, x} <- <<a, b>>; {k2, y} <- <<c, d>>; x = y]",
	"((if True then 1 else 2) + 1)",
	"(1 = (let x = 1 in x))",
	"(-(Range 1 Void))",
}

func TestParseRoundTrip(t *testing.T) {
	for _, src := range RoundTripTexts {
		e1, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		s1 := e1.String()
		e2, err := Parse(s1)
		if err != nil {
			t.Fatalf("re-parse %q (from %q): %v", s1, src, err)
		}
		if s1 != e2.String() {
			t.Errorf("round trip unstable: %q -> %q -> %q", src, s1, e2.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"[1, 2",
		"{1, 2",
		"<<a",
		"<<>>",
		"'unterminated",
		"1 +",
		"[x | ]",
		"if x then 1",
		"let x = 1",
		"count(",
		"1 2",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestArithmetic(t *testing.T) {
	cases := map[string]Value{
		"1 + 2":                  Int(3),
		"7 - 2":                  Int(5),
		"3 * 4":                  Int(12),
		"8 / 2":                  Int(4),
		"7 / 2":                  Float(3.5),
		"1.5 + 1":                Float(2.5),
		"-3":                     Int(-3),
		"'a' + 'b'":              Str("ab"),
		"1 = 1":                  Bool(true),
		"1 = 2":                  Bool(false),
		"1 <> 2":                 Bool(true),
		"2 < 3":                  Bool(true),
		"3 <= 3":                 Bool(true),
		"4 > 5":                  Bool(false),
		"'abc' < 'abd'":          Bool(true),
		"True and False":         Bool(false),
		"True or False":          Bool(true),
		"not False":              Bool(true),
		"1 = 1.0":                Bool(true),
		"if 1 = 1 then 2 else 3": Int(2),
		"let x = 4 in x * x":     Int(16),
	}
	for src, want := range cases {
		got := mustEval(t, src, NoExtents)
		if !got.Equal(want) {
			t.Errorf("%q = %s, want %s", src, got, want)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	cases := []string{
		"1 / 0",
		"x",
		"1 + 'a'",
		"'a' and True",
		"not 3",
		"[x | x <- 5]",
		"count(5)",
		"<<unknown>>",
		"nosuchfn(1)",
		"[x | x <- Any]",
		"1 < 'a'",
	}
	for _, src := range cases {
		ev := NewEvaluator(NoExtents)
		if _, err := ev.Eval(MustParse(src), nil); err == nil {
			t.Errorf("eval %q succeeded, want error", src)
		}
	}
}

func testExtents() Extents {
	return ExtentsFunc(func(parts []string) (Value, error) {
		key := strings.Join(parts, "|")
		switch key {
		case "protein":
			return Bag(Int(1), Int(2), Int(3)), nil
		case "protein|acc":
			return Bag(
				Tuple(Int(1), Str("P1")),
				Tuple(Int(2), Str("P2")),
				Tuple(Int(3), Str("P1")),
			), nil
		case "hit|protein":
			return Bag(
				Tuple(Int(10), Int(1)),
				Tuple(Int(11), Int(2)),
				Tuple(Int(12), Int(1)),
			), nil
		}
		return Value{}, &unknownErr{key}
	})
}

type unknownErr struct{ key string }

func (e *unknownErr) Error() string { return "unknown extent " + e.key }

func TestComprehensions(t *testing.T) {
	ext := testExtents()
	cases := map[string]Value{
		"[k | k <- <<protein>>]":                            Bag(Int(1), Int(2), Int(3)),
		"[k | k <- <<protein>>; k > 1]":                     Bag(Int(2), Int(3)),
		"[{'S', k} | k <- <<protein>>; k = 2]":              Bag(Tuple(Str("S"), Int(2))),
		"[x | {k, x} <- <<protein, acc>>]":                  Bag(Str("P1"), Str("P2"), Str("P1")),
		"[k | {k, x} <- <<protein, acc>>; x = 'P1']":        Bag(Int(1), Int(3)),
		"count(<<protein>>)":                                Int(3),
		"count(distinct([x | {k, x} <- <<protein, acc>>]))": Int(2),
		"sum([k | k <- <<protein>>])":                       Int(6),
		"max([k | k <- <<protein>>])":                       Int(3),
		"min([k | k <- <<protein>>])":                       Int(1),
		"avg([k | k <- <<protein>>])":                       Float(2),
		"[k | k <- <<protein>>] ++ [9]":                     Bag(Int(1), Int(2), Int(3), Int(9)),
		"member([x | {k, x} <- <<protein, acc>>], 'P2')":    Bool(true),
		"member([x | {k, x} <- <<protein, acc>>], 'P9')":    Bool(false),
		// Join: hits for proteins with accession P1.
		"[h | {h, p} <- <<hit, protein>>; {k, x} <- <<protein, acc>>; p = k; x = 'P1']": Bag(Int(10), Int(12), Int(12)),
	}
	// Note on the join case: protein 1 has acc P1 and protein 3 has acc
	// P1; hit 12 references protein 1, so pairs (10,P1@1), (12,P1@1)
	// and nothing for protein 3 except... recompute below.
	for src, want := range cases {
		got := mustEval(t, src, ext)
		if src == "[h | {h, p} <- <<hit, protein>>; {k, x} <- <<protein, acc>>; p = k; x = 'P1']" {
			// hits: 10->1, 11->2, 12->1; acc: 1->P1, 2->P2, 3->P1.
			// matches: (10,1,P1), (12,1,P1). Bag of [10, 12].
			want = Bag(Int(10), Int(12))
		}
		if !got.Equal(want) {
			t.Errorf("%q = %s, want %s", src, got, want)
		}
	}
}

func TestPatternMatching(t *testing.T) {
	ext := ExtentsFunc(func(parts []string) (Value, error) {
		return Bag(
			Tuple(Str("a"), Int(1)),
			Int(7), // shape mismatch: skipped by tuple patterns
			Tuple(Str("b"), Int(2)),
			Tuple(Str("a"), Int(3), Int(9)), // arity mismatch: skipped
		), nil
	})
	got := mustEval(t, "[v | {s, v} <- <<mixed>>]", ext)
	want := Bag(Int(1), Int(2))
	if !got.Equal(want) {
		t.Errorf("got %s want %s", got, want)
	}
	// Literal pattern filters by equality.
	got = mustEval(t, "[v | {'a', v} <- <<mixed>>]", ext)
	want = Bag(Int(1))
	if !got.Equal(want) {
		t.Errorf("literal pattern: got %s want %s", got, want)
	}
	// Wildcards bind nothing.
	got = mustEval(t, "[v | {_, v} <- <<mixed>>]", ext)
	want = Bag(Int(1), Int(2))
	if !got.Equal(want) {
		t.Errorf("wildcard pattern: got %s want %s", got, want)
	}
}

func TestRangeAndVoid(t *testing.T) {
	// Evaluating Range yields its lower bound; Void acts as empty.
	got := mustEval(t, "Range Void Any", NoExtents)
	if got.Len() != 0 || got.Kind != KindBag {
		t.Errorf("Range Void Any = %s, want []", got)
	}
	got = mustEval(t, "Range [1, 2] Any", NoExtents)
	if !got.Equal(Bag(Int(1), Int(2))) {
		t.Errorf("Range [1,2] Any = %s", got)
	}
	if !IsVoidAnyRange(MustParse("Range Void Any")) {
		t.Error("IsVoidAnyRange(Range Void Any) = false")
	}
	if IsVoidAnyRange(MustParse("Range [1] Any")) {
		t.Error("IsVoidAnyRange(Range [1] Any) = true")
	}
}

func TestStringBuiltins(t *testing.T) {
	cases := map[string]Value{
		"contains('abcdef', 'cde')":    Bool(true),
		"contains('abcdef', 'xyz')":    Bool(false),
		"startswith('protein', 'pro')": Bool(true),
		"endswith('protein', 'ein')":   Bool(true),
		"upper('abc')":                 Str("ABC"),
		"lower('ABC')":                 Str("abc"),
		"abs(-4)":                      Int(4),
		"abs(-4.5)":                    Float(4.5),
		"tostring(12)":                 Str("12"),
		"tofloat(3)":                   Float(3),
		"first([7, 8])":                Int(7),
		"flatten([[1], [2, 3]])":       Bag(Int(1), Int(2), Int(3)),
		"sort([3, 1, 2])":              Bag(Int(1), Int(2), Int(3)),
	}
	for src, want := range cases {
		got := mustEval(t, src, NoExtents)
		if !got.Equal(want) {
			t.Errorf("%q = %s, want %s", src, got, want)
		}
	}
}

func TestMaxStepsGuard(t *testing.T) {
	ev := &Evaluator{Ext: testExtents(), MaxSteps: 5}
	_, err := ev.Eval(MustParse("[{a, b, c} | a <- <<protein>>; b <- <<protein>>; c <- <<protein>>]"), nil)
	if err == nil {
		t.Fatal("expected step-limit error")
	}
	if !strings.Contains(err.Error(), "steps") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestSubstitution(t *testing.T) {
	e := MustParse("[{k, x} | {k, x} <- <<protein, acc>>; k > 1]")
	sub := SubstituteSchemes(e, func(parts []string) (Expr, bool) {
		if strings.Join(parts, "|") == "protein|acc" {
			return MustParse("<<p2, acc2>>"), true
		}
		return nil, false
	})
	if !strings.Contains(sub.String(), "<<p2, acc2>>") {
		t.Errorf("substitution failed: %s", sub)
	}
	// Original untouched.
	if !strings.Contains(e.String(), "<<protein, acc>>") {
		t.Errorf("original mutated: %s", e)
	}

	refs := UniqueSchemeRefs(MustParse("<<a>> ++ [x | x <- <<a>>; member(<<b, c>>, x)]"))
	if len(refs) != 2 {
		t.Fatalf("UniqueSchemeRefs = %v, want 2 refs", refs)
	}
}

func TestFreeVars(t *testing.T) {
	e := MustParse("[{k, v} | k <- <<t>>; v <- outer; k = bound]")
	fv := FreeVars(e)
	want := map[string]bool{"outer": true, "bound": true}
	if len(fv) != 2 || !want[fv[0]] || !want[fv[1]] {
		t.Errorf("FreeVars = %v, want outer and bound", fv)
	}
}

func TestValueKeySemantics(t *testing.T) {
	// Bags compare as multisets regardless of order.
	a := Bag(Int(1), Int(2), Int(2))
	b := Bag(Int(2), Int(1), Int(2))
	c := Bag(Int(1), Int(2))
	if !a.Equal(b) {
		t.Error("multiset equality failed")
	}
	if a.Equal(c) {
		t.Error("multiplicity ignored")
	}
	// Tuples are ordered.
	if Tuple(Int(1), Int(2)).Equal(Tuple(Int(2), Int(1))) {
		t.Error("tuple order ignored")
	}
	// Int/float cross equality.
	if !Int(2).Equal(Float(2.0)) {
		t.Error("2 != 2.0")
	}
	if Int(2).Equal(Float(2.5)) {
		t.Error("2 == 2.5")
	}
}
