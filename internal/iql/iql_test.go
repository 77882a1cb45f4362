package iql

import (
	"context"
	"fmt"
	"strings"
	"sync"
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

// TestParsesShareNoTokens: Parse lexes into a token buffer the next
// parse reuses, so an expression must hold nothing of it. Every round
// trip text is parsed, then all the others after it — from four
// goroutines at once, with failing parses between — and still prints
// as it did when it was parsed.
func TestParsesShareNoTokens(t *testing.T) {
	want := make([]string, len(RoundTripTexts))
	for i, src := range RoundTripTexts {
		want[i] = MustParse(src).String()
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held []Expr
			for i := range RoundTripTexts {
				src := RoundTripTexts[(i+g)%len(RoundTripTexts)]
				held = append(held, MustParse(src))
				if _, err := Parse(src + " <<"); err == nil {
					t.Errorf("%q parsed", src+" <<")
				}
			}
			for i, e := range held {
				if got := e.String(); got != want[(i+g)%len(RoundTripTexts)] {
					t.Errorf("%q prints as %q after later parses, not %q", RoundTripTexts[(i+g)%len(RoundTripTexts)], got, want[(i+g)%len(RoundTripTexts)])
				}
			}
		}()
	}
	wg.Wait()
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

// StepExtents are n proteins, an accession tuple for each, and a hit
// relation joining back to them.
func StepExtents(n int) Extents {
	prot := make([]Value, 0, n)
	acc := make([]Value, 0, n)
	hits := make([]Value, 0, n)
	for i := 0; i < n; i++ {
		prot = append(prot, Int(int64(i)))
		acc = append(acc, Tuple(Int(int64(i)), Str(fmt.Sprintf("P%d", i%7))))
		hits = append(hits, Tuple(Int(int64(i+1000)), Int(int64(i%n))))
	}
	return ExtentsFunc(func(parts []string) (Value, error) {
		switch strings.Join(parts, ",") {
		case "protein":
			return BagOf(prot), nil
		case "protein,acc":
			return BagOf(acc), nil
		case "hit,protein":
			return BagOf(hits), nil
		}
		return Value{}, fmt.Errorf("no extent %v", parts)
	})
}

// StepQueries are plain scans, filters, projections, equi-joins, nested
// comprehensions, aggregates and distinct over StepExtents;
// TestParallelMatchesSerial holds them to the reference too.
var StepQueries = []string{
	"[k | k <- <<protein>>]",
	"[k | k <- <<protein>>; k > 100]",
	"[{k, k * 2} | k <- <<protein>>]",
	"[x | {k, x} <- <<protein, acc>>; x = 'P3']",
	"[{h, x} | {h, p} <- <<hit, protein>>; {k, x} <- <<protein, acc>>; p = k]",
	"count([k | k <- <<protein>>; k > 10])",
	"distinct([x | {k, x} <- <<protein, acc>>])",
	"[count([j | j <- <<protein>>; j < k]) | k <- <<protein>>; k < 70]",
	"sort([x | {k, x} <- <<protein, acc>>; k > 50])",
}

// nestedExtents resolves <<view>> the way the query processor unfolds a
// virtual object: with an evaluator of its own, on the budget of the
// query that asked. It keeps the steps those evaluators report.
type nestedExtents struct {
	base   Extents
	budget *StepBudget
	steps  int
}

func (n *nestedExtents) Extent(parts []string) (Value, error) {
	if parts[0] != "view" {
		return n.base.Extent(parts)
	}
	ev := &Evaluator{Ext: n, Budget: n.budget}
	v, err := ev.Eval(MustParse("[{k, x} | {k, x} <- <<protein, acc>>; k > 3]"), nil)
	n.steps += ev.Steps()
	return v, err
}

// countingCtx counts how often evaluation polls for cancellation.
type countingCtx struct {
	context.Context
	polls int
}

func (c *countingCtx) Err() error {
	c.polls++
	return c.Context.Err()
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

// countingExtents counts Extent calls.
type countingExtents struct {
	ext   Extents
	calls int
}

func (c *countingExtents) Extent(parts []string) (Value, error) {
	c.calls++
	return c.ext.Extent(parts)
}

// TestParallelStepAccounting: Evaluator.Parallel is inert. An evaluator
// with a width wider than the machine takes exactly the steps of one
// without, asks the extent provider exactly as often, and a shared
// StepBudget's Used() is that step count.
func TestParallelStepAccounting(t *testing.T) {
	ext := StepExtents(300)
	for _, src := range StepQueries {
		plainExt := &countingExtents{ext: ext}
		plain := NewEvaluator(plainExt)
		if _, err := plain.Eval(MustParse(src), nil); err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		wantSteps := plain.Steps()

		wideExt := &countingExtents{ext: ext}
		wide := NewEvaluator(wideExt)
		wide.Parallel = 8
		if _, err := wide.Eval(MustParse(src), nil); err != nil {
			t.Fatalf("parallel(8) %q: %v", src, err)
		}
		if got := wide.Steps(); got != wantSteps {
			t.Errorf("%q: parallel(8) used %d steps, plain %d", src, got, wantSteps)
		}
		if got, want := wideExt.calls, plainExt.calls; got != want {
			t.Errorf("%q: parallel(8) made %d Extent calls, plain %d", src, got, want)
		}

		budget := &StepBudget{}
		withBudget := NewEvaluator(ext)
		withBudget.Parallel = 4
		withBudget.Budget = budget
		if _, err := withBudget.Eval(MustParse(src), nil); err != nil {
			t.Fatalf("budget %q: %v", src, err)
		}
		if got := budget.Used(); got != wantSteps {
			t.Errorf("%q: shared budget used %d steps, plain %d", src, got, wantSteps)
		}
	}
}

// TestParallelStepLimit: a step bound trips with the same error whether
// or not a Parallel width is set, via MaxSteps and via a shared budget.
func TestParallelStepLimit(t *testing.T) {
	ext := StepExtents(400)
	src := "[k | k <- <<protein>>]"

	plain := &Evaluator{Ext: ext, MaxSteps: 50}
	_, plainErr := plain.Eval(MustParse(src), nil)
	if plainErr == nil || plainErr.Error() != "iql: evaluation exceeded 50 steps" {
		t.Fatalf("MaxSteps=50 error = %v, want the limit's", plainErr)
	}

	wide := &Evaluator{Ext: ext, MaxSteps: 50, Parallel: 4}
	if _, err := wide.Eval(MustParse(src), nil); err == nil || err.Error() != plainErr.Error() {
		t.Fatalf("parallel MaxSteps error = %v, want %v", err, plainErr)
	}

	wide = &Evaluator{Ext: ext, Budget: &StepBudget{Max: 50}, Parallel: 4}
	if _, err := wide.Eval(MustParse(src), nil); err == nil || err.Error() != plainErr.Error() {
		t.Fatalf("parallel Budget error = %v, want %v", err, plainErr)
	}
}

// TestParallelStepsAndUsedAgree: however a query's steps are counted —
// taken one by one from a budget with a limit, or counted by each
// evaluator and added when its Eval returns — Steps() is the
// evaluator's own count and Used() the sum over every evaluator on the
// budget, the nested ones that unfold <<view>> included; the context is
// polled once on entry and once every ctxCheckInterval steps; and a
// limit one step short, through a shared budget or MaxSteps, fails with
// the limit's error. A Parallel width changes none of it.
func TestParallelStepsAndUsedAgree(t *testing.T) {
	exceeded := func(limit int) string { return fmt.Sprintf("iql: evaluation exceeded %d steps", limit) }
	base := StepExtents(300)
	for _, src := range append([]string{
		"[{k, x} | {k, x} <- <<view>>; x = 'P3']",
		"[{h, x} | {h, p} <- <<hit, protein>>; {k, x} <- <<view>>; p = k]",
	}, StepQueries...) {
		ref := &nestedExtents{base: base}
		free := &Evaluator{Ext: ref}
		if _, err := free.Eval(MustParse(src), nil); err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		wantSteps, wantUsed := free.Steps(), free.Steps()+ref.steps

		for _, limit := range []int{0, wantUsed, wantUsed + 1000, wantUsed - 1} {
			name := fmt.Sprintf("%q limit=%d", src, limit)
			budget := &StepBudget{Max: limit}
			ctx := &countingCtx{Context: context.Background()}
			ext := &nestedExtents{base: base, budget: budget}
			ev := &Evaluator{Ext: ext, Budget: budget, Ctx: ctx, Parallel: 4}
			_, err := ev.Eval(MustParse(src), nil)
			if limit == wantUsed-1 {
				if err == nil || err.Error() != exceeded(limit) {
					t.Errorf("%s: err %v, want the limit's", name, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := ev.Steps(); got != wantSteps {
				t.Errorf("%s: Steps() = %d, want %d", name, got, wantSteps)
			}
			if got := budget.Used(); got != wantUsed {
				t.Errorf("%s: Used() = %d, want %d", name, got, wantUsed)
			}
			if got := ext.steps; got != wantUsed-wantSteps {
				t.Errorf("%s: nested evaluators report %d steps, want %d", name, got, wantUsed-wantSteps)
			}
			if got, want := ctx.polls, 1+wantSteps/ctxCheckInterval; got != want {
				t.Errorf("%s: context polled %d times over %d steps, want %d", name, got, wantSteps, want)
			}
		}

		// MaxSteps alone, no budget: the same count, the same limit.
		ev := &Evaluator{Ext: &nestedExtents{base: base}, MaxSteps: wantSteps}
		if _, err := ev.Eval(MustParse(src), nil); err != nil || ev.Steps() != wantSteps {
			t.Errorf("%q MaxSteps=%d: Steps() = %d, err %v", src, wantSteps, ev.Steps(), err)
		}
		ev.MaxSteps = wantSteps - 1
		if _, err := ev.Eval(MustParse(src), nil); err == nil || err.Error() != exceeded(wantSteps-1) {
			t.Errorf("%q MaxSteps=%d: err %v, want the limit's", src, wantSteps-1, err)
		}
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
