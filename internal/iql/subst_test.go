package iql

import (
	"strings"
	"testing"
)

// everyForm holds every kind of expression, qualifier and pattern node.
const everyForm = "let y = 2 in [{k, -x, 'a', Range Void Any} | {k, x, 3} <- <<protein, acc>>; " +
	"not (k > y); member([1, 2], k); v <- (if k = 1 then <<protein, acc>> else <<t>>)] ++ <<t>>"

// nodesOf collects every node of e — expressions, qualifiers, patterns —
// and the first element of every slice one holds, by address.
func nodesOf(e Expr) map[any]bool {
	seen := map[any]bool{}
	var pattern func(p Pattern)
	pattern = func(p Pattern) {
		seen[p] = true
		if tp, ok := p.(*TuplePat); ok && len(tp.Elems) > 0 {
			seen[&tp.Elems[0]] = true
			for _, sub := range tp.Elems {
				pattern(sub)
			}
		}
	}
	var expr func(e Expr)
	exprs := func(xs []Expr) {
		if len(xs) > 0 {
			seen[&xs[0]] = true
		}
		for _, x := range xs {
			expr(x)
		}
	}
	expr = func(e Expr) {
		if e == nil {
			return
		}
		seen[e] = true
		switch n := e.(type) {
		case *SchemeRef:
			if len(n.Parts) > 0 {
				seen[&n.Parts[0]] = true
			}
		case *TupleExpr:
			exprs(n.Elems)
		case *BagExpr:
			exprs(n.Elems)
		case *Comp:
			expr(n.Head)
			if len(n.Quals) > 0 {
				seen[&n.Quals[0]] = true
			}
			for _, q := range n.Quals {
				seen[q] = true
				switch qq := q.(type) {
				case *Generator:
					pattern(qq.Pat)
					expr(qq.Src)
				case *Filter:
					expr(qq.Cond)
				}
			}
		case *Binary:
			expr(n.L)
			expr(n.R)
		case *Unary:
			expr(n.X)
		case *Call:
			exprs(n.Args)
		case *RangeExpr:
			expr(n.Lo)
			expr(n.Hi)
		case *IfExpr:
			expr(n.Cond)
			expr(n.Then)
			expr(n.Else)
		case *LetExpr:
			expr(n.Val)
			expr(n.Body)
		}
	}
	expr(e)
	return seen
}

// shared returns how many of b's nodes are a's too.
func shared(a, b Expr) int {
	in := nodesOf(a)
	n := 0
	for x := range nodesOf(b) {
		if in[x] {
			n++
		}
	}
	return n
}

// TestCloneSharesNoNode: a clone is a deep copy — callers edit theirs in
// place (core's deriveParent cuts its head's components) — and prints as
// its original.
func TestCloneSharesNoNode(t *testing.T) {
	e := MustParse(everyForm)
	c := Clone(e)
	if c.String() != e.String() {
		t.Errorf("clone prints %s, its original %s", c, e)
	}
	if n := shared(e, c); n > 0 {
		t.Errorf("the clone shares %d of its original's nodes", n)
	}
}

// TestSubstituteSchemesCopiesOnlyWhatChanges: substituting nothing is
// the input itself, which keeps the analysis its comprehensions were
// given; substituting anything is a fresh tree that prints as a rewrite
// of every node does, and shares no scheme reference — neither the
// input's nor the replacement's.
func TestSubstituteSchemesCopiesOnlyWhatChanges(t *testing.T) {
	e := MustParse(everyForm)
	refs := len(SchemeRefs(e))
	calls := 0
	none := SubstituteSchemes(e, func([]string) (Expr, bool) { calls++; return nil, false })
	if none != e {
		t.Errorf("substituting nothing made a new tree: %s", none)
	}
	if calls != refs {
		t.Errorf("the resolver was asked %d times for %d references", calls, refs)
	}

	repl := MustParse("<<p2, acc2>>")
	resolve := func(parts []string) (Expr, bool) {
		if strings.Join(parts, "|") == "protein|acc" {
			return repl, true
		}
		return nil, false
	}
	want := Rewrite(e, func(x Expr) (Expr, bool) {
		if ref, ok := x.(*SchemeRef); ok {
			if r, ok := resolve(ref.Parts); ok {
				return Clone(r), true
			}
		}
		return nil, false
	})
	before := e.String()
	sub := SubstituteSchemes(e, resolve)
	if sub.String() != want.String() || !strings.Contains(sub.String(), "<<p2, acc2>>") {
		t.Errorf("substituted %s, want %s", sub, want)
	}
	if e.String() != before {
		t.Errorf("the input was changed: %s", e)
	}
	for _, from := range []Expr{e, repl} {
		in := nodesOf(from)
		for x := range nodesOf(sub) {
			if _, isRef := x.(*SchemeRef); isRef && in[x] {
				t.Errorf("the substituted tree shares %s with %s", x, from)
			}
		}
	}
}
