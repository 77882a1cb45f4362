package iqltest

import (
	"fmt"
	"math"

	"github.com/dataspace/automed/internal/iql"
)

// Eval is the reference evaluator: what an IQL expression means, written
// as plainly as it can be, for tests to hold every way of evaluating one
// to. It walks the expression itself, binds names in a chain of scopes,
// runs a comprehension as nested loops over its qualifiers in order, and
// takes its builtins from Builtins. It shares nothing with iql.Evaluator
// but the syntax tree, the value constructors and the scalar Equal and
// Compare: no plan, no slots, no join index, no sink, no Selection.
//
// vars binds names around e, as an enclosing let would. Error texts are
// its own: whether an evaluation fails is what compares, not how it says
// so.
func Eval(e iql.Expr, ext iql.Extents, vars map[string]iql.Value) (iql.Value, error) {
	var s *scope
	for name, v := range vars {
		s = &scope{name: name, val: v, up: s}
	}
	return reference{ext}.eval(e, s)
}

// scope is one binding; the innermost is looked at first, so a name
// bound twice by one pattern is its last occurrence.
type scope struct {
	name string
	val  iql.Value
	up   *scope
}

func (s *scope) lookup(name string) (iql.Value, bool) {
	for ; s != nil; s = s.up {
		if s.name == name {
			return s.val, true
		}
	}
	return iql.Value{}, false
}

type reference struct{ ext iql.Extents }

func (r reference) eval(e iql.Expr, s *scope) (iql.Value, error) {
	switch n := e.(type) {
	case *iql.Lit:
		return n.Val, nil
	case *iql.Var:
		if v, ok := s.lookup(n.Name); ok {
			return v, nil
		}
		return iql.Value{}, fmt.Errorf("unbound %s", n.Name)
	case *iql.SchemeRef:
		if r.ext == nil {
			return iql.Value{}, fmt.Errorf("no extents for %s", n)
		}
		return r.ext.Extent(n.Parts)
	case *iql.TupleExpr:
		items, err := r.list(n.Elems, s)
		return iql.Tuple(items...), err
	case *iql.BagExpr:
		items, err := r.list(n.Elems, s)
		return iql.BagOf(items), err
	case *iql.Comp:
		var out []iql.Value
		err := r.comp(n, 0, s, &out)
		return iql.BagOf(out), err
	case *iql.Binary:
		return r.binary(n, s)
	case *iql.Unary:
		x, err := r.eval(n.X, s)
		if err != nil {
			return x, err
		}
		switch {
		case n.Op == "-" && x.Kind == iql.KindInt:
			return iql.Int(-x.I()), nil
		case n.Op == "-" && x.Kind == iql.KindFloat:
			return iql.Float(-x.F()), nil
		case n.Op == "not" && x.Kind == iql.KindBool:
			return iql.Bool(!x.B()), nil
		}
		return iql.Value{}, fmt.Errorf("%s of %s", n.Op, x.Kind)
	case *iql.Call:
		args, err := r.list(n.Args, s)
		if err != nil {
			return iql.Value{}, err
		}
		for _, b := range Builtins {
			if b.Name == n.Fn && b.Arity == len(args) {
				return b.Fn(args)
			}
		}
		return iql.Value{}, fmt.Errorf("no builtin %s of %d arguments", n.Fn, len(args))
	case *iql.RangeExpr:
		lo, err := r.eval(n.Lo, s)
		if lo.Kind == iql.KindVoid {
			return iql.Bag(), err
		}
		return lo, err
	case *iql.IfExpr:
		c, err := r.eval(n.Cond, s)
		switch {
		case err != nil:
			return c, err
		case c.Kind != iql.KindBool:
			return iql.Value{}, fmt.Errorf("if on %s", c.Kind)
		case c.B():
			return r.eval(n.Then, s)
		}
		return r.eval(n.Else, s)
	case *iql.LetExpr:
		v, err := r.eval(n.Val, s)
		if err != nil {
			return v, err
		}
		return r.eval(n.Body, &scope{name: n.Name, val: v, up: s})
	}
	return iql.Value{}, fmt.Errorf("no meaning for %T", e)
}

func (r reference) list(es []iql.Expr, s *scope) ([]iql.Value, error) {
	out := make([]iql.Value, len(es))
	for i, e := range es {
		v, err := r.eval(e, s)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// comp runs qualifier i onwards under s, appending a head value for
// every binding that passes them all.
func (r reference) comp(c *iql.Comp, i int, s *scope, out *[]iql.Value) error {
	if i == len(c.Quals) {
		v, err := r.eval(c.Head, s)
		if err != nil {
			return err
		}
		*out = append(*out, v)
		return nil
	}
	switch q := c.Quals[i].(type) {
	case *iql.Filter:
		v, err := r.eval(q.Cond, s)
		switch {
		case err != nil:
			return err
		case v.Kind != iql.KindBool:
			return fmt.Errorf("filter on %s", v.Kind)
		case !v.B():
			return nil
		}
		return r.comp(c, i+1, s, out)
	case *iql.Generator:
		src, err := r.eval(q.Src, s)
		if err != nil {
			return err
		}
		els, err := elements(src)
		if err != nil {
			return err
		}
		for _, el := range els {
			if inner, ok := bind(q.Pat, el, s); ok {
				if err := r.comp(c, i+1, inner, out); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return fmt.Errorf("no meaning for %T", c.Quals[i])
}

// bind matches el against p, binding its variables in order on top of s.
func bind(p iql.Pattern, el iql.Value, s *scope) (*scope, bool) {
	switch p := p.(type) {
	case *iql.VarPat:
		if p.Name == "_" {
			return s, true
		}
		return &scope{name: p.Name, val: el, up: s}, true
	case *iql.LitPat:
		return s, equal(p.Val, el)
	case *iql.TuplePat:
		if el.Kind != iql.KindTuple || el.Len() != len(p.Elems) {
			return s, false
		}
		ok := true
		for i, sub := range p.Elems {
			if s, ok = bind(sub, el.Items()[i], s); !ok {
				break
			}
		}
		return s, ok
	}
	return s, false
}

func (r reference) binary(n *iql.Binary, s *scope) (iql.Value, error) {
	l, err := r.eval(n.L, s)
	if err != nil {
		return l, err
	}
	if n.Op == "and" || n.Op == "or" {
		if l.Kind != iql.KindBool {
			return iql.Value{}, fmt.Errorf("%s on %s", n.Op, l.Kind)
		}
		if l.B() == (n.Op == "or") {
			return l, nil
		}
		rv, err := r.eval(n.R, s)
		if err == nil && rv.Kind != iql.KindBool {
			err = fmt.Errorf("%s on %s", n.Op, rv.Kind)
		}
		return rv, err
	}
	rv, err := r.eval(n.R, s)
	if err != nil {
		return rv, err
	}
	switch n.Op {
	case "=":
		return iql.Bool(equal(l, rv)), nil
	case "<>":
		return iql.Bool(!equal(l, rv)), nil
	case "<", "<=", ">", ">=":
		c, err := l.Compare(rv)
		if err != nil {
			return iql.Value{}, err
		}
		if isNaN(l) || isNaN(rv) {
			return iql.Bool(false), nil
		}
		return iql.Bool(map[string]bool{"<": c < 0, "<=": c <= 0, ">": c > 0, ">=": c >= 0}[n.Op]), nil
	case "++":
		a, err := elements(l)
		if err != nil {
			return iql.Value{}, err
		}
		b, err := elements(rv)
		return iql.BagOf(append(append([]iql.Value{}, a...), b...)), err
	}
	return arith(n.Op, l, rv)
}

// arith is + - * /: strings concatenate under +; two ints stay ints
// (wrapping), but for a division that leaves a remainder; anything with a
// float is a float; division by zero fails.
func arith(op string, l, r iql.Value) (iql.Value, error) {
	if op == "+" && l.Kind == iql.KindString && r.Kind == iql.KindString {
		return iql.Str(l.S() + r.S()), nil
	}
	if !isNumber(l) || !isNumber(r) {
		return iql.Value{}, fmt.Errorf("%s on %s and %s", op, l.Kind, r.Kind)
	}
	ints := l.Kind == iql.KindInt && r.Kind == iql.KindInt
	i, j, a, b := l.I(), r.I(), l.AsFloat(), r.AsFloat()
	switch {
	case op == "/" && b == 0:
		return iql.Value{}, fmt.Errorf("division by zero")
	case op == "/" && ints && i%j == 0:
		return iql.Int(i / j), nil
	case op == "/":
		return iql.Float(a / b), nil
	case ints:
		return iql.Int(map[string]int64{"+": i + j, "-": i - j, "*": i * j}[op]), nil
	}
	return iql.Float(map[string]float64{"+": a + b, "-": a - b, "*": a * b}[op]), nil
}

// equal is the '=' of IQL: scalars by Equal (an int equals a float of
// exactly its value, NaN nothing), tuples by component, bags as
// multisets.
func equal(a, b iql.Value) bool { return same(a, b, false, iql.Value.Equal) }

// same compares a and b structurally, scalars by eq; bags element by
// element when ordered, else as multisets: each element of a takes the
// first unused element of b it matches.
func same(a, b iql.Value, ordered bool, eq func(x, y iql.Value) bool) bool {
	if a.Kind != b.Kind && (a.Kind == iql.KindTuple || a.Kind == iql.KindBag || b.Kind == iql.KindTuple || b.Kind == iql.KindBag) {
		return false
	}
	if a.Kind != iql.KindTuple && a.Kind != iql.KindBag {
		return eq(a, b)
	}
	if a.Len() != b.Len() {
		return false
	}
	used := make([]bool, b.Len())
next:
	for i, x := range a.Items() {
		for j, y := range b.Items() {
			if (a.Kind == iql.KindBag && !ordered || i == j) && !used[j] && same(x, y, ordered, eq) {
				used[j] = true
				continue next
			}
		}
		return false
	}
	return true
}

// Same reports whether two answers are one value: of one shape, their
// bags' elements in the same order, and scalars of one kind with one
// value — a float's bits, any NaN alike. It is how an evaluation is held
// to Eval, whose order is the nested loops' and what first and tostring
// show.
func Same(a, b iql.Value) bool {
	return same(a, b, true, func(x, y iql.Value) bool {
		if x.Kind != y.Kind {
			return false
		}
		if x.Kind == iql.KindFloat {
			return math.Float64bits(x.F()) == math.Float64bits(y.F()) || isNaN(x) && isNaN(y)
		}
		return x.Equal(y)
	})
}

// Alike is Same up to what the order of a bag's elements may change: the
// order itself, and of an int and a float of its value, which distinct
// keeps and which max answers. It is how an answer over permuted extents
// is held to the answer over the extents as they were.
func Alike(a, b iql.Value) bool {
	return same(a, b, false, func(x, y iql.Value) bool { return x.Equal(y) || isNaN(x) && isNaN(y) })
}

func elements(v iql.Value) ([]iql.Value, error) {
	switch v.Kind {
	case iql.KindBag:
		return v.Items(), nil
	case iql.KindVoid:
		return nil, nil
	}
	return nil, fmt.Errorf("%s is not a collection", v.Kind)
}

func isNumber(v iql.Value) bool { return v.Kind == iql.KindInt || v.Kind == iql.KindFloat }

func isNaN(v iql.Value) bool { return v.Kind == iql.KindFloat && math.IsNaN(v.F()) }

// Mismatch describes how an evaluation's outcome differs from Eval's, or
// returns "" when they agree: both fail, or neither does and the values
// are Same.
func Mismatch(got iql.Value, err error, want iql.Value, wantErr error) string {
	switch {
	case (err == nil) != (wantErr == nil):
		return fmt.Sprintf("%s, %v; the reference: %s, %v", got, err, want, wantErr)
	case err == nil && !Same(got, want):
		return fmt.Sprintf("%s; the reference: %s", got, want)
	}
	return ""
}
