package iql

import "strings"

// Clone returns a deep copy of an expression tree.
func Clone(e Expr) Expr {
	return Rewrite(e, func(x Expr) (Expr, bool) { return nil, false })
}

// Rewrite walks an expression bottom-up applying f at every node. When f
// returns (replacement, true) the node is replaced wholesale (the
// replacement is not re-visited); otherwise the node is rebuilt from its
// rewritten children. The input tree is never mutated.
func Rewrite(e Expr, f func(Expr) (Expr, bool)) Expr {
	if e == nil {
		return nil
	}
	if r, ok := f(e); ok {
		return r
	}
	switch n := e.(type) {
	case *Lit:
		cp := *n
		return &cp
	case *Var:
		cp := *n
		return &cp
	case *SchemeRef:
		return &SchemeRef{Parts: append([]string(nil), n.Parts...)}
	case *TupleExpr:
		elems := make([]Expr, len(n.Elems))
		for i, x := range n.Elems {
			elems[i] = Rewrite(x, f)
		}
		return &TupleExpr{Elems: elems}
	case *BagExpr:
		elems := make([]Expr, len(n.Elems))
		for i, x := range n.Elems {
			elems[i] = Rewrite(x, f)
		}
		return &BagExpr{Elems: elems}
	case *Comp:
		quals := make([]Qual, len(n.Quals))
		for i, q := range n.Quals {
			switch qq := q.(type) {
			case *Generator:
				quals[i] = &Generator{Pat: clonePattern(qq.Pat), Src: Rewrite(qq.Src, f)}
			case *Filter:
				quals[i] = &Filter{Cond: Rewrite(qq.Cond, f)}
			}
		}
		return &Comp{Head: Rewrite(n.Head, f), Quals: quals}
	case *Binary:
		return &Binary{Op: n.Op, L: Rewrite(n.L, f), R: Rewrite(n.R, f)}
	case *Unary:
		return &Unary{Op: n.Op, X: Rewrite(n.X, f)}
	case *Call:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = Rewrite(a, f)
		}
		return &Call{Fn: n.Fn, Args: args}
	case *RangeExpr:
		return &RangeExpr{Lo: Rewrite(n.Lo, f), Hi: Rewrite(n.Hi, f)}
	case *IfExpr:
		return &IfExpr{Cond: Rewrite(n.Cond, f), Then: Rewrite(n.Then, f), Else: Rewrite(n.Else, f)}
	case *LetExpr:
		return &LetExpr{Name: n.Name, Val: Rewrite(n.Val, f), Body: Rewrite(n.Body, f)}
	}
	return e
}

func clonePattern(p Pattern) Pattern {
	switch pp := p.(type) {
	case *VarPat:
		cp := *pp
		return &cp
	case *LitPat:
		cp := *pp
		return &cp
	case *TuplePat:
		elems := make([]Pattern, len(pp.Elems))
		for i, e := range pp.Elems {
			elems[i] = clonePattern(e)
		}
		return &TuplePat{Elems: elems}
	}
	return p
}

// SubstituteSchemes replaces scheme references for which fn returns a
// replacement expression, calling fn once per reference. When fn
// replaces none, e itself is returned — with the analysis its
// comprehensions have been given, which a copy would have to work out
// again. Otherwise the result is a fresh tree, as Rewrite builds, with
// every replacement cloned so shared subtrees stay independent.
func SubstituteSchemes(e Expr, fn func(parts []string) (Expr, bool)) Expr {
	var repl map[*SchemeRef]Expr
	walk(e, func(x Expr) {
		if ref, ok := x.(*SchemeRef); ok {
			if r, ok := fn(ref.Parts); ok {
				if repl == nil {
					repl = make(map[*SchemeRef]Expr)
				}
				repl[ref] = r
			}
		}
	})
	if repl == nil {
		return e
	}
	return Rewrite(e, func(x Expr) (Expr, bool) {
		ref, ok := x.(*SchemeRef)
		if !ok {
			return nil, false
		}
		r, ok := repl[ref]
		if !ok {
			return nil, false
		}
		return Clone(r), true
	})
}

// SchemeRefs collects every scheme reference in the expression, in
// left-to-right order (with duplicates).
func SchemeRefs(e Expr) [][]string {
	var out [][]string
	walk(e, func(x Expr) {
		if ref, ok := x.(*SchemeRef); ok {
			out = append(out, append([]string(nil), ref.Parts...))
		}
	})
	return out
}

// UniqueSchemeRefs collects distinct scheme references (by joined key),
// preserving first-seen order.
func UniqueSchemeRefs(e Expr) [][]string {
	seen := make(map[string]bool)
	var out [][]string
	for _, r := range SchemeRefs(e) {
		k := strings.Join(r, "|")
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// FreeVars returns the variable names that occur free in the expression
// (not bound by an enclosing generator pattern or let), in first-seen
// order.
func FreeVars(e Expr) []string {
	var out []string
	seen := make(map[string]bool)
	freeVars(e, map[string]bool{}, seen, &out)
	return out
}

func freeVars(e Expr, bound map[string]bool, seen map[string]bool, out *[]string) {
	switch n := e.(type) {
	case nil:
		return
	case *Var:
		if !bound[n.Name] && !seen[n.Name] {
			seen[n.Name] = true
			*out = append(*out, n.Name)
		}
	case *Lit, *SchemeRef:
	case *TupleExpr:
		for _, x := range n.Elems {
			freeVars(x, bound, seen, out)
		}
	case *BagExpr:
		for _, x := range n.Elems {
			freeVars(x, bound, seen, out)
		}
	case *Comp:
		inner := copyBound(bound)
		for _, q := range n.Quals {
			switch qq := q.(type) {
			case *Generator:
				freeVars(qq.Src, inner, seen, out)
				bindPatternVars(qq.Pat, inner)
			case *Filter:
				freeVars(qq.Cond, inner, seen, out)
			}
		}
		freeVars(n.Head, inner, seen, out)
	case *Binary:
		freeVars(n.L, bound, seen, out)
		freeVars(n.R, bound, seen, out)
	case *Unary:
		freeVars(n.X, bound, seen, out)
	case *Call:
		for _, a := range n.Args {
			freeVars(a, bound, seen, out)
		}
	case *RangeExpr:
		freeVars(n.Lo, bound, seen, out)
		freeVars(n.Hi, bound, seen, out)
	case *IfExpr:
		freeVars(n.Cond, bound, seen, out)
		freeVars(n.Then, bound, seen, out)
		freeVars(n.Else, bound, seen, out)
	case *LetExpr:
		freeVars(n.Val, bound, seen, out)
		inner := copyBound(bound)
		inner[n.Name] = true
		freeVars(n.Body, inner, seen, out)
	}
}

func copyBound(m map[string]bool) map[string]bool {
	c := make(map[string]bool, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

func bindPatternVars(p Pattern, bound map[string]bool) {
	switch pp := p.(type) {
	case *VarPat:
		if pp.Name != "_" {
			bound[pp.Name] = true
		}
	case *TuplePat:
		for _, e := range pp.Elems {
			bindPatternVars(e, bound)
		}
	}
}

// patternBinds reports whether p binds name; "_" is bound by nothing.
func patternBinds(p Pattern, name string) bool {
	switch pp := p.(type) {
	case *VarPat:
		return pp.Name == name && name != "_"
	case *TuplePat:
		for _, e := range pp.Elems {
			if patternBinds(e, name) {
				return true
			}
		}
	}
	return false
}

// walk visits every expression node top-down.
func walk(e Expr, f func(Expr)) {
	if e == nil {
		return
	}
	f(e)
	switch n := e.(type) {
	case *TupleExpr:
		for _, x := range n.Elems {
			walk(x, f)
		}
	case *BagExpr:
		for _, x := range n.Elems {
			walk(x, f)
		}
	case *Comp:
		walk(n.Head, f)
		for _, q := range n.Quals {
			switch qq := q.(type) {
			case *Generator:
				walk(qq.Src, f)
			case *Filter:
				walk(qq.Cond, f)
			}
		}
	case *Binary:
		walk(n.L, f)
		walk(n.R, f)
	case *Unary:
		walk(n.X, f)
	case *Call:
		for _, a := range n.Args {
			walk(a, f)
		}
	case *RangeExpr:
		walk(n.Lo, f)
		walk(n.Hi, f)
	case *IfExpr:
		walk(n.Cond, f)
		walk(n.Then, f)
		walk(n.Else, f)
	case *LetExpr:
		walk(n.Val, f)
		walk(n.Body, f)
	}
}

// Equal reports whether two expressions are structurally identical.
func Equal(a, b Expr) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.String() == b.String()
}
