package iql

import (
	"strings"
	"sync/atomic"
)

// Expr is an IQL expression. Expressions are immutable once built, and
// may be evaluated by any number of goroutines at once; the rewriting
// helpers in subst.go return fresh trees.
type Expr interface {
	// String renders the expression in parseable IQL source syntax.
	String() string
	isExpr()
}

// Lit is a literal value (including the constants Void and Any).
type Lit struct {
	Val Value
}

// Var is a variable reference bound by a generator, let or function.
type Var struct {
	Name string
}

// SchemeRef references a schema object by scheme, e.g.
// <<protein, accession_num>>. Parts follow hdm.Scheme conventions but
// are kept as a plain slice to avoid a package dependency cycle.
type SchemeRef struct {
	Parts []string
}

// TupleExpr constructs a tuple {e1, …, en}.
type TupleExpr struct {
	Elems []Expr
}

// BagExpr constructs a literal bag [e1, …, en].
type BagExpr struct {
	Elems []Expr
}

// Comp is a comprehension [head | qual1; …; qualn].
type Comp struct {
	Head  Expr
	Quals []Qual

	// plan is the node's analysis, published by the first evaluation to
	// need it and shared by every later one (see planOf in opt.go).
	plan atomic.Pointer[compPlan]
}

// Binary is a binary operation. Op is one of
// "+", "-", "*", "/", "++", "=", "<>", "<", "<=", ">", ">=", "and", "or".
type Binary struct {
	Op   string
	L, R Expr
}

// Unary is a unary operation; Op is "-" or "not".
type Unary struct {
	Op string
	X  Expr
}

// Call applies a built-in function, e.g. count, sum, distinct, member.
type Call struct {
	Fn   string
	Args []Expr
}

// RangeExpr is the query form "Range ql qu" accompanying extend and
// contract transformations: ql and qu bound the extent of the object
// from below and above. Evaluating a RangeExpr yields its lower bound
// (certain answers); the processor inspects bounds explicitly.
type RangeExpr struct {
	Lo, Hi Expr
}

// IfExpr is a conditional "if c then a else b".
type IfExpr struct {
	Cond, Then, Else Expr
}

// LetExpr binds a name: "let x = e1 in e2".
type LetExpr struct {
	Name string
	Val  Expr
	Body Expr
}

func (*Lit) isExpr()       {}
func (*Var) isExpr()       {}
func (*SchemeRef) isExpr() {}
func (*TupleExpr) isExpr() {}
func (*BagExpr) isExpr()   {}
func (*Comp) isExpr()      {}
func (*Binary) isExpr()    {}
func (*Unary) isExpr()     {}
func (*Call) isExpr()      {}
func (*RangeExpr) isExpr() {}
func (*IfExpr) isExpr()    {}
func (*LetExpr) isExpr()   {}

// Qual is a comprehension qualifier: a Generator or a Filter.
type Qual interface {
	String() string
	isQual()
}

// Generator binds a pattern to successive elements of a collection:
// "pattern <- source".
type Generator struct {
	Pat Pattern
	Src Expr
}

// Filter keeps only bindings satisfying a boolean condition.
type Filter struct {
	Cond Expr
}

func (*Generator) isQual() {}
func (*Filter) isQual()    {}

// Pattern is a generator binding pattern.
type Pattern interface {
	String() string
	isPattern()
}

// VarPat binds a variable; the name "_" is a wildcard.
type VarPat struct {
	Name string
}

// TuplePat destructures a tuple component-wise; arity must match.
type TuplePat struct {
	Elems []Pattern
}

// LitPat matches only elements equal to a literal value.
type LitPat struct {
	Val Value
}

func (*VarPat) isPattern()   {}
func (*TuplePat) isPattern() {}
func (*LitPat) isPattern()   {}

// ---- String rendering (parseable round trip) ----

func (e *Lit) String() string { return e.Val.String() }
func (e *Var) String() string { return e.Name }

func (e *SchemeRef) String() string {
	return "<<" + strings.Join(e.Parts, ", ") + ">>"
}

func (e *TupleExpr) String() string {
	parts := make([]string, len(e.Elems))
	for i, x := range e.Elems {
		parts[i] = x.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

func (e *BagExpr) String() string {
	parts := make([]string, len(e.Elems))
	for i, x := range e.Elems {
		parts[i] = x.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

func (e *Comp) String() string {
	quals := make([]string, len(e.Quals))
	for i, q := range e.Quals {
		quals[i] = q.String()
	}
	return "[" + e.Head.String() + " | " + strings.Join(quals, "; ") + "]"
}

func (e *Binary) String() string {
	return "(" + operand(e.L) + " " + e.Op + " " + operand(e.R) + ")"
}

func (e *Unary) String() string {
	if e.Op == "not" {
		return "(not " + operand(e.X) + ")"
	}
	return "(" + e.Op + operand(e.X) + ")"
}

// operand parenthesises the forms that only begin an expression, so that
// as an operand they re-parse as themselves.
func operand(e Expr) string {
	switch e.(type) {
	case *IfExpr, *LetExpr, *RangeExpr:
		return "(" + e.String() + ")"
	}
	return e.String()
}

func (e *Call) String() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return e.Fn + "(" + strings.Join(args, ", ") + ")"
}

func (e *RangeExpr) String() string {
	return "Range " + atomString(e.Lo) + " " + atomString(e.Hi)
}

// atomString parenthesises non-atomic bound expressions so that
// "Range ql qu" re-parses unambiguously.
func atomString(e Expr) string {
	switch e.(type) {
	case *Lit, *Var, *SchemeRef, *TupleExpr, *BagExpr, *Comp, *Call:
		return e.String()
	default:
		return "(" + e.String() + ")"
	}
}

func (e *IfExpr) String() string {
	return "if " + e.Cond.String() + " then " + e.Then.String() + " else " + e.Else.String()
}

func (e *LetExpr) String() string {
	return "let " + e.Name + " = " + e.Val.String() + " in " + e.Body.String()
}

func (q *Generator) String() string { return q.Pat.String() + " <- " + q.Src.String() }
func (q *Filter) String() string    { return q.Cond.String() }

func (p *VarPat) String() string { return p.Name }

func (p *TuplePat) String() string {
	parts := make([]string, len(p.Elems))
	for i, e := range p.Elems {
		parts[i] = e.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

func (p *LitPat) String() string { return p.Val.String() }

// IsRange reports whether the expression is a Range query, optionally
// returning its bounds. Transformations whose query part is
// "Range Void Any" are the paper's "trivial" transformations.
func IsRange(e Expr) (lo, hi Expr, ok bool) {
	r, ok := e.(*RangeExpr)
	if !ok {
		return nil, nil, false
	}
	return r.Lo, r.Hi, true
}

// IsVoidAnyRange reports whether the expression is exactly
// "Range Void Any" — no information about the object's extent.
func IsVoidAnyRange(e Expr) bool {
	lo, hi, ok := IsRange(e)
	if !ok {
		return false
	}
	ll, ok1 := lo.(*Lit)
	hl, ok2 := hi.(*Lit)
	return ok1 && ok2 && ll.Val.Kind == KindVoid && hl.Val.Kind == KindAny
}

// Ref builds a SchemeRef expression from parts.
func Ref(parts ...string) Expr { return &SchemeRef{Parts: parts} }
