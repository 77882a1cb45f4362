package iql

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"sync/atomic"
	"unsafe"
)

// Comprehension evaluation with light query optimisation, in the spirit
// of the AutoMed query processor's optimisation phase (Jasper et al.).
// Three rewrites are applied, all strictly semantics-preserving:
//
//  1. Constant-source memoisation: a generator whose source expression
//     has no free variables (e.g. a scheme reference) is evaluated once
//     per comprehension invocation, not once per enclosing binding.
//
//  2. Equi-join indexing: a generator followed by consecutive filters
//     "v = e" (or "e = v"), where each v is bound by the generator's
//     pattern and each e depends only on variables bound by *earlier*
//     generators, is executed by probing a hash index on the composite
//     of the v components instead of scanning and filtering. The index
//     buckets by structural Hash and confirms with Equal — exactly the
//     '=' operator's semantics — so results are identical.
//
//  3. Join-run replay: a run of joined generators whose matches depend
//     only on the extents they draw (see joinRun in joinrun.go) records,
//     the second time it is walked over the same element arrays, the
//     values each match binds that anything after the run reads, and the
//     steps the walk charged for each; every later evaluation over them
//     writes the recorded values into the comprehension's scope instead
//     of probing, and charges the recorded steps.
//
// The static analysis (how each variable resolves, which sources are
// constant, which filter runs are joinable, how each pattern binds,
// whether count can be asked of the source) depends only on the AST, so
// it is worked out once per *Comp node, by the first evaluation to meet
// it, and published on the node as its compPlan: every later evaluation
// of the node shares it, so a cached query is analysed once for every
// session that asks it and a derivation once for every query that
// unfolds it. A comprehension nested in another is analysed with it, on
// a copy of its node that the outer plan holds, as every variable is
// resolved where it stands (see resolver). What one evaluation of the
// node writes — memoised sources, join indexes, its scope, scratch rows
// — is a compCtx. One is parked on the plan between evaluations,
// emptied, and taken by the next, so a warm query, and a nested
// comprehension re-entered once per enclosing binding, allocate neither;
// an evaluation that finds none parked (re-entry, concurrent queries)
// makes its own.
type compPlan struct {
	comp  *Comp
	quals []qualPlan

	// head is the head, resolved; headTuple is it when it is a tuple
	// expression, which a sink that keeps no value is handed in a scratch
	// row (see head).
	head      Expr
	headTuple *TupleExpr

	// names are the variables the generators bind, by slot of the scope:
	// each generator's pattern's in turn, a repeated name once for each
	// occurrence. They are kept for errors and for explaining a plan.
	names []string

	// sel is what the comprehension keeps of its generator's extent when
	// that can be said as a Selection (see selectionOf), nil otherwise:
	// what count asks its extents for before it scans anything.
	sel *Selection

	// idle is the evaluation state the last evaluation left, emptied, for
	// the next one to take.
	idle atomic.Pointer[compCtx]
}

// qualPlan is one qualifier's analysis.
type qualPlan struct {
	expr     Expr       // the generator's source or the filter's condition, resolved
	constSrc bool       // source has no free variables
	joins    []joinCond // indexed equi-join conditions, one per following filter it subsumes (empty = scan)
	joinSpec string     // join-key component positions (index cache key)
	from, to int        // the slots the pattern binds
	pat      slotPat    // the pattern with its variables resolved to slots

	// run is the join run this generator is the first member of, and
	// ends the one it is the last member of (nil when it is neither).
	run, ends *joinRun
}

// compCtx is one evaluation of a comprehension: its plan and the state
// the evaluation writes.
type compCtx struct {
	ev   *Evaluator
	plan *compPlan

	// quals holds per-qualifier evaluation state, in one allocation.
	quals []qualState

	// scope is the comprehension's scope: every qualifier and the head are
	// evaluated in it, and each generator binds its pattern into its slots.
	// Its parent is the environment the evaluation was handed.
	scope Env

	// probeScratch holds the probe key's components between a probe's
	// evaluation and its index lookup; Probe never retains the key, so
	// one buffer serves every probe of the invocation.
	probeScratch []Value

	// headScratch is the row a sink that keeps no value is handed: a tuple
	// head's components are evaluated into it one row after another (see
	// head), so a row that is encoded or counted is never allocated.
	headScratch []Value

	// srcSteps counts the steps evaluating the generators' sources has
	// charged, which a join run's record leaves out (see joinrun.go).
	srcSteps int
}

// qualState is one qualifier's evaluation state, emptied by release.
type qualState struct {
	srcSet bool
	srcVal Value // memoised source value (valid when srcSet)
	index  *JoinIndex

	// A join run's state, on its first member's qualifier: the record
	// this context replays, once its arrays are known to be the
	// record's, and the recorder of a walk being recorded.
	replay   *runRecord
	recorder *runRecorder
}

// slotPat is a generator pattern compiled against the layout of the
// comprehension's scope: a variable is the position of its binding, so
// binding an element stores by position and neither compares names nor
// allocates.
type slotPat struct {
	kind  slotPatKind
	slot  int       // slotVar: index into the scope's bindings
	lit   *LitPat   // slotLit: the literal to match
	elems []slotPat // slotTuple: one per component
	flat  []int     // slotFlat: each component's slot, or -1 for "_"
}

type slotPatKind uint8

const (
	slotWild slotPatKind = iota // "_": matches anything, binds nothing
	slotVar
	slotLit
	slotTuple
	slotFlat // a tuple of variables and "_", bound without recursing
)

// compilePattern gives each of p's variables the next slot, appending
// its name to vars. A name repeated within the pattern takes a slot each
// time, and a variable resolves to the last (see resolver.ref), so the
// later occurrence wins, as successive Binds would have it.
func compilePattern(p Pattern, vars *[]string) slotPat {
	switch pat := p.(type) {
	case *VarPat:
		if pat.Name == "_" {
			return slotPat{kind: slotWild}
		}
		*vars = append(*vars, pat.Name)
		return slotPat{kind: slotVar, slot: len(*vars) - 1}
	case *LitPat:
		return slotPat{kind: slotLit, lit: pat}
	case *TuplePat:
		if !slices.ContainsFunc(pat.Elems, func(sub Pattern) bool { _, ok := sub.(*VarPat); return !ok }) {
			slots := make([]int, len(pat.Elems))
			for i, sub := range pat.Elems {
				slots[i] = -1
				if sp := compilePattern(sub, vars); sp.kind == slotVar {
					slots[i] = sp.slot
				}
			}
			return slotPat{kind: slotFlat, flat: slots}
		}
		elems := make([]slotPat, len(pat.Elems))
		for i, sub := range pat.Elems {
			elems[i] = compilePattern(sub, vars)
		}
		return slotPat{kind: slotTuple, elems: elems}
	}
	panic(fmt.Sprintf("iql: unknown pattern %T", p))
}

// bind matches v against the pattern, storing variable components into
// vals, and reports whether it matched. Arity mismatches on tuple
// patterns are a non-match rather than an error, so heterogeneous bags
// can be filtered by shape. A non-match may leave earlier components
// stored; the caller skips the element, so they are never read.
func (p *slotPat) bind(v Value, vals []Value) bool {
	switch p.kind {
	case slotWild:
		return true
	case slotVar:
		vals[p.slot] = v
		return true
	case slotLit:
		return p.lit.Val.Equal(v)
	case slotFlat:
		if v.Kind != KindTuple || v.n != len(p.flat) {
			return false
		}
		items := v.Items()
		for i, slot := range p.flat {
			if slot >= 0 {
				vals[slot] = items[i]
			}
		}
		return true
	}
	if v.Kind != KindTuple || v.n != len(p.elems) {
		return false
	}
	items := v.Items()
	for i := range p.elems {
		if !p.elems[i].bind(items[i], vals) {
			return false
		}
	}
	return true
}

// joinCond pairs the tuple component of the generator-bound variable
// (wholeElement for a bare-variable pattern) with the probe expression,
// resolved.
type joinCond struct {
	comp  int
	probe Expr
}

const wholeElement = -1

// planOf returns c's analysis, working it out if no evaluation has
// yet. Two evaluations that meet c first at once both analyse it, and
// both use the plan published first.
func planOf(c *Comp) *compPlan {
	if p := c.plan.Load(); p != nil {
		return p
	}
	c.plan.CompareAndSwap(nil, analyze(c))
	return c.plan.Load()
}

// compCtxFor returns an evaluation context for c on ev: the one parked
// on c's plan, if there is one, else a new one.
func (ev *Evaluator) compCtxFor(c *Comp) *compCtx {
	p := planOf(c)
	ctx := p.idle.Swap(nil)
	if ctx == nil {
		ctx = &compCtx{plan: p, quals: make([]qualState, len(p.quals)), scope: Env{vals: make([]Value, len(p.names))}}
	}
	ctx.ev = ev
	return ctx
}

// release empties the context — memoised sources, join indexes, the
// scope, the scratch rows and the evaluator — and parks it on its plan,
// so a plan pins neither extent rows nor the environment or evaluation
// it last ran under.
func (ctx *compCtx) release() {
	clear(ctx.quals)
	clear(ctx.scope.vals)
	clear(ctx.probeScratch)
	clear(ctx.headScratch)
	ctx.ev, ctx.srcSteps, ctx.scope.parent = nil, 0, nil
	ctx.plan.idle.Store(ctx)
}

// slotRef is a variable of a plan, resolved: the value at slot of the
// scope depth scopes up from the one it is evaluated in. A name that no
// comprehension or let around it binds (slot < 0) is the caller's, looked
// up by name from the scope depth up: the environment the outermost
// comprehension's evaluation was handed.
type slotRef struct {
	name        string
	depth, slot int
}

func (r *slotRef) String() string { return r.name }
func (*slotRef) isExpr()          {}

// resolver resolves the variables of the expressions an analysis meets
// against the scopes around them, innermost last: each comprehension's,
// and each let's.
type resolver struct{ scopes []*frame }

// frame is a scope as analysis sees it: the names of its slots so far,
// in slot order, the last qualifier that reads each (read, -1 for none)
// and, for a comprehension's, the qualifier being resolved (at; the head
// is len(quals)).
type frame struct {
	names []string
	read  []int
	at    int
}

// ref resolves a variable to the innermost slot that binds its name.
func (r *resolver) ref(name string) *slotRef {
	for d := len(r.scopes) - 1; d >= 0; d-- {
		f := r.scopes[d]
		for slot := len(f.names) - 1; slot >= 0; slot-- {
			if f.names[slot] == name {
				f.read[slot] = max(f.read[slot], f.at)
				return &slotRef{name, len(r.scopes) - 1 - d, slot}
			}
		}
	}
	return &slotRef{name, len(r.scopes), -1}
}

// resolve returns e with every variable resolved and every comprehension
// in it analysed where it stands: a copy, which shares e's literals and
// scheme references.
func (r *resolver) resolve(e Expr) Expr {
	return Rewrite(e, func(x Expr) (Expr, bool) {
		switch n := x.(type) {
		case *Lit, *SchemeRef:
			return x, true
		case *Var:
			return r.ref(n.Name), true
		case *Comp:
			c := &Comp{Head: n.Head, Quals: n.Quals}
			c.plan.Store(r.analyze(c))
			return c, true
		case *LetExpr:
			val := r.resolve(n.Val)
			r.scopes = append(r.scopes, &frame{names: []string{n.Name}, read: []int{-1}})
			body := r.resolve(n.Body)
			r.scopes = r.scopes[:len(r.scopes)-1]
			return &LetExpr{Name: n.Name, Val: val, Body: body}, true
		}
		return nil, false
	})
}

func analyze(c *Comp) *compPlan { return new(resolver).analyze(c) }

// analyze works out c's plan where the resolver stands: how each
// variable resolves and each pattern binds, which sources are constant,
// which generator/filter runs are joinable, which generators form join
// runs, and c as a Selection.
func (r *resolver) analyze(c *Comp) *compPlan {
	p := &compPlan{comp: c, quals: make([]qualPlan, len(c.Quals)), sel: selectionOf(c)}
	f := &frame{}
	r.scopes = append(r.scopes, f)
	for i, q := range c.Quals {
		qp := &p.quals[i]
		f.at = i
		switch q := q.(type) {
		case *Filter:
			qp.expr = r.resolve(q.Cond)
		case *Generator:
			qp.expr = r.resolve(q.Src)
			qp.from = len(f.names)
			qp.pat = compilePattern(q.Pat, &f.names)
			qp.to = len(f.names)
			f.read = append(f.read, slices.Repeat([]int{-1}, qp.to-qp.from)...)
		}
	}
	f.at = len(c.Quals)
	p.head = r.resolve(c.Head)
	p.headTuple, _ = p.head.(*TupleExpr)
	p.names = slices.Clip(f.names)
	r.scopes = r.scopes[:len(r.scopes)-1]
	for i, q := range c.Quals {
		g, isGen := q.(*Generator)
		qp := &p.quals[i]
		if qp.constSrc = isGen && len(FreeVars(g.Src)) == 0; qp.constSrc {
			for j := i + 1; j < len(c.Quals); j++ {
				cond, ok := joinableFilter(g, c.Quals[j], p.quals[j].expr, p.names[:qp.from])
				if !ok {
					break
				}
				qp.joins = append(qp.joins, cond)
				qp.joinSpec += "," + strconv.Itoa(cond.comp)
			}
		}
	}
	p.markRuns(f.read)
	return p
}

// PlanFootprint is what evaluating e pins on its comprehension nodes, in
// bytes: each one's plan, with the plans of the comprehensions nested in
// it, and the evaluation state parked beside each, emptied. A cache that
// keeps parsed queries charges it beside their text. It analyses the
// comprehensions no evaluation has, which their first evaluation would
// otherwise do.
func PlanFootprint(e Expr) int64 { return int64(exprFootprint(e, false)) }

// exprFootprint is the bytes of the plans of the comprehensions in e
// and, when resolve built e, of its nodes: each at most a Comp's size,
// and a tuple's, bag's or call's elements besides.
func exprFootprint(e Expr, resolved bool) (n int) {
	walk(e, func(x Expr) bool {
		elems := 0
		switch x := x.(type) {
		case *Comp:
			n += planOf(x).footprint()
		case *TupleExpr:
			elems = len(x.Elems)
		case *BagExpr:
			elems = len(x.Elems)
		case *Call:
			elems = len(x.Args)
		}
		if resolved {
			n += class(int(unsafe.Sizeof(Comp{}))) + class(elems*int(unsafe.Sizeof(e)))
		}
		_, isComp := x.(*Comp)
		return !isComp
	})
	return n
}

// footprint is the bytes of the plan and of a context parked on it, each
// allocation at its size rounded up to a power of two, which no size
// class of the allocator exceeds.
func (p *compPlan) footprint() int {
	const value = int(unsafe.Sizeof(Value{}))
	n := class(int(unsafe.Sizeof(compPlan{}))) + class(cap(p.quals)*int(unsafe.Sizeof(qualPlan{}))) +
		class(int(unsafe.Sizeof(compCtx{}))) + class(len(p.quals)*int(unsafe.Sizeof(qualState{}))) +
		class(cap(p.names)*int(unsafe.Sizeof(""))) + class(len(p.names)*value) + // the scope
		exprFootprint(p.head, true)
	if p.sel != nil {
		n += class(int(unsafe.Sizeof(Selection{}))) + class(cap(p.sel.Conds)*int(unsafe.Sizeof(Cond{})))
	}
	if p.headTuple != nil {
		n += class(len(p.headTuple.Elems) * value) // the head's scratch row
	}
	probe := 0
	for i := range p.quals {
		qp := &p.quals[i]
		n += exprFootprint(qp.expr, true) + qp.pat.footprint() +
			class(cap(qp.joins)*int(unsafe.Sizeof(joinCond{}))) + class(len(qp.joinSpec))
		probe = max(probe, len(qp.joins))
		if qp.run != nil {
			n += class(int(unsafe.Sizeof(joinRun{}))) + class(cap(qp.run.members)*int(unsafe.Sizeof(0))) +
				class(cap(qp.run.keep)*int(unsafe.Sizeof(0)))
		}
	}
	return n + class(probe*value) // the probe key's scratch
}

// footprint is the bytes of the pattern's component slots.
func (p *slotPat) footprint() int {
	n := class(len(p.elems)*int(unsafe.Sizeof(slotPat{}))) + class(len(p.flat)*int(unsafe.Sizeof(0)))
	for i := range p.elems {
		n += p.elems[i].footprint()
	}
	return n
}

// class rounds an allocation of n bytes up to a power of two.
func class(n int) int {
	if n == 0 {
		return 0
	}
	return 1 << bits.Len(uint(n-1))
}

// joinableFilter recognises "v = e" / "e = v" following generator g,
// with v bound by g's pattern and e's free variables all among the names
// bound before g and not again by it; the probe is e's side of the
// condition resolved.
func joinableFilter(g *Generator, next Qual, resolved Expr, boundBefore []string) (joinCond, bool) {
	f, isFilter := next.(*Filter)
	if !isFilter {
		return joinCond{}, false
	}
	eq, isEq := f.Cond.(*Binary)
	if !isEq || eq.Op != "=" {
		return joinCond{}, false
	}
	// Which component does the generator bind the variable to? A name
	// the pattern repeats is bound to its last occurrence (slotPat.bind),
	// and that must be a component of the element itself: one inside a
	// nested pattern is no key of the index.
	comp := func(name string) (ci int, ok bool) {
		switch pat := g.Pat.(type) {
		case *VarPat:
			return wholeElement, patternBinds(pat, name)
		case *TuplePat:
			for i, pe := range pat.Elems {
				if patternBinds(pe, name) {
					_, isVar := pe.(*VarPat)
					ci, ok = i, isVar
				}
			}
		}
		return ci, ok
	}
	try := func(varSide, exprSide, probe Expr) (joinCond, bool) {
		v, isVar := varSide.(*Var)
		if !isVar {
			return joinCond{}, false
		}
		ci, ok := comp(v.Name)
		if !ok {
			return joinCond{}, false
		}
		for _, fv := range FreeVars(exprSide) {
			// A name g binds again is g's in the filter, not the earlier one.
			if !slices.Contains(boundBefore, fv) || patternBinds(g.Pat, fv) {
				return joinCond{}, false
			}
		}
		return joinCond{comp: ci, probe: probe}, true
	}
	res := resolved.(*Binary)
	if c, ok := try(eq.L, eq.R, res.R); ok {
		return c, true
	}
	if c, ok := try(eq.R, eq.L, res.L); ok {
		return c, true
	}
	return joinCond{}, false
}

// selectionOf states c as a Selection of its generator's extent, or
// returns nil: count(c) is then the number of elements the Selection
// keeps, and nothing else about c can be observed — no error, no
// warning. That holds when qualifier 0 is c's only generator, drawing a
// bare variable or a flat tuple of distinct variables and "_" from a
// scheme reference; every other qualifier is a filter comparing one of
// those variables with an integer literal, either way round, by one of
// = < <= > >=; and the head is built of those variables, literals and
// tuples of them, so evaluating it cannot fail.
func selectionOf(c *Comp) *Selection {
	if len(c.Quals) == 0 {
		return nil
	}
	g, ok := c.Quals[0].(*Generator)
	if !ok {
		return nil
	}
	if _, ok := g.Src.(*SchemeRef); !ok {
		return nil
	}
	var sel Selection
	var names []string // the variable each component binds; "_" binds none
	switch pat := g.Pat.(type) {
	case *VarPat:
		names = []string{pat.Name}
	case *TuplePat:
		if len(pat.Elems) == 0 {
			return nil
		}
		sel.Arity = len(pat.Elems)
		for _, pe := range pat.Elems {
			vp, ok := pe.(*VarPat)
			if !ok || (vp.Name != "_" && slices.Contains(names, vp.Name)) {
				return nil
			}
			names = append(names, vp.Name)
		}
	default:
		return nil
	}
	component := func(e Expr) (int, bool) {
		v, ok := e.(*Var)
		if !ok || v.Name == "_" {
			return 0, false
		}
		i := slices.Index(names, v.Name)
		return i, i >= 0
	}
	for _, q := range c.Quals[1:] {
		f, ok := q.(*Filter)
		if !ok {
			return nil
		}
		b, ok := f.Cond.(*Binary)
		if !ok {
			return nil
		}
		op, flipped := b.Op, b.Op
		switch b.Op {
		case "=":
		case "<":
			flipped = ">"
		case "<=":
			flipped = ">="
		case ">":
			flipped = "<"
		case ">=":
			flipped = "<="
		default:
			return nil
		}
		comp, isVar := component(b.L)
		lit, isLit := intLiteral(b.R)
		if !isVar || !isLit {
			op = flipped
			comp, isVar = component(b.R)
			lit, isLit = intLiteral(b.L)
		}
		if !isVar || !isLit {
			return nil
		}
		sel.Conds = append(sel.Conds, Cond{Comp: comp, Op: op, Lit: lit})
	}
	var total func(e Expr) bool
	total = func(e Expr) bool {
		switch n := e.(type) {
		case *Lit:
			return true
		case *Var:
			_, ok := component(n)
			return ok
		case *TupleExpr:
			for _, x := range n.Elems {
				if !total(x) {
					return false
				}
			}
			return true
		}
		return false
	}
	if !total(c.Head) {
		return nil
	}
	return &sel
}

// intLiteral reads e as an integer literal: a literal int, or '-'
// applied to one, which is how the parser reads a negative number.
func intLiteral(e Expr) (int64, bool) {
	neg := false
	if u, ok := e.(*Unary); ok && u.Op == "-" {
		neg, e = true, u.X
	}
	l, ok := e.(*Lit)
	if !ok || l.Val.Kind != KindInt {
		return 0, false
	}
	if neg {
		return -l.Val.I(), true
	}
	return l.Val.I(), true
}

// countAtSource asks the extents for the number count(c) evaluates to,
// when c is a Selection and runs at the top level (a nested
// comprehension re-entered per enclosing binding would ask the backend
// once per binding). It comes before everything run would do with the
// generator: a filter "v = 7" also makes a constant-key join, which
// would materialise the extent to index it. ok=false leaves the
// evaluation where it was.
func (ctx *compCtx) countAtSource() (n int64, ok bool, err error) {
	ev := ctx.ev
	ce, ok := ev.Ext.(CountExtents)
	if !ok || ev.genDepth != 0 {
		return 0, false, nil
	}
	sel := ctx.plan.sel
	if sel == nil {
		return 0, false, nil
	}
	ref := ctx.plan.comp.Quals[0].(*Generator).Src.(*SchemeRef)
	n, ok, err = ce.ExtentCount(ref.Parts, *sel)
	if err != nil || !ok {
		return 0, false, err
	}
	// One step for the scheme reference, as on the other paths; the
	// elements were walked at the source and are not charged here.
	if err := ev.step(); err != nil {
		return 0, false, err
	}
	return n, true, nil
}

// source returns generator i's elements, memoised for constant sources.
func (ctx *compCtx) source(i int) ([]Value, error) {
	qs, qp := &ctx.quals[i], &ctx.plan.quals[i]
	if qp.constSrc && qs.srcSet {
		return qs.srcVal.Elements()
	}
	before := ctx.ev.steps
	v, err := ctx.ev.eval(qp.expr, &ctx.scope)
	ctx.srcSteps += ctx.ev.steps - before
	if err != nil {
		return nil, err
	}
	if _, err := v.Elements(); err != nil {
		return nil, fmt.Errorf("iql: generator source %s: %w", qp.expr, err)
	}
	if qp.constSrc {
		qs.srcVal, qs.srcSet = v, true
	}
	return v.Elements()
}

// joinIndexCacheMin is the source size below which indexes are rebuilt
// rather than cached across evaluations (tiny builds are cheaper than
// occupying a cache slot).
const joinIndexCacheMin = 32

// buildIndex returns the hash index of the generator's elements on the
// join key, consulting the evaluator's cross-evaluation index cache for
// large memoised sources: the element array's identity plus the
// component spec fully determine the index, so an unchanged extent is
// indexed once, not once per evaluation.
func (ctx *compCtx) buildIndex(i int, els []Value) *JoinIndex {
	qs, qp := &ctx.quals[i], &ctx.plan.quals[i]
	if qs.index != nil {
		return qs.index
	}
	c := ctx.ev.Indexes
	if c == nil || len(els) < joinIndexCacheMin {
		qs.index = qp.newIndex(els)
		return qs.index
	}
	idx, ok := c.index(els, qp.joinSpec)
	if !ok {
		idx = qp.newIndex(els)
		// The index (and its identity key) keeps the extent rows alive, so
		// charge the cache their footprint beside the index's own.
		c.putIndex(els, qp.joinSpec, idx, idx.Footprint()+ctx.rowsFootprint(els))
	}
	qs.index = idx
	return idx
}

// SizedExtents is an Extents that can tell the footprint of an extent it
// returned (Value.Footprint of the bag of els) without walking it,
// because it walked it when it filled it: a join index built over the
// extent is charged its rows' footprint from there.
type SizedExtents interface {
	Footprint(els []Value) (int64, bool)
}

// rowsFootprint is the summed footprint of els: what the extents tell,
// less the bag's own Value, or else a walk.
func (ctx *compCtx) rowsFootprint(els []Value) int64 {
	if se, ok := ctx.ev.Ext.(SizedExtents); ok {
		if n, ok := se.Footprint(els); ok {
			return n - valueOverhead
		}
	}
	var n int64
	for _, el := range els {
		n += el.Footprint()
	}
	return n
}

// newIndex indexes els on the generator's join key. The index copies the
// positions it is keyed on, so they are gathered where a build allocates
// nothing for them.
func (qp *qualPlan) newIndex(els []Value) *JoinIndex {
	var buf [8]int
	comps := buf[:0]
	for _, jc := range qp.joins {
		comps = append(comps, jc.comp)
	}
	return NewJoinIndex(els, comps)
}

// probeKey evaluates generator i's probe expressions into the shared
// scratch buffer, one component of the probe key each, and returns it.
func (ctx *compCtx) probeKey(i int) ([]Value, error) {
	jcs := ctx.plan.quals[i].joins
	if cap(ctx.probeScratch) < len(jcs) {
		ctx.probeScratch = make([]Value, len(jcs))
	}
	scratch := ctx.probeScratch[:len(jcs)]
	for n, jc := range jcs {
		v, err := ctx.ev.eval(jc.probe, &ctx.scope)
		if err != nil {
			return nil, err
		}
		scratch[n] = v
	}
	return scratch, nil
}

// sink receives a comprehension's head values, one per complete
// binding: collected into vals; or — under count(comprehension) — only
// counted, so a bag that would be built to take its length is never
// built; or — when the comprehension is the answer of an encoded
// evaluation — encoded as they come into the answer's open bag, so the
// answer is never built either. The head is evaluated whichever it is:
// its steps, errors and warnings are the query's.
type sink struct {
	vals  []Value
	n     int64
	count bool
	// into, when set, is the answer the values are encoded into, as
	// elements of the open bag. An encoding sink is fed by one goroutine.
	into *answer
	bag  *sortedElems
}

func (s *sink) add(v Value) {
	switch {
	case s.into != nil:
		s.into.add(s.bag, v)
	case s.count:
		s.n++
	default:
		s.vals = append(s.vals, v)
	}
}

// keeps reports whether the sink holds on to the values it is handed.
func (s *sink) keeps() bool { return !s.count && s.into == nil }

// head evaluates the comprehension's head under a complete binding. A
// tuple head's components are evaluated into the context's scratch row,
// charged the steps eval charges — one for the tuple node, then each
// component's, a variable of its own read from its slot. A sink that
// keeps what it is handed gets a row of its own; any other gets the
// scratch row, which the next binding overwrites: nothing is allocated.
func (ctx *compCtx) head(out *sink) (Value, error) {
	ev, env, t := ctx.ev, &ctx.scope, ctx.plan.headTuple
	if t == nil {
		return ev.eval(ctx.plan.head, env)
	}
	if err := ev.step(); err != nil {
		return Value{}, err
	}
	if ctx.headScratch == nil {
		ctx.headScratch = make([]Value, len(t.Elems))
	}
	for i, x := range t.Elems {
		var v Value
		var err error
		if r, ok := x.(*slotRef); ok && r.depth == 0 {
			v, err = env.vals[r.slot], ev.step()
		} else {
			v, err = ev.eval(x, env)
		}
		if err != nil {
			return Value{}, err
		}
		ctx.headScratch[i] = v
	}
	if out.keeps() {
		return Tuple(slices.Clone(ctx.headScratch)...), nil
	}
	return Tuple(ctx.headScratch...), nil
}

// outPrealloc caps how far a generator source's length is trusted as a
// size hint for a collecting sink's slice.
const outPrealloc = 1024

// run evaluates qualifiers from position i in the comprehension's scope,
// handing the sink the head value of every complete binding.
func (ctx *compCtx) run(i int, out *sink) error {
	ev, quals := ctx.ev, ctx.plan.comp.Quals
	if i == len(quals) {
		v, err := ctx.head(out)
		if err != nil {
			return err
		}
		out.add(v)
		return nil
	}
	switch q := quals[i].(type) {
	case *Filter:
		c, err := ev.eval(ctx.plan.quals[i].expr, &ctx.scope)
		if err != nil {
			return err
		}
		if c.Kind != KindBool {
			return fmt.Errorf("iql: filter must be boolean, got %s (%s)", c.Kind, q.Cond)
		}
		if !c.B() {
			return nil
		}
		return ctx.run(i+1, out)

	case *Generator:
		if rs, ok, err := ctx.stream(i, q); err != nil {
			return err
		} else if ok {
			return ctx.runStream(i, q, rs, out)
		}
		els, err := ctx.source(i)
		if err != nil {
			return err
		}
		if ctx.plan.quals[i].run != nil && ev.Indexes != nil && len(els) > 0 {
			// A join run is recorded and replayed where there is a cache
			// to keep its record in.
			return ctx.runJoined(i, els, out)
		}
		return ctx.walk(i, els, out)
	}
	return fmt.Errorf("iql: unknown qualifier %T", quals[i])
}

// walk runs generator i over its source's elements els: by probing its
// join index, or by a scan.
func (ctx *compCtx) walk(i int, els []Value, out *sink) error {
	ev, qp := ctx.ev, &ctx.plan.quals[i]
	if len(qp.joins) == 0 {
		if out.keeps() && cap(out.vals) == 0 && len(els) > 0 {
			// First growth: trust the generator's cardinality as a size
			// hint so comprehension outputs don't grow append-by-append.
			out.vals = make([]Value, 0, min(len(els), outPrealloc))
		}
		return ctx.scan(i, els, out)
	}
	// Indexed equi-join: probe instead of scan; the consumed filters are
	// subsumed by the index lookup.
	idx := ctx.buildIndex(i, els)
	key, err := ctx.probeKey(i)
	if err != nil {
		if ev.stopped(err) {
			return err
		}
		return ctx.scan(i, els, out)
	}
	ev.genDepth++
	defer func() { ev.genDepth-- }()
	for r := idx.Probe(key); r >= 0; r = idx.Next(r) {
		if err := ctx.runElement(i, els[r], i+1+len(qp.joins), out); err != nil {
			return err
		}
	}
	return nil
}

// scan runs generator i over els; so does a join whose probe key fails
// with an error of its own, as that filter fails only where an element
// reaches it.
func (ctx *compCtx) scan(i int, els []Value, out *sink) error {
	ctx.ev.genDepth++
	defer func() { ctx.ev.genDepth-- }()
	for _, el := range els {
		if err := ctx.runElement(i, el, i+1, out); err != nil {
			return err
		}
	}
	return nil
}

// stream decides whether generator i can pull its source as a
// RowStream instead of materialising it. Only a top-level
// (genDepth 0) scan of a bare scheme reference qualifies: joins need
// the whole extent for their index, memoised sources are already
// materialised, and nested generators re-run per enclosing binding,
// where re-streaming would multiply backend fetches. The extent
// provider has the final say via ExtentStream's ok result.
func (ctx *compCtx) stream(i int, g *Generator) (RowStream, bool, error) {
	ev := ctx.ev
	if ev.genDepth != 0 || len(ctx.plan.quals[i].joins) > 0 || ctx.quals[i].srcSet {
		return nil, false, nil
	}
	ref, ok := g.Src.(*SchemeRef)
	if !ok {
		return nil, false, nil
	}
	se, ok := ev.Ext.(StreamExtents)
	if !ok {
		return nil, false, nil
	}
	rs, ok, err := se.ExtentStream(ref.Parts)
	if err != nil || !ok {
		return nil, false, err
	}
	// The materialised path charges one step evaluating the scheme
	// reference; charge the same here so step budgets do not depend on
	// whether rows were streamed or materialised. (A count answered at
	// the source is the exception: a budget bounds the work done here,
	// and countAtSource charges the reference but none of the rows.)
	if err := ev.step(); err != nil {
		rs.Close()
		return nil, false, err
	}
	return rs, true, nil
}

// runStream drives one streamed generator: pages are pulled, and each
// is walked exactly as the materialised loop in run walks its elements,
// so results are byte-identical; only the residency differs. The stream
// is always closed, including on early error returns.
func (ctx *compCtx) runStream(i int, q *Generator, rs RowStream, out *sink) (err error) {
	defer func() {
		if cerr := rs.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	ev := ctx.ev
	ev.genDepth++
	defer func() { ev.genDepth-- }()
	for rs.Next() {
		for _, el := range rs.Page() {
			if err := ctx.runElement(i, el, i+1, out); err != nil {
				return err
			}
		}
	}
	if serr := rs.Err(); serr != nil {
		return fmt.Errorf("iql: generator source %s: %w", q.Src, serr)
	}
	return nil
}

// runElement binds one element of generator i into the comprehension's
// scope and continues evaluation from qualifier next. The last member of
// a join run whose walk is being recorded records the match first.
func (ctx *compCtx) runElement(i int, el Value, next int, out *sink) error {
	if err := ctx.ev.step(); err != nil {
		return err
	}
	qp := &ctx.plan.quals[i]
	if !qp.pat.bind(el, ctx.scope.vals) {
		return nil // non-matching elements are skipped
	}
	if qp.ends != nil {
		if r := ctx.quals[qp.ends.members[0]].recorder; r != nil {
			return ctx.recordMatch(r, next, out)
		}
	}
	return ctx.run(next, out)
}
