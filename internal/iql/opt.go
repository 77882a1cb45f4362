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
//     only on the extents they draw (see joinRun in joinrun.go) records
//     the rows of its matches, and the steps the walk charged for each,
//     the second time it is walked over the same element arrays; every
//     later evaluation over them binds the recorded rows instead of
//     probing, and charges the recorded steps.
//
// The static analysis (which sources are constant, which filter runs
// are joinable, how each pattern binds, whether count can be asked of
// the source) depends only on the AST, so it is worked out once per
// *Comp node, by the first evaluation to meet it, and published on the
// node as its compPlan: every later evaluation of the node shares it, so
// a cached query is analysed once for every session that asks it and a
// derivation once for every query that unfolds it. What one evaluation
// of the node writes — memoised sources, join indexes, the generators'
// scopes, scratch rows — is a compCtx. One is parked on the plan between
// evaluations, emptied, and taken by the next, so a warm query, and a
// nested comprehension re-entered once per enclosing binding, allocate
// neither; an evaluation that finds none parked (re-entry, the workers
// of a sharded scan, concurrent queries) makes its own.
type compPlan struct {
	comp  *Comp
	quals []qualPlan

	// headTuple is the head when it is a tuple expression, which a sink
	// that keeps no value is handed in a scratch row (see head).
	headTuple *TupleExpr

	// headSlots, when every component of headTuple is a variable one of
	// the comprehension's generators binds, is where each is bound: the
	// scratch row is copied from the generators' scopes, nil otherwise.
	headSlots []varSlot

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
	constSrc bool       // source has no free variables
	joins    []joinCond // indexed equi-join conditions (empty = scan)
	consumed int        // following filters subsumed by the index
	joinSpec string     // join-key component positions (index cache key)
	vars     []string   // the variables the pattern binds, in slot order
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

	// probeScratch holds the probe key's components between a probe's
	// evaluation and its index lookup; Probe never retains the key, so
	// one buffer serves every probe of the invocation.
	probeScratch []Value

	// headScratch is the row a sink that keeps no value is handed: a tuple
	// head's components are evaluated into it one row after another (see
	// head), so a row that is encoded or counted is never allocated.
	headScratch []Value

	// shared, set on the worker contexts of one sharded scan, holds the
	// comprehension's constant sources evaluated once for all of the
	// scan's workers (see parallel.go); nil everywhere else.
	shared []sharedSource

	// srcSteps counts the steps evaluating the generators' sources has
	// charged, which a join run's record leaves out (see joinrun.go).
	srcSteps int
}

// qualState is one qualifier's evaluation state, emptied by release.
type qualState struct {
	srcSet bool
	srcVal Value // memoised source value (valid when srcSet)
	index  *JoinIndex

	// scope is the generator's child scope. It belongs to the context,
	// not to an entry of the generator: allocated the first time the
	// generator is entered, re-parented on every entry (see enter) and
	// emptied by release.
	scope *Env

	// row is the position in the source of the element the generator
	// last bound by scanning or probing it.
	row int

	// A join run's state, on its first member's qualifier: the record
	// this context replays, once its arrays are known to be the
	// record's, and the recorder of a walk being recorded.
	replay   *runRecord
	recorder *runRecorder
}

// varSlot is where a variable a comprehension's generators bind is
// bound: the qualifier of the generator, and the position in its scope.
type varSlot struct{ qual, slot int }

// slotPat is a generator pattern compiled against the layout of the
// generator's scope: a variable is the position of its binding, so
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

// compilePattern resolves p's variables to slots, appending each new
// name to vars. A name repeated within the pattern shares one slot, so
// the later occurrence wins, as successive Binds would have it.
func compilePattern(p Pattern, vars *[]string) slotPat {
	switch pat := p.(type) {
	case *VarPat:
		if pat.Name == "_" {
			return slotPat{kind: slotWild}
		}
		for slot, name := range *vars {
			if name == pat.Name {
				return slotPat{kind: slotVar, slot: slot}
			}
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
// (wholeElement for a bare-variable pattern) with the probe expression.
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
		ctx = &compCtx{plan: p, quals: make([]qualState, len(p.quals))}
	}
	ctx.ev = ev
	return ctx
}

// release empties the context — memoised sources, join indexes, the
// generators' scopes, the scratch rows, the evaluator and the shared
// sources — and parks it on its plan, so a plan pins neither extent
// rows nor the environment or evaluation it last ran under.
func (ctx *compCtx) release() {
	for i := range ctx.quals {
		qs := &ctx.quals[i]
		qs.srcSet, qs.srcVal, qs.index, qs.row, qs.replay = false, Value{}, nil, 0, nil
		if qs.scope != nil {
			clear(qs.scope.vals)
			qs.scope.parent = nil
		}
	}
	clear(ctx.probeScratch)
	clear(ctx.headScratch)
	ctx.ev, ctx.shared, ctx.srcSteps = nil, nil, 0
	ctx.plan.idle.Store(ctx)
}

// enter returns generator i's scope nested in env. One scope serves
// every entry of the generator and every element of each entry: an
// entry ends before the next begins, no two evaluations hold one
// context, and nothing retains a scope once run returns (IQL has no
// closures) — so a join's inner generator, entered once per outer
// binding, allocates nothing per entry. The scope's names are the
// plan's, clipped, so a Bind appends to a copy of them.
func (ctx *compCtx) enter(i int, env *Env) *Env {
	qs := &ctx.quals[i]
	if qs.scope == nil {
		vars := ctx.plan.quals[i].vars
		qs.scope = &Env{names: slices.Clip(vars), vals: make([]Value, len(vars))}
	}
	qs.scope.parent = env
	return qs.scope
}

// analyze works out c's plan: how each pattern binds, which sources are
// constant, which generator/filter runs are joinable, which generators
// form join runs, and c as a Selection.
func analyze(c *Comp) *compPlan {
	p := &compPlan{comp: c, quals: make([]qualPlan, len(c.Quals)), sel: selectionOf(c)}
	p.headTuple, _ = c.Head.(*TupleExpr)
	bound := map[string]bool{}
	for i, q := range c.Quals {
		g, isGen := q.(*Generator)
		if !isGen {
			continue
		}
		qp := &p.quals[i]
		qp.pat = compilePattern(g.Pat, &qp.vars)
		qp.constSrc = len(FreeVars(g.Src)) == 0
		if qp.constSrc {
			for j := i + 1; j < len(c.Quals); j++ {
				cond, ok := joinableFilter(g, c.Quals[j], bound)
				if !ok {
					break
				}
				qp.joins = append(qp.joins, cond)
				qp.consumed++
			}
			if len(qp.joins) > 0 {
				var spec []byte
				for n, jc := range qp.joins {
					if n > 0 {
						spec = append(spec, ',')
					}
					spec = strconv.AppendInt(spec, int64(jc.comp), 10)
				}
				qp.joinSpec = string(spec)
			}
		}
		bindPatternVars(g.Pat, bound)
	}
	p.headSlots = p.slotsOf(p.headTuple)
	p.markRuns()
	return p
}

// slotsOf is where each component of the tuple head t is bound, when
// every one is a variable the comprehension's generators bind, else nil.
// The binding the head sees is the last generator's that binds the
// name: the innermost scope.
func (p *compPlan) slotsOf(t *TupleExpr) []varSlot {
	if t == nil {
		return nil
	}
	slots := make([]varSlot, len(t.Elems))
	for i, x := range t.Elems {
		v, ok := x.(*Var)
		if !ok {
			return nil
		}
		found := false
		for q := len(p.quals) - 1; q >= 0 && !found; q-- {
			if slot := slices.Index(p.quals[q].vars, v.Name); slot >= 0 {
				slots[i], found = varSlot{qual: q, slot: slot}, true
			}
		}
		if !found {
			return nil
		}
	}
	return slots
}

// PlanFootprint is what evaluating e pins on its comprehension nodes, in
// bytes: each one's plan and the evaluation state parked beside it,
// emptied. A cache that keeps parsed queries charges it beside their
// text. It analyses the comprehensions no evaluation has, which their
// first evaluation would otherwise do.
func PlanFootprint(e Expr) int64 {
	var n int
	walk(e, func(x Expr) {
		if c, ok := x.(*Comp); ok {
			n += planOf(c).footprint()
		}
	})
	return int64(n)
}

// footprint is the bytes of the plan and of a context parked on it, each
// allocation at its size rounded up to a power of two, which no size
// class of the allocator exceeds.
func (p *compPlan) footprint() int {
	const value = int(unsafe.Sizeof(Value{}))
	n := class(int(unsafe.Sizeof(compPlan{}))) + class(cap(p.quals)*int(unsafe.Sizeof(qualPlan{}))) +
		class(int(unsafe.Sizeof(compCtx{}))) + class(len(p.quals)*int(unsafe.Sizeof(qualState{})))
	if p.sel != nil {
		n += class(int(unsafe.Sizeof(Selection{}))) + class(cap(p.sel.Conds)*int(unsafe.Sizeof(Cond{})))
	}
	if p.headTuple != nil {
		n += class(len(p.headTuple.Elems) * value) // the head's scratch row
	}
	n += class(cap(p.headSlots) * int(unsafe.Sizeof(varSlot{})))
	probe := 0
	for i, q := range p.comp.Quals {
		if _, ok := q.(*Generator); !ok {
			continue
		}
		qp := &p.quals[i]
		n += qp.pat.footprint() + class(cap(qp.vars)*int(unsafe.Sizeof(""))) +
			class(cap(qp.joins)*int(unsafe.Sizeof(joinCond{}))) + class(len(qp.joinSpec))
		n += class(int(unsafe.Sizeof(Env{}))) + class(len(qp.vars)*value) // the scope
		probe = max(probe, len(qp.joins))
		if qp.run != nil {
			n += class(int(unsafe.Sizeof(joinRun{}))) + class(cap(qp.run.members)*int(unsafe.Sizeof(0)))
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
// with v bound by g's pattern and e's free variables all bound before
// g and not again by it.
func joinableFilter(g *Generator, next Qual, boundBefore map[string]bool) (joinCond, bool) {
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
	try := func(varSide, exprSide Expr) (joinCond, bool) {
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
			if !boundBefore[fv] || patternBinds(g.Pat, fv) {
				return joinCond{}, false
			}
		}
		return joinCond{comp: ci, probe: exprSide}, true
	}
	if c, ok := try(eq.L, eq.R); ok {
		return c, true
	}
	if c, ok := try(eq.R, eq.L); ok {
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

// source returns the generator's elements, memoised for constant
// sources.
func (ctx *compCtx) source(i int, g *Generator, env *Env) ([]Value, error) {
	qs, constSrc := &ctx.quals[i], ctx.plan.quals[i].constSrc
	if constSrc && qs.srcSet {
		return qs.srcVal.Elements()
	}
	var v Value
	var err error
	if constSrc && ctx.shared != nil {
		// A constant source is the same for every worker of a sharded
		// scan: the first to need it evaluates it (and is charged its
		// steps), as the serial loop would once.
		sh := &ctx.shared[i]
		sh.once.Do(func() { sh.val, sh.err = ctx.ev.eval(g.Src, env) })
		v, err = sh.val, sh.err
	} else {
		before := ctx.ev.steps
		v, err = ctx.ev.eval(g.Src, env)
		ctx.srcSteps += ctx.ev.steps - before
	}
	if err != nil {
		return nil, err
	}
	if _, err := v.Elements(); err != nil {
		return nil, fmt.Errorf("iql: generator source %s: %w", g.Src, err)
	}
	if constSrc {
		qs.srcVal = v
		qs.srcSet = true
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
func (ctx *compCtx) probeKey(i int, env *Env) ([]Value, error) {
	jcs := ctx.plan.quals[i].joins
	if cap(ctx.probeScratch) < len(jcs) {
		ctx.probeScratch = make([]Value, len(jcs))
	}
	scratch := ctx.probeScratch[:len(jcs)]
	for n, jc := range jcs {
		v, err := ctx.ev.eval(jc.probe, env)
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
// sink that keeps what it is handed gets a value of its own. Any other
// gets a tuple head in the context's scratch row, which the next binding
// overwrites: the steps are the ones eval charges — one for the tuple
// node, then each component's — and nothing is allocated. A head of
// variables the generators bind is copied from their scopes by slot,
// charged the same steps, and no name is looked up.
func (ctx *compCtx) head(env *Env, out *sink) (Value, error) {
	ev, t := ctx.ev, ctx.plan.headTuple
	if t == nil || out.keeps() {
		return ev.eval(ctx.plan.comp.Head, env)
	}
	if ctx.headScratch == nil {
		ctx.headScratch = make([]Value, len(t.Elems))
	}
	if slots := ctx.plan.headSlots; slots != nil {
		if err := ev.charge(1 + len(slots)); err != nil {
			return Value{}, err
		}
		for i, s := range slots {
			ctx.headScratch[i] = ctx.quals[s.qual].scope.vals[s.slot]
		}
		return Tuple(ctx.headScratch...), nil
	}
	if err := ev.step(); err != nil {
		return Value{}, err
	}
	for i, x := range t.Elems {
		v, err := ev.eval(x, env)
		if err != nil {
			return Value{}, err
		}
		ctx.headScratch[i] = v
	}
	return Tuple(ctx.headScratch...), nil
}

// outPrealloc caps how far a generator source's length is trusted as a
// size hint for a collecting sink's slice.
const outPrealloc = 1024

// run evaluates qualifiers from position i under env, handing the sink
// the head value of every complete binding.
func (ctx *compCtx) run(i int, env *Env, out *sink) error {
	ev, quals := ctx.ev, ctx.plan.comp.Quals
	if i == len(quals) {
		v, err := ctx.head(env, out)
		if err != nil {
			return err
		}
		out.add(v)
		return nil
	}
	switch q := quals[i].(type) {
	case *Filter:
		c, err := ev.eval(q.Cond, env)
		if err != nil {
			return err
		}
		if c.Kind != KindBool {
			return fmt.Errorf("iql: filter must be boolean, got %s (%s)", c.Kind, q.Cond)
		}
		if !c.B() {
			return nil
		}
		return ctx.run(i+1, env, out)

	case *Generator:
		if rs, ok, err := ctx.stream(i, q); err != nil {
			return err
		} else if ok {
			return ctx.runStream(i, q, rs, env, out)
		}
		els, err := ctx.source(i, q, env)
		if err != nil {
			return err
		}
		if ctx.plan.quals[i].run != nil && ctx.replays(i, els, out) {
			return ctx.runJoined(i, els, env, out)
		}
		return ctx.walk(i, els, env, out)
	}
	return fmt.Errorf("iql: unknown qualifier %T", quals[i])
}

// walk runs generator i over its source's elements els: by probing its
// join index, sharded, or by a serial scan.
func (ctx *compCtx) walk(i int, els []Value, env *Env, out *sink) error {
	ev := ctx.ev
	if qp := &ctx.plan.quals[i]; len(qp.joins) > 0 {
		// Indexed equi-join: probe instead of scan; the consumed
		// filters are subsumed by the index lookup.
		idx := ctx.buildIndex(i, els)
		key, err := ctx.probeKey(i, env)
		if err != nil {
			return ctx.scan(i, els, env, out)
		}
		r := idx.Probe(key)
		if r < 0 {
			return nil
		}
		next := i + 1 + qp.consumed
		child := ctx.enter(i, env)
		qs := &ctx.quals[i]
		ev.genDepth++
		for ; r >= 0; r = idx.Next(r) {
			qs.row = int(r)
			if err := ctx.runElement(i, els[r], next, child, out); err != nil {
				ev.genDepth--
				return err
			}
		}
		ev.genDepth--
		return nil
	}
	if ctx.shardable(len(els), out) {
		// Large top-level scan: fan the elements across a worker
		// pool in contiguous shards, merged back in shard order
		// (see parallel.go). Results are byte-identical to the
		// serial loop below.
		return ctx.runSharded(i, els, i+1, env, out)
	}
	if out.keeps() && cap(out.vals) == 0 && len(els) > 0 {
		// First growth: trust the generator's cardinality as a size
		// hint so comprehension outputs don't grow append-by-append.
		out.vals = make([]Value, 0, min(len(els), outPrealloc))
	}
	return ctx.scan(i, els, env, out)
}

// scan runs generator i over els serially; so does a join whose probe
// key fails, as that filter fails only where an element reaches it.
func (ctx *compCtx) scan(i int, els []Value, env *Env, out *sink) error {
	child := ctx.enter(i, env)
	qs := &ctx.quals[i]
	ctx.ev.genDepth++
	for r, el := range els {
		qs.row = r
		if err := ctx.runElement(i, el, i+1, child, out); err != nil {
			ctx.ev.genDepth--
			return err
		}
	}
	ctx.ev.genDepth--
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
// so results are byte-identical; only the residency differs. Sharding
// never applies (the row count is unknown up front), and the stream is
// always closed, including on early error returns.
func (ctx *compCtx) runStream(i int, q *Generator, rs RowStream, env *Env, out *sink) (err error) {
	defer func() {
		if cerr := rs.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	ev := ctx.ev
	child := ctx.enter(i, env)
	ev.genDepth++
	defer func() { ev.genDepth-- }()
	for rs.Next() {
		for _, el := range rs.Page() {
			if err := ctx.runElement(i, el, i+1, child, out); err != nil {
				return err
			}
		}
	}
	if serr := rs.Err(); serr != nil {
		return fmt.Errorf("iql: generator source %s: %w", q.Src, serr)
	}
	return nil
}

// runElement binds one element of generator i into the generator's
// scope and continues evaluation from qualifier next. The last member of
// a join run whose walk is being recorded records the match first.
func (ctx *compCtx) runElement(i int, el Value, next int, child *Env, out *sink) error {
	if err := ctx.ev.step(); err != nil {
		return err
	}
	qp := &ctx.plan.quals[i]
	if !qp.pat.bind(el, child.vals) {
		return nil // non-matching elements are skipped
	}
	if qp.ends != nil {
		if r := ctx.quals[qp.ends.members[0]].recorder; r != nil {
			return ctx.recordMatch(r, next, child, out)
		}
	}
	return ctx.run(next, child, out)
}
