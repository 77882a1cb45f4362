package iql

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
)

// Extents supplies the extent (a bag) of a schema object referenced by
// scheme parts. Implementations include data-source wrappers and the
// query processor's virtual-schema resolver.
type Extents interface {
	Extent(parts []string) (Value, error)
}

// ExtentsFunc adapts a function to the Extents interface.
type ExtentsFunc func(parts []string) (Value, error)

// Extent implements Extents.
func (f ExtentsFunc) Extent(parts []string) (Value, error) { return f(parts) }

// NoExtents is an Extents that knows no schema objects; evaluating a
// SchemeRef against it fails.
var NoExtents Extents = ExtentsFunc(func(parts []string) (Value, error) {
	return Value{}, fmt.Errorf("iql: no extent source for <<%s>>", strings.Join(parts, ", "))
})

// Env is a lexically scoped variable environment: a chain of scopes,
// each holding the values of its bindings. Analysis resolves every
// variable a comprehension mentions to a scope depth and a slot (see
// slotRef in opt.go), so a comprehension reads its variables by
// position: its own scope — one per evaluation, holding every variable
// its generators bind — stores no names, and a let's name is read only
// outside every comprehension. A caller binds its variables into a zero
// Env (Bind); a name that nothing inside the evaluated expression binds
// is the caller's, and is looked up by name (lookup), a short scan.
type Env struct {
	names  []string
	vals   []Value
	parent *Env
}

// Bind sets a variable in the current scope, overwriting an existing
// same-scope binding.
func (e *Env) Bind(name string, v Value) {
	for i, n := range e.names {
		if n == name {
			e.vals[i] = v
			return
		}
	}
	e.names = append(e.names, name)
	e.vals = append(e.vals, v)
}

// lookup finds a variable by name in the current or any enclosing scope.
func (e *Env) lookup(name string) (Value, error) {
	for s := e; s != nil; s = s.parent {
		for i, n := range s.names {
			if n == name {
				return s.vals[i], nil
			}
		}
	}
	return Value{}, fmt.Errorf("iql: unbound variable %q", name)
}

// StepBudget is an evaluation step counter shared by several
// Evaluators, so that one logical query keeps a single budget across
// every sub-evaluation it spawns: the query processor's session
// (internal/query) hands one to the evaluator of the query and to the
// evaluator of each derivation the query unfolds. Those evaluators run
// one inside another on the query's goroutine; the counter is atomic
// all the same, so a budget is safe to share wherever an evaluator runs.
//
// With a limit, every step of every evaluator is taken from the budget
// as it happens, so the limit trips at exactly Max+1. Without one there
// is nothing to enforce: an evaluator counts its own steps and adds
// them when its Eval returns, so Used is exact once the outermost Eval
// has returned and a step costs no atomic operation.
type StepBudget struct {
	// Max bounds the total steps; 0 means unlimited.
	Max  int
	used atomic.Int64
}

// Used returns the steps consumed so far.
func (b *StepBudget) Used() int { return int(b.used.Load()) }

func (b *StepBudget) take() error {
	if b.used.Add(1) > int64(b.Max) {
		return fmt.Errorf("iql: evaluation exceeded %d steps", b.Max)
	}
	return nil
}

// Evaluator evaluates IQL expressions against an extent source. The
// zero-value MaxSteps disables the step limit.
type Evaluator struct {
	// Ext resolves scheme references. If nil, NoExtents is used.
	Ext Extents
	// MaxSteps bounds the number of evaluation steps as a defence
	// against runaway comprehensions; 0 means unlimited. Ignored when
	// Budget is set.
	MaxSteps int
	// Budget, when non-nil, is a step budget shared with other
	// evaluators of the same logical query; it takes precedence over
	// MaxSteps and is NOT reset by Eval.
	Budget *StepBudget
	// Ctx, when non-nil, is polled during evaluation so that long
	// evaluations honour per-request timeouts and cancellation.
	Ctx context.Context
	// Indexes, when non-nil, caches built hash-join indexes across
	// evaluations keyed by source-extent identity, so re-evaluating a
	// join over an unchanged (memoised) extent skips the index build.
	// Share one cache across evaluators over the same extent store.
	Indexes *JoinIndexCache
	// Parallel is ignored: evaluation runs on the calling goroutine.
	// The benchmark module (bench/) still sets it; ROADMAP item 1(a)
	// deletes it.
	Parallel int

	steps int
	// enforced is the budget every step is taken from: Budget when it
	// has a limit, a private one when only MaxSteps is set, nil when
	// there is no limit and steps are only counted.
	enforced *StepBudget
	// genDepth counts the generator loops currently running on this
	// evaluator. Streaming and counting at the source happen only at
	// depth zero: a comprehension re-entered once per element of an
	// enclosing generator must not ask its source once per element.
	genDepth int
}

// NewEvaluator returns an evaluator over the given extent source, with
// a private join-index cache (extents are immutable, so reusing an
// index for an unchanged element array is always sound).
func NewEvaluator(ext Extents) *Evaluator {
	return &Evaluator{Ext: ext, Indexes: NewJoinIndexCache(0)}
}

// Eval evaluates an expression in an environment (nil for empty).
func (ev *Evaluator) Eval(e Expr, env *Env) (Value, error) {
	if err := ev.begin(); err != nil {
		return Value{}, err
	}
	v, err := ev.eval(e, env)
	ev.end()
	return v, err
}

// begin is what every evaluation starts with: the step count at zero,
// the budget to enforce worked out, the context asked once.
func (ev *Evaluator) begin() error {
	ev.steps = 0
	switch {
	case ev.Budget != nil && ev.Budget.Max > 0:
		ev.enforced = ev.Budget
	case ev.Budget == nil && ev.MaxSteps > 0:
		ev.enforced = &StepBudget{Max: ev.MaxSteps}
	default:
		ev.enforced = nil
	}
	if ev.Ctx != nil {
		if err := ev.Ctx.Err(); err != nil {
			return fmt.Errorf("iql: evaluation cancelled: %w", err)
		}
	}
	return nil
}

// end is what every evaluation that began ends with, failed or not: the
// steps it only counted are added to the budget it shares.
func (ev *Evaluator) end() {
	if ev.Budget != nil && ev.enforced == nil {
		ev.Budget.used.Add(int64(ev.steps))
	}
}

// Encoding is where an encoded evaluation writes its value: as JSON onto
// JSON and in IQL source syntax onto Text, both appended to, and how
// many rows the value has in Rows — a bag's elements, 1 for anything
// else. Text is written already escaped as the inside of a JSON string
// (jsontext.AppendEscaped of String's rendering), each string's bytes as
// they are written, so a response carries it by copying it.
type Encoding struct {
	JSON, Text []byte
	Rows       int
}

// EncodingError is an encoded evaluation's failure to write a value that
// evaluated: a NaN or infinite float somewhere in it, which JSON cannot
// carry. Err is encoding/json's UnsupportedValueError.
type EncodingError struct{ Err error }

func (e *EncodingError) Error() string { return "iql: encoding value: " + e.Err.Error() }
func (e *EncodingError) Unwrap() error { return e.Err }

// EvalEncoded evaluates e as Eval does — the same steps, the same limits
// and polls of the context at the same steps, the same errors — and
// appends the value to dst as AppendJSONAndText would, without building
// it where it is large: the elements of a comprehension, or of each
// comprehension in a tuple of them, are encoded as evaluation reaches
// them, and neither a row nor the bag of them is allocated. Every other
// expression is evaluated to its value and that is encoded. The text is
// escaped for a JSON string (see Encoding).
//
// A value that evaluates but cannot be encoded is an *EncodingError, as
// encoding it after Eval would have found: an evaluation error further
// on in the scan comes first. After any error dst holds whatever had
// been appended by then, for the caller to cut off.
func (ev *Evaluator) EvalEncoded(dst *Encoding, e Expr, env *Env) (err error) {
	if err = ev.begin(); err != nil {
		return err
	}
	a := answer{e: encoder{want: wantJSON | wantText | textEscaped, json: dst.JSON}, text: dst.Text}
	dst.Rows, err = ev.evalInto(&a, e, env)
	ev.end()
	dst.JSON, dst.Text = a.e.json, a.text
	if err == nil && a.err != nil {
		err = &EncodingError{a.err}
	}
	return err
}

// answer is the value of one encoded evaluation as far as it has been
// written. Encoding stops at its first error and evaluation goes on
// without it: whether that error is the evaluation's is known only when
// evaluation has come to its end without one of its own.
type answer struct {
	e    encoder // JSON and text wanted; json is the destination
	text []byte
	err  error
}

// lit appends fixed JSON and text, as punctuation around values.
func (a *answer) lit(json, text string) {
	if a.err == nil {
		a.text = a.e.lit(a.text, "", json, text)
	}
}

func (a *answer) value(v Value) {
	if a.err == nil {
		a.text, a.err = a.e.value(a.text, v)
	}
}

// add encodes v as the next element of the open bag.
func (a *answer) add(bag *sortedElems, v Value) {
	if a.err == nil {
		a.text, a.err = a.e.add(a.text, bag, v)
	}
}

// evalInto evaluates e into the answer and returns the value's rows. It
// recurses where an answer is large — a comprehension, a tuple
// expression around them — charging the step eval charges for each such
// node, and leaves every other expression to eval.
func (ev *Evaluator) evalInto(a *answer, e Expr, env *Env) (int, error) {
	switch n := e.(type) {
	case *Comp:
		if err := ev.step(); err != nil {
			return 0, err
		}
		return ev.compInto(a, n, env)
	case *TupleExpr:
		if err := ev.step(); err != nil {
			return 0, err
		}
		a.lit(`{"tuple":[`, "{")
		for i, x := range n.Elems {
			if i > 0 {
				a.lit(",", ", ")
			}
			if _, err := ev.evalInto(a, x, env); err != nil {
				return 0, err
			}
		}
		a.lit("]}", "}")
		return 1, nil
	}
	v, err := ev.eval(e, env)
	if err != nil {
		return 0, err
	}
	a.value(v)
	if v.Kind == KindBag {
		return v.n, nil
	}
	return 1, nil
}

// compInto runs a comprehension into a sink that encodes its head
// values as elements of a bag opened in the answer; when evaluation
// ends, the bag is closed: sorted, and its JSON gathered in canonical
// order. (In an answer that has already failed to encode, the bag stays
// empty and is dropped.)
func (ev *Evaluator) compInto(a *answer, c *Comp, env *Env) (int, error) {
	out := sink{into: a}
	a.text, out.bag = a.e.beginBag(a.text, 0)
	err := ev.runComp(c, env, &out)
	rows := len(out.bag.order)
	a.text = a.e.endBag(a.text, out.bag, err == nil && a.err == nil)
	return rows, err
}

// Steps returns the evaluation steps this evaluator charged in the most
// recent Eval. Steps of other evaluators on the same Budget (the extents
// it resolved, unfolded by the query processor) are in the budget's Used
// count only.
func (ev *Evaluator) Steps() int { return ev.steps }

// ctxCheckInterval is how many evaluation steps pass between context
// polls; a power of two so the check compiles to a mask.
const ctxCheckInterval = 1024

// step charges one evaluation step. It is small enough to be inlined:
// without a limit, all but one step in ctxCheckInterval end here.
func (ev *Evaluator) step() error {
	ev.steps++
	if ev.enforced == nil && ev.steps&(ctxCheckInterval-1) != 0 {
		return nil
	}
	return ev.checkStep()
}

// charge charges n steps, as n calls of step would: a replayed join run
// charges the steps its walk charged. Without a limit, n steps that
// reach no context poll are one addition.
func (ev *Evaluator) charge(n int) error {
	if ev.enforced == nil && ev.steps&(ctxCheckInterval-1)+n < ctxCheckInterval {
		ev.steps += n
		return nil
	}
	for range n {
		if err := ev.step(); err != nil {
			return err
		}
	}
	return nil
}

// checkStep takes the step from the enforced budget, if there is one,
// and polls the context every ctxCheckInterval steps.
func (ev *Evaluator) checkStep() error {
	if ev.enforced != nil {
		if err := ev.enforced.take(); err != nil {
			return err
		}
	}
	if ev.Ctx != nil && ev.steps&(ctxCheckInterval-1) == 0 {
		if err := ev.Ctx.Err(); err != nil {
			return fmt.Errorf("iql: evaluation cancelled: %w", err)
		}
	}
	return nil
}

// stopped reports whether err ends the evaluation wherever it stands —
// the step budget is spent, or the context is done — rather than being
// an error an expression raised.
func (ev *Evaluator) stopped(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	b := ev.enforced
	return b != nil && b.Used() > b.Max
}

func (ev *Evaluator) eval(e Expr, env *Env) (Value, error) {
	if err := ev.step(); err != nil {
		return Value{}, err
	}
	switch n := e.(type) {
	case *Lit:
		return n.Val, nil

	case *slotRef:
		for range n.depth {
			env = env.parent
		}
		if n.slot >= 0 {
			return env.vals[n.slot], nil
		}
		return env.lookup(n.name)

	case *Var:
		return env.lookup(n.Name)

	case *SchemeRef:
		ext := ev.Ext
		if ext == nil {
			ext = NoExtents
		}
		return ext.Extent(n.Parts)

	case *TupleExpr:
		items := make([]Value, len(n.Elems))
		for i, x := range n.Elems {
			v, err := ev.eval(x, env)
			if err != nil {
				return Value{}, err
			}
			items[i] = v
		}
		return Tuple(items...), nil

	case *BagExpr:
		items := make([]Value, len(n.Elems))
		for i, x := range n.Elems {
			v, err := ev.eval(x, env)
			if err != nil {
				return Value{}, err
			}
			items[i] = v
		}
		return BagOf(items), nil

	case *Comp:
		return ev.evalComp(n, env)

	case *Binary:
		return ev.evalBinary(n, env)

	case *Unary:
		x, err := ev.eval(n.X, env)
		if err != nil {
			return Value{}, err
		}
		switch n.Op {
		case "-":
			switch x.Kind {
			case KindInt:
				return Int(-x.I()), nil
			case KindFloat:
				return Float(-x.F()), nil
			}
			return Value{}, fmt.Errorf("iql: unary '-' needs a number, got %s", x.Kind)
		case "not":
			if x.Kind != KindBool {
				return Value{}, fmt.Errorf("iql: 'not' needs a boolean, got %s", x.Kind)
			}
			return Bool(!x.B()), nil
		}
		return Value{}, fmt.Errorf("iql: unknown unary operator %q", n.Op)

	case *Call:
		return ev.evalCall(n, env)

	case *RangeExpr:
		// Evaluating a Range yields its lower bound: the certain
		// answers. Void lowers evaluate to the empty bag.
		lo, err := ev.eval(n.Lo, env)
		if err != nil {
			return Value{}, err
		}
		if lo.Kind == KindVoid {
			return Bag(), nil
		}
		return lo, nil

	case *IfExpr:
		c, err := ev.eval(n.Cond, env)
		if err != nil {
			return Value{}, err
		}
		if c.Kind != KindBool {
			return Value{}, fmt.Errorf("iql: 'if' condition must be boolean, got %s", c.Kind)
		}
		if c.B() {
			return ev.eval(n.Then, env)
		}
		return ev.eval(n.Else, env)

	case *LetExpr:
		v, err := ev.eval(n.Val, env)
		if err != nil {
			return Value{}, err
		}
		return ev.eval(n.Body, &Env{names: []string{n.Name}, vals: []Value{v}, parent: env})
	}
	return Value{}, fmt.Errorf("iql: cannot evaluate %T", e)
}

// evalComp evaluates a comprehension through a context that memoises
// constant generator sources and hash-indexes equi-join filters (see
// opt.go), keeping multi-generator joins near-linear. The analysis is
// kept on the Comp node and a context parked beside it, so neither a
// nested comprehension re-entered once per enclosing binding nor a
// query evaluated again pays for them again.
func (ev *Evaluator) evalComp(c *Comp, env *Env) (Value, error) {
	var out sink
	if err := ev.runComp(c, env, &out); err != nil {
		return Value{}, err
	}
	return BagOf(out.vals), nil
}

// countComp is count(c) without c's bag: the number comes from the
// source when the extents can count c there (countAtSource), and
// otherwise the comprehension runs into a counting sink. Steps of the
// latter equal the materialising evaluation's, the one eval charges for
// the comprehension node included.
func (ev *Evaluator) countComp(c *Comp, env *Env) (Value, error) {
	if err := ev.step(); err != nil {
		return Value{}, err
	}
	out := sink{count: true}
	if err := ev.runComp(c, env, &out); err != nil {
		return Value{}, err
	}
	return Int(out.n), nil
}

// runComp evaluates c under env into out; a counting sink takes the
// count from the source when it can.
func (ev *Evaluator) runComp(c *Comp, env *Env, out *sink) (err error) {
	ctx := ev.compCtxFor(c)
	defer ctx.release()
	if out.count {
		var ok bool
		if out.n, ok, err = ctx.countAtSource(); err != nil || ok {
			return err
		}
	}
	ctx.scope.parent = env
	return ctx.run(0, out)
}

func (ev *Evaluator) evalBinary(n *Binary, env *Env) (Value, error) {
	// Short-circuit boolean operators.
	if n.Op == "and" || n.Op == "or" {
		l, err := ev.eval(n.L, env)
		if err != nil {
			return Value{}, err
		}
		if l.Kind != KindBool {
			return Value{}, fmt.Errorf("iql: %q needs booleans, got %s", n.Op, l.Kind)
		}
		if n.Op == "and" && !l.B() {
			return Bool(false), nil
		}
		if n.Op == "or" && l.B() {
			return Bool(true), nil
		}
		r, err := ev.eval(n.R, env)
		if err != nil {
			return Value{}, err
		}
		if r.Kind != KindBool {
			return Value{}, fmt.Errorf("iql: %q needs booleans, got %s", n.Op, r.Kind)
		}
		return r, nil
	}

	l, err := ev.eval(n.L, env)
	if err != nil {
		return Value{}, err
	}
	r, err := ev.eval(n.R, env)
	if err != nil {
		return Value{}, err
	}

	switch n.Op {
	case "=":
		return Bool(l.Equal(r)), nil
	case "<>":
		return Bool(!l.Equal(r)), nil
	case "<", "<=", ">", ">=":
		c, err := l.Compare(r)
		if err != nil {
			return Value{}, err
		}
		if c == 0 && (math.IsNaN(l.F()) || math.IsNaN(r.F())) {
			return Bool(false), nil // unordered (Compare's 0), as '=' already says
		}
		switch n.Op {
		case "<":
			return Bool(c < 0), nil
		case "<=":
			return Bool(c <= 0), nil
		case ">":
			return Bool(c > 0), nil
		default:
			return Bool(c >= 0), nil
		}
	case "++":
		return Union(l, r)
	case "+", "-", "*", "/":
		return arith(n.Op, l, r)
	}
	return Value{}, fmt.Errorf("iql: unknown operator %q", n.Op)
}

func arith(op string, l, r Value) (Value, error) {
	if op == "+" && l.Kind == KindString && r.Kind == KindString {
		return Str(l.S() + r.S()), nil
	}
	numeric := func(v Value) bool { return v.Kind == KindInt || v.Kind == KindFloat }
	if !numeric(l) || !numeric(r) {
		return Value{}, fmt.Errorf("iql: %q needs numbers, got %s and %s", op, l.Kind, r.Kind)
	}
	if l.Kind == KindInt && r.Kind == KindInt && op != "/" {
		switch op {
		case "+":
			return Int(l.I() + r.I()), nil
		case "-":
			return Int(l.I() - r.I()), nil
		case "*":
			return Int(l.I() * r.I()), nil
		}
	}
	a, b := l.AsFloat(), r.AsFloat()
	switch op {
	case "+":
		return Float(a + b), nil
	case "-":
		return Float(a - b), nil
	case "*":
		return Float(a * b), nil
	case "/":
		if b == 0 {
			return Value{}, fmt.Errorf("iql: division by zero")
		}
		if l.Kind == KindInt && r.Kind == KindInt && l.I()%r.I() == 0 {
			return Int(l.I() / r.I()), nil
		}
		return Float(a / b), nil
	}
	return Value{}, fmt.Errorf("iql: unknown arithmetic operator %q", op)
}
