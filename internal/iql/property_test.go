package iql

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genValue generates random IQL values of bounded depth.
func genValue(r *rand.Rand, depth int) Value {
	max := 7
	if depth <= 0 {
		max = 5
	}
	switch r.Intn(max) {
	case 0:
		return Int(int64(r.Intn(200) - 100))
	case 1:
		return Float(float64(r.Intn(1000)) / 16)
	case 2:
		return Str(randWord(r))
	case 3:
		return Bool(r.Intn(2) == 0)
	case 4:
		return Void()
	case 5:
		n := r.Intn(3)
		items := make([]Value, n)
		for i := range items {
			items[i] = genValue(r, depth-1)
		}
		return Tuple(items...)
	default:
		n := r.Intn(3)
		items := make([]Value, n)
		for i := range items {
			items[i] = genValue(r, depth-1)
		}
		return BagOf(items)
	}
}

func randWord(r *rand.Rand) string {
	const letters = "abcxyz_ '\\"
	n := r.Intn(8)
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[r.Intn(len(letters))]
	}
	return string(b)
}

type genVal struct{ v Value }

func (genVal) Generate(r *rand.Rand, size int) reflect.Value {
	return reflect.ValueOf(genVal{v: genValue(r, 3)})
}

func TestValueEqualMatchesKeyProperty(t *testing.T) {
	f := func(a, b genVal) bool {
		return a.v.Equal(b.v) == (a.v.Key() == b.v.Key())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestValueEqualReflexiveSymmetricProperty(t *testing.T) {
	f := func(a, b genVal) bool {
		if !a.v.Equal(a.v) {
			return false
		}
		return a.v.Equal(b.v) == b.v.Equal(a.v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestBagUnionPropertiesProperty(t *testing.T) {
	mkBag := func(g genVal) Value {
		if g.v.Kind == KindBag || g.v.Kind == KindVoid {
			return g.v
		}
		return Bag(g.v)
	}
	commutative := func(a, b genVal) bool {
		x, y := mkBag(a), mkBag(b)
		u1, err1 := Union(x, y)
		u2, err2 := Union(y, x)
		if err1 != nil || err2 != nil {
			return false
		}
		return u1.Equal(u2)
	}
	if err := quick.Check(commutative, &quick.Config{MaxCount: 500}); err != nil {
		t.Errorf("commutativity: %v", err)
	}
	associative := func(a, b, c genVal) bool {
		x, y, z := mkBag(a), mkBag(b), mkBag(c)
		ab, _ := Union(x, y)
		abc1, _ := Union(ab, z)
		bc, _ := Union(y, z)
		abc2, _ := Union(x, bc)
		return abc1.Equal(abc2)
	}
	if err := quick.Check(associative, &quick.Config{MaxCount: 500}); err != nil {
		t.Errorf("associativity: %v", err)
	}
	identity := func(a genVal) bool {
		x := mkBag(a)
		u, err := Union(x, Void())
		if err != nil {
			return false
		}
		els, _ := x.Elements()
		return u.Equal(BagOf(els))
	}
	if err := quick.Check(identity, &quick.Config{MaxCount: 500}); err != nil {
		t.Errorf("identity: %v", err)
	}
	cardinality := func(a, b genVal) bool {
		x, y := mkBag(a), mkBag(b)
		u, _ := Union(x, y)
		ex, _ := x.Elements()
		ey, _ := y.Elements()
		return u.Len() == len(ex)+len(ey)
	}
	if err := quick.Check(cardinality, &quick.Config{MaxCount: 500}); err != nil {
		t.Errorf("cardinality: %v", err)
	}
}

func TestDistinctIdempotentProperty(t *testing.T) {
	f := func(a genVal) bool {
		v := a.v
		if v.Kind != KindBag && v.Kind != KindVoid {
			v = Bag(v)
		}
		d1, err := Distinct(v)
		if err != nil {
			return false
		}
		d2, err := Distinct(d1)
		if err != nil {
			return false
		}
		return d1.Equal(d2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestValueStringParsesBackProperty(t *testing.T) {
	f := func(a genVal) bool {
		if a.v.IsNull() || containsNull(a.v) {
			return true // null has no literal syntax inside collections
		}
		e, err := Parse(a.v.String())
		if err != nil {
			return false
		}
		ev := NewEvaluator(NoExtents)
		got, err := ev.Eval(e, nil)
		if err != nil {
			return false
		}
		// Void parses back as the Void constant which evaluates to
		// itself; an empty bag stays an empty bag.
		return got.Equal(a.v) || (a.v.Kind == KindVoid && got.Kind == KindVoid)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
		t.Error(err)
	}
}

func containsNull(v Value) bool {
	if v.IsNull() {
		return true
	}
	for _, it := range v.Items() {
		if containsNull(it) {
			return true
		}
	}
	return false
}

// TestOptimizerEquivalenceProperty checks that the hash-join optimiser
// produces exactly the same bags as naive nested-loop evaluation, over
// randomised join data and a family of join-shaped comprehensions.
func TestOptimizerEquivalenceProperty(t *testing.T) {
	queries := []string{
		"[{a, c} | {a, x} <- <<r>>; {c, y} <- <<s>>; y = x]",
		"[{a, c} | {a, x} <- <<r>>; {c, y} <- <<s>>; x = y; c > 0]",
		"[{a, b, c} | {a, x} <- <<r>>; {b, y} <- <<s>>; y = x; {c, z} <- <<r>>; z = y]",
		"[c | a <- <<k>>; {c, y} <- <<s>>; y = a]",
		"[{a, c} | {a, x} <- <<r>>; {c, x2} <- <<s>>; x2 = x; x2 > 1]",
		// A name a pattern repeats is bound to its last occurrence, and
		// that is the component the join is keyed on.
		"[k | y <- [2]; {k, k} <- [{1, 2}]; k = y]",
		"[k | y <- [1]; {k, k} <- [{1, 2}]; k = y]",
		"[k | {k, k} <- [{1, 2}, {2, 2}]; k = 2]",
		"[k | y <- [2]; {k, {k, z}} <- [{1, {2, 3}}]; k = y]",
		// A name the generator binds again is its own in the filter.
		"[v | k <- [1]; {k, v} <- [{2, 2}, {1, 5}]; v = k]",
	}
	// naiveEval evaluates without the optimiser by wrapping every
	// generator source in an identity comprehension dependent on an
	// outer variable? Simpler: compare against a reference
	// implementation built here.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mk := func(n, keyRange int) Value {
			items := make([]Value, n)
			for i := range items {
				items[i] = Tuple(Int(int64(i)), Int(int64(r.Intn(keyRange))))
			}
			return BagOf(items)
		}
		rBag := mk(1+r.Intn(20), 5)
		sBag := mk(1+r.Intn(20), 5)
		kBag := func() Value {
			items := make([]Value, 1+r.Intn(10))
			for i := range items {
				items[i] = Int(int64(r.Intn(5)))
			}
			return BagOf(items)
		}()
		ext := ExtentsFunc(func(parts []string) (Value, error) {
			switch parts[0] {
			case "r":
				return rBag, nil
			case "s":
				return sBag, nil
			case "k":
				return kBag, nil
			}
			return Value{}, &unknownErr{parts[0]}
		})
		for _, q := range append(queries[:len(queries):len(queries)], genJoin(r), genJoin(r), genJoin(r)) {
			e := MustParse(q)
			opt, err := NewEvaluator(ext).Eval(e, nil)
			ref, refErr := referenceEval(e.(*Comp), ext)
			if err != nil || refErr != nil {
				// A generated filter may name a variable its pattern did
				// not bind: then both fail, or neither reached the filter.
				if (err == nil) != (refErr == nil) {
					t.Logf("mismatch for %s: opt fails with %v, ref with %v", q, err, refErr)
					return false
				}
				continue
			}
			if !opt.Equal(ref) {
				t.Logf("mismatch for %s: opt=%s ref=%s", q, opt, ref)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Values: func(vs []reflect.Value, r *rand.Rand) {
		vs[0] = reflect.ValueOf(r.Int63())
	}}); err != nil {
		t.Error(err)
	}
}

// genJoin writes a join of <<r>> with <<s>> whose inner pattern is drawn
// at random — names that repeat, within the pattern and from the outer
// generator, "_", a literal, a nested pattern — followed by one or two
// equality filters between what the two generators bind, either way
// round: the shapes the join analysis has to key on the right component
// of, or leave to the scan.
func genJoin(r *rand.Rand) string {
	names := []string{"a", "x", "c", "y", "y", "_"}
	name := func() string { return names[r.Intn(len(names))] }
	var elem func(depth int) string
	elem = func(depth int) string {
		switch n := r.Intn(10); {
		case n == 0:
			return fmt.Sprint(r.Intn(5))
		case n == 1 && depth == 0:
			return "{" + elem(1) + ", " + elem(1) + "}"
		}
		return name()
	}
	pat := "{" + elem(0) + ", " + elem(0) + "}"
	if r.Intn(6) == 0 {
		pat = name()
	}
	q := "[{a, x} | {a, x} <- <<r>>; " + pat + " <- <<s>>"
	for n := 1 + r.Intn(2); n > 0; n-- {
		l, rhs := names[r.Intn(5)], names[r.Intn(5)]
		if r.Intn(4) == 0 {
			rhs = "{" + rhs + ", " + names[r.Intn(5)] + "}"
		}
		q += "; " + l + " = " + rhs
	}
	return q + "]"
}

// referenceEval is a deliberately naive comprehension evaluator used as
// the oracle for optimiser equivalence.
func referenceEval(c *Comp, ext Extents) (Value, error) {
	ev := NewEvaluator(ext)
	var out []Value
	var rec func(i int, env *Env) error
	rec = func(i int, env *Env) error {
		if i == len(c.Quals) {
			v, err := ev.eval(c.Head, env)
			if err != nil {
				return err
			}
			out = append(out, v)
			return nil
		}
		switch q := c.Quals[i].(type) {
		case *Filter:
			v, err := ev.eval(q.Cond, env)
			if err != nil {
				return err
			}
			if v.Kind == KindBool && v.B() {
				return rec(i+1, env)
			}
			return nil
		case *Generator:
			src, err := ev.eval(q.Src, env)
			if err != nil {
				return err
			}
			els, err := src.Elements()
			if err != nil {
				return err
			}
			for _, el := range els {
				child := env.Child()
				ok, err := bindPattern(q.Pat, el, child)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
				if err := rec(i+1, child); err != nil {
					return err
				}
			}
			return nil
		}
		return nil
	}
	if err := rec(0, NewEnv()); err != nil {
		return Value{}, err
	}
	return BagOf(out), nil
}

// bindPattern is the reference evaluator's binder: it binds a pattern to
// a value by name, one Bind per variable, reporting whether it matched.
// The evaluator proper binds by slot (slotPat in opt.go); the
// equivalence properties above hold the two together.
func bindPattern(p Pattern, v Value, env *Env) (bool, error) {
	switch pat := p.(type) {
	case *VarPat:
		if pat.Name != "_" {
			env.Bind(pat.Name, v)
		}
		return true, nil
	case *LitPat:
		return pat.Val.Equal(v), nil
	case *TuplePat:
		if v.Kind != KindTuple || len(v.Items()) != len(pat.Elems) {
			return false, nil
		}
		for i, sub := range pat.Elems {
			ok, err := bindPattern(sub, v.Items()[i], env)
			if err != nil || !ok {
				return ok, err
			}
		}
		return true, nil
	}
	return false, fmt.Errorf("iql: unknown pattern %T", p)
}
