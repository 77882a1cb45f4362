package iql

import (
	"fmt"
	"math"
	"strings"
)

// Builtins lists the built-in function names understood by the
// evaluator, for shell help and validation.
func Builtins() []string {
	return []string{
		"abs", "avg", "contains", "count", "distinct", "endswith",
		"first", "flatten", "lower", "max", "member", "min", "sort",
		"startswith", "sum", "tofloat", "tostring", "upper",
	}
}

func (ev *Evaluator) evalCall(n *Call, env *Env) (Value, error) {
	if n.Fn == "count" && len(n.Args) == 1 {
		if c, ok := n.Args[0].(*Comp); ok {
			return ev.countComp(c, env)
		}
	}
	// The arguments of every builtin fit an array on the stack; a call
	// with more is on its way to an arity error.
	var few [4]Value
	args := few[:0]
	if len(n.Args) > len(few) {
		args = make([]Value, 0, len(n.Args))
	}
	for _, a := range n.Args {
		v, err := ev.eval(a, env)
		if err != nil {
			return Value{}, err
		}
		args = append(args, v)
	}
	nargs := len(args)
	want := func(k int) error {
		if nargs != k {
			return fmt.Errorf("iql: %s expects %d argument(s), got %d", n.Fn, k, nargs)
		}
		return nil
	}

	switch n.Fn {
	case "count":
		if err := want(1); err != nil {
			return Value{}, err
		}
		els, err := args[0].Elements()
		if err != nil {
			return Value{}, fmt.Errorf("iql: count: %w", err)
		}
		return Int(int64(len(els))), nil

	case "sum", "avg", "max", "min":
		if err := want(1); err != nil {
			return Value{}, err
		}
		return aggregate(n.Fn, args[0])

	case "distinct":
		if err := want(1); err != nil {
			return Value{}, err
		}
		return Distinct(args[0])

	case "sort":
		if err := want(1); err != nil {
			return Value{}, err
		}
		return SortBag(args[0])

	case "flatten":
		if err := want(1); err != nil {
			return Value{}, err
		}
		els, err := args[0].Elements()
		if err != nil {
			return Value{}, fmt.Errorf("iql: flatten: %w", err)
		}
		var out []Value
		for _, e := range els {
			sub, err := e.Elements()
			if err != nil {
				return Value{}, fmt.Errorf("iql: flatten: %w", err)
			}
			out = append(out, sub...)
		}
		return BagOf(out), nil

	case "first":
		if err := want(1); err != nil {
			return Value{}, err
		}
		els, err := args[0].Elements()
		if err != nil {
			return Value{}, fmt.Errorf("iql: first: %w", err)
		}
		if len(els) == 0 {
			return Null(), nil
		}
		return els[0], nil

	case "member":
		if err := want(2); err != nil {
			return Value{}, err
		}
		els, err := args[0].Elements()
		if err != nil {
			return Value{}, fmt.Errorf("iql: member: %w", err)
		}
		for _, e := range els {
			if e.Equal(args[1]) {
				return Bool(true), nil
			}
		}
		return Bool(false), nil

	case "contains", "startswith", "endswith":
		if err := want(2); err != nil {
			return Value{}, err
		}
		if args[0].Kind != KindString || args[1].Kind != KindString {
			return Value{}, fmt.Errorf("iql: %s expects strings", n.Fn)
		}
		switch n.Fn {
		case "contains":
			return Bool(strings.Contains(args[0].S(), args[1].S())), nil
		case "startswith":
			return Bool(strings.HasPrefix(args[0].S(), args[1].S())), nil
		default:
			return Bool(strings.HasSuffix(args[0].S(), args[1].S())), nil
		}

	case "upper", "lower":
		if err := want(1); err != nil {
			return Value{}, err
		}
		if args[0].Kind != KindString {
			return Value{}, fmt.Errorf("iql: %s expects a string", n.Fn)
		}
		if n.Fn == "upper" {
			return Str(strings.ToUpper(args[0].S())), nil
		}
		return Str(strings.ToLower(args[0].S())), nil

	case "abs":
		if err := want(1); err != nil {
			return Value{}, err
		}
		switch args[0].Kind {
		case KindInt:
			if args[0].I() < 0 {
				return Int(-args[0].I()), nil
			}
			return args[0], nil
		case KindFloat:
			if args[0].F() < 0 {
				return Float(-args[0].F()), nil
			}
			return args[0], nil
		}
		return Value{}, fmt.Errorf("iql: abs expects a number")

	case "tostring":
		if err := want(1); err != nil {
			return Value{}, err
		}
		if args[0].Kind == KindString {
			return args[0], nil
		}
		return Str(args[0].String()), nil

	case "tofloat":
		if err := want(1); err != nil {
			return Value{}, err
		}
		switch args[0].Kind {
		case KindInt:
			return Float(float64(args[0].I())), nil
		case KindFloat:
			return args[0], nil
		}
		return Value{}, fmt.Errorf("iql: tofloat expects a number")
	}
	return Value{}, fmt.Errorf("iql: unknown function %q", n.Fn)
}

func aggregate(fn string, coll Value) (Value, error) {
	els, err := coll.Elements()
	if err != nil {
		return Value{}, fmt.Errorf("iql: %s: %w", fn, err)
	}
	if len(els) == 0 {
		if fn == "sum" {
			return Int(0), nil
		}
		return Null(), nil
	}
	allInt := true
	for _, e := range els {
		switch e.Kind {
		case KindInt:
		case KindFloat:
			allInt = false
		case KindString:
			// max/min over strings are permitted.
			if fn == "max" || fn == "min" {
				return aggregateStrings(fn, els)
			}
			return Value{}, fmt.Errorf("iql: %s over non-numeric element %s", fn, e.Kind)
		default:
			return Value{}, fmt.Errorf("iql: %s over non-numeric element %s", fn, e.Kind)
		}
	}
	switch fn {
	case "sum":
		if allInt {
			var s int64
			for _, e := range els {
				s += e.I()
			}
			return Int(s), nil
		}
		var s float64
		for _, e := range els {
			s += e.AsFloat()
		}
		return Float(s), nil
	case "avg":
		var s float64
		for _, e := range els {
			s += e.AsFloat()
		}
		return Float(s / float64(len(els))), nil
	case "max", "min":
		best := els[0]
		for _, e := range els {
			if math.IsNaN(e.F()) {
				return e, nil
			}
			c, err := e.Compare(best)
			if err != nil {
				return Value{}, fmt.Errorf("iql: %s: %w", fn, err)
			}
			if (fn == "max" && c > 0) || (fn == "min" && c < 0) {
				best = e
			}
		}
		return best, nil
	}
	return Value{}, fmt.Errorf("iql: unknown aggregate %q", fn)
}

func aggregateStrings(fn string, els []Value) (Value, error) {
	best := els[0]
	for _, e := range els {
		if e.Kind != KindString {
			return Value{}, fmt.Errorf("iql: %s over mixed string/non-string elements", fn)
		}
		c := strings.Compare(e.S(), best.S())
		if (fn == "max" && c > 0) || (fn == "min" && c < 0) {
			best = e
		}
	}
	return best, nil
}
