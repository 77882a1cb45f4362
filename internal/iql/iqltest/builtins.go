package iqltest

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/dataspace/automed/internal/iql"
)

// Builtin is one built-in function as the language reference states it,
// laid out like Rego's built-in reference: name, arity, what it takes,
// what it returns, its edge cases, and whether its answer may depend on
// the order of a bag's elements — which bags otherwise do not have. Fn is
// what Eval calls. docs/iql.md carries the same rows, and a test holds
// the two, and iql.Builtins, to each other.
type Builtin struct {
	Name    string
	Arity   int
	Args    string
	Result  string
	Edges   string
	Ordered bool
	Fn      func(args []iql.Value) (iql.Value, error)
}

// Builtins is the table, in iql.Builtins' order.
var Builtins = []Builtin{
	{"abs", 1, "number", "a number of its kind",
		"an int wraps: abs(-9223372036854775808) is itself; a float keeps -0.0 and NaN", false, abs},
	{"avg", 1, "collection of numbers", "float",
		"empty: null; summed in the bag's order, so rounding may depend on it; any other element fails", true, avg},
	{"contains", 2, "string, string", "bool", "anything but two strings fails", false, strs(strings.Contains)},
	{"count", 1, "collection", "int", "Void: 0; Any and non-collections fail", false, count},
	{"distinct", 1, "collection", "bag",
		"an element Equal to an earlier one goes: of 5 and 5.0 the first stays; every NaN stays", false, distinct},
	{"endswith", 2, "string, string", "bool", "anything but two strings fails", false, strs(strings.HasSuffix)},
	{"first", 1, "collection", "an element", "empty: null; the first in the bag's order", true, first},
	{"flatten", 1, "collection of collections", "bag", "an element that is no collection fails", false, flatten},
	{"lower", 1, "string", "string", "anything but a string fails", false, str(strings.ToLower)},
	{"max", 1, "collection of numbers, or of strings", "an element",
		"empty: null; numbers and strings never mix; a NaN is the answer; of ties, the first", false, extreme(1)},
	{"member", 2, "collection, any", "bool", "True when an element Equals the value; NaN is a member of nothing", false, member},
	{"min", 1, "collection of numbers, or of strings", "an element",
		"empty: null; numbers and strings never mix; a NaN is the answer; of ties, the first", false, extreme(-1)},
	{"sort", 1, "collection", "bag", "canonical key order; elements whose keys tie, as 5 and 5.0 do, keep their order", false, sortBag},
	{"startswith", 2, "string, string", "bool", "anything but two strings fails", false, strs(strings.HasPrefix)},
	{"sum", 1, "collection of numbers", "int, or float when a float is among them",
		"empty: 0; ints wrap on overflow; floats summed in the bag's order, so rounding may depend on it; any other element fails", true, sum},
	{"tofloat", 1, "number", "float", "an int beyond ±2⁵³ rounds to the nearest float", false, tofloat},
	{"tostring", 1, "any", "string", "a string stays; anything else is its IQL text, a bag's in its order", true, tostring},
	{"upper", 1, "string", "string", "anything but a string fails", false, str(strings.ToUpper)},
}

func count(args []iql.Value) (iql.Value, error) {
	els, err := elements(args[0])
	return iql.Int(int64(len(els))), err
}

// numeric returns the elements of a collection of numbers, and whether
// they are all ints.
func numeric(v iql.Value) (els []iql.Value, ints bool, err error) {
	if els, err = elements(v); err != nil {
		return nil, false, err
	}
	ints = true
	for _, e := range els {
		if !isNumber(e) {
			return nil, false, fmt.Errorf("%s among numbers", e.Kind)
		}
		ints = ints && e.Kind == iql.KindInt
	}
	return els, ints, nil
}

// floatSum adds the numbers as floats, in order.
func floatSum(els []iql.Value) (s float64) {
	for _, e := range els {
		s += e.AsFloat()
	}
	return s
}

func sum(args []iql.Value) (iql.Value, error) {
	els, ints, err := numeric(args[0])
	if err != nil || !ints {
		return iql.Float(floatSum(els)), err
	}
	var s int64
	for _, e := range els {
		s += e.I()
	}
	return iql.Int(s), nil
}

func avg(args []iql.Value) (iql.Value, error) {
	els, _, err := numeric(args[0])
	if err != nil || len(els) == 0 {
		return iql.Null(), err
	}
	return iql.Float(floatSum(els) / float64(len(els))), nil
}

// extreme is max (sign 1) or min (sign -1).
func extreme(sign int) func([]iql.Value) (iql.Value, error) {
	return func(args []iql.Value) (iql.Value, error) {
		els, err := elements(args[0])
		if err != nil || len(els) == 0 {
			return iql.Null(), err
		}
		text := 0
		for _, e := range els {
			switch {
			case e.Kind == iql.KindString:
				text++
			case !isNumber(e):
				return iql.Value{}, fmt.Errorf("%s among numbers", e.Kind)
			}
		}
		if text != 0 && text != len(els) {
			return iql.Value{}, fmt.Errorf("numbers among strings")
		}
		best := els[0]
		for _, e := range els {
			if isNaN(e) {
				return e, nil
			}
			if c, _ := e.Compare(best); c*sign > 0 {
				best = e
			}
		}
		return best, nil
	}
}

func distinct(args []iql.Value) (iql.Value, error) {
	els, err := elements(args[0])
	var out []iql.Value
	for _, e := range els {
		if !slices.ContainsFunc(out, func(o iql.Value) bool { return equal(o, e) }) {
			out = append(out, e)
		}
	}
	return iql.BagOf(out), err
}

func sortBag(args []iql.Value) (iql.Value, error) {
	els, err := elements(args[0])
	out := slices.Clone(els)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return iql.BagOf(out), err
}

func flatten(args []iql.Value) (iql.Value, error) {
	els, err := elements(args[0])
	var out []iql.Value
	for _, e := range els {
		sub, err := elements(e)
		if err != nil {
			return iql.Value{}, err
		}
		out = append(out, sub...)
	}
	return iql.BagOf(out), err
}

func first(args []iql.Value) (iql.Value, error) {
	els, err := elements(args[0])
	if err != nil || len(els) == 0 {
		return iql.Null(), err
	}
	return els[0], nil
}

func member(args []iql.Value) (iql.Value, error) {
	els, err := elements(args[0])
	return iql.Bool(slices.ContainsFunc(els, func(e iql.Value) bool { return equal(e, args[1]) })), err
}

func strs(f func(s, t string) bool) func([]iql.Value) (iql.Value, error) {
	return func(args []iql.Value) (iql.Value, error) {
		if args[0].Kind != iql.KindString || args[1].Kind != iql.KindString {
			return iql.Value{}, fmt.Errorf("%s and %s for strings", args[0].Kind, args[1].Kind)
		}
		return iql.Bool(f(args[0].S(), args[1].S())), nil
	}
}

func str(f func(string) string) func([]iql.Value) (iql.Value, error) {
	return func(args []iql.Value) (iql.Value, error) {
		if args[0].Kind != iql.KindString {
			return iql.Value{}, fmt.Errorf("%s for a string", args[0].Kind)
		}
		return iql.Str(f(args[0].S())), nil
	}
}

func abs(args []iql.Value) (iql.Value, error) {
	switch x := args[0]; {
	case x.Kind == iql.KindInt && x.I() < 0:
		return iql.Int(-x.I()), nil
	case x.Kind == iql.KindFloat && x.F() < 0:
		return iql.Float(-x.F()), nil
	case isNumber(x):
		return x, nil
	}
	return iql.Value{}, fmt.Errorf("abs of %s", args[0].Kind)
}

func tostring(args []iql.Value) (iql.Value, error) {
	if args[0].Kind == iql.KindString {
		return args[0], nil
	}
	return iql.Str(args[0].String()), nil
}

func tofloat(args []iql.Value) (iql.Value, error) {
	if !isNumber(args[0]) {
		return iql.Value{}, fmt.Errorf("tofloat of %s", args[0].Kind)
	}
	return iql.Float(args[0].AsFloat()), nil
}
