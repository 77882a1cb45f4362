// Package iql implements IQL, the functional comprehension-based query
// language of the AutoMed system (Jasper et al.), as used by the paper
// "Intersection Schemas as a Dataspace Integration Technique" (EDBT 2014).
//
// IQL values are scalars (integers, floats, strings, booleans), tuples
// written {e1, …, en}, and bags (multisets) written [e1, …, en]. Queries
// are comprehensions [head | qual1; …; qualn] whose qualifiers are
// generators (pattern <- collection) and filters (boolean expressions).
// The distinguished constants Void and Any denote the empty collection
// and the unbounded collection, and Range ql qu pairs a lower and upper
// bound for extend/contract transformations.
//
// # Values
//
// A Value is the unit every extent, join index, cache entry and answer
// is made of, so its size is what a row costs: 32 bytes — one pointer,
// one length, one 8-byte word and the kind — where six fields side by
// side (kind, bool, int, float, string, items), at most two of them
// live, were 72. A scalar is bits in the word; a string's bytes, or a
// tuple's or bag's items, are the pointer and the length (the word then
// keeps the items' capacity, for Cap to report). A float read from a
// source (SourceFloat) keeps its shortest decimal digits in the length,
// found once when the cell is read, for every answer to lay out. Build
// values with the constructors (Int, Str, Tuple, BagOf, …) and read
// them with the accessors (I, S, Items, …), which return the zero value
// when the kind is another.
//
// Values are immutable. Constructors keep the string or the slice they
// are given, without copying, and accessors hand the same memory back:
// neither side may write to it afterwards. Items returns a slice with
// no spare capacity, because tuples are carved next to each other out
// of shared arrays and an append must copy rather than land on a
// neighbour. Value is not comparable with ==; Equal, Hash, ValueSet and
// JoinIndex are how values are compared and keyed.
//
// A string header and a slice header cannot share two words in safe Go,
// so value.go — and no other file — uses package unsafe to take them
// apart (unsafe.StringData, unsafe.SliceData) and put them back
// (unsafe.String, unsafe.Slice), always from a pointer and a length that
// came out of one live string or slice. The race detector's build
// (make race) compiles in checkptr, which faults if a rebuilt string or
// slice ever spans allocations; the accessor round trips, the wrong-kind
// reads and the clipped capacity are tests in value_repr_test.go.
package iql

import (
	"cmp"
	"fmt"
	"math"
	"strings"
	"unsafe"
)

// Kind discriminates Value representations.
type Kind uint8

// Value kinds.
const (
	KindNull Kind = iota // absent value (internal)
	KindBool
	KindInt
	KindFloat
	KindString
	KindTuple
	KindBag
	KindVoid // the constant Void: the empty collection / no information
	KindAny  // the constant Any: the unbounded collection
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindTuple:
		return "tuple"
	case KindBag:
		return "bag"
	case KindVoid:
		return "Void"
	case KindAny:
		return "Any"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is an IQL runtime value: 32 bytes on a 64-bit machine, whatever
// it holds. The zero Value is the null value. Values are immutable.
//
// Kind says which of the other three words are live. A bool, an int64
// or a float64 lives as bits in word; a float's n is its packed digits
// or 0 (SourceFloat), which only the encoder reads. A string's bytes,
// or a tuple's or bag's items, are ptr and n — the data pointer and the
// length of the string or slice the constructor was given, taken apart
// and put back together with package unsafe in this file and nowhere
// else — and for items word keeps the slice's capacity. Read them
// through B, I, F, S, Items and Cap, which return the zero value on any
// other kind (word is shared, so there is no field to read unchecked).
//
// The zero-size array of funcs makes Value non-comparable: v == w and
// map[Value] would otherwise compile and compare strings and items by
// pointer. Use Equal, Hash, ValueSet and JoinIndex.
type Value struct {
	_    [0]func()
	ptr  unsafe.Pointer // string bytes, or the first item
	n    int            // len of the string or of the items, or a float's digits
	word uint64         // bool, int64 or float64 bits, or cap of the items
	Kind Kind
}

// Null returns the null value.
func Null() Value { return Value{} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	v := Value{Kind: KindBool}
	if b {
		v.word = 1
	}
	return v
}

// Int returns an integer value.
func Int(i int64) Value { return Value{Kind: KindInt, word: uint64(i)} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{Kind: KindFloat, word: math.Float64bits(f)} }

// SourceFloat returns Float(f) carrying f's shortest decimal digits, for
// a cell read from a source: every answer the cell reaches lays them out
// instead of searching for them again. They live in the length word,
// which a float does not otherwise use, so the value reads, compares and
// hashes as Float(f) does. Zero, subnormals, NaN and ±Inf carry none.
func SourceFloat(f float64) Value {
	v := Float(f)
	v.n = packDigits(v.word)
	return v
}

// Str returns a string value.
func Str(s string) Value {
	if s == "" {
		return Value{Kind: KindString}
	}
	return Value{Kind: KindString, ptr: unsafe.Pointer(unsafe.StringData(s)), n: len(s)}
}

// Tuple returns a tuple value of the given components.
func Tuple(items ...Value) Value { return collection(KindTuple, items) }

// Bag returns a bag (multiset) of the given elements.
func Bag(items ...Value) Value { return collection(KindBag, items) }

// BagOf wraps an existing slice as a bag without copying.
func BagOf(items []Value) Value { return collection(KindBag, items) }

func collection(k Kind, items []Value) Value {
	return Value{Kind: k, ptr: unsafe.Pointer(unsafe.SliceData(items)), n: len(items), word: uint64(cap(items))}
}

// Void returns the Void constant (the empty collection).
func Void() Value { return Value{Kind: KindVoid} }

// Any returns the Any constant (the unbounded collection).
func Any() Value { return Value{Kind: KindAny} }

// B returns a boolean value's bool; false for any other kind.
func (v Value) B() bool { return v.Kind == KindBool && v.word != 0 }

// I returns an integer value's int64; 0 for any other kind.
func (v Value) I() int64 {
	if v.Kind != KindInt {
		return 0
	}
	return int64(v.word)
}

// F returns a float value's float64; 0 for any other kind (an integer
// included: see AsFloat).
func (v Value) F() float64 {
	if v.Kind != KindFloat {
		return 0
	}
	return math.Float64frombits(v.word)
}

// S returns a string value's string; "" for any other kind.
func (v Value) S() string {
	if v.Kind != KindString {
		return ""
	}
	return unsafe.String((*byte)(v.ptr), v.n)
}

// Items returns a tuple's components or a bag's elements; nil for any
// other kind. The slice must not be written to. Its capacity is its
// length, so an append copies: tuples are carved side by side out of
// shared arrays (wrapper pages, join keys), and the room after one is
// its neighbour.
func (v Value) Items() []Value {
	if v.Kind != KindTuple && v.Kind != KindBag {
		return nil
	}
	return unsafe.Slice((*Value)(v.ptr), v.n)
}

// Cap returns the capacity of the slice a tuple or a bag was built from
// — how much array the value keeps alive, which Items, clipped to its
// length, does not say; 0 for any other kind. A cache that charges an
// extent by its length reads it to see that it is not holding a page.
func (v Value) Cap() int {
	if v.Kind != KindTuple && v.Kind != KindBag {
		return 0
	}
	return int(v.word)
}

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// valueOverhead is the in-memory size of one Value.
const valueOverhead = int64(unsafe.Sizeof(Value{}))

// Footprint estimates the value's in-memory size in bytes: the Value
// itself plus string payloads, recursively over tuple components and
// bag elements. It is the cost measure used by the size-aware caches to
// enforce their byte budgets; an estimate is sufficient because budgets
// bound aggregate memory, not exact allocations.
func (v Value) Footprint() int64 {
	n := valueOverhead + int64(len(v.S()))
	for _, it := range v.Items() {
		n += it.Footprint()
	}
	return n
}

// IsCollection reports whether v can be enumerated: a bag or Void.
func (v Value) IsCollection() bool { return v.Kind == KindBag || v.Kind == KindVoid }

// Elements returns the elements of a bag; Void yields nil. It is an
// error to call Elements on a non-collection.
func (v Value) Elements() ([]Value, error) {
	switch v.Kind {
	case KindBag:
		return v.Items(), nil
	case KindVoid:
		return nil, nil
	case KindAny:
		return nil, fmt.Errorf("iql: cannot enumerate Any")
	default:
		return nil, fmt.Errorf("iql: %s is not a collection", v.Kind)
	}
}

// Len returns the number of elements of a bag (0 for Void) or components
// of a tuple; -1 otherwise.
func (v Value) Len() int {
	switch v.Kind {
	case KindBag, KindTuple:
		return v.n
	case KindVoid:
		return 0
	default:
		return -1
	}
}

// Equal reports whether two values are equal; bags compare as multisets,
// and an int equals a float of exactly its value (see Compare), so that
// equality is transitive at any magnitude. Scalar and tuple
// comparisons take allocation-free fast paths; bags are compared as
// hash-bucketed multisets (see bagEqual) — no canonical key strings are
// built anywhere.
//
// NaN is never equal to anything, itself included, at every nesting
// depth. (The '=' operator always behaved this way for top-level
// scalars; elements inside bags historically compared via canonical
// key strings, which made NaN self-equal there only. Equality is now
// uniformly IEEE-like instead of depth-dependent.)
func (v Value) Equal(w Value) bool {
	switch {
	case v.Kind == KindInt && w.Kind == KindInt:
		return v.word == w.word
	case v.Kind == KindString && w.Kind == KindString:
		return v.S() == w.S()
	case v.Kind == KindBool && w.Kind == KindBool:
		return v.word == w.word
	case (v.Kind == KindInt || v.Kind == KindFloat) && (w.Kind == KindInt || w.Kind == KindFloat):
		c, ordered := compareNumbers(v, w)
		return ordered && c == 0
	case v.Kind == KindTuple && w.Kind == KindTuple:
		vs, ws := v.Items(), w.Items()
		if len(vs) != len(ws) {
			return false
		}
		for i := range vs {
			if !vs[i].Equal(ws[i]) {
				return false
			}
		}
		return true
	}
	if v.Kind != w.Kind {
		// Cross-kind numeric equality was handled above; any other kind
		// mix can never be equal.
		return false
	}
	switch v.Kind {
	case KindBag:
		return bagEqual(v.Items(), w.Items())
	case KindNull, KindVoid, KindAny:
		return true
	}
	return false
}

// Compare orders two scalar values. It returns an error for incomparable
// kinds. Numbers compare exactly by value over the whole int64 range —
// what a SQL source does with an integer column, which is what lets a
// comparison be answered there (Selection): an integral float within
// int64 range compares as that int64, any other float by its value. A
// NaN is unordered: Compare returns 0 for it, and the comparison
// operators, which check, are False.
func (v Value) Compare(w Value) (int, error) {
	if v.Kind == KindInt && w.Kind == KindInt {
		return cmp.Compare(int64(v.word), int64(w.word)), nil
	}
	if (v.Kind == KindInt || v.Kind == KindFloat) && (w.Kind == KindInt || w.Kind == KindFloat) {
		c, _ := compareNumbers(v, w)
		return c, nil
	}
	if v.Kind == KindString && w.Kind == KindString {
		return strings.Compare(v.S(), w.S()), nil
	}
	if v.Kind == KindBool && w.Kind == KindBool {
		return int(v.word) - int(w.word), nil
	}
	return 0, fmt.Errorf("iql: cannot compare %s with %s", v.Kind, w.Kind)
}

// compareNumbers orders two numbers, not both ints, exactly; ordered is
// false when either is NaN. Where an int's nearest float ties with a
// float, that float is 2⁶³, above every int, or an integer int64 holds.
func compareNumbers(v, w Value) (c int, ordered bool) {
	a, b := v.AsFloat(), w.AsFloat()
	switch {
	case math.IsNaN(a) || math.IsNaN(b):
		return 0, false
	case a != b || v.Kind == w.Kind:
		return cmp.Compare(a, b), true
	case a == 0x1p63:
		return cmp.Compare(v.Kind, w.Kind), true // the int is below it: KindInt < KindFloat
	}
	return cmp.Compare(v.I()+int64(v.F()), w.I()+int64(w.F())), true // I and F are 0 for the other kind
}

// AsFloat converts a numeric value to float64 (0 otherwise).
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindInt:
		return float64(int64(v.word))
	case KindFloat:
		return math.Float64frombits(v.word)
	}
	return 0
}

// Union returns the bag union (additive multiset union, the AutoMed
// default) of two collections. Void acts as the identity.
func Union(a, b Value) (Value, error) {
	ae, err := a.Elements()
	if err != nil {
		return Value{}, err
	}
	be, err := b.Elements()
	if err != nil {
		return Value{}, err
	}
	out := make([]Value, 0, len(ae)+len(be))
	out = append(out, ae...)
	out = append(out, be...)
	return BagOf(out), nil
}

// Distinct returns a bag with duplicate elements removed, preserving
// first-occurrence order. Duplicates are detected through a hash-
// bucketed ValueSet, so no canonical key strings are built.
func Distinct(v Value) (Value, error) {
	els, err := v.Elements()
	if err != nil {
		return Value{}, err
	}
	seen := NewValueSet(len(els))
	out := make([]Value, 0, len(els))
	for _, e := range els {
		if seen.Add(e) {
			out = append(out, e)
		}
	}
	return BagOf(out), nil
}
