package iql

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// refKey and refString are Key and String as they were before they
// became wrappers over the append-style writers: a strings.Builder, one
// Format call per number, one Key() string per bag element. They are
// kept as the reference the writers are held against.

func refKey(v Value) string {
	var b strings.Builder
	refWriteKey(v, &b)
	return b.String()
}

func refWriteKey(v Value, b *strings.Builder) {
	switch v.Kind {
	case KindNull:
		b.WriteString("N")
	case KindBool:
		if v.B() {
			b.WriteString("b1")
		} else {
			b.WriteString("b0")
		}
	case KindInt:
		b.WriteString("i")
		b.WriteString(strconv.FormatInt(v.I(), 10))
	case KindFloat:
		if f := v.F(); f == math.Trunc(f) && f >= -0x1p63 && f < 0x1p63 {
			b.WriteString("i")
			b.WriteString(strconv.FormatInt(int64(v.F()), 10))
			return
		}
		b.WriteString("f")
		b.WriteString(strconv.FormatFloat(v.F(), 'g', -1, 64))
	case KindString:
		b.WriteString("s")
		b.WriteString(strconv.Itoa(len(v.S())))
		b.WriteString(":")
		b.WriteString(v.S())
	case KindTuple:
		b.WriteString("t(")
		for i, it := range v.Items() {
			if i > 0 {
				b.WriteString(",")
			}
			refWriteKey(it, b)
		}
		b.WriteString(")")
	case KindBag:
		keys := make([]string, len(v.Items()))
		for i, it := range v.Items() {
			keys[i] = refKey(it)
		}
		sort.Strings(keys)
		b.WriteString("B[")
		for i, k := range keys {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(k)
		}
		b.WriteString("]")
	case KindVoid:
		b.WriteString("V")
	case KindAny:
		b.WriteString("A")
	}
}

var refStringEscaper = strings.NewReplacer(`\`, `\\`, `'`, `\'`)

func refString(v Value) string {
	var b strings.Builder
	refWrite(v, &b)
	return b.String()
}

func refWrite(v Value, b *strings.Builder) {
	switch v.Kind {
	case KindNull:
		b.WriteString("null")
	case KindBool:
		if v.B() {
			b.WriteString("True")
		} else {
			b.WriteString("False")
		}
	case KindInt:
		b.WriteString(strconv.FormatInt(v.I(), 10))
	case KindFloat:
		s := strconv.FormatFloat(v.F(), 'g', -1, 64)
		b.WriteString(s)
		if !strings.ContainsAny(s, ".eE") {
			b.WriteString(".0")
		}
	case KindString:
		b.WriteByte('\'')
		b.WriteString(refStringEscaper.Replace(v.S()))
		b.WriteByte('\'')
	case KindTuple, KindBag:
		open, close := byte('{'), byte('}')
		if v.Kind == KindBag {
			open, close = '[', ']'
		}
		b.WriteByte(open)
		for i, it := range v.Items() {
			if i > 0 {
				b.WriteString(", ")
			}
			refWrite(it, b)
		}
		b.WriteByte(close)
	case KindVoid:
		b.WriteString("Void")
	case KindAny:
		b.WriteString("Any")
	}
}

// TestKeyAndStringUnchanged holds Key and String to their references
// on the property tests' value corpus and on the scalars where number
// and string formatting have edges.
func TestKeyAndStringUnchanged(t *testing.T) {
	check := func(v Value) bool {
		if got, want := v.Key(), refKey(v); got != want {
			t.Errorf("Key() = %q, reference %q", got, want)
			return false
		}
		if got, want := v.String(), refString(v); got != want {
			t.Errorf("String() = %q, reference %q", got, want)
			return false
		}
		return true
	}
	if err := quick.Check(func(a genVal) bool { return check(a.v) }, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
	edges := []Value{
		Null(), Void(), Any(), Bool(true), Bool(false), Bag(), Tuple(),
		Int(0), Int(math.MaxInt64), Int(math.MinInt64),
		Float(0), Float(math.Copysign(0, -1)), Float(5), Float(5.5), Float(1e-7), Float(1e-5), Float(1e-4),
		Float(1e15), Float(1e15 - 1), Float(1e20), Float(1e21), Float(math.MaxFloat64),
		Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)),
		Str(""), Str(`it's`), Str(`back\slash`), Str(`\'`), Str("nul\x00"), Str("bad\xff"), Str("日本語"),
	}
	for _, v := range edges {
		check(v)
	}
	check(BagOf(edges))
	check(Tuple(BagOf(edges), Bag(Int(5), Float(5), Int(5)), Tuple(edges...)))
}

// TestCarriedDigitsExponent: a carried float's decimal exponent is
// log10Pow2 of its binary one plus a correction of two bits, so the
// estimate must be ⌊log10 2^e⌋ at every normal exponent and the
// correction 0, 1 or 2 — checked at each power of two and ten and the
// floats one ulp either side, where the two exponents part.
func TestCarriedDigitsExponent(t *testing.T) {
	for e := -1022; e <= 1023; e++ {
		if got, want := log10Pow2(e), int(math.Floor(float64(e)*math.Log10(2))); got != want {
			t.Errorf("log10Pow2(%d) = %d, want %d", e, got, want)
		}
	}
	var edges []float64
	for e := -1022; e <= 1023; e++ {
		edges = append(edges, math.Ldexp(1, e))
	}
	for e := -307; e <= 308; e++ {
		p, _ := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		edges = append(edges, p)
	}
	for _, p := range edges {
		for _, f := range []float64{p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)), -p} {
			n := packDigits(math.Float64bits(f))
			if normal := math.Abs(f) >= 0x1p-1022 && !math.IsInf(f, 0); (n != 0) != normal || n&3 > 2 {
				t.Errorf("%g: packed %#x (normal %v)", f, n, normal)
			}
		}
	}
}
