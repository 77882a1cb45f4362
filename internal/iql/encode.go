package iql

import (
	"bytes"
	"cmp"
	"math"
	"slices"
	"strconv"
	"sync"

	"github.com/dataspace/automed/internal/jsontext"
)

// One recursion encodes a Value, into up to three outputs at once:
//
//   - its canonical key: two values are Equal iff their keys are
//     identical (NaN aside), bags canonicalised by sorting their
//     elements' keys so they compare as multisets;
//   - JSON as a query response carries it: scalars as JSON scalars,
//     tuples as {"tuple": [...]}, bags as {"bag": [...]} with the
//     elements in canonical order (bags are multisets, so a
//     deterministic order is free to choose and keeps responses stable),
//     Void/Any as {"const": ...} — the bytes encoding/json writes, HTML
//     escaping off, for the same shape built from maps and slices, and
//     its UnsupportedValueError for a NaN or infinite float;
//   - IQL source text: strings single-quoted with backslashes and quotes
//     escaped, tuples braced, bags bracketed in the order they are in,
//     so that the rendering is injective and, where every float in the
//     value is finite, parses back to an Equal value. A NaN or infinite
//     float renders as NaN.0, +Inf.0 or -Inf.0, which is no IQL literal;
//   - or that text escaped as the inside of a JSON string, as an
//     answer's response carries it (EvalEncoded). Every byte of a
//     rendering but a string's own is printable ASCII that JSON carries
//     as it is, so only a string escapes, and only its own bytes, as
//     they are written: a backslash in it becomes \\\\ (IQL's \\, then
//     JSON's), a quote \\', and every other byte what encoding/json makes
//     of it. The rendering is never scanned a second time.
//
// Whatever is asked for, a node is visited once and the one expensive
// scalar, a float, has its digits searched for at most once — not at
// all when it came from a source cell, which carries them (SourceFloat);
// Key, String, BagOrder and an answer's response fragment are this walk
// with different outputs switched on.
//
// The text is handed down the recursion and back as a value, the way an
// append-style function passes its destination, while key and JSON sit
// in the encoder. A slice stored through the encoder's pointer goes
// through the collector's write barrier, which while a collection is
// marking costs a quarter of a walk; the text is the one output every
// caller but a sort wants, and String must cost what it cost as a
// recursion of its own.
type encoder struct {
	key, json []byte
	want      outputs
}

type outputs uint8

const (
	wantKey outputs = 1 << iota
	wantJSON
	wantText
	// textEscaped writes the text as the inside of a JSON string.
	textEscaped
)

// Key returns a canonical encoding of the value such that two values are
// Equal iff their keys are identical. Bags are canonicalised by sorting
// element keys, so bags compare as multisets.
func (v Value) Key() string {
	e := encoder{want: wantKey}
	_, _ = e.value(nil, v) // only JSON fails
	return string(e.key)
}

// String renders the value in IQL source syntax (strings single-quoted,
// tuples braced, bags bracketed).
func (v Value) String() string { return string(v.AppendString(nil)) }

// AppendString appends the value's String rendering to dst.
func (v Value) AppendString(dst []byte) []byte {
	e := encoder{want: wantText}
	dst, _ = e.value(dst, v) // only JSON fails
	return dst
}

// AppendJSONAndText appends v as JSON to js and in IQL source syntax to
// text, walking v once: the text is String's, plain, and parses back to
// a value Equal to v where every float in v is finite. A NaN or
// infinite float anywhere in v is encoding/json's UnsupportedValueError.
func AppendJSONAndText(js, text []byte, v Value) ([]byte, []byte, error) {
	e := encoder{want: wantJSON | wantText, json: js}
	text, err := e.value(text, v)
	return e.json, text, err
}

// BagOrder returns SortBag's order as a permutation of the bag's element
// indexes, for a caller that walks the elements in canonical order
// without needing them copied into a new bag.
func BagOrder(v Value) ([]int, error) {
	els, err := v.Elements()
	if err != nil {
		return nil, err
	}
	e := encoder{want: wantKey}
	s := e.open(len(els))
	for _, el := range els {
		_, _ = e.add(nil, s, el) // only JSON fails
	}
	e.close(s, true)
	order := slices.Clone(s.order)
	sortedPool.Put(s)
	return order, nil
}

// SortBag returns a bag with elements in canonical key order, for
// deterministic display. Each element's key is written exactly once,
// into a shared arena, and an index permutation is sorted by comparing
// key bytes (see elements), so a sort costs O(n) key constructions and
// a constant number of allocations. Elements whose keys tie (e.g. 5
// and 5.0) keep their bag order.
func SortBag(v Value) (Value, error) {
	order, err := BagOrder(v)
	if err != nil {
		return Value{}, err
	}
	els := v.Items()
	out := make([]Value, len(order))
	for i, el := range order {
		out[i] = els[el]
	}
	return BagOf(out), nil
}

// lit appends one fixed spelling to each output that is wanted.
func (e *encoder) lit(dst []byte, key, json, text string) []byte {
	if e.want&wantKey != 0 {
		e.key = append(e.key, key...)
	}
	if e.want&wantJSON != 0 {
		e.json = append(e.json, json...)
	}
	if e.want&wantText != 0 {
		dst = append(dst, text...)
	}
	return dst
}

// value appends v to the wanted outputs: its text to dst, which it
// returns, its key and JSON to the encoder's.
func (e *encoder) value(dst []byte, v Value) ([]byte, error) {
	switch v.Kind {
	case KindNull:
		return e.lit(dst, "N", "null", "null"), nil
	case KindBool:
		if v.word != 0 {
			return e.lit(dst, "b1", "true", "True"), nil
		}
		return e.lit(dst, "b0", "false", "False"), nil
	case KindInt:
		i := int64(v.word)
		if e.want&wantKey != 0 {
			e.key = strconv.AppendInt(append(e.key, 'i'), i, 10)
		}
		if e.want&wantJSON != 0 {
			e.json = strconv.AppendInt(e.json, i, 10)
		}
		if e.want&wantText != 0 {
			dst = strconv.AppendInt(dst, i, 10)
		}
		return dst, nil
	case KindFloat:
		return e.float(dst, v)
	case KindString:
		return e.string(dst, v.S()), nil
	case KindTuple:
		dst = e.lit(dst, "t(", `{"tuple":[`, "{")
		for i, it := range v.Items() {
			if i > 0 {
				dst = e.lit(dst, ",", ",", ", ")
			}
			var err error
			if dst, err = e.value(dst, it); err != nil {
				return dst, err
			}
		}
		return e.lit(dst, ")", "]}", "}"), nil
	case KindBag:
		return e.bag(dst, v.Items())
	case KindVoid:
		return e.lit(dst, "V", `{"const":"Void"}`, "Void"), nil
	case KindAny:
		return e.lit(dst, "A", `{"const":"Any"}`, "Any"), nil
	}
	return e.lit(dst, "", `""`, ""), nil
}

func (e *encoder) string(dst []byte, s string) []byte {
	if e.want&wantKey != 0 {
		e.key = strconv.AppendInt(append(e.key, 's'), int64(len(s)), 10)
		e.key = append(append(e.key, ':'), s...)
	}
	var js []byte // s as the inside of a JSON string, when JSON is wanted
	if e.want&wantJSON != 0 {
		n := len(e.json)
		e.json = jsontext.AppendString(e.json, s)
		js = e.json[n+1 : len(e.json)-1]
	}
	if e.want&wantText == 0 {
		return dst
	}
	dst = append(dst, '\'')
	i := quoted(s)
	if i < 0 && js != nil && e.want&textEscaped != 0 {
		// Nothing for IQL to escape: the escaped text is the JSON string.
		return append(append(dst, js...), '\'')
	}
	// IQL escapes a backslash or a quote with a backslash, which is
	// itself escaped in an escaped text.
	esc := `\`
	if e.want&textEscaped != 0 {
		esc = `\\`
	}
	for ; i >= 0; i = quoted(s) {
		dst = e.text(append(e.text(dst, s[:i]), esc...), s[i:i+1])
		s = s[i+1:]
	}
	return append(e.text(dst, s), '\'')
}

// quoted is the index of the first byte of s that IQL escapes in a
// string literal, a backslash or a quote, or -1.
func quoted(s string) int {
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' || s[i] == '\'' {
			return i
		}
	}
	return -1
}

// text appends the bytes of a string to the text: as they are, or
// escaped as the inside of a JSON string.
func (e *encoder) text(dst []byte, s string) []byte {
	if e.want&textEscaped != 0 {
		return jsontext.AppendEscaped(dst, s)
	}
	return append(dst, s...)
}

// float appends v to each wanted output from one decimal of its
// shortest digits: unpacked from the length word when a source cell
// carried them in (SourceFloat), else searched for here. The key is 'f'
// and strconv's %g — or, so that numeric joins behave as users expect
// and Equal values share a key, the key of the int an integral float is
// Equal to. The text is %g, with ".0" when that would read as an int.
// JSON is encoding/json's number.
func (e *encoder) float(dst []byte, v Value) ([]byte, error) {
	f := math.Float64frombits(v.word)
	wantKey := e.want&wantKey != 0
	if wantKey && f == math.Trunc(f) && f >= -0x1p63 && f < 0x1p63 {
		e.key = strconv.AppendInt(append(e.key, 'i'), int64(f), 10)
		wantKey = false
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.want&wantJSON != 0 {
			_, err := jsontext.AppendFloat(nil, f)
			return dst, err
		}
		g := strconv.FormatFloat(f, 'g', -1, 64) // NaN, +Inf or -Inf
		if wantKey {
			e.key = append(append(e.key, 'f'), g...)
		}
		if e.want&wantText != 0 {
			dst = append(append(dst, g...), ".0"...)
		}
		return dst, nil
	}
	var d decimal
	if v.n != 0 {
		d.unpack(v.word, v.n)
	} else {
		d.set(f)
	}
	if wantKey {
		e.key = d.appendG(append(e.key, 'f'))
	}
	// encoding/json: ES6 number-to-string, %e outside [1e-6, 1e21) with
	// the exponent unpadded.
	if e.want&wantJSON != 0 {
		if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
			e.json = d.appendExp(e.json, false)
		} else {
			e.json = d.appendFixed(e.json)
		}
	}
	if e.want&wantText != 0 {
		dst = d.appendG(dst)
		if d.fixedG() && d.nd <= d.exp+1 {
			dst = append(dst, ".0"...)
		}
	}
	return dst, nil
}

// decimal is a finite float's shortest decimal digits that parse back
// to it — the search that dominates formatting a float — found once
// and laid out as each output wants them.
type decimal struct {
	neg bool
	d   [17]byte // the digits; zero is the digit 0
	nd  int
	exp int // decimal exponent of d[0]
}

func (d *decimal) set(f float64) {
	var buf [24]byte // -1.7976931348623157e+308 at the longest
	b := strconv.AppendFloat(buf[:0], f, 'e', -1, 64)
	// From the end: two exponent digits, or three.
	n := len(b)
	d.exp = int(b[n-2]-'0')*10 + int(b[n-1]-'0')
	e := n - 4
	if b[e] != 'e' {
		d.exp += int(b[n-3]-'0') * 100
		e--
	}
	if b[e+1] == '-' {
		d.exp = -d.exp
	}
	// From the start: the sign, the first digit and, after the point,
	// the rest.
	i := 0
	if d.neg = b[0] == '-'; d.neg {
		i = 1
	}
	d.d[0], d.nd = b[i], 1
	if i+2 < e {
		d.nd += copy(d.d[1:], b[i+2:e])
	}
}

// packDigits returns what SourceFloat keeps in a float's length word:
// its shortest digits read as an integer (at most 17 digits, so below
// 2⁵⁷), shifted left past two bits that correct log10Pow2 of its binary
// exponent to its decimal exponent — by 0, 1 or 2 for a normal float.
// Zero, a subnormal, NaN and ±Inf carry nothing: 0.
func packDigits(bits uint64) int {
	e2 := int(bits >> 52 & 0x7ff)
	if e2 == 0 || e2 == 0x7ff {
		return 0
	}
	var d decimal
	d.set(math.Float64frombits(bits))
	var m uint64
	for _, c := range d.d[:d.nd] {
		m = m*10 + uint64(c-'0')
	}
	return int(m<<2 | uint64(d.exp-log10Pow2(e2-1023)))
}

// unpack sets d from a float's bits and the digits packDigits made of
// them.
func (d *decimal) unpack(bits uint64, n int) {
	d.neg = bits>>63 != 0
	d.nd = len(strconv.AppendUint(d.d[:0], uint64(n)>>2, 10))
	d.exp = log10Pow2(int(bits>>52&0x7ff)-1023) + n&3
}

// log10Pow2 is ⌊log10 2^e⌋ for |e| ≤ 2620 (Dragonbox's multiply and
// shift).
func log10Pow2(e int) int { return e * 315653 >> 20 }

// fixedG reports whether %g at the shortest precision is the %f form
// (strconv: %e when the exponent is < -4 or >= 6).
func (d *decimal) fixedG() bool { return d.exp >= -4 && d.exp < 6 }

// appendG appends the digits as strconv's 'g' format at precision -1
// does.
func (d *decimal) appendG(dst []byte) []byte {
	if d.fixedG() {
		return d.appendFixed(dst)
	}
	return d.appendExp(dst, true)
}

// appendExp appends the digits as strconv's 'e' format at precision -1
// does, [-]d[.ddd]e±dd[d] — or, unpadded, with a one-digit exponent as
// encoding/json writes it.
func (d *decimal) appendExp(dst []byte, padded bool) []byte {
	if d.neg {
		dst = append(dst, '-')
	}
	dst = append(dst, d.d[0])
	if d.nd > 1 {
		dst = append(append(dst, '.'), d.d[1:d.nd]...)
	}
	exp, sign := d.exp, byte('+')
	if exp < 0 {
		exp, sign = -exp, '-'
	}
	dst = append(dst, 'e', sign)
	if padded && exp < 10 {
		dst = append(dst, '0')
	}
	return strconv.AppendInt(dst, int64(exp), 10)
}

// appendFixed appends the digits as strconv's 'f' format at precision
// -1 does: no exponent, as many decimals as there are digits for.
func (d *decimal) appendFixed(dst []byte) []byte {
	if d.neg {
		dst = append(dst, '-')
	}
	point := d.exp + 1 // digits before the decimal point
	if point <= 0 {
		dst = append(dst, '0')
	} else {
		dst = append(dst, d.d[:min(d.nd, point)]...)
		for i := d.nd; i < point; i++ {
			dst = append(dst, '0')
		}
	}
	if d.nd > point {
		dst = append(dst, '.')
		for i := point; i < 0; i++ {
			dst = append(dst, '0')
		}
		dst = append(dst, d.d[max(point, 0):d.nd]...)
	}
	return dst
}

// bag encodes a bag: the text in bag order as the elements are met, key
// and JSON gathered from the elements' arenas in canonical order.
func (e *encoder) bag(dst []byte, items []Value) ([]byte, error) {
	if e.want&(wantKey|wantJSON) == 0 {
		dst = append(dst, '[')
		for i, it := range items {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst, _ = e.value(dst, it) // only JSON fails
		}
		return append(dst, ']'), nil
	}
	dst, s := e.beginBag(dst, len(items))
	var err error
	for _, it := range items {
		if dst, err = e.add(dst, s, it); err != nil {
			break
		}
	}
	return e.endBag(dst, s, err == nil), err
}

// beginBag opens a bag whose elements arrive one add at a time — from a
// slice (bag) or from a comprehension as it evaluates (sink) — and endBag
// closes it: the text is bracketed as it goes, key and JSON are gathered
// onto the outputs the encoder was writing when the bag began. An
// encoding that failed (ok false) gathers nothing; its outputs are left
// as far as they got, for the caller to drop.
func (e *encoder) beginBag(dst []byte, hint int) ([]byte, *sortedElems) {
	if e.want&wantText != 0 {
		dst = append(dst, '[')
	}
	return dst, e.open(hint)
}

func (e *encoder) endBag(dst []byte, s *sortedElems, ok bool) []byte {
	e.close(s, ok)
	if ok {
		if e.want&wantKey != 0 {
			e.key = append(s.gather(append(e.key, "B["...), keyArena), ']')
		}
		if e.want&wantJSON != 0 {
			e.json = append(s.gather(append(e.json, `{"bag":[`...), jsonArena), "]}"...)
		}
		if e.want&wantText != 0 {
			dst = append(dst, ']')
		}
	}
	sortedPool.Put(s)
	return dst
}

// sortedElems holds the canonical keys of a run of elements, and their
// JSON when that is wanted, each written back to back into one byte
// arena, and the elements' canonical order as a permutation of their
// indexes: the order of the elements' Key() strings under <, elements
// whose keys tie (5 and 5.0) staying in element order. Arenas, offsets
// and permutation are recycled from one bag to the next, nested bags
// taking a set of their own, so encoding a warm answer allocates none
// of them.
type sortedElems struct {
	arena [2][]byte // keyArena, jsonArena
	off   [][2]int  // element i's piece of arena[a] is arena[a][off[i][a]:off[i+1][a]]
	order []int

	// While the run is open: what the encoder was writing before it, and
	// how many elements are expected (0 when nobody knows).
	outer encoder
	hint  int
}

const (
	keyArena = iota
	jsonArena
)

var sortedPool = sync.Pool{New: func() any { return new(sortedElems) }}

// arenaSample is how many elements are encoded before the arenas are
// sized for the rest: extents are homogeneous, so the first few
// elements predict the total well enough that a cold arena is allocated
// about once, at about its final size.
const arenaSample = 16

// open starts a run of elements: until close, the encoder writes keys —
// wanted or not, the order is theirs — and JSON into the arenas of a
// pooled sortedElems. hint is the number of elements to come, 0 when it
// is not known. The caller returns the run to sortedPool when it has
// read it.
func (e *encoder) open(hint int) *sortedElems {
	s := sortedPool.Get().(*sortedElems)
	s.off = append(slices.Grow(s.off[:0], hint+1), [2]int{})
	s.order = slices.Grow(s.order[:0], hint)
	s.outer, s.hint = *e, hint
	e.key, e.json, e.want = s.arena[keyArena][:0], s.arena[jsonArena][:0], e.want|wantKey
	return s
}

// add encodes one more element of an open run: key and JSON into the
// arenas, text onto dst, comma-separated in the order of the adds.
func (e *encoder) add(dst []byte, s *sortedElems, el Value) ([]byte, error) {
	i := len(s.order)
	if i == arenaSample && s.hint > i {
		e.key = slices.Grow(e.key, len(e.key)/arenaSample*(s.hint-i)*9/8)
		e.json = slices.Grow(e.json, len(e.json)/arenaSample*(s.hint-i)*9/8)
	}
	if i > 0 && e.want&wantText != 0 {
		dst = append(dst, ", "...)
	}
	dst, err := e.value(dst, el)
	if err != nil {
		return dst, err
	}
	s.order = append(s.order, i)
	s.off = append(s.off, [2]int{len(e.key), len(e.json)})
	return dst, nil
}

// close ends the run: the encoder goes back to what it was writing, and
// the elements — unless their encoding failed and nobody will read them
// — are sorted.
func (e *encoder) close(s *sortedElems, ok bool) {
	s.arena = [2][]byte{e.key, e.json}
	*e, s.outer = s.outer, encoder{}
	if !ok {
		return
	}
	keys := s.arena[keyArena]
	slices.SortFunc(s.order, func(a, b int) int {
		if c := bytes.Compare(keys[s.off[a][keyArena]:s.off[a+1][keyArena]], keys[s.off[b][keyArena]:s.off[b+1][keyArena]]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}

// gather appends the elements' pieces of an arena in canonical order,
// comma-separated.
func (s *sortedElems) gather(dst []byte, arena int) []byte {
	from := s.arena[arena]
	dst = slices.Grow(dst, len(from)+len(s.order))
	for i, el := range s.order {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, from[s.off[el][arena]:s.off[el+1][arena]]...)
	}
	return dst
}
