// Package jsontext writes JSON strings and numbers byte for byte as
// encoding/json does, without reflection and without an intermediate
// value: the answer encoder (package iql's walk over a value) and the
// snapshot row encoder (package wrapper) share it, so "the bytes
// encoding/json would have written" is decided in one place. It imports
// nothing of this module, so every package may use it.
package jsontext

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"unicode/utf8"
)

// SafePrefix returns the length of the longest prefix of src that a
// JSON string carries as it is: no quote, backslash or control byte,
// no invalid UTF-8, no U+2028 or U+2029.
func SafePrefix(src string) int {
	for i := 0; i < len(src); {
		b := src[i]
		if b < utf8.RuneSelf {
			if b < 0x20 || b == '"' || b == '\\' {
				return i
			}
			i++
			continue
		}
		c, size := utf8.DecodeRuneInString(src[i:])
		if (c == utf8.RuneError && size == 1) || c == '\u2028' || c == '\u2029' {
			return i
		}
		i += size
	}
	return len(src)
}

// AppendEscaped appends src as the inside of a JSON string.
func AppendEscaped(dst []byte, src string) []byte {
	const hex = "0123456789abcdef"
	for len(src) > 0 {
		n := SafePrefix(src)
		dst = append(dst, src[:n]...)
		if src = src[n:]; len(src) == 0 {
			break
		}
		size := 1
		switch b := src[0]; {
		case b == '"' || b == '\\':
			dst = append(dst, '\\', b)
		case b == '\b':
			dst = append(dst, '\\', 'b')
		case b == '\f':
			dst = append(dst, '\\', 'f')
		case b == '\n':
			dst = append(dst, '\\', 'n')
		case b == '\r':
			dst = append(dst, '\\', 'r')
		case b == '\t':
			dst = append(dst, '\\', 't')
		case b < 0x20:
			dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
		default:
			// SafePrefix stops at a multi-byte sequence only for
			// invalid UTF-8 (one byte) or U+2028/U+2029 (three).
			var c rune
			c, size = utf8.DecodeRuneInString(src)
			if c == utf8.RuneError {
				dst = append(dst, `\ufffd`...)
			} else {
				dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			}
		}
		src = src[size:]
	}
	return dst
}

// AppendString appends s as a JSON string, as encoding/json does with
// SetEscapeHTML(false).
func AppendString(dst []byte, s string) []byte {
	return append(AppendEscaped(append(dst, '"'), s), '"')
}

// AppendStringHTML appends s as a JSON string, as json.Marshal does:
// <, > and & are escaped too.
func AppendStringHTML(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	for {
		i := strings.IndexAny(s, "<>&")
		if i < 0 {
			return append(AppendEscaped(dst, s), '"')
		}
		dst = AppendEscaped(dst, s[:i])
		dst = append(dst, '\\', 'u', '0', '0', hex[s[i]>>4], hex[s[i]&0xF])
		s = s[i+1:]
	}
}

// AppendFloat appends f as a JSON number (ES6 number-to-string, as
// encoding/json); NaN and the infinities are its UnsupportedValueError.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// clean up e-09 to e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}
