package wrapper

import "encoding/json"

// The byte-level helpers of the two walks over JSON text this package
// makes in place of encoding/json's reflection: a REST page's records
// (rest.go) and a snapshot document's table rows (rows.go). Each assumes
// what both walks establish first — the text is valid JSON, because
// encoding/json said so — and so never looks for the end of its input.

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace. In a valid document one always follows wherever
// the walk asks.
func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\n' || data[i] == '\t' || data[i] == '\r') {
		i++
	}
	return i
}

// stringEnd returns the index after the string literal opening at
// data[i]. plain reports that the literal has no escape and no byte
// beyond ASCII: its value is the bytes between the quotes.
func stringEnd(data []byte, i int) (end int, plain bool) {
	plain = true
	for i++; data[i] != '"'; i++ {
		if data[i] == '\\' {
			plain = false
			i++
		} else if data[i] >= 0x80 {
			plain = false
		}
	}
	return i + 1, plain
}

// unquote decodes a string literal with escapes or bytes beyond ASCII
// as encoding/json does, so invalid UTF-8 and lone surrogates become
// U+FFFD exactly as they would there.
func unquote(lit []byte) string {
	var s string
	_ = json.Unmarshal(lit, &s) // lit is a string literal of a valid document
	return s
}

// nestedEnd returns the index after the array or object opening at
// data[i].
func nestedEnd(data []byte, i int) int {
	for depth := 0; ; i++ {
		switch data[i] {
		case '"':
			i, _ = stringEnd(data, i)
			i--
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				return i + 1
			}
		}
	}
}

// numberEnd returns the index after the number literal starting at
// data[i].
func numberEnd(data []byte, i int) int {
	for i < len(data) {
		switch c := data[i]; {
		case c >= '0' && c <= '9', c == '-', c == '+', c == '.', c == 'e', c == 'E':
			i++
		default:
			return i
		}
	}
	return i
}

// valueEnd returns the index after the value starting at data[i],
// whatever its kind.
func valueEnd(data []byte, i int) int {
	switch data[i] {
	case '"':
		end, _ := stringEnd(data, i)
		return end
	case '{', '[':
		return nestedEnd(data, i)
	case 't', 'n':
		return i + len("true")
	case 'f':
		return i + len("false")
	}
	return numberEnd(data, i)
}

// jsonKind names the kind of JSON value starting with byte c.
func jsonKind(c byte) string {
	switch c {
	case '{':
		return "an object"
	case '[':
		return "an array"
	case '"':
		return "a string"
	case 't', 'f':
		return "a boolean"
	case 'n':
		return "null"
	}
	return "a number"
}
