package iql

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind enumerates lexical token kinds.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokFloat
	tokString
	tokScheme // a full <<...>> scheme reference, Parts carried in tok.parts
	tokLParen
	tokRParen
	tokLBrack
	tokRBrack
	tokLBrace
	tokRBrace
	tokComma
	tokSemi
	tokBar
	tokArrow // <-
	tokOp    // operators: + - * / ++ = <> < <= > >=
)

type token struct {
	kind  tokKind
	text  string
	parts []string // for tokScheme
	pos   int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokScheme:
		return "<<" + strings.Join(t.parts, ", ") + ">>"
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// lexer tokenises IQL source text.
type lexer struct {
	src string
	pos int
}

// lexInto scans the whole input, appending the token stream to toks.
func lexInto(toks []token, src string) ([]token, error) {
	l := lexer{src: src}
	for {
		t, err := l.next()
		if err != nil {
			return toks, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) peekByteAt(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		// Line comments: -- to end of line.
		if c == '-' && l.peekByteAt(1) == '-' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		return
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

func (l *lexer) next() (token, error) {
	l.skipSpace()
	start := l.pos
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: start}, nil
	}
	c := l.src[l.pos]

	switch {
	case c == '(':
		l.pos++
		return token{kind: tokLParen, text: "(", pos: start}, nil
	case c == ')':
		l.pos++
		return token{kind: tokRParen, text: ")", pos: start}, nil
	case c == '[':
		l.pos++
		return token{kind: tokLBrack, text: "[", pos: start}, nil
	case c == ']':
		l.pos++
		return token{kind: tokRBrack, text: "]", pos: start}, nil
	case c == '{':
		l.pos++
		return token{kind: tokLBrace, text: "{", pos: start}, nil
	case c == '}':
		l.pos++
		return token{kind: tokRBrace, text: "}", pos: start}, nil
	case c == ',':
		l.pos++
		return token{kind: tokComma, text: ",", pos: start}, nil
	case c == ';':
		l.pos++
		return token{kind: tokSemi, text: ";", pos: start}, nil
	case c == '|':
		l.pos++
		return token{kind: tokBar, text: "|", pos: start}, nil
	case c == '\'':
		return l.lexString()
	case c == '<':
		// Longest match first: "<<scheme>>", "<-", "<>", "<=", "<".
		if l.peekByteAt(1) == '<' {
			return l.lexScheme()
		}
		if l.peekByteAt(1) == '-' {
			l.pos += 2
			return token{kind: tokArrow, text: "<-", pos: start}, nil
		}
		if l.peekByteAt(1) == '>' {
			l.pos += 2
			return token{kind: tokOp, text: "<>", pos: start}, nil
		}
		if l.peekByteAt(1) == '=' {
			l.pos += 2
			return token{kind: tokOp, text: "<=", pos: start}, nil
		}
		l.pos++
		return token{kind: tokOp, text: "<", pos: start}, nil
	case c == '>':
		if l.peekByteAt(1) == '=' {
			l.pos += 2
			return token{kind: tokOp, text: ">=", pos: start}, nil
		}
		l.pos++
		return token{kind: tokOp, text: ">", pos: start}, nil
	case c == '=':
		l.pos++
		return token{kind: tokOp, text: "=", pos: start}, nil
	case c == '+':
		if l.peekByteAt(1) == '+' {
			l.pos += 2
			return token{kind: tokOp, text: "++", pos: start}, nil
		}
		l.pos++
		return token{kind: tokOp, text: "+", pos: start}, nil
	case c == '-':
		l.pos++
		return token{kind: tokOp, text: "-", pos: start}, nil
	case c == '*':
		l.pos++
		return token{kind: tokOp, text: "*", pos: start}, nil
	case c == '/':
		l.pos++
		return token{kind: tokOp, text: "/", pos: start}, nil
	case unicode.IsDigit(rune(c)):
		return l.lexNumber()
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], pos: start}, nil
	}
	return token{}, fmt.Errorf("iql: unexpected character %q at offset %d", string(c), start)
}

func (l *lexer) lexString() (token, error) {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\\' {
			if next := l.peekByteAt(1); next == '\'' || next == '\\' {
				b.WriteByte(next)
				l.pos += 2
				continue
			}
		}
		if c == '\'' {
			l.pos++
			return token{kind: tokString, text: b.String(), pos: start}, nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return token{}, fmt.Errorf("iql: unterminated string starting at offset %d", start)
}

func (l *lexer) lexNumber() (token, error) {
	start := l.pos
	for l.pos < len(l.src) && unicode.IsDigit(rune(l.src[l.pos])) {
		l.pos++
	}
	isFloat := false
	if l.peekByte() == '.' && unicode.IsDigit(rune(l.peekByteAt(1))) {
		isFloat = true
		l.pos++
		for l.pos < len(l.src) && unicode.IsDigit(rune(l.src[l.pos])) {
			l.pos++
		}
	}
	if c := l.peekByte(); c == 'e' || c == 'E' {
		save := l.pos
		l.pos++
		if c := l.peekByte(); c == '+' || c == '-' {
			l.pos++
		}
		if unicode.IsDigit(rune(l.peekByte())) {
			isFloat = true
			for l.pos < len(l.src) && unicode.IsDigit(rune(l.src[l.pos])) {
				l.pos++
			}
		} else {
			l.pos = save
		}
	}
	kind := tokInt
	if isFloat {
		kind = tokFloat
	}
	return token{kind: kind, text: l.src[start:l.pos], pos: start}, nil
}

// lexScheme scans "<<part, part, …>>" collecting raw parts. Parts may be
// arbitrary text excluding ',' and '>', so schemes like
// <<protein, accession num>> (with an embedded space, as in the paper)
// lex correctly.
func (l *lexer) lexScheme() (token, error) {
	start := l.pos
	l.pos += 2 // consume <<
	var parts []string
	var cur strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case ',':
			parts = append(parts, strings.TrimSpace(cur.String()))
			cur.Reset()
			l.pos++
		case '>':
			if l.peekByteAt(1) == '>' {
				parts = append(parts, strings.TrimSpace(cur.String()))
				l.pos += 2
				for i, p := range parts {
					if p == "" {
						return token{}, fmt.Errorf("iql: empty scheme part %d at offset %d", i, start)
					}
				}
				return token{kind: tokScheme, parts: parts, pos: start}, nil
			}
			return token{}, fmt.Errorf("iql: single '>' inside scheme at offset %d", l.pos)
		default:
			cur.WriteByte(c)
			l.pos++
		}
	}
	return token{}, fmt.Errorf("iql: unterminated scheme starting at offset %d", start)
}
