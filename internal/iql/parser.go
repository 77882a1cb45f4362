package iql

import (
	"fmt"
	"strconv"
	"sync"
)

// tokens holds token buffers for Parse to lex into. The expression a
// parse returns holds none of its tokens — only their texts and scheme
// parts — so the buffer is cleared and reused by the next parse.
var tokens = sync.Pool{New: func() any { return new([]token) }}

// maxPooledTokens bounds the buffers kept: one very long text does not
// hold its buffer for good.
const maxPooledTokens = 1 << 12

// Parse parses IQL source text into an expression.
func Parse(src string) (Expr, error) {
	buf := tokens.Get().(*[]token)
	toks, err := lexInto((*buf)[:0], src)
	defer func() {
		clear(toks)
		if cap(toks) <= maxPooledTokens {
			*buf = toks[:0]
			tokens.Put(buf)
		}
	}()
	if err != nil {
		return nil, err
	}
	p := parser{src: src, toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errorf("trailing input %s", p.peek())
	}
	return e, nil
}

// MustParse is Parse that panics on error; for fixtures and tests.
func MustParse(src string) Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

type parser struct {
	src  string
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) backup()     { p.pos-- }
func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("iql: parse error near offset %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

func (p *parser) expect(kind tokKind, what string) (token, error) {
	t := p.next()
	if t.kind != kind {
		return token{}, fmt.Errorf("iql: parse error at offset %d: expected %s, found %s", t.pos, what, t)
	}
	return t, nil
}

// peekIdent reports whether the next token is the given keyword.
func (p *parser) peekIdent(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && t.text == kw
}

func (p *parser) acceptIdent(kw string) bool {
	if p.peekIdent(kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) acceptOp(op string) bool {
	t := p.peek()
	if t.kind == tokOp && t.text == op {
		p.pos++
		return true
	}
	return false
}

// parseExpr := 'Range' unary unary | 'if' … | 'let' … | orExpr
func (p *parser) parseExpr() (Expr, error) {
	if p.acceptIdent("Range") {
		lo, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		hi, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &RangeExpr{Lo: lo, Hi: hi}, nil
	}
	if p.acceptIdent("if") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if !p.acceptIdent("then") {
			return nil, p.errorf("expected 'then'")
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if !p.acceptIdent("else") {
			return nil, p.errorf("expected 'else'")
		}
		els, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &IfExpr{Cond: cond, Then: then, Else: els}, nil
	}
	if p.acceptIdent("let") {
		name, err := p.expect(tokIdent, "identifier")
		if err != nil {
			return nil, err
		}
		if !p.acceptOp("=") {
			return nil, p.errorf("expected '=' in let")
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if !p.acceptIdent("in") {
			return nil, p.errorf("expected 'in' in let")
		}
		body, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &LetExpr{Name: name.text, Val: val, Body: body}, nil
	}
	return p.parseOr()
}

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptIdent("or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "or", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.acceptIdent("and") {
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "and", L: l, R: r}
	}
	return l, nil
}

var cmpOps = map[string]bool{"=": true, "<>": true, "<": true, "<=": true, ">": true, ">=": true}

func (p *parser) parseCmp() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokOp && cmpOps[t.text] {
		p.pos++
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &Binary{Op: t.text, L: l, R: r}, nil
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMult()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokOp && (t.text == "+" || t.text == "-" || t.text == "++") {
			p.pos++
			r, err := p.parseMult()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parseMult() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokOp && (t.text == "*" || t.text == "/") {
			p.pos++
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parseUnary() (Expr, error) {
	t := p.peek()
	if t.kind == tokOp && t.text == "-" {
		p.pos++
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", X: x}, nil
	}
	if p.acceptIdent("not") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "not", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.next()
	switch t.kind {
	case tokInt:
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("iql: bad integer %q: %w", t.text, err)
		}
		return &Lit{Val: Int(i)}, nil
	case tokFloat:
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("iql: bad float %q: %w", t.text, err)
		}
		return &Lit{Val: Float(f)}, nil
	case tokString:
		return &Lit{Val: Str(t.text)}, nil
	case tokScheme:
		return &SchemeRef{Parts: t.parts}, nil
	case tokLParen:
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return e, nil
	case tokLBrace:
		return p.parseTupleRest()
	case tokLBrack:
		return p.parseBagOrComp()
	case tokIdent:
		switch t.text {
		case "True":
			return &Lit{Val: Bool(true)}, nil
		case "False":
			return &Lit{Val: Bool(false)}, nil
		case "Void":
			return &Lit{Val: Void()}, nil
		case "Any":
			return &Lit{Val: Any()}, nil
		case "null":
			return &Lit{Val: Null()}, nil
		case "Range", "if", "let":
			p.backup()
			return nil, p.errorf("unexpected %s", t) // an expression's keyword, not a name
		}
		// Function call or plain variable.
		if p.peek().kind == tokLParen {
			p.pos++
			var args []Expr
			if p.peek().kind != tokRParen {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.peek().kind == tokComma {
						p.pos++
						continue
					}
					break
				}
			}
			if _, err := p.expect(tokRParen, "')'"); err != nil {
				return nil, err
			}
			return &Call{Fn: t.text, Args: args}, nil
		}
		return &Var{Name: t.text}, nil
	}
	p.backup()
	return nil, p.errorf("unexpected %s", t)
}

// parseTupleRest parses "{e1, …, en}" after the '{'.
func (p *parser) parseTupleRest() (Expr, error) {
	var elems []Expr
	if p.peek().kind != tokRBrace {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			elems = append(elems, e)
			if p.peek().kind == tokComma {
				p.pos++
				continue
			}
			break
		}
	}
	if _, err := p.expect(tokRBrace, "'}'"); err != nil {
		return nil, err
	}
	return &TupleExpr{Elems: elems}, nil
}

// parseBagOrComp parses, after '[', either a literal bag "[e1, …]" or a
// comprehension "[head | quals]".
func (p *parser) parseBagOrComp() (Expr, error) {
	if p.peek().kind == tokRBrack {
		p.pos++
		return &BagExpr{}, nil
	}
	head, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	switch p.peek().kind {
	case tokBar:
		p.pos++
		quals, err := p.parseQuals()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRBrack, "']'"); err != nil {
			return nil, err
		}
		return &Comp{Head: head, Quals: quals}, nil
	case tokComma:
		elems := []Expr{head}
		for p.peek().kind == tokComma {
			p.pos++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			elems = append(elems, e)
		}
		if _, err := p.expect(tokRBrack, "']'"); err != nil {
			return nil, err
		}
		return &BagExpr{Elems: elems}, nil
	case tokRBrack:
		p.pos++
		return &BagExpr{Elems: []Expr{head}}, nil
	}
	return nil, p.errorf("expected '|', ',' or ']' in bag")
}

func (p *parser) parseQuals() ([]Qual, error) {
	var quals []Qual
	for {
		q, err := p.parseQual()
		if err != nil {
			return nil, err
		}
		quals = append(quals, q)
		if p.peek().kind == tokSemi {
			p.pos++
			continue
		}
		return quals, nil
	}
}

// parseQual tries "pattern <- expr" first, backtracking to a filter
// expression if no arrow follows a pattern-shaped prefix.
func (p *parser) parseQual() (Qual, error) {
	save := p.pos
	if pat, err := p.parsePattern(); err == nil {
		if p.peek().kind == tokArrow {
			p.pos++
			src, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return &Generator{Pat: pat, Src: src}, nil
		}
	}
	p.pos = save
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &Filter{Cond: cond}, nil
}

func (p *parser) parsePattern() (Pattern, error) {
	t := p.next()
	switch t.kind {
	case tokIdent:
		switch t.text {
		case "True":
			return &LitPat{Val: Bool(true)}, nil
		case "False":
			return &LitPat{Val: Bool(false)}, nil
		}
		return &VarPat{Name: t.text}, nil
	case tokInt:
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, err
		}
		return &LitPat{Val: Int(i)}, nil
	case tokFloat:
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, err
		}
		return &LitPat{Val: Float(f)}, nil
	case tokString:
		return &LitPat{Val: Str(t.text)}, nil
	case tokLBrace:
		var elems []Pattern
		if p.peek().kind != tokRBrace {
			for {
				e, err := p.parsePattern()
				if err != nil {
					return nil, err
				}
				elems = append(elems, e)
				if p.peek().kind == tokComma {
					p.pos++
					continue
				}
				break
			}
		}
		if _, err := p.expect(tokRBrace, "'}'"); err != nil {
			return nil, err
		}
		return &TuplePat{Elems: elems}, nil
	}
	p.backup()
	return nil, p.errorf("expected pattern, found %s", t)
}

// FormatQuery normalises IQL source by parsing and re-rendering it;
// useful for stable persistence and display.
func FormatQuery(src string) (string, error) {
	e, err := Parse(src)
	if err != nil {
		return "", err
	}
	return e.String(), nil
}
