// Package oar implements a resource manager in the style of OAR, the batch
// scheduler used by Grid'5000: property-based resource selection
// (slide 7's oarsub example), FCFS scheduling with walltimes, node state
// management, and the submit-immediately-or-cancel mode that the paper's
// external test scheduler depends on (slide 17).
package oar

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/testbed"
)

// Expr is a parsed property expression, e.g.
//
//	cluster='a' and gpu='YES'
//
// evaluated against a node's property map — or, on the scheduling hot
// path, directly against a node via EvalNode, which reads the live
// inventory without materialising a property map.
type Expr interface {
	Eval(props map[string]string) bool
	// EvalNode evaluates the expression against a node's live state. It is
	// semantically Eval(Properties(n)) without the map allocation and
	// lookups, reading mutable properties (ram_gb, cores) live.
	EvalNode(n *testbed.Node) bool
	String() string
}

type andExpr struct{ l, r Expr }
type orExpr struct{ l, r Expr }
type notExpr struct{ e Expr }
type cmpExpr struct {
	key, op, val string
	valNum       float64
	valIsNum     bool
}
type trueExpr struct{}

func (e andExpr) Eval(p map[string]string) bool { return e.l.Eval(p) && e.r.Eval(p) }
func (e orExpr) Eval(p map[string]string) bool  { return e.l.Eval(p) || e.r.Eval(p) }
func (e notExpr) Eval(p map[string]string) bool { return !e.e.Eval(p) }
func (trueExpr) Eval(map[string]string) bool    { return true }

func (e andExpr) EvalNode(n *testbed.Node) bool { return e.l.EvalNode(n) && e.r.EvalNode(n) }
func (e orExpr) EvalNode(n *testbed.Node) bool  { return e.l.EvalNode(n) || e.r.EvalNode(n) }
func (e notExpr) EvalNode(n *testbed.Node) bool { return !e.e.EvalNode(n) }
func (trueExpr) EvalNode(*testbed.Node) bool    { return true }

func (e andExpr) String() string { return fmt.Sprintf("(%s and %s)", e.l, e.r) }
func (e orExpr) String() string  { return fmt.Sprintf("(%s or %s)", e.l, e.r) }
func (e notExpr) String() string { return fmt.Sprintf("not %s", e.e) }

// String returns the empty string, which ParseExpr maps back to the
// always-true expression — keeping parse/print a round trip.
func (trueExpr) String() string  { return "" }
func (e cmpExpr) String() string { return fmt.Sprintf("%s%s'%s'", e.key, e.op, e.val) }

func (e cmpExpr) Eval(p map[string]string) bool {
	actual, ok := p[e.key]
	if !ok {
		return false
	}
	return e.evalStr(actual)
}

// evalStr compares a property's string value against the literal. Numeric
// comparison only when the literal parsed as a number at parse time AND
// the property value looks numeric; the quick first-byte test avoids
// allocating a strconv syntax error per node per evaluation.
func (e cmpExpr) evalStr(actual string) bool {
	var an, vn float64
	numeric := false
	if e.valIsNum && looksNumeric(actual) {
		if a, err := strconv.ParseFloat(actual, 64); err == nil {
			an, vn = a, e.valNum
			numeric = true
		}
	}
	switch e.op {
	case "=":
		if numeric {
			return an == vn
		}
		return actual == e.val
	case "!=":
		if numeric {
			return an != vn
		}
		return actual != e.val
	case "<":
		return numeric && an < vn
	case "<=":
		return numeric && an <= vn
	case ">":
		return numeric && an > vn
	case ">=":
		return numeric && an >= vn
	}
	return false
}

// evalIntProp compares an integer property against the literal, matching
// evalStr's semantics exactly: numeric comparison when the literal is
// numeric, string comparison of the rendered value otherwise (so e.g.
// cores!='abc' behaves identically through Eval and EvalNode).
func (e cmpExpr) evalIntProp(actual int) bool {
	if e.valIsNum {
		return e.evalNum(float64(actual))
	}
	return e.evalStr(strconv.Itoa(actual))
}

// evalNum compares a numeric property value against the literal.
func (e cmpExpr) evalNum(actual float64) bool {
	if !e.valIsNum {
		return false
	}
	switch e.op {
	case "=":
		return actual == e.valNum
	case "!=":
		return actual != e.valNum
	case "<":
		return actual < e.valNum
	case "<=":
		return actual <= e.valNum
	case ">":
		return actual > e.valNum
	case ">=":
		return actual >= e.valNum
	}
	return false
}

// EvalNode evaluates the comparison directly against the node, without
// building a property map. A key OAR does not serve matches nothing, as
// in the map form.
func (e cmpExpr) EvalNode(n *testbed.Node) bool {
	str, num, isNum, ok := nodeProperty(n, e.key)
	switch {
	case !ok:
		return false
	case isNum:
		return e.evalIntProp(num)
	}
	return e.evalStr(str)
}

// nodeProperty reads one OAR property from a node's live inventory. This
// switch is the one definition of the properties (names follow Grid'5000
// conventions: gpu='YES', eth10g='Y', ...). Integer-valued ones come back
// as num with isNum set, unrendered, so the scheduling path compares them
// without allocating.
func nodeProperty(n *testbed.Node, key string) (str string, num int, isNum, ok bool) {
	switch key {
	case "cluster":
		str = n.Cluster
	case "site":
		str = n.Site
	case "host":
		str = n.Name
	case "cpu_model":
		str = n.Inv.CPU.Model
	case "cores":
		num, isNum = n.Cores(), true
	case "ram_gb":
		num, isNum = n.Inv.RAMGB, true
	case "gpu":
		str = yesNo(n.Inv.HasGPU())
	case "ib":
		str = yesNo(n.Inv.HasIB())
	case "eth10g":
		str = yn(n.Inv.Has10G())
	case "disktype":
		str = diskType(n)
	default:
		return "", 0, false, false
	}
	return str, num, isNum, true
}

// anchor extracts a narrowing constraint from the expression: a
// (key, value) pair such that every matching node satisfies key=value.
// Only equality comparisons reachable through a pure AND chain qualify —
// under OR or NOT the constraint is no longer necessary. The allocator
// uses it to scan one cluster or site instead of the whole testbed.
func anchor(e Expr) (key, val string) {
	switch x := e.(type) {
	case cmpExpr:
		if x.op == "=" && (x.key == "cluster" || x.key == "site" || x.key == "host") {
			return x.key, x.val
		}
	case andExpr:
		// Prefer the most selective anchor: host > cluster > site.
		lk, lv := anchor(x.l)
		rk, rv := anchor(x.r)
		switch {
		case lk == "host":
			return lk, lv
		case rk == "host":
			return rk, rv
		case lk == "cluster":
			return lk, lv
		case rk == "cluster":
			return rk, rv
		case lk != "":
			return lk, lv
		default:
			return rk, rv
		}
	}
	return "", ""
}

// ---- lexer ----

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokString
	tokNumber
	tokOp // = != < <= > >=
	tokLParen
	tokRParen
)

type token struct {
	kind tokKind
	text string
}

type lexer struct {
	in  string
	pos int
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.in) && (l.in[l.pos] == ' ' || l.in[l.pos] == '\t') {
		l.pos++
	}
	if l.pos >= len(l.in) {
		return token{kind: tokEOF}, nil
	}
	c := l.in[l.pos]
	switch {
	case c == '(':
		l.pos++
		return token{kind: tokLParen, text: "("}, nil
	case c == ')':
		l.pos++
		return token{kind: tokRParen, text: ")"}, nil
	case c == '\'' || c == '"':
		quote := c
		end := l.pos + 1
		for end < len(l.in) && l.in[end] != quote {
			end++
		}
		if end >= len(l.in) {
			return token{}, fmt.Errorf("oar: unterminated string at %d in %q", l.pos, l.in)
		}
		t := token{kind: tokString, text: l.in[l.pos+1 : end]}
		l.pos = end + 1
		return t, nil
	case c == '=':
		l.pos++
		return token{kind: tokOp, text: "="}, nil
	case c == '!':
		if l.pos+1 < len(l.in) && l.in[l.pos+1] == '=' {
			l.pos += 2
			return token{kind: tokOp, text: "!="}, nil
		}
		return token{}, fmt.Errorf("oar: stray '!' at %d in %q", l.pos, l.in)
	case c == '<' || c == '>':
		op := string(c)
		l.pos++
		if l.pos < len(l.in) && l.in[l.pos] == '=' {
			op += "="
			l.pos++
		}
		return token{kind: tokOp, text: op}, nil
	case c >= '0' && c <= '9':
		end := l.pos
		for end < len(l.in) && (l.in[end] >= '0' && l.in[end] <= '9' || l.in[end] == '.') {
			end++
		}
		t := token{kind: tokNumber, text: l.in[l.pos:end]}
		l.pos = end
		return t, nil
	case isIdentChar(c):
		end := l.pos
		for end < len(l.in) && isIdentChar(l.in[end]) {
			end++
		}
		t := token{kind: tokIdent, text: l.in[l.pos:end]}
		l.pos = end
		return t, nil
	}
	return token{}, fmt.Errorf("oar: unexpected character %q at %d in %q", c, l.pos, l.in)
}

func isIdentChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
}

// ---- parser (recursive descent) ----

type parser struct {
	lex *lexer
	cur token
	err error
}

func (p *parser) advance() {
	if p.err != nil {
		return
	}
	p.cur, p.err = p.lex.next()
}

// ParseExpr parses a property expression. The empty string parses to an
// always-true expression (OAR's "any resource").
func ParseExpr(s string) (Expr, error) {
	if strings.TrimSpace(s) == "" {
		return trueExpr{}, nil
	}
	p := &parser{lex: &lexer{in: s}}
	p.advance()
	e := p.parseOr()
	if p.err != nil {
		return nil, p.err
	}
	if p.cur.kind != tokEOF {
		return nil, fmt.Errorf("oar: trailing input %q in expression %q", p.cur.text, s)
	}
	return e, nil
}

func (p *parser) parseOr() Expr {
	e := p.parseAnd()
	for p.err == nil && p.cur.kind == tokIdent && strings.EqualFold(p.cur.text, "or") {
		p.advance()
		e = orExpr{e, p.parseAnd()}
	}
	return e
}

func (p *parser) parseAnd() Expr {
	e := p.parseUnary()
	for p.err == nil && p.cur.kind == tokIdent && strings.EqualFold(p.cur.text, "and") {
		p.advance()
		e = andExpr{e, p.parseUnary()}
	}
	return e
}

func (p *parser) parseUnary() Expr {
	if p.err != nil {
		return trueExpr{}
	}
	if p.cur.kind == tokIdent && strings.EqualFold(p.cur.text, "not") {
		p.advance()
		return notExpr{p.parseUnary()}
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() Expr {
	if p.err != nil {
		return trueExpr{}
	}
	if p.cur.kind == tokLParen {
		p.advance()
		e := p.parseOr()
		if p.err == nil && p.cur.kind != tokRParen {
			p.err = fmt.Errorf("oar: missing ')' near %q", p.cur.text)
			return trueExpr{}
		}
		p.advance()
		return e
	}
	if p.cur.kind != tokIdent {
		p.err = fmt.Errorf("oar: expected property name, got %q", p.cur.text)
		return trueExpr{}
	}
	key := p.cur.text
	p.advance()
	if p.err != nil || p.cur.kind != tokOp {
		p.err = fmt.Errorf("oar: expected comparison operator after %q", key)
		return trueExpr{}
	}
	op := p.cur.text
	p.advance()
	if p.err != nil || (p.cur.kind != tokString && p.cur.kind != tokNumber && p.cur.kind != tokIdent) {
		p.err = fmt.Errorf("oar: expected value after %s%s", key, op)
		return trueExpr{}
	}
	val := p.cur.text
	p.advance()
	return newCmpExpr(key, op, val)
}

// newCmpExpr builds a comparison; a numeric literal (NaN is not one) also
// compares as a number.
func newCmpExpr(key, op, val string) cmpExpr {
	e := cmpExpr{key: key, op: op, val: val}
	if n, err := strconv.ParseFloat(val, 64); err == nil && !math.IsNaN(n) {
		e.valNum, e.valIsNum = n, true
	}
	return e
}

// looksNumeric is a cheap pre-filter before strconv.ParseFloat.
func looksNumeric(s string) bool {
	if len(s) == 0 {
		return false
	}
	c := s[0]
	return c >= '0' && c <= '9' || c == '-' || c == '+' || c == '.'
}
