package sparql

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"hexastore/internal/rdf"
)

// SyntaxError reports a parse failure with the byte offset in the query.
type SyntaxError struct {
	Offset int
	Msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("sparql: offset %d: %s", e.Offset, e.Msg)
}

type tokenKind uint8

const (
	tokKeyword  tokenKind = iota // SELECT, DISTINCT, WHERE, ... (case-insensitive)
	tokVar                       // ?name
	tokIRI                       // <...>
	tokLiteral                   // "..."
	tokBlank                     // _:label
	tokPrefixed                  // prefix:local (also "prefix:" in PREFIX decls)
	tokLBrace                    // {
	tokRBrace                    // }
	tokLParen                    // (
	tokRParen                    // )
	tokDot                       // .
	tokStar                      // *
	tokNumber                    // integer or decimal
	tokOp                        // = != < <= > >=
	tokSemi                      // ; (update operation separator)
	tokEOF
)

type token struct {
	kind tokenKind
	text string
	off  int
}

type lexer struct {
	src string
	pos int
}

func (l *lexer) errf(off int, format string, args ...any) error {
	return &SyntaxError{Offset: off, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) && unicode.IsSpace(rune(l.src[l.pos])) {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, off: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == '{':
		l.pos++
		return token{tokLBrace, "{", start}, nil
	case c == '}':
		l.pos++
		return token{tokRBrace, "}", start}, nil
	case c == '(':
		l.pos++
		return token{tokLParen, "(", start}, nil
	case c == ')':
		l.pos++
		return token{tokRParen, ")", start}, nil
	case c == '*':
		l.pos++
		return token{tokStar, "*", start}, nil
	case c == '=':
		l.pos++
		return token{tokOp, "=", start}, nil
	case c == '!':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			l.pos += 2
			return token{tokOp, "!=", start}, nil
		}
		return token{}, l.errf(start, "expected '=' after '!'")
	case c == '<':
		// '<' begins either an IRI (<...>) or a comparison operator.
		// An IRI never contains spaces; if a '>' appears before any
		// whitespace, treat it as an IRI.
		if end := iriEnd(l.src[l.pos:]); end > 0 {
			iri := l.src[l.pos+1 : l.pos+end]
			l.pos += end + 1
			return token{tokIRI, iri, start}, nil
		}
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			l.pos += 2
			return token{tokOp, "<=", start}, nil
		}
		l.pos++
		return token{tokOp, "<", start}, nil
	case c == '>':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			l.pos += 2
			return token{tokOp, ">=", start}, nil
		}
		l.pos++
		return token{tokOp, ">", start}, nil
	case c == '?':
		l.pos++
		for l.pos < len(l.src) && isNameByte(l.src[l.pos]) {
			l.pos++
		}
		name := l.src[start+1 : l.pos]
		if name == "" {
			return token{}, l.errf(start, "empty variable name")
		}
		return token{tokVar, name, start}, nil
	case c == '"':
		i := l.pos + 1
		var sb strings.Builder
		for i < len(l.src) {
			switch l.src[i] {
			case '\\':
				if i+1 >= len(l.src) {
					return token{}, l.errf(start, "trailing backslash in literal")
				}
				switch l.src[i+1] {
				case '"':
					sb.WriteByte('"')
				case '\\':
					sb.WriteByte('\\')
				case 'n':
					sb.WriteByte('\n')
				case 't':
					sb.WriteByte('\t')
				case 'r':
					sb.WriteByte('\r')
				default:
					return token{}, l.errf(i, "unknown escape \\%c", l.src[i+1])
				}
				i += 2
			case '"':
				l.pos = i + 1
				return token{tokLiteral, sb.String(), start}, nil
			default:
				sb.WriteByte(l.src[i])
				i++
			}
		}
		return token{}, l.errf(start, "unterminated literal")
	case c == '_':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == ':' {
			l.pos += 2
			for l.pos < len(l.src) && isNameByte(l.src[l.pos]) {
				l.pos++
			}
			label := l.src[start+2 : l.pos]
			if label == "" {
				return token{}, l.errf(start, "empty blank node label")
			}
			return token{tokBlank, label, start}, nil
		}
		// A bare name starting with '_' lexes as a keyword/name.
		fallthrough
	case isNameByte(c) && !(c >= '0' && c <= '9'):
		for l.pos < len(l.src) && isNameByte(l.src[l.pos]) {
			l.pos++
		}
		word := l.src[start:l.pos]
		// prefix:local — a name immediately followed by ':'.
		if l.pos < len(l.src) && l.src[l.pos] == ':' {
			l.pos++
			localStart := l.pos
			for l.pos < len(l.src) && isNameByte(l.src[l.pos]) {
				l.pos++
			}
			return token{tokPrefixed, word + ":" + l.src[localStart:l.pos], start}, nil
		}
		return token{tokKeyword, word, start}, nil
	case c >= '0' && c <= '9':
		for l.pos < len(l.src) && (l.src[l.pos] >= '0' && l.src[l.pos] <= '9' || l.src[l.pos] == '.') {
			l.pos++
		}
		// A trailing '.' is the pattern separator, not part of the number.
		text := l.src[start:l.pos]
		if strings.HasSuffix(text, ".") {
			text = text[:len(text)-1]
			l.pos--
		}
		return token{tokNumber, text, start}, nil
	case c == '.':
		l.pos++
		return token{tokDot, ".", start}, nil
	case c == ';':
		l.pos++
		return token{tokSemi, ";", start}, nil
	default:
		return token{}, l.errf(start, "unexpected character %q", c)
	}
}

// iriEnd returns the offset of the closing '>' of an IRI starting at
// src[0] == '<', or -1 when the text is not an IRI (whitespace or EOF
// before '>').
func iriEnd(src string) int {
	for i := 1; i < len(src); i++ {
		switch {
		case src[i] == '>':
			return i
		case unicode.IsSpace(rune(src[i])):
			return -1
		}
	}
	return -1
}

func isNameByte(c byte) bool {
	return c == '_' || c == '-' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// Parse parses a SELECT query.
func Parse(src string) (*Query, error) {
	p := &parser{lex: lexer{src: src}, prefixes: map[string]string{}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errHere("trailing content after query")
	}
	return q, nil
}

type parser struct {
	lex      lexer
	tok      token
	prefixes map[string]string
}

func (p *parser) advance() error {
	tok, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = tok
	return nil
}

func (p *parser) errHere(format string, args ...any) error {
	return &SyntaxError{Offset: p.tok.off, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) isKeyword(kw string) bool {
	return p.tok.kind == tokKeyword && strings.EqualFold(p.tok.text, kw)
}

func (p *parser) expectKeyword(kw string) error {
	if !p.isKeyword(kw) {
		return p.errHere("expected %q, found %q", kw, p.tok.text)
	}
	return p.advance()
}

func (p *parser) parseQuery() (*Query, error) {
	// EXPLAIN [ANALYZE] prefixes the whole query form: EXPLAIN plans
	// without executing, EXPLAIN ANALYZE executes and records actuals.
	explain := ExplainNone
	if p.isKeyword("EXPLAIN") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		explain = ExplainPlan
		if p.isKeyword("ANALYZE") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			explain = ExplainExec
		}
	}
	for p.isKeyword("PREFIX") {
		if err := p.parsePrefix(); err != nil {
			return nil, err
		}
	}
	if p.isKeyword("ASK") {
		q, err := p.parseAsk()
		if err != nil {
			return nil, err
		}
		q.Explain = explain
		return q, nil
	}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	q := &Query{Explain: explain}
	if p.isKeyword("DISTINCT") {
		q.Distinct = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	switch {
	case p.tok.kind == tokStar:
		if err := p.advance(); err != nil {
			return nil, err
		}
	case p.tok.kind == tokVar || p.tok.kind == tokLParen:
		for p.tok.kind == tokVar || p.tok.kind == tokLParen {
			if p.tok.kind == tokVar {
				q.Vars = append(q.Vars, p.tok.text)
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			agg, err := p.parseAggregate()
			if err != nil {
				return nil, err
			}
			q.Aggregates = append(q.Aggregates, agg)
		}
	default:
		return nil, p.errHere("expected projection variables, aggregates, or *")
	}
	if err := p.expectKeyword("WHERE"); err != nil {
		return nil, err
	}
	if err := p.parseGroupGraphPattern(q); err != nil {
		return nil, err
	}
	if err := p.parseSolutionModifiers(q); err != nil {
		return nil, err
	}
	if len(q.Patterns) == 0 && len(q.Unions) == 0 {
		return nil, p.errHere("empty graph pattern")
	}
	if err := checkProjection(q); err != nil {
		return nil, err
	}
	return q, nil
}

// parseAsk parses ASK ["WHERE"] { clauses }.
func (p *parser) parseAsk() (*Query, error) {
	if err := p.advance(); err != nil { // consume ASK
		return nil, err
	}
	if p.isKeyword("WHERE") {
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	q := &Query{Ask: true}
	if err := p.parseGroupGraphPattern(q); err != nil {
		return nil, err
	}
	if len(q.Patterns) == 0 && len(q.Unions) == 0 {
		return nil, p.errHere("empty graph pattern")
	}
	return q, nil
}

// parsePrefix parses one PREFIX declaration: PREFIX name: <iri>.
func (p *parser) parsePrefix() error {
	if err := p.advance(); err != nil { // consume PREFIX
		return err
	}
	if p.tok.kind != tokPrefixed {
		return p.errHere("expected prefix declaration (name:) after PREFIX")
	}
	name, local, _ := strings.Cut(p.tok.text, ":")
	if local != "" {
		return p.errHere("prefix declaration must not have a local part")
	}
	if err := p.advance(); err != nil {
		return err
	}
	if p.tok.kind != tokIRI {
		return p.errHere("expected <iri> in PREFIX declaration")
	}
	p.prefixes[name] = p.tok.text
	return p.advance()
}

// parseGroupGraphPattern parses { clause ... } into q.
func (p *parser) parseGroupGraphPattern(q *Query) error {
	if p.tok.kind != tokLBrace {
		return p.errHere("expected '{'")
	}
	if err := p.advance(); err != nil {
		return err
	}
	for p.tok.kind != tokRBrace {
		switch {
		case p.isKeyword("FILTER"):
			f, err := p.parseFilter()
			if err != nil {
				return err
			}
			q.Filters = append(q.Filters, f)
		case p.isKeyword("OPTIONAL"):
			if err := p.advance(); err != nil {
				return err
			}
			group, err := p.parsePatternGroup()
			if err != nil {
				return err
			}
			q.Optionals = append(q.Optionals, group)
		case p.tok.kind == tokLBrace:
			u, err := p.parseUnion()
			if err != nil {
				return err
			}
			q.Unions = append(q.Unions, u)
		default:
			pat, err := p.parsePattern()
			if err != nil {
				return err
			}
			q.Patterns = append(q.Patterns, pat)
		}
		if p.tok.kind == tokDot {
			if err := p.advance(); err != nil {
				return err
			}
		}
	}
	return p.advance() // consume '}'
}

// parsePatternGroup parses { pattern { "." pattern } ["."] }.
func (p *parser) parsePatternGroup() ([]Pattern, error) {
	if p.tok.kind != tokLBrace {
		return nil, p.errHere("expected '{'")
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	var group []Pattern
	for p.tok.kind != tokRBrace {
		pat, err := p.parsePattern()
		if err != nil {
			return nil, err
		}
		group = append(group, pat)
		if p.tok.kind == tokDot {
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if len(group) == 0 {
		return nil, p.errHere("empty pattern group")
	}
	return group, p.advance()
}

// parseUnion parses group UNION group { UNION group }.
func (p *parser) parseUnion() (Union, error) {
	first, err := p.parsePatternGroup()
	if err != nil {
		return nil, err
	}
	u := Union{first}
	if !p.isKeyword("UNION") {
		return nil, p.errHere("expected UNION after pattern group")
	}
	for p.isKeyword("UNION") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		alt, err := p.parsePatternGroup()
		if err != nil {
			return nil, err
		}
		u = append(u, alt)
	}
	return u, nil
}

// parseFilter parses FILTER ( operand op operand ).
func (p *parser) parseFilter() (Filter, error) {
	if err := p.advance(); err != nil { // consume FILTER
		return Filter{}, err
	}
	if p.tok.kind != tokLParen {
		return Filter{}, p.errHere("expected '(' after FILTER")
	}
	if err := p.advance(); err != nil {
		return Filter{}, err
	}
	left, err := p.parseOperand()
	if err != nil {
		return Filter{}, err
	}
	if p.tok.kind != tokOp {
		return Filter{}, p.errHere("expected comparison operator in FILTER")
	}
	op := p.tok.text
	if err := p.advance(); err != nil {
		return Filter{}, err
	}
	right, err := p.parseOperand()
	if err != nil {
		return Filter{}, err
	}
	if p.tok.kind != tokRParen {
		return Filter{}, p.errHere("expected ')' to close FILTER")
	}
	if err := p.advance(); err != nil {
		return Filter{}, err
	}
	return Filter{Left: left, Op: op, Right: right}, nil
}

// parseOperand parses a filter operand: any term, or a bare number
// (treated as a plain literal so numeric comparison applies).
func (p *parser) parseOperand() (Term, error) {
	if p.tok.kind == tokNumber {
		t := C(rdf.NewLiteral(p.tok.text))
		return t, p.advance()
	}
	return p.parseTerm()
}

// parseAggregate parses ( COUNT ( * | [DISTINCT] ?v ) AS ?alias ).
func (p *parser) parseAggregate() (Aggregate, error) {
	if err := p.advance(); err != nil { // consume '('
		return Aggregate{}, err
	}
	if !p.isKeyword("COUNT") {
		return Aggregate{}, p.errHere("only COUNT aggregates are supported, found %q", p.tok.text)
	}
	agg := Aggregate{Func: "COUNT"}
	if err := p.advance(); err != nil {
		return Aggregate{}, err
	}
	if p.tok.kind != tokLParen {
		return Aggregate{}, p.errHere("expected '(' after COUNT")
	}
	if err := p.advance(); err != nil {
		return Aggregate{}, err
	}
	switch {
	case p.tok.kind == tokStar:
		if err := p.advance(); err != nil {
			return Aggregate{}, err
		}
	case p.isKeyword("DISTINCT"):
		agg.Distinct = true
		if err := p.advance(); err != nil {
			return Aggregate{}, err
		}
		fallthrough
	default:
		if p.tok.kind != tokVar {
			return Aggregate{}, p.errHere("expected ?variable or * in COUNT")
		}
		agg.Var = p.tok.text
		if err := p.advance(); err != nil {
			return Aggregate{}, err
		}
	}
	if p.tok.kind != tokRParen {
		return Aggregate{}, p.errHere("expected ')' to close COUNT argument")
	}
	if err := p.advance(); err != nil {
		return Aggregate{}, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return Aggregate{}, err
	}
	if p.tok.kind != tokVar {
		return Aggregate{}, p.errHere("expected ?alias after AS")
	}
	agg.As = p.tok.text
	if err := p.advance(); err != nil {
		return Aggregate{}, err
	}
	if p.tok.kind != tokRParen {
		return Aggregate{}, p.errHere("expected ')' to close aggregate")
	}
	return agg, p.advance()
}

// parseSolutionModifiers parses [GROUP BY ...] [ORDER BY ...] [LIMIT n]
// [OFFSET n].
func (p *parser) parseSolutionModifiers(q *Query) error {
	if p.isKeyword("GROUP") {
		if err := p.advance(); err != nil {
			return err
		}
		if err := p.expectKeyword("BY"); err != nil {
			return err
		}
		for p.tok.kind == tokVar {
			q.GroupBy = append(q.GroupBy, p.tok.text)
			if err := p.advance(); err != nil {
				return err
			}
		}
		if len(q.GroupBy) == 0 {
			return p.errHere("expected variable after GROUP BY")
		}
	}
	if p.isKeyword("ORDER") {
		if err := p.advance(); err != nil {
			return err
		}
		if err := p.expectKeyword("BY"); err != nil {
			return err
		}
		for {
			key, ok, err := p.parseOrderKey()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			q.OrderBy = append(q.OrderBy, key)
		}
		if len(q.OrderBy) == 0 {
			return p.errHere("expected sort key after ORDER BY")
		}
	}
	if p.isKeyword("LIMIT") {
		if err := p.advance(); err != nil {
			return err
		}
		n, err := p.parseNonNegInt("LIMIT")
		if err != nil {
			return err
		}
		q.Limit = n
	}
	if p.isKeyword("OFFSET") {
		if err := p.advance(); err != nil {
			return err
		}
		n, err := p.parseNonNegInt("OFFSET")
		if err != nil {
			return err
		}
		q.Offset = n
	}
	return nil
}

func (p *parser) parseOrderKey() (OrderKey, bool, error) {
	switch {
	case p.tok.kind == tokVar:
		key := OrderKey{Var: p.tok.text}
		return key, true, p.advance()
	case p.isKeyword("ASC"), p.isKeyword("DESC"):
		desc := strings.EqualFold(p.tok.text, "DESC")
		if err := p.advance(); err != nil {
			return OrderKey{}, false, err
		}
		if p.tok.kind != tokLParen {
			return OrderKey{}, false, p.errHere("expected '(' after ASC/DESC")
		}
		if err := p.advance(); err != nil {
			return OrderKey{}, false, err
		}
		if p.tok.kind != tokVar {
			return OrderKey{}, false, p.errHere("expected variable in ASC/DESC")
		}
		key := OrderKey{Var: p.tok.text, Desc: desc}
		if err := p.advance(); err != nil {
			return OrderKey{}, false, err
		}
		if p.tok.kind != tokRParen {
			return OrderKey{}, false, p.errHere("expected ')' after sort variable")
		}
		return key, true, p.advance()
	default:
		return OrderKey{}, false, nil
	}
}

func (p *parser) parseNonNegInt(ctx string) (int, error) {
	if p.tok.kind != tokNumber {
		return 0, p.errHere("expected number after %s", ctx)
	}
	n, err := strconv.Atoi(p.tok.text)
	if err != nil || n < 0 {
		return 0, p.errHere("invalid %s %q", ctx, p.tok.text)
	}
	return n, p.advance()
}

func checkProjection(q *Query) error {
	all := map[string]bool{}
	for _, name := range q.AllVars() {
		all[name] = true
	}
	for _, name := range q.Vars {
		if !all[name] {
			return &SyntaxError{Msg: fmt.Sprintf("projected variable ?%s does not occur in the pattern", name)}
		}
	}
	if len(q.Aggregates) > 0 {
		grouped := map[string]bool{}
		for _, name := range q.GroupBy {
			if !all[name] {
				return &SyntaxError{Msg: fmt.Sprintf("GROUP BY variable ?%s does not occur in the pattern", name)}
			}
			grouped[name] = true
		}
		for _, name := range q.Vars {
			if !grouped[name] {
				return &SyntaxError{Msg: fmt.Sprintf("projected variable ?%s must appear in GROUP BY when aggregates are used", name)}
			}
		}
		for _, a := range q.Aggregates {
			if a.Var != "" && !all[a.Var] {
				return &SyntaxError{Msg: fmt.Sprintf("aggregated variable ?%s does not occur in the pattern", a.Var)}
			}
			if all[a.As] {
				return &SyntaxError{Msg: fmt.Sprintf("aggregate alias ?%s collides with a pattern variable", a.As)}
			}
		}
	} else if len(q.GroupBy) > 0 {
		return &SyntaxError{Msg: "GROUP BY requires an aggregate in the projection"}
	}
	for _, f := range q.Filters {
		for _, name := range f.Vars() {
			if !all[name] {
				return &SyntaxError{Msg: fmt.Sprintf("FILTER variable ?%s does not occur in the pattern", name)}
			}
		}
	}
	aliases := map[string]bool{}
	for _, a := range q.Aggregates {
		aliases[a.As] = true
	}
	for _, k := range q.OrderBy {
		if !all[k.Var] && !aliases[k.Var] {
			return &SyntaxError{Msg: fmt.Sprintf("ORDER BY variable ?%s does not occur in the pattern", k.Var)}
		}
		if len(q.Aggregates) > 0 && !aliases[k.Var] {
			grouped := false
			for _, g := range q.GroupBy {
				if g == k.Var {
					grouped = true
					break
				}
			}
			if !grouped {
				return &SyntaxError{Msg: fmt.Sprintf("ORDER BY variable ?%s must be a group key or aggregate alias", k.Var)}
			}
		}
	}
	return nil
}

func (p *parser) parsePattern() (Pattern, error) {
	s, err := p.parseTerm()
	if err != nil {
		return Pattern{}, err
	}
	pr, err := p.parseTerm()
	if err != nil {
		return Pattern{}, err
	}
	o, err := p.parseTerm()
	if err != nil {
		return Pattern{}, err
	}
	return Pattern{S: s, P: pr, O: o}, nil
}

func (p *parser) parseTerm() (Term, error) {
	var t Term
	switch p.tok.kind {
	case tokVar:
		t = V(p.tok.text)
	case tokIRI:
		t = C(rdf.NewIRI(p.tok.text))
	case tokLiteral:
		t = C(rdf.NewLiteral(p.tok.text))
	case tokBlank:
		t = C(rdf.NewBlank(p.tok.text))
	case tokPrefixed:
		name, local, _ := strings.Cut(p.tok.text, ":")
		base, ok := p.prefixes[name]
		if !ok {
			return Term{}, p.errHere("undeclared prefix %q", name)
		}
		t = C(rdf.NewIRI(base + local))
	case tokKeyword:
		if !strings.EqualFold(p.tok.text, "a") {
			return Term{}, p.errHere("expected term, found %q", p.tok.text)
		}
		// The Turtle/SPARQL shorthand for rdf:type.
		t = C(rdf.NewIRI(rdfTypeIRI))
	case tokOp:
		if strings.HasPrefix(p.tok.text, "<") {
			return Term{}, p.errHere("unterminated IRI (no '>' before whitespace)")
		}
		return Term{}, p.errHere("expected term, found %q", p.tok.text)
	default:
		return Term{}, p.errHere("expected term, found %q", p.tok.text)
	}
	return t, p.advance()
}

// rdfTypeIRI is the expansion of the 'a' keyword.
const rdfTypeIRI = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

// ParseUpdate parses a SPARQL 1.1 UPDATE request:
//
//	update  = prologue op { ";" prologue op } [";"]
//	prologue= { "PREFIX" prefix ":" "<iri>" }
//	op      = ("INSERT" | "DELETE") "DATA" "{" [triple {"." triple} ["."]] "}"
//	triple  = ground ground ground
//	ground  = "<iri>" | prefix:local | '"literal"' | "_:label" | "a"
//
// Only the ground DATA forms are supported; INSERT/DELETE with WHERE
// templates are not.
func ParseUpdate(src string) (*Update, error) {
	p := &parser{lex: lexer{src: src}, prefixes: map[string]string{}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	u := &Update{}
	for {
		for p.isKeyword("PREFIX") {
			if err := p.parsePrefix(); err != nil {
				return nil, err
			}
		}
		if len(u.Ops) > 0 && p.tok.kind == tokEOF {
			break // trailing ';'
		}
		op, err := p.parseUpdateOp()
		if err != nil {
			return nil, err
		}
		u.Ops = append(u.Ops, op)
		if p.tok.kind != tokSemi {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.tok.kind != tokEOF {
		return nil, p.errHere("trailing content after update")
	}
	return u, nil
}

// parseUpdateOp parses one INSERT DATA / DELETE DATA operation.
func (p *parser) parseUpdateOp() (UpdateOp, error) {
	var op UpdateOp
	switch {
	case p.isKeyword("INSERT"):
	case p.isKeyword("DELETE"):
		op.Delete = true
	default:
		return UpdateOp{}, p.errHere("expected INSERT or DELETE, found %q", p.tok.text)
	}
	if err := p.advance(); err != nil {
		return UpdateOp{}, err
	}
	if err := p.expectKeyword("DATA"); err != nil {
		return UpdateOp{}, err
	}
	if p.tok.kind != tokLBrace {
		return UpdateOp{}, p.errHere("expected '{' after DATA")
	}
	if err := p.advance(); err != nil {
		return UpdateOp{}, err
	}
	for p.tok.kind != tokRBrace {
		t, err := p.parseGroundTriple()
		if err != nil {
			return UpdateOp{}, err
		}
		op.Triples = append(op.Triples, t)
		if p.tok.kind == tokDot {
			if err := p.advance(); err != nil {
				return UpdateOp{}, err
			}
		}
	}
	return op, p.advance() // consume '}'
}

// parseGroundTriple parses one variable-free triple of a DATA block.
func (p *parser) parseGroundTriple() (rdf.Triple, error) {
	start := p.tok.off
	var terms [3]rdf.Term
	for i := range terms {
		off := p.tok.off
		t, err := p.parseTerm()
		if err != nil {
			return rdf.Triple{}, err
		}
		if t.Kind == Var {
			return rdf.Triple{}, &SyntaxError{Offset: off,
				Msg: fmt.Sprintf("variable ?%s not allowed in a DATA block", t.Name)}
		}
		terms[i] = t.RDF
	}
	tr := rdf.T(terms[0], terms[1], terms[2])
	// Reject positionally invalid RDF here: the stores silently drop
	// invalid triples, which would turn a client error into a 'success'
	// that inserted nothing.
	if !tr.Valid() {
		return rdf.Triple{}, &SyntaxError{Offset: start,
			Msg: "invalid triple in DATA block (subject must be an IRI or blank node, predicate an IRI)"}
	}
	return tr, nil
}
