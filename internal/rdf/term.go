// Package rdf provides the RDF data model used throughout the repository:
// terms (IRIs, literals, blank nodes), triples, and an N-Triples subset
// parser and serializer.
//
// The model is deliberately small. A term is a tagged string; a triple is
// three terms with the usual subject/predicate/object positions. The
// stores in this repository operate on dictionary-encoded integer keys
// (see package dictionary); package rdf is the boundary where strings live.
package rdf

import (
	"bytes"
	"fmt"
	"strings"
)

// TermKind discriminates the three kinds of RDF terms.
type TermKind uint8

const (
	// IRI is an RDF IRI reference, e.g. <http://example.org/alice>.
	IRI TermKind = iota
	// Literal is an RDF literal, e.g. "Alice" (plain literals only;
	// datatypes and language tags are carried verbatim in the value).
	Literal
	// Blank is a blank node, e.g. _:b0.
	Blank
)

// String returns the kind name, for diagnostics.
func (k TermKind) String() string {
	switch k {
	case IRI:
		return "iri"
	case Literal:
		return "literal"
	case Blank:
		return "blank"
	default:
		return fmt.Sprintf("TermKind(%d)", uint8(k))
	}
}

// Term is one RDF term. The zero value is an empty IRI, which is not a
// valid term; use the constructors.
type Term struct {
	Kind  TermKind
	Value string
}

// NewIRI returns an IRI term with the given absolute or relative IRI text
// (without angle brackets).
func NewIRI(iri string) Term { return Term{Kind: IRI, Value: iri} }

// NewLiteral returns a plain literal term with the given lexical value
// (without surrounding quotes).
func NewLiteral(value string) Term { return Term{Kind: Literal, Value: value} }

// NewBlank returns a blank-node term with the given label (without the
// leading "_:").
func NewBlank(label string) Term { return Term{Kind: Blank, Value: label} }

// IsZero reports whether t is the zero Term (empty IRI), which the data
// model treats as invalid.
func (t Term) IsZero() bool { return t.Kind == IRI && t.Value == "" }

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	switch t.Kind {
	case IRI:
		return "<" + t.Value + ">"
	case Literal:
		return `"` + escapeLiteral(t.Value) + `"`
	case Blank:
		return "_:" + t.Value
	default:
		return fmt.Sprintf("!invalid term kind %d!", t.Kind)
	}
}

// Key returns a string that uniquely identifies the term across kinds.
// Two distinct terms never share a key: the kind is encoded in the first
// byte. Keys are used by the dictionary for encoding.
func (t Term) Key() string {
	switch t.Kind {
	case Literal:
		return "\"" + t.Value
	case Blank:
		return "_" + t.Value
	default:
		return "<" + t.Value
	}
}

// AppendKey appends the term's key (Key) to dst.
func (t Term) AppendKey(dst []byte) []byte {
	switch t.Kind {
	case Literal:
		dst = append(dst, '"')
	case Blank:
		dst = append(dst, '_')
	default:
		dst = append(dst, '<')
	}
	return append(dst, t.Value...)
}

// TermFromKey reverses Term.Key.
func TermFromKey(key string) (Term, error) {
	kind, ok := KindOfKey(key)
	if !ok {
		if key == "" {
			return Term{}, fmt.Errorf("rdf: empty term key")
		}
		return Term{}, fmt.Errorf("rdf: malformed term key %q", key)
	}
	return Term{Kind: kind, Value: key[1:]}, nil
}

// KindOfKey returns the kind of the term a key (Term.Key) encodes, read
// from its first byte; the value is key[1:]. ok is false for an empty or
// malformed key.
func KindOfKey(key string) (kind TermKind, ok bool) {
	if key == "" {
		return 0, false
	}
	switch key[0] {
	case '"':
		return Literal, true
	case '_':
		return Blank, true
	case '<':
		return IRI, true
	}
	return 0, false
}

// escapeLiteral escapes the bytes a quoted literal cannot hold raw. It
// works byte by byte: every escaped character is ASCII, which no byte of
// a multi-byte UTF-8 sequence is, and every other byte — an invalid
// UTF-8 byte too — is written back as it was read.
func escapeLiteral(s string) string {
	if !strings.ContainsAny(s, "\"\\\n\r\t") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// appendUnescaped appends the value of a quoted literal's body s, its
// escapes resolved, to dst.
func appendUnescaped(dst, s []byte) ([]byte, error) {
	if bytes.IndexByte(s, '\\') < 0 {
		return append(dst, s...), nil
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' {
			dst = append(dst, c)
			continue
		}
		i++
		if i >= len(s) {
			return dst, fmt.Errorf("rdf: trailing backslash in literal %q", s)
		}
		switch s[i] {
		case '"':
			dst = append(dst, '"')
		case '\\':
			dst = append(dst, '\\')
		case 'n':
			dst = append(dst, '\n')
		case 'r':
			dst = append(dst, '\r')
		case 't':
			dst = append(dst, '\t')
		default:
			return dst, fmt.Errorf("rdf: unknown escape \\%c in literal %q", s[i], s)
		}
	}
	return dst, nil
}
