package rdf

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
)

// ParseError describes a syntax error at a specific line of an N-Triples
// stream.
type ParseError struct {
	Line int    // 1-based line number
	Text string // the offending line, trimmed
	Err  error  // underlying cause
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("rdf: line %d: %v (in %q)", e.Line, e.Err, e.Text)
}

// Unwrap returns the underlying cause.
func (e *ParseError) Unwrap() error { return e.Err }

// Reader parses a stream in a pragmatic N-Triples subset: one triple per
// line, `<iri>`, `"literal"` (with \" \\ \n \r \t escapes), `_:blank`
// terms, `#` comment lines, and blank lines. Datatype/language suffixes on
// literals (^^<iri>, @tag) are accepted and folded into the literal value.
type Reader struct {
	scanner *bufio.Scanner
	line    int
	keys    []byte
}

// NewReader returns a Reader consuming r.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &Reader{scanner: sc}
}

// Read returns the next triple. It returns io.EOF at end of stream and a
// *ParseError on malformed input.
func (r *Reader) Read() (Triple, error) {
	for r.scanner.Scan() {
		r.line++
		keys, end, ok, err := AppendStatement(r.keys[:0], r.scanner.Bytes())
		r.keys = keys
		if err != nil {
			return Triple{}, &ParseError{Line: r.line, Text: string(bytes.TrimSpace(r.scanner.Bytes())), Err: err}
		}
		if ok {
			return tripleOfKeys(string(keys), end), nil
		}
	}
	if err := r.scanner.Err(); err != nil {
		return Triple{}, err
	}
	return Triple{}, io.EOF
}

// ReadAll parses every remaining triple in the stream.
func (r *Reader) ReadAll() ([]Triple, error) {
	var out []Triple
	for {
		t, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
}

// ParseTriple parses a single N-Triples line (with or without the
// trailing dot).
func ParseTriple(line string) (Triple, error) {
	keys, end, err := appendTriple(nil, bytes.TrimSpace([]byte(line)))
	if err != nil {
		return Triple{}, err
	}
	return tripleOfKeys(string(keys), end), nil
}

// AppendStatement parses one line of an N-Triples stream and appends the
// keys (Term.Key) of its subject, predicate and object to dst, back to
// back: the subject's key starts at len(dst), and end[i] is where term
// i's key ends in the returned slice. A blank or comment line appends
// nothing and reports ok false. Reader and the parallel bulk loader both
// parse through it, so they accept the same grammar.
func AppendStatement(dst, line []byte) (out []byte, end [3]int, ok bool, err error) {
	line = bytes.TrimSpace(line)
	if len(line) == 0 || line[0] == '#' {
		return dst, end, false, nil
	}
	out, end, err = appendTriple(dst, line)
	return out, end, err == nil, err
}

// tripleOfKeys builds the triple whose term keys lie back to back in
// keys, term i's ending at end[i]; the terms share keys' storage.
func tripleOfKeys(keys string, end [3]int) Triple {
	base := end[2] - len(keys)
	var terms [3]Term
	start := 0
	for i := range terms {
		key := keys[start : end[i]-base]
		kind, _ := KindOfKey(key)
		terms[i] = Term{Kind: kind, Value: key[1:]}
		start = end[i] - base
	}
	return Triple{Subject: terms[0], Predicate: terms[1], Object: terms[2]}
}

// appendTriple parses a trimmed N-Triples statement, appending its three
// term keys to dst.
func appendTriple(dst, line []byte) ([]byte, [3]int, error) {
	var end [3]int
	line = bytes.TrimSpace(bytes.TrimSuffix(line, []byte(".")))
	start := len(dst)
	rest := line
	var err error
	for i, pos := range [3]string{"subject", "predicate", "object"} {
		if dst, rest, err = appendTerm(dst, rest); err != nil {
			return dst, end, fmt.Errorf("%s: %w", pos, err)
		}
		end[i] = len(dst)
	}
	if rest = bytes.TrimSpace(rest); len(rest) != 0 {
		return dst, end, fmt.Errorf("trailing content %q", rest)
	}
	s, p, o := dst[start:end[0]], dst[end[0]:end[1]], dst[end[1]:end[2]]
	// The positional rules of Triple.Valid, read off the keys: "<" is the
	// key of the empty IRI, the zero Term.
	if string(s) == "<" || s[0] == '"' || string(p) == "<" || p[0] != '<' || string(o) == "<" {
		t := tripleOfKeys(string(dst[start:end[2]]), [3]int{end[0] - start, end[1] - start, end[2] - start})
		return dst, end, fmt.Errorf("positionally invalid triple %s", t)
	}
	return dst, end, nil
}

// appendTerm consumes one term from the front of s, appends its key to
// dst and returns the unconsumed remainder.
func appendTerm(dst, s []byte) ([]byte, []byte, error) {
	for len(s) > 0 && (s[0] == ' ' || s[0] == '\t') {
		s = s[1:]
	}
	if len(s) == 0 {
		return dst, nil, fmt.Errorf("unexpected end of line")
	}
	switch s[0] {
	case '<':
		end := bytes.IndexByte(s, '>')
		if end < 0 {
			return dst, nil, fmt.Errorf("unterminated IRI")
		}
		return append(append(dst, '<'), s[1:end]...), s[end+1:], nil
	case '_':
		if len(s) < 2 || s[1] != ':' {
			return dst, nil, fmt.Errorf("malformed blank node")
		}
		end := blankEnd(s)
		label := s[2:end]
		if len(label) == 0 {
			return dst, nil, fmt.Errorf("empty blank node label")
		}
		return append(append(dst, '_'), label...), s[end:], nil
	case '"':
		end := closingQuote(s)
		if end < 0 {
			return dst, nil, fmt.Errorf("unterminated literal")
		}
		dst, err := appendUnescaped(append(dst, '"'), s[1:end])
		if err != nil {
			return dst, nil, err
		}
		rest := s[end+1:]
		// Fold a datatype or language suffix into the literal value so
		// round-trips preserve information without a full datatype model.
		if bytes.HasPrefix(rest, []byte("^^<")) {
			dtEnd := bytes.IndexByte(rest, '>')
			if dtEnd < 0 {
				return dst, nil, fmt.Errorf("unterminated datatype IRI")
			}
			dst = append(dst, rest[:dtEnd+1]...)
			rest = rest[dtEnd+1:]
		} else if len(rest) > 0 && rest[0] == '@' {
			tagEnd := blankEnd(rest)
			dst = append(dst, rest[:tagEnd]...)
			rest = rest[tagEnd:]
		}
		return dst, rest, nil
	default:
		return dst, nil, fmt.Errorf("unexpected character %q", s[0])
	}
}

// blankEnd returns the index of the first space or tab in s, or len(s).
func blankEnd(s []byte) int {
	for i, c := range s {
		if c == ' ' || c == '\t' {
			return i
		}
	}
	return len(s)
}

// closingQuote returns the index of the unescaped closing quote of a
// literal beginning at s[0] == '"', or -1.
func closingQuote(s []byte) int {
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			return i
		}
	}
	return -1
}

// Writer serializes triples in N-Triples syntax.
type Writer struct {
	w   *bufio.Writer
	err error
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Write emits one triple. After the first error all writes fail with it.
func (w *Writer) Write(t Triple) error {
	if w.err != nil {
		return w.err
	}
	if !t.Valid() {
		return fmt.Errorf("rdf: refusing to serialize invalid triple %s", t)
	}
	_, w.err = w.w.WriteString(t.String() + "\n")
	return w.err
}

// Flush flushes buffered output.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}
