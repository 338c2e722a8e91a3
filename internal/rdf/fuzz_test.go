package rdf

import (
	"bytes"
	"strings"
	"testing"
)

// invalidUTF8Line is an N-Triples line whose literal holds an escaped
// quote and the lone byte 0xB0, which is not UTF-8.
const invalidUTF8Line = "<0> <0> \"\\\"\xb0\" ."

// writeNTriples renders triples with Writer.
func writeNTriples(t testing.TB, ts ...Triple) string {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, tr := range ts {
		if err := w.Write(tr); err != nil {
			t.Fatalf("Write(%v): %v", tr, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestLiteralInvalidUTF8RoundTrip checks that a literal's bytes survive
// export whether or not they are UTF-8: both writers escape the quote
// and must leave the 0xB0 byte as it is, not turn it into U+FFFD.
func TestLiteralInvalidUTF8RoundTrip(t *testing.T) {
	tr, err := ParseTriple(invalidUTF8Line)
	if err != nil {
		t.Fatal(err)
	}
	if want := "\"\xb0"; tr.Object.Value != want {
		t.Fatalf("parsed value %q, want %q", tr.Object.Value, want)
	}
	got, err := NewReader(strings.NewReader(writeNTriples(t, tr))).ReadAll()
	if err != nil || len(got) != 1 || got[0] != tr {
		t.Fatalf("N-Triples round trip = %q, %v; want %q", got, err, tr)
	}
	var buf bytes.Buffer
	if err := WriteTurtle(&buf, nil, []Triple{tr}); err != nil {
		t.Fatal(err)
	}
	got, err = ParseTurtle(buf.String())
	if err != nil || len(got) != 1 || got[0] != tr {
		t.Fatalf("Turtle round trip = %q, %v; want %q", got, err, tr)
	}
}

// FuzzNTriples feeds arbitrary lines to ParseTriple, the decoder of
// POST /triples bodies: it must not panic, and a triple it accepts must
// come back unchanged through Writer and Reader — export, then import.
// A Reader line never holds a newline, so inputs with one only have to
// parse without panicking. The committed corpus
// (testdata/fuzz/FuzzNTriples) holds IRIs, a blank node, escapes,
// language and datatype suffixes, a blank label ending in a dot and the
// invalid UTF-8 literal.
func FuzzNTriples(f *testing.F) {
	f.Fuzz(func(t *testing.T, line string) {
		tr, err := ParseTriple(line)
		if err != nil || strings.Contains(line, "\n") {
			return
		}
		out := writeNTriples(t, tr)
		got, err := NewReader(strings.NewReader(out)).ReadAll()
		if err != nil || len(got) != 1 || got[0] != tr {
			t.Fatalf("%q parsed to %q, written as %q, re-read as %q (%v)", line, tr, out, got, err)
		}
	})
}

// FuzzTurtle feeds arbitrary documents to ParseTurtle, the other decoder
// of POST /triples bodies: it must not panic. The committed corpus
// (testdata/fuzz/FuzzTurtle) holds both directive styles, predicate and
// object lists, bare numbers and booleans, suffixes, escapes, the
// unsupported collection and bracketed blank node, and the invalid
// UTF-8 literal.
func FuzzTurtle(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc string) {
		ParseTurtle(doc)
	})
}
