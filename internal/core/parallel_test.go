package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hexastore/internal/dictionary"
	"hexastore/internal/rdf"
)

// genTriples returns n pseudo-random triples (with duplicates) encoded
// into dict, the same sequence for a given seed.
func genTriples(dict *dictionary.Dictionary, n int, seed int64) [][3]ID {
	rng := rand.New(rand.NewSource(seed))
	out := make([][3]ID, 0, n)
	for i := 0; i < n; i++ {
		s := dict.Encode(rdf.NewIRI(fmt.Sprintf("s%d", rng.Intn(n/8+1))))
		p := dict.Encode(rdf.NewIRI(fmt.Sprintf("p%d", rng.Intn(24))))
		o := dict.Encode(rdf.NewIRI(fmt.Sprintf("o%d", rng.Intn(n/4+1))))
		out = append(out, [3]ID{s, p, o})
	}
	return out
}

func snapshotBytes(t *testing.T, st *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return buf.Bytes()
}

// TestBuildParallelIdenticalToSequential is the determinism check the
// parallel loader is held to: for any worker count the built store must
// be indistinguishable from the sequential Build — verified on the
// snapshot serialization, which covers the dictionary, the triple set,
// and the spo iteration order.
func TestBuildParallelIdenticalToSequential(t *testing.T) {
	dict := dictionary.New()
	triples := genTriples(dict, 40_000, 42)

	seq := NewBuilder(dict)
	for _, tr := range triples {
		seq.Add(tr[0], tr[1], tr[2])
	}
	want := snapshotBytes(t, seq.Build())

	for _, workers := range []int{1, 2, 8} {
		par := NewBuilder(dict)
		for _, tr := range triples {
			par.Add(tr[0], tr[1], tr[2])
		}
		st := par.BuildParallel(workers)
		if got := snapshotBytes(t, st); !bytes.Equal(got, want) {
			t.Fatalf("BuildParallel(%d) snapshot differs from sequential Build", workers)
		}
		if par.Len() != 0 {
			t.Fatalf("BuildParallel(%d) left %d triples in the builder, want 0 (consuming build)", workers, par.Len())
		}
	}
}

// TestAddNTriplesReportsEarliestParseError checks that a load with two
// malformed lines reports the first, at the line rdf.Reader gives, for
// every worker count and block size, and leaves the builder and the
// dictionary as they were.
func TestAddNTriplesReportsEarliestParseError(t *testing.T) {
	var doc strings.Builder
	for i := 1; i <= 4000; i++ {
		if i == 2777 {
			doc.WriteString("<s> <p> .\n") // malformed: missing object
			continue
		}
		fmt.Fprintf(&doc, "<s%d> <p> <o%d> .\n", i, i)
	}
	doc.WriteString("<s> <p> \"unterminated .\n")
	for _, workers := range []int{1, 4} {
		for _, block := range []int{1, 100, loadBlock} {
			dict := dictionary.New()
			ids, err := encodeNTriples(dict, strings.NewReader(doc.String()), workers, block)
			var pe *rdf.ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("workers=%d block=%d: err = %v, want *rdf.ParseError", workers, block, err)
			}
			if pe.Line != 2777 || pe.Text != "<s> <p> ." {
				t.Errorf("workers=%d block=%d: error at line %d (%q), want 2777", workers, block, pe.Line, pe.Text)
			}
			if ids != nil || dict.Len() != 0 {
				t.Errorf("workers=%d block=%d: a failed load returned %d triples and left %d terms", workers, block, len(ids), dict.Len())
			}
		}
	}
	b := NewBuilder(nil)
	if n, err := b.AddNTriples(strings.NewReader(doc.String()), 2); err == nil || n != 0 || b.Len() != 0 {
		t.Errorf("AddNTriples of a malformed stream = %d, %v; builder holds %d", n, err, b.Len())
	}
}
