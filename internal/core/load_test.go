package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"hexastore/internal/core"
	"hexastore/internal/dictionary"
	"hexastore/internal/disk"
	"hexastore/internal/rdf"
)

// loadDoc returns the statements of a generated document, with
// duplicates, and its N-Triples and Turtle texts, which list them in the
// same order. Terms of every kind occur, predicates occur as subjects
// and objects too, and the N-Triples text has comments, blank lines and
// CRLF line ends.
func loadDoc(n int, seed int64) (ts []rdf.Triple, nt, ttl string) {
	rng := rand.New(rand.NewSource(seed))
	node := func() rdf.Term {
		switch rng.Intn(6) {
		case 0:
			return rdf.NewBlank(fmt.Sprintf("b%d", rng.Intn(40)))
		case 1:
			return rdf.NewIRI(fmt.Sprintf("http://ex/p%d", rng.Intn(12)))
		default:
			return rdf.NewIRI(fmt.Sprintf("http://ex/s%d", rng.Intn(n/6+1)))
		}
	}
	object := func() rdf.Term {
		switch rng.Intn(5) {
		case 0:
			return rdf.NewLiteral(fmt.Sprintf("say \"%d\"\tnow", rng.Intn(50)))
		case 1:
			return rdf.NewLiteral(fmt.Sprintf("%d^^<http://www.w3.org/2001/XMLSchema#integer>", rng.Intn(90)))
		case 2:
			return rdf.NewLiteral(fmt.Sprintf("chat%d@fr", rng.Intn(30)))
		default:
			return node()
		}
	}
	turtleTerm := func(t rdf.Term) string {
		if v, ok := strings.CutPrefix(t.Value, "http://ex/"); ok && t.Kind == rdf.IRI {
			return "ex:" + v
		}
		return t.String()
	}
	var ntb, ttlb strings.Builder
	ntb.WriteString("# generated\n\n")
	ttlb.WriteString("@prefix ex: <http://ex/> .\n")
	for i := 0; i < n; i++ {
		t := rdf.T(node(), rdf.NewIRI(fmt.Sprintf("http://ex/p%d", rng.Intn(12))), object())
		if i > 0 && rng.Intn(20) == 0 {
			t = ts[rng.Intn(len(ts))]
		}
		ts = append(ts, t)
		end := "\n"
		if rng.Intn(10) == 0 {
			end = "\r\n"
		}
		ntb.WriteString(t.String() + end)
		if rng.Intn(50) == 0 {
			ntb.WriteString("\n# comment\n")
		}
		fmt.Fprintf(&ttlb, "%s %s %s .\n", turtleTerm(t.Subject), turtleTerm(t.Predicate), turtleTerm(t.Object))
	}
	return ts, ntb.String(), ttlb.String()
}

// canonicalKeys returns the terms of ts in the canonical id order: the
// predicates in order of first occurrence as predicates, then the other
// IRIs and blank nodes, then the literals, each in order of first
// occurrence; known terms are left out.
func canonicalKeys(ts []rdf.Triple, known map[string]bool) []string {
	var out []string
	seen := maps.Clone(known)
	if seen == nil {
		seen = map[string]bool{}
	}
	take := func(key string) {
		if !seen[key] {
			seen[key] = true
			out = append(out, key)
		}
	}
	for _, t := range ts {
		take(t.Predicate.Key())
	}
	for _, literals := range []bool{false, true} {
		for _, t := range ts {
			for _, term := range []rdf.Term{t.Subject, t.Predicate, t.Object} {
				if (term.Kind == rdf.Literal) == literals {
					take(term.Key())
				}
			}
		}
	}
	return out
}

func dictKeys(d *dictionary.Dictionary) []string {
	s := d.Snapshot()
	terms := s.View()
	keys := make([]string, terms.Len())
	for i := range keys {
		keys[i] = terms.Term(core.ID(i + 1)).Key()
	}
	return keys
}

// build bulk-builds ids into a store over dict.
func build(dict *dictionary.Dictionary, ids [][3]core.ID, workers int) *core.Store {
	b := core.NewBuilder(dict)
	b.AddAll(ids)
	return b.BuildParallel(workers)
}

// TestLoadIDsCanonical loads one document through every loader — the
// builder's AddNTriples, EncodeNTriples, EncodeTriples over parsed
// triples, the Turtle route over the same statements written as Turtle,
// and a disk bulk load as hexserver does it — at several worker counts
// and block sizes. Every load must give the dictionary the canonical
// order, id by id, and every memory build the same index bytes; a term
// already in a shared dictionary keeps its id; and a shuffled document
// over the same dictionary builds the same arenas.
func TestLoadIDsCanonical(t *testing.T) {
	ts, nt, ttl := loadDoc(3000, 7)
	oneLine := strings.Index(nt[strings.Index(nt, "<"):], "\n") + 1

	ref := core.NewBuilder(nil)
	if _, err := ref.AddNTriples(strings.NewReader(nt), 1); err != nil {
		t.Fatal(err)
	}
	refDict := ref.Dictionary()
	refStore := ref.BuildParallel(1)
	wantKeys := canonicalKeys(ts, nil)
	if got := dictKeys(refDict); !slices.Equal(got, wantKeys) {
		t.Fatalf("ids are not in the canonical order:\n got %.10q…\nwant %.10q…", got, wantKeys)
	}
	wantArenas := core.ArenaBytes(refStore)

	check := func(name string, dict *dictionary.Dictionary, ids [][3]core.ID, workers int) {
		t.Helper()
		if got := dictKeys(dict); !slices.Equal(got, wantKeys) {
			t.Errorf("%s: dictionary differs from the reference load", name)
		}
		if ids == nil {
			return
		}
		st := build(dict, ids, workers)
		if st.IndexBytes() != refStore.IndexBytes() || !bytes.Equal(core.ArenaBytes(st), wantArenas) {
			t.Errorf("%s: built index differs (%d bytes, want %d)", name, st.IndexBytes(), refStore.IndexBytes())
		}
	}
	for _, workers := range []int{1, 2, 3, 8} {
		b := core.NewBuilder(nil)
		if _, err := b.AddNTriples(strings.NewReader(nt), workers); err != nil {
			t.Fatal(err)
		}
		dict := b.Dictionary()
		st := b.BuildParallel(workers)
		check(fmt.Sprintf("AddNTriples workers=%d", workers), dict, nil, workers)
		if !bytes.Equal(core.ArenaBytes(st), wantArenas) {
			t.Errorf("AddNTriples workers=%d: built index differs", workers)
		}

		for _, block := range []int{1, oneLine, 2 << 20} {
			dict := dictionary.New()
			ids, err := core.EncodeNTriplesBlocks(dict, strings.NewReader(nt), workers, block)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("EncodeNTriples workers=%d block=%d", workers, block), dict, ids, workers)
		}
		for _, block := range []int{1, 16 << 10} {
			dict := dictionary.New()
			check(fmt.Sprintf("EncodeTriples workers=%d block=%d", workers, block), dict,
				core.EncodeTriplesBlocks(dict, ts, workers, block), workers)

			dict = dictionary.New()
			ids, err := core.EncodeTurtleBlocks(dict, strings.NewReader(ttl), workers, block)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("Turtle workers=%d block=%d", workers, block), dict, ids, workers)
		}

		ds, err := disk.Create(t.TempDir(), disk.Options{CacheSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		ids, err := core.EncodeNTriples(ds.Dictionary(), strings.NewReader(nt), workers)
		if err == nil {
			err = ds.BulkLoadParallel(ids, workers)
		}
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("disk workers=%d", workers), ds.Dictionary(), nil, workers)
		if ds.Len() != refStore.Len() {
			t.Errorf("disk workers=%d: %d triples, want %d", workers, ds.Len(), refStore.Len())
		}
		ds.Close()
	}

	// A shared dictionary: known terms keep their ids, new ones follow in
	// the canonical order.
	known := []rdf.Term{rdf.NewLiteral("not in the document"), ts[5].Object, ts[9].Subject, ts[2].Predicate}
	for _, workers := range []int{1, 3} {
		dict := dictionary.New()
		knownKeys := map[string]bool{}
		var want []string
		for _, term := range known {
			dict.Encode(term)
			if !knownKeys[term.Key()] {
				knownKeys[term.Key()] = true
				want = append(want, term.Key())
			}
		}
		want = append(want, canonicalKeys(ts, knownKeys)...)
		if _, err := core.EncodeNTriplesBlocks(dict, strings.NewReader(nt), workers, oneLine); err != nil {
			t.Fatal(err)
		}
		if got := dictKeys(dict); !slices.Equal(got, want) {
			t.Errorf("shared dictionary, workers=%d: known terms moved or new ones are out of order", workers)
		}
	}

	// Shuffled statements over the reference dictionary build the same
	// arenas: every term keeps its id, and the build sorts.
	lines := strings.SplitAfter(strings.TrimSuffix(nt, "\n"), "\n")
	rand.New(rand.NewSource(1)).Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
	ids, err := core.EncodeNTriples(refDict, strings.NewReader(strings.Join(lines, "\n")), 2)
	if err != nil {
		t.Fatal(err)
	}
	if refDict.Len() != len(wantKeys) {
		t.Errorf("the shuffled load added %d terms to a dictionary holding all of them", refDict.Len()-len(wantKeys))
	}
	if st := build(refDict, ids, 2); !bytes.Equal(core.ArenaBytes(st), wantArenas) {
		t.Error("the shuffled document built different arenas")
	}
}

// FuzzLoadNTriples holds the parallel N-Triples loader to rdf.Reader,
// with blocks of a few bytes so lines straddle them: both must decode
// the same triples in the same order, or fail with the same error at
// the same line. The committed corpus (testdata/fuzz/FuzzLoadNTriples)
// has CRLF line ends, comments, blank lines, literal escapes, ^^<dt>
// and @lang suffixes, blank nodes, a malformed line after good ones and
// a last line without a newline.
func FuzzLoadNTriples(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc string, block uint8, workers uint8) {
		want, werr := rdf.NewReader(strings.NewReader(doc)).ReadAll()
		dict := dictionary.New()
		ids, err := core.EncodeNTriplesBlocks(dict, strings.NewReader(doc), 1+int(workers%4), 1+int(block%16))
		if werr != nil || err != nil {
			var wpe, pe *rdf.ParseError
			if !errors.As(werr, &wpe) || !errors.As(err, &pe) || wpe.Line != pe.Line || wpe.Error() != pe.Error() {
				t.Fatalf("reader error %v, loader error %v", werr, err)
			}
			return
		}
		if len(ids) != len(want) {
			t.Fatalf("loader gave %d triples, reader %d", len(ids), len(want))
		}
		for i, id := range ids {
			got, err := dict.DecodeTriple(id[0], id[1], id[2])
			if err != nil || got != want[i] {
				t.Fatalf("triple %d: loader %v (%v), reader %v", i, got, err, want[i])
			}
		}
	})
}
