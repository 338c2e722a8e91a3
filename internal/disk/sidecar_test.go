package disk

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"hexastore/internal/rdf"
)

// FuzzDictionarySidecar: whatever bytes dict.db holds, Open opens the
// store or fails with an error, and never panics or allocates past the
// file; a store that opens decodes every id to a term that looks up to
// it. The input also names terms (split on 0x00, the kind from each
// piece's first byte): a sidecar that FlushDictionary writes for them
// reopens with the same ids, id for id.
func FuzzDictionarySidecar(f *testing.F) {
	f.Add([]byte(dictMagic + "\x02<a\x02\"b\x03_cd"))
	f.Add([]byte("a\x00\x01b\x00\x02c\x00a"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		st, err := Create(dir, Options{CacheSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, dictFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if st, err := Open(dir, Options{CacheSize: 16}); err == nil {
			d := st.Dictionary()
			for id := ID(1); id <= ID(d.Len()); id++ {
				term, err := d.Decode(id)
				if err != nil {
					t.Fatalf("Decode(%d): %v", id, err)
				}
				if got, ok := d.Lookup(term); !ok || got != id {
					t.Fatalf("Lookup(Decode(%d) = %v) = %d, %v", id, term, got, ok)
				}
			}
			st.Close()
		}

		dir = t.TempDir()
		if st, err = Create(dir, Options{CacheSize: 16}); err != nil {
			t.Fatal(err)
		}
		var terms []rdf.Term
		var ids []ID
		for _, piece := range bytes.Split(data, []byte{0}) {
			term := rdf.Term{Kind: rdf.IRI, Value: string(piece)}
			if len(piece) > 0 {
				term = rdf.Term{Kind: rdf.TermKind(piece[0] % 3), Value: string(piece[1:])}
			}
			terms = append(terms, term)
			ids = append(ids, st.Dictionary().Encode(term))
		}
		if err := st.FlushDictionary(); err != nil {
			t.Fatal(err)
		}
		n := st.Dictionary().Len()
		st.Close()
		if st, err = Open(dir, Options{CacheSize: 16}); err != nil {
			t.Fatalf("reopening a flushed sidecar: %v", err)
		}
		defer st.Close()
		d := st.Dictionary()
		if d.Len() != n {
			t.Fatalf("reopened with %d terms, flushed %d", d.Len(), n)
		}
		for i, term := range terms {
			if got, ok := d.Lookup(term); !ok || got != ids[i] {
				t.Fatalf("term %v: reopened as %d, %v; was %d", term, got, ok, ids[i])
			}
			if got, err := d.Decode(ids[i]); err != nil || got != term {
				t.Fatalf("Decode(%d) = %v, %v; want %v", ids[i], got, err, term)
			}
		}
	})
}
