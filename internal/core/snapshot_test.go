package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"hexastore/internal/rdf"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := NewBuilder(nil)
	dict := b.Dictionary()
	for i := 0; i < 1000; i++ {
		s := dict.Encode(rdf.NewIRI(randName(rng, "s")))
		p := dict.Encode(rdf.NewIRI(randName(rng, "p")))
		o := dict.Encode(rdf.NewLiteral(randName(rng, "o")))
		b.Add(s, p, o)
	}
	st := b.Build()

	var buf bytes.Buffer
	if err := st.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	restored, err := Restore(&buf)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}

	if restored.Len() != st.Len() {
		t.Fatalf("restored Len = %d, want %d", restored.Len(), st.Len())
	}
	if restored.Dictionary().Len() != dict.Len() {
		t.Fatalf("restored dictionary has %d terms, want %d",
			restored.Dictionary().Len(), dict.Len())
	}
	// Compare decoded triple sets (ids are preserved by the format, so
	// comparing raw ids is also valid; decoded comparison additionally
	// checks the dictionary section).
	want := make(map[string]bool)
	if err := st.DecodeMatch(None, None, None, func(tr rdf.Triple) bool {
		want[tr.String()] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := restored.DecodeMatch(None, None, None, func(tr rdf.Triple) bool {
		n++
		if !want[tr.String()] {
			t.Errorf("restored store has unexpected triple %v", tr)
			return false
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Errorf("restored store decoded %d triples, want %d", n, len(want))
	}
}

func TestSnapshotEmptyStore(t *testing.T) {
	var buf bytes.Buffer
	if err := New().Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot(empty): %v", err)
	}
	st, err := Restore(&buf)
	if err != nil {
		t.Fatalf("Restore(empty): %v", err)
	}
	if st.Len() != 0 {
		t.Errorf("restored empty store Len = %d", st.Len())
	}
}

func TestRestoreRejectsBadMagic(t *testing.T) {
	if _, err := Restore(strings.NewReader("NOTASNAPSHOT")); err == nil {
		t.Error("Restore accepted bad magic")
	}
}

func TestRestoreRejectsTruncated(t *testing.T) {
	b := NewBuilder(nil)
	b.AddTriple(rdf.T(rdf.NewIRI("a"), rdf.NewIRI("b"), rdf.NewIRI("c")))
	st := b.Build()
	var buf bytes.Buffer
	if err := st.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{1, len(full) / 2, len(full) - 1} {
		if _, err := Restore(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("Restore of %d/%d bytes succeeded, want error", cut, len(full))
		}
	}
}

// TestRestoreRejectsHugeTermLength: a term length no input could back —
// past the bytes left, past what memory holds, past int64 — is an error,
// not an allocation of that size or a panic.
func TestRestoreRejectsHugeTermLength(t *testing.T) {
	for _, klen := range []uint64{1 << 33, 1 << 62, 1<<64 - 1} {
		in := binary.AppendUvarint(append([]byte(snapshotMagic), 1), klen)
		if _, err := Restore(bytes.NewReader(in)); err == nil {
			t.Errorf("Restore of a term of length %d in %d bytes succeeded, want error", klen, len(in))
		}
	}
}

// FuzzRestore feeds Restore arbitrary bytes from the committed corpus and
// the seeds below: it must never panic, and a store it restores must
// snapshot to bytes that restore to the same snapshot again.
func FuzzRestore(f *testing.F) {
	one := NewBuilder(nil)
	one.AddTriple(rdf.T(rdf.NewIRI("a"), rdf.NewIRI("b"), rdf.NewLiteral("c")))
	one.AddTriple(rdf.T(rdf.NewIRI("a"), rdf.NewIRI("b"), rdf.NewIRI("d")))
	for _, st := range []*Store{New(), one.Build()} {
		var buf bytes.Buffer
		if err := st.Snapshot(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(binary.AppendUvarint(append([]byte(snapshotMagic), 1), 1<<62))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Restore(bytes.NewReader(data))
		if err != nil {
			return
		}
		var snap, again bytes.Buffer
		if err := st.Snapshot(&snap); err != nil {
			t.Fatal(err)
		}
		back, err := Restore(bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatalf("a snapshot of a restored store does not restore: %v", err)
		}
		if err := back.Snapshot(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snap.Bytes(), again.Bytes()) || back.Len() != st.Len() {
			t.Fatalf("Snapshot → Restore → Snapshot changed the bytes or the %d triples", st.Len())
		}
	})
}

func TestSnapshotIsDeterministic(t *testing.T) {
	bld := NewBuilder(nil)
	bld.AddTriple(rdf.T(rdf.NewIRI("x"), rdf.NewIRI("y"), rdf.NewIRI("z")))
	bld.AddTriple(rdf.T(rdf.NewIRI("x"), rdf.NewIRI("y"), rdf.NewIRI("w")))
	st := bld.Build()
	var a, b bytes.Buffer
	if err := st.Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two snapshots of the same store differ")
	}
}

func randName(rng *rand.Rand, prefix string) string {
	const letters = "abcdefghij"
	var sb strings.Builder
	sb.WriteString(prefix)
	sb.WriteByte(':')
	for i := 0; i < 3; i++ {
		sb.WriteByte(letters[rng.Intn(len(letters))])
	}
	return sb.String()
}
