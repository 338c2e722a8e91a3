package dictionary

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"hexastore/internal/rdf"
)

func TestEncodeAssignsDenseIDsFromOne(t *testing.T) {
	d := New()
	a := d.Encode(rdf.NewIRI("a"))
	b := d.Encode(rdf.NewIRI("b"))
	c := d.Encode(rdf.NewLiteral("c"))
	if a != 1 || b != 2 || c != 3 {
		t.Errorf("ids = %d,%d,%d, want 1,2,3", a, b, c)
	}
	if d.Len() != 3 {
		t.Errorf("Len = %d, want 3", d.Len())
	}
}

func TestEncodeIsIdempotent(t *testing.T) {
	d := New()
	first := d.Encode(rdf.NewIRI("x"))
	second := d.Encode(rdf.NewIRI("x"))
	if first != second {
		t.Errorf("Encode twice gave %d then %d", first, second)
	}
	if d.Len() != 1 {
		t.Errorf("Len = %d, want 1", d.Len())
	}
}

func TestKindsDoNotCollide(t *testing.T) {
	d := New()
	iri := d.Encode(rdf.NewIRI("same"))
	lit := d.Encode(rdf.NewLiteral("same"))
	blank := d.Encode(rdf.NewBlank("same"))
	if iri == lit || lit == blank || iri == blank {
		t.Errorf("ids collide: iri=%d lit=%d blank=%d", iri, lit, blank)
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	d := New()
	terms := []rdf.Term{
		rdf.NewIRI("http://ex/s"),
		rdf.NewLiteral("a literal with spaces"),
		rdf.NewBlank("b0"),
	}
	for _, term := range terms {
		id := d.Encode(term)
		got, err := d.Decode(id)
		if err != nil {
			t.Fatalf("Decode(%d): %v", id, err)
		}
		if got != term {
			t.Errorf("Decode(Encode(%v)) = %v", term, got)
		}
	}
}

func TestDecodeUnknown(t *testing.T) {
	d := New()
	if _, err := d.Decode(None); err == nil {
		t.Error("Decode(None) succeeded, want error")
	}
	if _, err := d.Decode(99); err == nil {
		t.Error("Decode(99) on empty dictionary succeeded, want error")
	}
}

func TestMustDecodePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustDecode(42) did not panic")
		}
	}()
	New().MustDecode(42)
}

func TestLookupDoesNotAssign(t *testing.T) {
	d := New()
	if _, ok := d.Lookup(rdf.NewIRI("ghost")); ok {
		t.Error("Lookup found unseen term")
	}
	if d.Len() != 0 {
		t.Errorf("Lookup mutated dictionary: Len = %d", d.Len())
	}
	id := d.Encode(rdf.NewIRI("ghost"))
	got, ok := d.Lookup(rdf.NewIRI("ghost"))
	if !ok || got != id {
		t.Errorf("Lookup after Encode = (%d,%v), want (%d,true)", got, ok, id)
	}
}

func TestEncodeDecodeTriple(t *testing.T) {
	d := New()
	tr := rdf.T(rdf.NewIRI("s"), rdf.NewIRI("p"), rdf.NewLiteral("o"))
	s, p, o := d.EncodeTriple(tr)
	got, err := d.DecodeTriple(s, p, o)
	if err != nil {
		t.Fatalf("DecodeTriple: %v", err)
	}
	if got != tr {
		t.Errorf("DecodeTriple = %v, want %v", got, tr)
	}
	if _, err := d.DecodeTriple(s, p, 999); err == nil {
		t.Error("DecodeTriple with unknown object id succeeded")
	}
}

func TestConcurrentEncode(t *testing.T) {
	d := New()
	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	ids := make([][]ID, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids[g] = make([]ID, perG)
			for i := 0; i < perG; i++ {
				// Shared key space so goroutines race on the same terms.
				ids[g][i] = d.Encode(rdf.NewIRI(fmt.Sprintf("term-%d", i%100)))
			}
		}(g)
	}
	wg.Wait()
	if d.Len() != 100 {
		t.Fatalf("Len = %d, want 100", d.Len())
	}
	// Every goroutine must have observed identical ids for identical terms.
	for g := 1; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			if ids[g][i] != ids[0][i] {
				t.Fatalf("goroutine %d saw id %d for term %d, goroutine 0 saw %d",
					g, ids[g][i], i%100, ids[0][i])
			}
		}
	}
}

// TestConcurrentEncodeLookupDecode races all three access paths over a
// shared key space; run with -race. Every Encode result must decode back
// to its term, and Lookup must never observe an id Decode rejects.
func TestConcurrentEncodeLookupDecode(t *testing.T) {
	d := New()
	const goroutines = 12
	const perG = 400
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				term := rdf.NewIRI(fmt.Sprintf("t-%d", (g*perG+i)%300))
				switch g % 3 {
				case 0:
					id := d.Encode(term)
					got, err := d.Decode(id)
					if err != nil || got != term {
						t.Errorf("Decode(Encode(%v)) = %v, %v", term, got, err)
						return
					}
				case 1:
					if id, ok := d.Lookup(term); ok {
						if got, err := d.Decode(id); err != nil || got != term {
							t.Errorf("Decode(Lookup(%v)) = %v, %v", term, got, err)
							return
						}
					}
				default:
					if n := d.Len(); n > 0 {
						if _, err := d.Decode(ID(n)); err != nil {
							t.Errorf("Decode(Len()=%d): %v", n, err)
							return
						}
					}
					d.Encode(term)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentEncodeAssignsDenseIDs checks that ids stay a dense
// bijection 1..Len() under concurrent encoding of distinct terms across
// every shard, whatever the interleaving.
func TestConcurrentEncodeAssignsDenseIDs(t *testing.T) {
	d := New()
	const goroutines = 8
	const perG = 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				d.Encode(rdf.NewIRI(fmt.Sprintf("g%d-i%d", g, i)))
			}
		}(g)
	}
	wg.Wait()
	if d.Len() != goroutines*perG {
		t.Fatalf("Len = %d, want %d", d.Len(), goroutines*perG)
	}
	seen := make(map[ID]bool, d.Len())
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			term := rdf.NewIRI(fmt.Sprintf("g%d-i%d", g, i))
			id, ok := d.Lookup(term)
			if !ok || id == None || int(id) > d.Len() {
				t.Fatalf("Lookup(%v) = (%d, %v), want dense id", term, id, ok)
			}
			if seen[id] {
				t.Fatalf("id %d assigned to two terms", id)
			}
			seen[id] = true
			if got := d.MustDecode(id); got != term {
				t.Fatalf("MustDecode(%d) = %v, want %v", id, got, term)
			}
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	d := New()
	f := func(kindSel uint8, value string) bool {
		var term rdf.Term
		switch kindSel % 3 {
		case 0:
			term = rdf.NewIRI(value)
		case 1:
			term = rdf.NewLiteral(value)
		default:
			term = rdf.NewBlank(value)
		}
		id := d.Encode(term)
		got, err := d.Decode(id)
		return err == nil && got == term
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSizeBytesGrows(t *testing.T) {
	d := New()
	before := d.SizeBytes()
	d.Encode(rdf.NewIRI("http://example.org/some/long/term"))
	after := d.SizeBytes()
	if after <= before {
		t.Errorf("SizeBytes did not grow: before=%d after=%d", before, after)
	}
}

// TestSnapshotDecodeDuringEncode decodes through snapshots while another
// goroutine encodes past their end — the shape of a query emitting rows
// beside a writer. Under -race it holds the append-only invariant the
// snapshot relies on: an entry or segment byte of the term table, once
// written, is never written again, so the lock-free reads of the prefix and the appends
// behind it touch different memory. An id assigned after the snapshot was
// taken must decode too, through the one refresh.
func TestSnapshotDecodeDuringEncode(t *testing.T) {
	d := New()
	const pre, post = 500, 20000
	for i := 0; i < pre; i++ {
		d.Encode(rdf.NewIRI(fmt.Sprintf("http://ex/pre%d", i)))
	}
	grown := make(chan ID, 1)
	go func() {
		var last ID
		for i := 0; i < post; i++ {
			last = d.Encode(rdf.NewIRI(fmt.Sprintf("http://ex/post%d", i)))
		}
		grown <- last
	}()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			snap := d.Snapshot()
			for round := 0; round < 50; round++ {
				for id := ID(1); id <= pre; id++ {
					term, err := snap.Decode(id)
					if want := fmt.Sprintf("http://ex/pre%d", id-1); err != nil || term.Value != want {
						t.Errorf("Decode(%d) = %v, %v; want %s", id, term, err, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	last := <-grown
	stale := d.Snapshot()
	if _, err := stale.Decode(1); err != nil {
		t.Fatal(err)
	}
	next := d.Encode(rdf.NewIRI("http://ex/after"))
	if term, err := stale.Decode(next); err != nil || term.Value != "http://ex/after" {
		t.Fatalf("Decode past the snapshot's end = %v, %v", term, err)
	}
	if term, err := stale.Decode(last); err != nil || term.Value != fmt.Sprintf("http://ex/post%d", post-1) {
		t.Fatalf("Decode(%d) = %v, %v", last, term, err)
	}
	for _, id := range []ID{None, next + 1} {
		if _, err := stale.Decode(id); err == nil {
			t.Errorf("Decode(%d) succeeded on an id never assigned", id)
		}
	}
}

// TestDictionaryConcurrent races writers that Encode overlapping key sets
// against readers that Lookup and decode through snapshots taken before,
// during and after the writes; run it with -race. Ids must come out
// dense, each key must get one id, and every id must decode to its key.
func TestDictionaryConcurrent(t *testing.T) {
	d := New()
	const writers, keys = 4, 3000
	key := func(i int) string {
		switch i % 3 {
		case 0:
			return rdf.NewIRI(fmt.Sprintf("http://ex/k%d", i)).Key()
		case 1:
			return rdf.NewLiteral(fmt.Sprintf("k\"%d\"\n", i)).Key()
		}
		return rdf.NewBlank(fmt.Sprintf("k%d", i)).Key()
	}
	before := d.Snapshot()
	got := make([][]ID, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]ID, keys)
			// Each writer walks the key space from its own offset, so the
			// sets overlap fully but meet in different orders.
			for j := 0; j < keys; j++ {
				i := (j + w*keys/writers) % keys
				got[w][i] = d.EncodeKey(key(i))
			}
		}(w)
	}
	check := func(snap *Snapshot, id ID) {
		term, err := snap.Decode(id)
		if err != nil {
			t.Errorf("Decode(%d): %v", id, err)
			return
		}
		if lid, ok := d.Lookup(term); !ok || lid != id {
			t.Errorf("Lookup(Decode(%d) = %v) = %d, %v", id, term, lid, ok)
		}
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			during := d.Snapshot()
			for j := 0; j < keys; j++ {
				term, _ := rdf.TermFromKey(key((j*7 + r) % keys))
				if id, ok := d.Lookup(term); ok {
					check(&during, id)
					if got, err := during.Decode(id); err != nil || got != term {
						t.Errorf("Decode(Lookup(%v)) = %v, %v", term, got, err)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	if d.Len() != keys {
		t.Fatalf("Len = %d, want %d", d.Len(), keys)
	}
	after := d.Snapshot()
	seen := make(map[ID]bool, keys)
	for i := 0; i < keys; i++ {
		id := got[0][i]
		for w := 1; w < writers; w++ {
			if got[w][i] != id {
				t.Fatalf("key %d: writer %d got id %d, writer 0 got %d", i, w, got[w][i], id)
			}
		}
		if id == None || int(id) > keys || seen[id] {
			t.Fatalf("key %d: id %d is not a fresh dense id", i, id)
		}
		seen[id] = true
		for _, snap := range []*Snapshot{&before, &after} {
			term, err := snap.Decode(id)
			if err != nil || term.Key() != key(i) {
				t.Fatalf("Decode(%d) = %v, %v; want %q", id, term, err, key(i))
			}
		}
	}
}

// TestDictionaryHeapObjects holds the pointer-free layout: 100k distinct
// terms add fewer than 1,000 live heap objects.
func TestDictionaryHeapObjects(t *testing.T) {
	objects := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapObjects
	}
	d := New()
	before := objects()
	for i := 0; i < 100000; i++ {
		d.Encode(rdf.NewIRI(fmt.Sprintf("http://example.org/term/%d", i)))
	}
	after := objects()
	runtime.KeepAlive(d)
	if d.Len() != 100000 {
		t.Fatalf("Len = %d", d.Len())
	}
	if grown := int64(after) - int64(before); grown >= 1000 {
		t.Fatalf("100k terms left %d more live heap objects, want < 1000", grown)
	} else {
		t.Logf("100k terms: %d more live heap objects, %d bytes held", grown, d.SizeBytes())
	}
}

// TestEncodeTable: the bulk call gives the ids one Encode per term in
// the same order would, keeps the ids of terms already held, and fills
// only the listed locals.
func TestEncodeTable(t *testing.T) {
	terms := []rdf.Term{
		rdf.NewIRI("http://ex/a"), rdf.NewLiteral("http://ex/a"), rdf.NewBlank("b"),
		rdf.NewLiteral(""), rdf.NewLiteral("say \"hi\""), rdf.NewLiteral(strings.Repeat("x", 3*maxSeg)),
		rdf.NewIRI("http://ex/c"), rdf.NewLiteral("é"),
	}
	var tab Table
	for _, term := range terms {
		if l, added := tab.Intern(term.Kind, []byte(term.Value)); !added || int(l) != tab.Len()-1 {
			t.Fatalf("Intern(%v) = %d, %v", term, l, added)
		}
	}
	if l, added := tab.Intern(rdf.Blank, []byte("b")); added || l != 2 {
		t.Fatalf("Intern of a held term = %d, %v; want 2, false", l, added)
	}
	want := New()
	want.Encode(terms[6])
	for _, i := range []int{4, 0, 6, 1} {
		want.Encode(terms[i])
	}
	d := New()
	d.Encode(terms[6])
	ids := make([]ID, tab.Len())
	d.EncodeTable(&tab, []uint32{4, 0, 6, 1}, ids)
	for l, id := range ids {
		wid, _ := want.Lookup(terms[l])
		if id != wid {
			t.Errorf("term %d (%v): id %d, want %d", l, terms[l], id, wid)
		}
	}
	d.EncodeTable(&tab, []uint32{0, 1, 2, 3, 4, 5, 6, 7}, ids)
	if d.Len() != len(terms) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(terms))
	}
	for l, term := range terms {
		if got, err := d.Decode(ids[l]); err != nil || got != term {
			t.Errorf("Decode(%d) = %v, %v; want %v", ids[l], got, err, term)
		}
		if id, ok := d.Lookup(term); !ok || id != ids[l] {
			t.Errorf("Lookup(%v) = %d, %v; want %d", term, id, ok, ids[l])
		}
	}
}

// TestMetaPlain: the plain bit is set exactly when no byte of the value
// is below 0x20, a quote, a backslash or at least 0x80.
func TestMetaPlain(t *testing.T) {
	for _, tc := range []struct {
		v     string
		plain bool
	}{
		{"", true}, {"plain words", true}, {"http://ex/a?b=<c>&d", true}, {"~\x7f", true},
		{"tab\t", false}, {`q"`, false}, {`b\`, false}, {"é", false}, {"\x00", false}, {"\x1f", false},
	} {
		d := New()
		id := d.Encode(rdf.NewLiteral(tc.v))
		snap := d.Snapshot()
		v, m := snap.View().At(id)
		if v != tc.v || m.Kind() != rdf.Literal || m.Plain() != tc.plain {
			t.Errorf("%q: At = %q, kind %v, plain %v; want plain %v", tc.v, v, m.Kind(), m.Plain(), tc.plain)
		}
	}
}

// BenchmarkDictionary times the three ways a server meets the dictionary:
// the bulk load's encode, a query constant's Lookup and an answer's
// decode through a snapshot.
func BenchmarkDictionary(b *testing.B) {
	const n = 50000
	terms := make([]rdf.Term, n)
	for i := range terms {
		if i%4 == 3 {
			terms[i] = rdf.NewLiteral(fmt.Sprintf("Name %d of some course", i))
		} else {
			terms[i] = rdf.NewIRI(fmt.Sprintf("http://www.Department%d.University0.edu/GraduateStudent%d", i%15, i))
		}
	}
	var tab Table
	all := make([]uint32, n)
	for i, term := range terms {
		all[i], _ = tab.Intern(term.Kind, []byte(term.Value))
	}
	b.Run("encode-table", func(b *testing.B) {
		b.ReportAllocs()
		ids := make([]ID, n)
		for i := 0; i < b.N; i++ {
			New().EncodeTable(&tab, all, ids)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/term")
	})
	d := New()
	ids := make([]ID, n)
	d.EncodeTable(&tab, all, ids)
	b.Run("lookup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := d.Lookup(terms[i%n]); !ok {
				b.Fatal("term not found")
			}
		}
	})
	b.Run("snapshot-decode", func(b *testing.B) {
		b.ReportAllocs()
		snap := d.Snapshot()
		for i := 0; i < b.N; i++ {
			if _, err := snap.Decode(ids[(i*7919)%n]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestSegmentEdges decodes values at the layout's edges: empty values
// around a full segment, a value larger than a segment, and one too long
// for an entry's length field, which reads its segment whole.
func TestSegmentEdges(t *testing.T) {
	d := New()
	var want []rdf.Term
	add := func(term rdf.Term) {
		want = append(want, term)
		if got := d.MustDecode(d.Encode(term)); got != term {
			t.Fatalf("term %d decodes to %d bytes of kind %v, want %d of %v", len(want)-1, len(got.Value), got.Kind, len(term.Value), term.Kind)
		}
	}
	add(rdf.NewLiteral(""))
	for i := 0; i < 4; i++ { // fill the first segment to its last byte
		add(rdf.NewLiteral(strings.Repeat("x", firstSeg/4-1) + fmt.Sprint(i)))
	}
	add(rdf.NewBlank(""))
	for i := 0; len(d.terms.segs[len(d.terms.segs)-1]) < maxSeg; i++ {
		add(rdf.NewIRI(fmt.Sprintf("http://ex/%d/%s", i, strings.Repeat("y", 4000))))
	}
	// Fill the first full-size segment to its last byte, where an offset
	// no longer fits the entry.
	add(rdf.NewLiteral(strings.Repeat("z", maxSeg-d.terms.fill)))
	add(rdf.NewIRI(""))
	add(rdf.NewLiteral(strings.Repeat("m", maxSeg+1)))
	add(rdf.NewLiteral(strings.Repeat("w", wholeSeg+1)))
	add(rdf.NewBlank("b"))
	add(rdf.NewIRI("after"))
	for i, term := range want {
		id, ok := d.Lookup(term)
		if !ok || id != ID(i+1) {
			t.Fatalf("Lookup(term %d) = %d, %v", i, id, ok)
		}
		if got := d.MustDecode(id); got != term {
			t.Fatalf("term %d decodes to %d bytes of kind %v, want %d of %v", i, len(got.Value), got.Kind, len(term.Value), term.Kind)
		}
	}
}
