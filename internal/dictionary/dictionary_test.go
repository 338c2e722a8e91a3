package dictionary

import (
	"fmt"
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
// snapshot relies on: an element of the key table, once written, is never
// written again, so the lock-free reads of the prefix and the appends
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
