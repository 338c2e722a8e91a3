package delta

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"hexastore/internal/core"
)

// mergeApply is the write path the chunked run replaced, kept as the
// oracle: the copy-on-write successor of one sorted delta ordering held
// as a single array — base with the (canonical) ins triples spliced in
// and the del triples dropped, in one linear merge over all of base.
// ins must be absent from base and del present in it.
func mergeApply(base [][3]ID, ix core.Index, ins, del [][3]ID) [][3]ID {
	if len(ins) == 0 && len(del) == 0 {
		return base
	}
	insRows := permuteSorted(ix, ins)
	delRows := permuteSorted(ix, del)
	out := make([][3]ID, 0, len(base)+len(insRows)-len(delRows))
	di := 0
	for _, row := range base {
		for len(insRows) > 0 && cmpPrefix(insRows[0], row, 3) < 0 {
			out = append(out, insRows[0])
			insRows = insRows[1:]
		}
		if di < len(delRows) && delRows[di] == row {
			di++
			continue
		}
		out = append(out, row)
	}
	out = append(out, insRows...)
	return out
}

// rangeOf is the whole-array prefix search the run's bound replaced: the
// half-open subrange of sorted rows whose first k elements equal pre[:k].
func rangeOf(rows [][3]ID, k int, pre [3]ID) (int, int) {
	lo := sort.Search(len(rows), func(i int) bool { return cmpPrefix(rows[i], pre, k) >= 0 })
	hi := lo + sort.Search(len(rows)-lo, func(i int) bool { return cmpPrefix(rows[lo+i], pre, k) > 0 })
	return lo, hi
}

// checkRun asserts the run's structural invariants and that it holds
// exactly the rows of want.
func checkRun(t *testing.T, label string, r run, want [][3]ID) {
	t.Helper()
	sum := 0
	var prev [3]ID
	for ci, c := range r.chunks {
		if len(c) == 0 || len(c) > chunkRows {
			t.Fatalf("%s: chunk %d holds %d rows, want 1..%d", label, ci, len(c), chunkRows)
		}
		for i, row := range c {
			if (ci > 0 || i > 0) && cmpPrefix(prev, row, 3) >= 0 {
				t.Fatalf("%s: chunk %d row %d: %v does not follow %v", label, ci, i, row, prev)
			}
			prev = row
		}
		sum += len(c)
	}
	if r.len() != sum || sum != len(want) {
		t.Fatalf("%s: len() = %d, chunks sum to %d, oracle holds %d", label, r.len(), sum, len(want))
	}
	if got := r.all(); !slices.Equal(got, want) {
		t.Fatalf("%s: contents differ from the oracle's (%d rows)", label, len(want))
	}
}

// runModel drives six runs and their single-array oracles with the same
// generated batches, the way applyOps drives the delta: inserts are
// triples not yet held, deletes triples that are.
type runModel struct {
	rng    *rand.Rand
	held   map[[3]ID]struct{}
	list   [][3]ID // held, in arbitrary order, for sampling deletes
	runs   [6]run
	oracle [6][][3]ID
}

func (m *runModel) triple() [3]ID {
	return [3]ID{ID(1 + m.rng.Intn(400)), ID(1 + m.rng.Intn(12)), ID(1 + m.rng.Intn(400))}
}

// batch draws nIns new triples and up to nDel held ones.
func (m *runModel) batch(nIns, nDel int) (ins, del [][3]ID) {
	for len(ins) < nIns {
		t := m.triple()
		if _, ok := m.held[t]; !ok {
			m.held[t] = struct{}{}
			ins = append(ins, t)
		}
	}
	for ; nDel > 0 && len(m.list) > 0; nDel-- {
		i := m.rng.Intn(len(m.list))
		t := m.list[i]
		m.list[i] = m.list[len(m.list)-1]
		m.list = m.list[:len(m.list)-1]
		delete(m.held, t)
		del = append(del, t)
	}
	m.list = append(m.list, ins...)
	return ins, del
}

func (m *runModel) apply(ins, del [][3]ID, withOracle bool) {
	for _, ix := range core.AllIndexes {
		m.runs[ix] = m.runs[ix].apply(permuteSorted(ix, ins), permuteSorted(ix, del))
		if withOracle {
			m.oracle[ix] = mergeApply(m.oracle[ix], ix, ins, del)
		}
	}
}

// TestRunMatchesMergeApply applies generated insert/delete batches of 1
// to 10,000 triples — and a 100,000-op batch into the empty run, as WAL
// replay does — to the chunked run and to the single-array oracle, in
// all six orderings, and compares contents, chunk invariants and the
// prefix lookups after every batch.
func TestRunMatchesMergeApply(t *testing.T) {
	m := &runModel{rng: rand.New(rand.NewSource(7)), held: map[[3]ID]struct{}{}}
	sizes := []int{100000, 1, 8, 8, 10000, 3, 128, 129, 1000, 8, 64, 5000, 1, 300}
	if testing.Short() {
		sizes = []int{20000, 1, 8, 2000, 129, 8}
	}
	for step, n := range sizes {
		nDel := 0
		if step > 0 {
			nDel = m.rng.Intn(n + 1) // from none to as many as inserted
		}
		ins, del := m.batch(n, nDel)
		m.apply(ins, del, true)
		for _, ix := range core.AllIndexes {
			label := ix.String()
			r, want := m.runs[ix], m.oracle[ix]
			checkRun(t, label, r, want)
			for probe := 0; probe < 200; probe++ {
				row := permute(ix, m.triple())
				if probe%2 == 0 && len(want) > 0 {
					row = want[m.rng.Intn(len(want))]
				}
				i := sort.Search(len(want), func(i int) bool { return cmpPrefix(want[i], row, 3) >= 0 })
				if has := i < len(want) && want[i] == row; r.contains(row) != has {
					t.Fatalf("%s step %d: contains(%v) = %v, oracle %v", label, step, row, !has, has)
				}
				for k := 1; k <= 3; k++ { // k = 0 is the whole run: checkRun
					lo, hi := rangeOf(want, k, row)
					if got := r.count(k, row); got != hi-lo {
						t.Fatalf("%s step %d: count(%d, %v) = %d, oracle %d", label, step, k, row, got, hi-lo)
					}
					if got := r.slice(k, row); !slices.Equal(got, want[lo:hi]) {
						t.Fatalf("%s step %d: slice(%d, %v) has %d rows, oracle %d", label, step, k, row, len(got), hi-lo)
					}
				}
			}
		}
	}
}

// TestRunIsPersistent pins a run, then applies 1,000 further batches to
// its successors while readers keep reading the pinned value: it must
// stay byte-identical to what it was (under -race, the readers also
// prove no apply writes into a chunk it shares).
func TestRunIsPersistent(t *testing.T) {
	m := &runModel{rng: rand.New(rand.NewSource(11)), held: map[[3]ID]struct{}{}}
	ins, del := m.batch(5000, 0)
	m.apply(ins, del, false)

	pinned := m.runs
	var image [6][][][3]ID // deep copy of every pinned chunk
	for _, ix := range core.AllIndexes {
		for _, c := range pinned[ix].chunks {
			image[ix] = append(image[ix], slices.Clone(c))
		}
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for _, ix := range core.AllIndexes {
		readers.Add(1)
		go func(r run) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rows := r.all()
				if len(rows) != r.len() || !r.contains(rows[len(rows)/2]) {
					t.Error("pinned run changed under a reader")
					return
				}
			}
		}(pinned[ix])
	}
	for i := 0; i < 1000; i++ {
		ins, del := m.batch(1+m.rng.Intn(16), m.rng.Intn(16))
		m.apply(ins, del, false)
	}
	close(stop)
	readers.Wait()

	for _, ix := range core.AllIndexes {
		if len(pinned[ix].chunks) != len(image[ix]) || pinned[ix].len() != 5000 {
			t.Fatalf("%s: pinned run has %d chunks and %d rows, had %d and 5000",
				ix, len(pinned[ix].chunks), pinned[ix].len(), len(image[ix]))
		}
		for ci, c := range pinned[ix].chunks {
			if !slices.Equal(c, image[ix][ci]) {
				t.Fatalf("%s: pinned chunk %d changed", ix, ci)
			}
		}
		// The successors still hold exactly what the model holds.
		want := permuteSorted(ix, m.list)
		checkRun(t, ix.String(), m.runs[ix], want)
	}
}

// TestRunApplyIsSetAlgebra covers what the oracle cannot (it needs its
// inserts absent and its deletes present): apply is (run ∪ ins) \ del
// whatever the run already holds.
func TestRunApplyIsSetAlgebra(t *testing.T) {
	row := func(i int) [3]ID { return [3]ID{ID(i), 1, 1} }
	var base [][3]ID
	for i := 2; i <= 600; i += 2 {
		base = append(base, row(i))
	}
	r := run{}.apply(base, nil)
	// Re-insert a held row, insert a new one, delete a held one, a
	// missing one and one the same batch inserts.
	r = r.apply([][3]ID{row(4), row(5), row(7)}, [][3]ID{row(3), row(7), row(8)})
	want := append([][3]ID{row(2), row(4), row(5), row(6)}, base[4:]...)
	checkRun(t, "apply", r, want)
	if r = r.apply(nil, want); r.len() != 0 || len(r.chunks) != 0 {
		t.Fatalf("deleting every row leaves %d rows in %d chunks", r.len(), len(r.chunks))
	}
}
