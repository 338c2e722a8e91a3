// Package disk implements a fully operational disk-based Hexastore — the
// future work named in §7 of the paper ("we intend to implement a fully
// operational disk-based Hexastore").
//
// A disk Store keeps six B+-trees in one pagefile, one per ordering of
// the triple elements (spo, sop, pso, pos, osp, ops). Each tree stores
// the triples permuted into its ordering, so every statement pattern is a
// prefix range scan of exactly one tree — the disk analogue of the
// in-memory vector-and-list layout. The dictionary is persisted in an
// append-only sidecar log.
//
// Unlike the in-memory core.Store, the six trees do not share terminal
// lists: sharing is a pointer-level optimization that has no direct
// analogue in a paged B+-tree, so the disk rendering is a full six-fold
// representation. The space trade-off is measured by the
// BenchmarkDiskVsMemory ablation.
package disk

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"hexastore/internal/btree"
	"hexastore/internal/core"
	"hexastore/internal/dictionary"
	"hexastore/internal/iofault"
	"hexastore/internal/pagefile"
	"hexastore/internal/rdf"
)

// ID re-exports the dictionary id type.
type ID = dictionary.ID

// None is the wildcard marker in patterns.
const None = dictionary.None

const (
	storeFile = "store.db"
	dictFile  = "dict.db"
	dictMagic = "HEXDICT1"
)

// Options configures a disk store.
type Options struct {
	// CacheSize is the buffer pool capacity in pages (0 = pagefile default).
	CacheSize int
	// Uncompressed disables delta+varint compressed B+-tree leaves for
	// bulk loads (compression is the default). Existing pages are
	// self-describing, so the flag only affects future BulkBuild calls;
	// stores with either leaf kind open identically.
	Uncompressed bool
	// FS routes the store's file I/O (pagefile and dictionary sidecar)
	// through a fault-injection layer; nil means the real filesystem.
	FS iofault.FS
}

// Store is a disk-based Hexastore rooted at a directory. It is safe for
// concurrent use.
type Store struct {
	mu    sync.RWMutex
	dir   string
	fs    iofault.FS
	pf    *pagefile.File
	trees [6]*btree.Tree

	dict           *dictionary.Dictionary
	dictPath       string
	persistedTerms int

	// version counts content mutations since open. It backs the
	// graph.Epocher capability for result caching; it is process-local
	// (reopening a store resets it), which is sound because caches are
	// process-local too.
	version atomic.Uint64
}

// Epoch returns the store's content-version token (see graph.Epocher).
func (st *Store) Epoch() string {
	return "d" + strconv.FormatUint(st.version.Load(), 10)
}

// Exists reports whether dir already contains a disk Hexastore.
func Exists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, storeFile))
	return err == nil
}

// Create initializes a new disk Hexastore in dir, which must exist (or be
// creatable) and not already contain a store.
func Create(dir string, opts Options) (*Store, error) {
	fsys := iofault.Or(opts.FS)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("disk: create %s: %w", dir, err)
	}
	storePath := filepath.Join(dir, storeFile)
	if _, err := fsys.Stat(storePath); err == nil {
		return nil, fmt.Errorf("disk: %s already contains a store", dir)
	}
	pf, err := pagefile.Create(storePath, pagefile.Options{CacheSize: opts.CacheSize, FS: fsys})
	if err != nil {
		return nil, err
	}
	st := &Store{
		dir:      dir,
		fs:       fsys,
		pf:       pf,
		dict:     dictionary.New(),
		dictPath: filepath.Join(dir, dictFile),
	}
	for i := range st.trees {
		st.trees[i] = btree.New(pf, 2*i, 2*i+1)
		st.trees[i].SetCompression(!opts.Uncompressed)
	}
	// Write the dictionary header eagerly so Open can validate it, and
	// sync the empty pagefile so a crash right after Create leaves an
	// openable (empty) store for WAL replay to rebuild onto.
	if err := iofault.WriteFile(fsys, st.dictPath, []byte(dictMagic), 0o644); err != nil {
		pf.Close()
		return nil, fmt.Errorf("disk: write dictionary: %w", err)
	}
	if err := pf.Sync(); err != nil {
		pf.Close()
		return nil, err
	}
	return st, nil
}

// Open attaches to an existing disk Hexastore in dir.
func Open(dir string, opts Options) (*Store, error) {
	fsys := iofault.Or(opts.FS)
	pf, err := pagefile.Open(filepath.Join(dir, storeFile), pagefile.Options{CacheSize: opts.CacheSize, FS: fsys})
	if err != nil {
		return nil, err
	}
	st := &Store{
		dir:      dir,
		fs:       fsys,
		pf:       pf,
		dict:     dictionary.New(),
		dictPath: filepath.Join(dir, dictFile),
	}
	for i := range st.trees {
		st.trees[i] = btree.New(pf, 2*i, 2*i+1)
		st.trees[i].SetCompression(!opts.Uncompressed)
	}
	if err := st.loadDictionary(); err != nil {
		pf.Close()
		return nil, err
	}
	return st, nil
}

// loadDictionary replays the append-only term log, re-assigning the same
// dense ids the terms had when they were persisted. The terms are read
// into a dictionary.Table and handed to the dictionary in one bulk call;
// a sidecar with a duplicate term is refused rather than silently
// shifting ids, and a term length past the end of the file is refused
// before anything is allocated for it.
func (st *Store) loadDictionary() error {
	f, err := iofault.Open(st.fs, st.dictPath)
	if err != nil {
		return fmt.Errorf("disk: open dictionary: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return fmt.Errorf("disk: open dictionary: %w", err)
	}
	r := bufio.NewReader(f)

	magic := make([]byte, len(dictMagic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != dictMagic {
		return fmt.Errorf("disk: %s: bad dictionary header", st.dictPath)
	}
	// left bounds the bytes still to come: the file's size less what has
	// been read, counting each length at its shortest encoding.
	left := uint64(info.Size()) - uint64(len(dictMagic))
	var table dictionary.Table
	var buf []byte
	for {
		n, err := binary.ReadUvarint(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("disk: dictionary log: %w", err)
		}
		if left -= min(left, uint64(uvarintLen(n))); n > left {
			return fmt.Errorf("disk: %s: term %d has length %d, past the end of the file", st.dictPath, table.Len()+1, n)
		}
		left -= n
		buf = slices.Grow(buf[:0], int(n))[:n]
		if _, err := io.ReadFull(r, buf); err != nil {
			return fmt.Errorf("disk: dictionary log truncated: %w", err)
		}
		kind, ok := rdf.KindOfKey(string(buf[:min(n, 1)]))
		if !ok {
			return fmt.Errorf("disk: dictionary log: malformed term key %q", buf)
		}
		if _, added := table.Intern(kind, buf[1:]); !added {
			return fmt.Errorf("disk: %s: sidecar term %d is a duplicate term", st.dictPath, table.Len()+1)
		}
	}
	// The dictionary is empty, so term i gets id i+1.
	st.dict.EncodeTable(&table, table.All(), make([]ID, table.Len()))
	st.persistedTerms = table.Len()
	return nil
}

// uvarintLen is the length of v's shortest uvarint encoding.
func uvarintLen(v uint64) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], v)
}

// flushDictionary appends any terms encoded since the last flush.
func (st *Store) flushDictionary() error {
	snap := st.dict.Snapshot()
	terms := snap.View()
	n := terms.Len()
	if n == st.persistedTerms {
		return nil
	}
	f, err := st.fs.OpenFile(st.dictPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("disk: append dictionary: %w", err)
	}
	w := bufio.NewWriter(f)
	var key []byte
	for id := st.persistedTerms + 1; id <= n; id++ {
		t := terms.Term(ID(id))
		key = t.AppendKey(binary.AppendUvarint(key[:0], uint64(1+len(t.Value))))
		if _, err := w.Write(key); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("disk: sync dictionary: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	st.persistedTerms = n
	return nil
}

// Dictionary returns the store's dictionary.
func (st *Store) Dictionary() *dictionary.Dictionary { return st.dict }

// FlushDictionary durably persists any terms encoded since the last
// flush, without touching the pagefile. Callers that are about to write
// id-encoded rows into the trees (the delta overlay's merge) call this
// first, so a buffer-pool eviction can never leak a tree page whose ids
// the dictionary sidecar does not durably map — the invariant that
// makes WAL replay's term re-encoding safe after a crash.
func (st *Store) FlushDictionary() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.flushDictionary()
}

// Dir returns the directory the store lives in.
func (st *Store) Dir() string { return st.dir }

// Len returns the number of distinct triples.
func (st *Store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return int(st.trees[core.SPO].Len())
}

// permute reorders (s,p,o) into the key order of index ix.
func permute(ix core.Index, s, p, o ID) btree.Key {
	switch ix {
	case core.SPO:
		return btree.Key{uint64(s), uint64(p), uint64(o)}
	case core.SOP:
		return btree.Key{uint64(s), uint64(o), uint64(p)}
	case core.PSO:
		return btree.Key{uint64(p), uint64(s), uint64(o)}
	case core.POS:
		return btree.Key{uint64(p), uint64(o), uint64(s)}
	case core.OSP:
		return btree.Key{uint64(o), uint64(s), uint64(p)}
	default: // core.OPS
		return btree.Key{uint64(o), uint64(p), uint64(s)}
	}
}

// unpermute recovers (s,p,o) from a key of index ix.
func unpermute(ix core.Index, k btree.Key) (s, p, o ID) {
	switch ix {
	case core.SPO:
		return ID(k[0]), ID(k[1]), ID(k[2])
	case core.SOP:
		return ID(k[0]), ID(k[2]), ID(k[1])
	case core.PSO:
		return ID(k[1]), ID(k[0]), ID(k[2])
	case core.POS:
		return ID(k[2]), ID(k[0]), ID(k[1])
	case core.OSP:
		return ID(k[1]), ID(k[2]), ID(k[0])
	default: // core.OPS
		return ID(k[2]), ID(k[1]), ID(k[0])
	}
}

// Add inserts the triple ⟨s,p,o⟩ into all six trees. It reports whether
// the store changed (the SPO tree's verdict).
//
// All six trees are touched even when SPO already holds the key: each
// per-tree insert is idempotent, so re-applying an Add repairs a store
// whose trees diverged — e.g. a crash after buffer-pool eviction
// persisted some trees' pages but not others mid-flush. WAL replay and
// compaction retries rely on this self-healing property; with an
// early-out on the SPO verdict, a replayed op would be skipped as
// "already present" while the other five indexes still miss it.
func (st *Store) Add(s, p, o ID) (bool, error) {
	if s == None || p == None || o == None {
		return false, nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	added, err := st.trees[core.SPO].Insert(permute(core.SPO, s, p, o))
	if err != nil {
		return false, err
	}
	for _, ix := range core.AllIndexes[1:] {
		if _, err := st.trees[ix].Insert(permute(ix, s, p, o)); err != nil {
			return false, err
		}
	}
	if added {
		st.version.Add(1)
	}
	return added, nil
}

// Remove deletes the triple from all six trees. It reports whether the
// store changed (the SPO tree's verdict). Like Add, every tree is
// touched regardless of the SPO verdict, so re-applying a Remove
// finishes a half-applied deletion instead of skipping it.
func (st *Store) Remove(s, p, o ID) (bool, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	removed, err := st.trees[core.SPO].Delete(permute(core.SPO, s, p, o))
	if err != nil {
		return false, err
	}
	for _, ix := range core.AllIndexes[1:] {
		if _, err := st.trees[ix].Delete(permute(ix, s, p, o)); err != nil {
			return false, err
		}
	}
	if removed {
		st.version.Add(1)
	}
	return removed, nil
}

// Has reports whether the triple is present.
func (st *Store) Has(s, p, o ID) (bool, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.trees[core.SPO].Contains(permute(core.SPO, s, p, o))
}

// Match streams every triple matching the pattern to fn, with None as
// the wildcard, exactly like core.Store.Match. Each of the eight
// bound/unbound combinations becomes a prefix scan of the single best
// tree (§4.2 of the paper).
func (st *Store) Match(s, p, o ID, fn func(s, p, o ID) bool) error {
	st.mu.RLock()
	defer st.mu.RUnlock()

	emit := func(ix core.Index) func(btree.Key) bool {
		return func(k btree.Key) bool {
			ms, mp, mo := unpermute(ix, k)
			return fn(ms, mp, mo)
		}
	}
	switch {
	case s != None && p != None && o != None:
		ok, err := st.trees[core.SPO].Contains(permute(core.SPO, s, p, o))
		if err != nil {
			return err
		}
		if ok {
			fn(s, p, o)
		}
		return nil
	case s != None && p != None:
		return st.trees[core.SPO].ScanPrefix2(uint64(s), uint64(p), emit(core.SPO))
	case s != None && o != None:
		return st.trees[core.SOP].ScanPrefix2(uint64(s), uint64(o), emit(core.SOP))
	case p != None && o != None:
		return st.trees[core.POS].ScanPrefix2(uint64(p), uint64(o), emit(core.POS))
	case s != None:
		return st.trees[core.SPO].ScanPrefix1(uint64(s), emit(core.SPO))
	case p != None:
		return st.trees[core.PSO].ScanPrefix1(uint64(p), emit(core.PSO))
	case o != None:
		return st.trees[core.OSP].ScanPrefix1(uint64(o), emit(core.OSP))
	default:
		return st.trees[core.SPO].Scan(btree.Key{}, btree.MaxKey, emit(core.SPO))
	}
}

// AppendSortedList appends the sorted candidate values of the single
// None position of a 2-bound pattern to dst, materialized from one
// prefix scan of the tree whose key order ends in the free position —
// the pages stream the values already sorted, so building the list is a
// straight append. It implements the graph.SortedSource capability.
func (st *Store) AppendSortedList(dst []ID, s, p, o ID) ([]ID, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()

	var ix core.Index
	var a, b uint64
	switch {
	case s != None && p != None && o == None:
		ix, a, b = core.SPO, uint64(s), uint64(p)
	case s != None && p == None && o != None:
		ix, a, b = core.SOP, uint64(s), uint64(o)
	case s == None && p != None && o != None:
		ix, a, b = core.POS, uint64(p), uint64(o)
	default:
		return nil, fmt.Errorf("disk: AppendSortedList needs exactly two bound positions, got ⟨%d,%d,%d⟩", s, p, o)
	}
	if err := st.trees[ix].ScanPrefix2(a, b, func(k btree.Key) bool {
		dst = append(dst, ID(k[2]))
		return true
	}); err != nil {
		return nil, err
	}
	return dst, nil
}

// SortedPairs streams the two free positions of a 1-bound pattern in
// sorted order (first free position ascending, second ascending within
// it), from one prefix scan of the matching tree. It implements the
// graph.SortedSource capability.
func (st *Store) SortedPairs(s, p, o ID, fn func(a, b ID) bool) error {
	st.mu.RLock()
	defer st.mu.RUnlock()

	var ix core.Index
	var head uint64
	switch {
	case s != None && p == None && o == None:
		ix, head = core.SPO, uint64(s)
	case s == None && p != None && o == None:
		ix, head = core.PSO, uint64(p)
	case s == None && p == None && o != None:
		ix, head = core.OSP, uint64(o)
	default:
		return fmt.Errorf("disk: SortedPairs needs exactly one bound position, got ⟨%d,%d,%d⟩", s, p, o)
	}
	return st.trees[ix].ScanPrefix1(head, func(k btree.Key) bool {
		return fn(ID(k[1]), ID(k[2]))
	})
}

// Count returns the number of triples matching the pattern.
func (st *Store) Count(s, p, o ID) (int, error) {
	n := 0
	err := st.Match(s, p, o, func(_, _, _ ID) bool { n++; return true })
	return n, err
}

// Distinct returns the number of distinct keys under head in ordering ix
// — the distinct second components of ix's tree under the prefix head —
// or, when head is None, the number of distinct heads: one prefix scan
// of that tree, or a scan of all of it. It implements graph.Distincter.
func (st *Store) Distinct(ix core.Index, head ID) (int, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	n, col, last := 0, 1, uint64(None)
	count := func(k btree.Key) bool {
		if k[col] != last {
			n, last = n+1, k[col]
		}
		return true
	}
	var err error
	if head == None {
		col = 0
		err = st.trees[ix].Scan(btree.Key{}, btree.MaxKey, count)
	} else {
		err = st.trees[ix].ScanPrefix1(uint64(head), count)
	}
	return n, err
}

// AddTriple dictionary-encodes and inserts an rdf.Triple.
func (st *Store) AddTriple(t rdf.Triple) (added bool, err error) {
	if !t.Valid() {
		return false, nil
	}
	s, p, o := st.dict.EncodeTriple(t)
	return st.Add(s, p, o)
}

// DecodeMatch is Match with results decoded back to rdf.Triples.
func (st *Store) DecodeMatch(s, p, o ID, fn func(rdf.Triple) bool) error {
	var inner error
	err := st.Match(s, p, o, func(s, p, o ID) bool {
		t, derr := st.dict.DecodeTriple(s, p, o)
		if derr != nil {
			inner = derr
			return false
		}
		return fn(t)
	})
	if err != nil {
		return err
	}
	return inner
}

// BulkLoad replaces the contents of an empty store with the given
// triples, bulk-building each of the six trees from a sorted permutation.
// This is the fast path for loading a dataset from scratch.
func (st *Store) BulkLoad(triples [][3]ID) error {
	return st.BulkLoadParallel(triples, 1)
}

// BulkLoadParallel is BulkLoad with the CPU-bound half — permuting and
// sorting the six key arrays — spread over up to workers goroutines
// (workers <= 0 means runtime.GOMAXPROCS(0)). The tree builds themselves
// stay sequential: all six trees share one pagefile, and writing them one
// at a time keeps the buffer pool working on a single tree's pages. Key
// preparation runs ahead over a bounded channel, so at most two prepared
// key arrays are in memory beyond the one being built. The resulting
// store is identical to BulkLoad's for every worker count.
func (st *Store) BulkLoadParallel(triples [][3]ID, workers int) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.trees[core.SPO].Len() != 0 {
		return fmt.Errorf("disk: BulkLoad on non-empty store")
	}
	if workers == 1 {
		keys := make([]btree.Key, 0, len(triples))
		for _, ix := range core.AllIndexes {
			keys = keys[:0]
			for _, t := range triples {
				if t[0] == None || t[1] == None || t[2] == None {
					continue
				}
				keys = append(keys, permute(ix, t[0], t[1], t[2]))
			}
			sortKeys(keys)
			keys = dedupeKeys(keys)
			if err := st.trees[ix].BulkBuild(keys); err != nil {
				return err
			}
		}
		return nil
	}

	type prepared struct {
		ix   core.Index
		keys []btree.Key
	}
	ready := make(chan prepared, 1) // bounds prepared-but-unbuilt arrays
	sortWorkers := (workers + 1) / 2
	go func() {
		for _, ix := range core.AllIndexes {
			keys := make([]btree.Key, 0, len(triples))
			for _, t := range triples {
				if t[0] == None || t[1] == None || t[2] == None {
					continue
				}
				keys = append(keys, permute(ix, t[0], t[1], t[2]))
			}
			sortSliceWorkers(keys, sortWorkers)
			ready <- prepared{ix: ix, keys: dedupeKeys(keys)}
		}
		close(ready)
	}()
	var err error
	for p := range ready {
		if err != nil {
			continue // drain so the preparer can exit
		}
		err = st.trees[p.ix].BulkBuild(p.keys)
	}
	return err
}

// Flush persists all dirty pages and new dictionary terms durably: both
// the dictionary sidecar and the pagefile are fsynced, so a triple whose
// Add was followed by Flush survives an OS crash, not just a process
// exit. (Before this, Flush only wrote dirty pages into the OS cache —
// the durability gap the WAL/live-update work closed.)
func (st *Store) Flush() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.flushDictionary(); err != nil {
		return err
	}
	return st.pf.Sync()
}

// Close flushes durably and closes the store. The flush error, if any,
// is surfaced — Add/Remove calls without a later Flush are made durable
// here rather than silently dropped on the error path.
func (st *Store) Close() error {
	flushErr := st.Flush()
	closeErr := st.pf.Close()
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// FileStats reports buffer pool activity of the underlying pagefile.
func (st *Store) FileStats() pagefile.Stats { return st.pf.Stats() }

// NumPages returns the number of pages in the store file.
func (st *Store) NumPages() int { return st.pf.NumPages() }

// SizeBytes returns the on-disk footprint of the store (pages plus the
// dictionary log), for the memory/space experiments.
func (st *Store) SizeBytes() (int64, error) {
	var total int64
	for _, name := range []string{storeFile, dictFile} {
		fi, err := st.fs.Stat(filepath.Join(st.dir, name))
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}

// CheckIntegrity validates every tree's structural invariants and that
// all six trees agree on the triple count.
func (st *Store) CheckIntegrity() error {
	st.mu.RLock()
	defer st.mu.RUnlock()
	want := st.trees[core.SPO].Len()
	for _, ix := range core.AllIndexes {
		if got := st.trees[ix].Len(); got != want {
			return fmt.Errorf("disk: index %v holds %d keys, %v holds %d", ix, got, core.SPO, want)
		}
		if err := st.trees[ix].CheckInvariants(); err != nil {
			return fmt.Errorf("disk: index %v: %w", ix, err)
		}
	}
	return nil
}

func sortKeys(keys []btree.Key) {
	// Three-pass LSD radix-style sort would be overkill; use sort.Slice.
	sortSlice(keys)
}

func dedupeKeys(keys []btree.Key) []btree.Key {
	if len(keys) < 2 {
		return keys
	}
	w := 1
	for r := 1; r < len(keys); r++ {
		if btree.Compare(keys[r], keys[w-1]) != 0 {
			keys[w] = keys[r]
			w++
		}
	}
	return keys[:w]
}
