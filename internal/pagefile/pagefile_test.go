package pagefile

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func newTempFile(t *testing.T, opts Options) *File {
	t.Helper()
	pf, err := Create(filepath.Join(t.TempDir(), "test.db"), opts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	t.Cleanup(func() { pf.Close() })
	return pf
}

func TestCreateOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rt.db")

	pf, err := Create(path, Options{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	p, err := pf.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	copy(p.Data(), "hello pagefile")
	p.MarkDirty()
	id := p.ID()
	pf.Release(p)
	pf.SetRoot(3, uint64(id))
	if err := pf.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	pf2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer pf2.Close()
	if got := pf2.Root(3); got != uint64(id) {
		t.Fatalf("Root(3) = %d, want %d", got, id)
	}
	p2, err := pf2.Get(id)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	defer pf2.Release(p2)
	if got := string(p2.Data()[:14]); got != "hello pagefile" {
		t.Fatalf("payload = %q, want %q", got, "hello pagefile")
	}
}

func TestOpenMissingFile(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope.db"), Options{}); err == nil {
		t.Fatal("Open of missing file succeeded")
	}
}

func TestOpenNotAPagefile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.db")
	junk := make([]byte, PageSize)
	copy(junk, "this is not a pagefile at all")
	if err := os.WriteFile(path, junk, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); err == nil {
		t.Fatal("Open of non-pagefile succeeded")
	}
}

func TestAllocateIDsAreSequentialAndNonZero(t *testing.T) {
	pf := newTempFile(t, Options{})
	for want := PageID(1); want <= 5; want++ {
		p, err := pf.Allocate()
		if err != nil {
			t.Fatalf("Allocate: %v", err)
		}
		if p.ID() != want {
			t.Fatalf("Allocate id = %d, want %d", p.ID(), want)
		}
		pf.Release(p)
	}
	if got := pf.NumPages(); got != 6 { // meta + 5
		t.Fatalf("NumPages = %d, want 6", got)
	}
}

func TestFreeListRecycles(t *testing.T) {
	pf := newTempFile(t, Options{})
	p, _ := pf.Allocate()
	id := p.ID()
	pf.Release(p)
	if err := pf.Free(id); err != nil {
		t.Fatalf("Free: %v", err)
	}
	q, err := pf.Allocate()
	if err != nil {
		t.Fatalf("Allocate after Free: %v", err)
	}
	defer pf.Release(q)
	if q.ID() != id {
		t.Fatalf("recycled id = %d, want %d", q.ID(), id)
	}
	for _, b := range q.Data() {
		if b != 0 {
			t.Fatal("recycled page not zeroed")
		}
	}
}

func TestFreeMetaPageRejected(t *testing.T) {
	pf := newTempFile(t, Options{})
	if err := pf.Free(NilPage); err == nil {
		t.Fatal("Free(0) succeeded")
	}
}

func TestGetMetaPageRejected(t *testing.T) {
	pf := newTempFile(t, Options{})
	if _, err := pf.Get(NilPage); err == nil {
		t.Fatal("Get(0) succeeded")
	}
}

func TestFreePinnedPageRejected(t *testing.T) {
	pf := newTempFile(t, Options{})
	p, _ := pf.Allocate()
	// p is pinned once by Allocate; pin again via Get.
	q, err := pf.Get(p.ID())
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if err := pf.Free(p.ID()); err == nil {
		t.Fatal("Free of pinned page succeeded")
	}
	pf.Release(p)
	pf.Release(q)
}

func TestEvictionWritesBackDirtyPages(t *testing.T) {
	pf := newTempFile(t, Options{CacheSize: 4})
	// Allocate more pages than fit in the cache, each with distinct data.
	const n = 32
	for i := 0; i < n; i++ {
		p, err := pf.Allocate()
		if err != nil {
			t.Fatalf("Allocate %d: %v", i, err)
		}
		binary.LittleEndian.PutUint64(p.Data(), uint64(i)+100)
		p.MarkDirty()
		pf.Release(p)
	}
	if pf.Stats().Evictions == 0 {
		t.Fatal("no evictions with CacheSize=4 and 32 pages")
	}
	// Everything must read back intact even though most pages were evicted.
	for i := 0; i < n; i++ {
		p, err := pf.Get(PageID(i + 1))
		if err != nil {
			t.Fatalf("Get %d: %v", i+1, err)
		}
		if got := binary.LittleEndian.Uint64(p.Data()); got != uint64(i)+100 {
			t.Fatalf("page %d payload = %d, want %d", i+1, got, i+100)
		}
		pf.Release(p)
	}
}

func TestCacheHitsDoNotTouchDisk(t *testing.T) {
	pf := newTempFile(t, Options{CacheSize: 8})
	p, _ := pf.Allocate()
	id := p.ID()
	pf.Release(p)
	before := pf.Stats().Misses
	for i := 0; i < 10; i++ {
		q, err := pf.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		pf.Release(q)
	}
	st := pf.Stats()
	if st.Misses != before {
		t.Fatalf("misses grew from %d to %d on cached gets", before, st.Misses)
	}
	if st.Hits < 10 {
		t.Fatalf("hits = %d, want >= 10", st.Hits)
	}
}

func TestPoolGrowsWhenAllPinned(t *testing.T) {
	pf := newTempFile(t, Options{CacheSize: 2})
	var pages []*Page
	for i := 0; i < 6; i++ {
		p, err := pf.Allocate()
		if err != nil {
			t.Fatalf("Allocate with all pages pinned: %v", err)
		}
		pages = append(pages, p)
	}
	for _, p := range pages {
		pf.Release(p)
	}
}

func TestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corrupt.db")
	pf, err := Create(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := pf.Allocate()
	copy(p.Data(), "important bytes")
	p.MarkDirty()
	id := p.ID()
	pf.Release(p)
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one byte in the payload of the page on disk.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[int(id)*PageSize+headerSize+3] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	pf2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pf2.Close()
	_, err = pf2.Get(id)
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("Get of corrupted page: err = %v, want CorruptionError", err)
	}
	if ce.Page != id {
		t.Fatalf("CorruptionError.Page = %d, want %d", ce.Page, id)
	}
}

func TestCorruptedMetaPageDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "meta.db")
	pf, err := Create(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pf.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[headerSize+9] ^= 0xaa // inside the meta payload
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); err == nil {
		t.Fatal("Open with corrupted meta page succeeded")
	}
}

func TestRootSlotsPersist(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "roots.db")
	pf, err := Create(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < RootSlots; i++ {
		pf.SetRoot(i, uint64(i*7+1))
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}
	pf2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pf2.Close()
	for i := 0; i < RootSlots; i++ {
		if got := pf2.Root(i); got != uint64(i*7+1) {
			t.Fatalf("Root(%d) = %d, want %d", i, got, i*7+1)
		}
	}
}

func TestFlushPersistsWithoutClose(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "flush.db")
	pf, err := Create(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	p, _ := pf.Allocate()
	copy(p.Data(), "flushed")
	p.MarkDirty()
	id := p.ID()
	pf.Release(p)
	if err := pf.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}

	// Read the raw file independently: the page must be there.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := int(id)*PageSize + headerSize
	if got := string(raw[off : off+7]); got != "flushed" {
		t.Fatalf("raw payload = %q, want %q", got, "flushed")
	}
}

func TestDoubleCloseIsSafe(t *testing.T) {
	pf := newTempFile(t, Options{})
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pf.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestReleaseUnpinnedPanics(t *testing.T) {
	pf := newTempFile(t, Options{})
	p, _ := pf.Allocate()
	pf.Release(p)
	defer func() {
		if recover() == nil {
			t.Fatal("Release of unpinned page did not panic")
		}
	}()
	pf.Release(p)
}

func TestFreedPagePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "freelist.db")
	pf, err := Create(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := pf.Allocate()
	id1 := p1.ID()
	pf.Release(p1)
	p2, _ := pf.Allocate()
	pf.Release(p2)
	if err := pf.Free(id1); err != nil {
		t.Fatal(err)
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}

	pf2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pf2.Close()
	q, err := pf2.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	defer pf2.Release(q)
	if q.ID() != id1 {
		t.Fatalf("recycled id after reopen = %d, want %d", q.ID(), id1)
	}
}

// numberedPages creates a file of n pages behind a pool of cacheSize,
// page i's payload starting with i, and reopens it so no page is cached.
func numberedPages(t *testing.T, n, cacheSize int) *File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "numbered.db")
	pf, err := Create(path, Options{CacheSize: cacheSize})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		p, err := pf.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(p.Data(), uint64(p.ID()))
		p.MarkDirty()
		pf.Release(p)
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}
	pf, err = Open(path, Options{CacheSize: cacheSize})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pf.Close() })
	return pf
}

// TestMissReusesEvictedBuffer: once the pool is full, a miss reads into
// the buffer of the page an earlier miss evicted, so it allocates the
// Page and nothing else — and still returns the right page's bytes.
func TestMissReusesEvictedBuffer(t *testing.T) {
	const n = 64
	pf := numberedPages(t, n, 4)
	next := 0
	miss := func() {
		next = next%n + 1
		p, err := pf.Get(PageID(next))
		if err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint64(p.Data()); got != uint64(next) {
			t.Fatalf("page %d holds page %d's payload", next, got)
		}
		pf.Release(p)
	}
	for i := 0; i < 2*n; i++ {
		miss()
	}
	before := pf.Stats()
	allocs := testing.AllocsPerRun(4*n, miss)
	after := pf.Stats()
	if after.Hits != before.Hits || after.Misses-before.Misses < 4*n {
		t.Fatalf("the loop was meant to miss every time: %+v then %+v", before, after)
	}
	if allocs > 1 {
		t.Fatalf("%.1f allocations per miss, want the Page alone", allocs)
	}
}

// TestFailedReadLeavesNoPage: a page that fails its checksum is not
// cached, and the buffer its bytes were read into serves the next miss
// as scratch space only.
func TestFailedReadLeavesNoPage(t *testing.T) {
	pf := numberedPages(t, 8, 4)
	raw, err := os.ReadFile(pf.Path())
	if err != nil {
		t.Fatal(err)
	}
	raw[3*PageSize+headerSize+100] ^= 0xff
	if err := os.WriteFile(pf.Path(), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		var ce *CorruptionError
		if _, err := pf.Get(3); !errors.As(err, &ce) {
			t.Fatalf("round %d: Get of the corrupted page: %v", round, err)
		}
		for id := PageID(4); id <= 8; id++ {
			p, err := pf.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if got := binary.LittleEndian.Uint64(p.Data()); got != uint64(id) {
				t.Fatalf("page %d holds page %d's payload", id, got)
			}
			pf.Release(p)
		}
	}
}

// TestOpenOlderFormatVersion: a pagefile of an older format version
// holds pages this build would misread, so Open refuses it and says how
// to get a current one.
func TestOpenOlderFormatVersion(t *testing.T) {
	pf := newTempFile(t, Options{})
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(pf.Path())
	if err != nil {
		t.Fatal(err)
	}
	copy(raw[headerSize:], "HEXPAGE1")
	binary.LittleEndian.PutUint32(raw, crc32.ChecksumIEEE(raw[headerSize:PageSize]))
	if err := os.WriteFile(pf.Path(), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(pf.Path(), Options{})
	if err == nil || !strings.Contains(err.Error(), "reload the store") {
		t.Fatalf("Open of a version-1 pagefile: %v", err)
	}
}
