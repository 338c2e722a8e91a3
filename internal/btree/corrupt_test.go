package btree

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"hexastore/internal/pagefile"
)

// crcSize is the per-page checksum that precedes a page's payload on
// disk.
const crcSize = pagefile.PageSize - pagefile.PayloadSize

// buildTreeFile bulk-builds n keys into a fresh pagefile at path, with
// raw or compressed leaves, and closes it.
func buildTreeFile(t testing.TB, path string, n int, compress bool) {
	t.Helper()
	pf, err := pagefile.Create(path, pagefile.Options{CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	tr := New(pf, 0, 1)
	tr.SetCompression(compress)
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = Key{uint64(i/100 + 1), uint64(i%100 + 1), uint64(i%7 + 1)}
	}
	if err := tr.BulkBuild(keys); err != nil {
		t.Fatal(err)
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}
}

// patchPage rewrites the payload of page id in the file at path through
// edit and recomputes its checksum, so the damage reaches the tree
// instead of being caught by the pagefile.
func patchPage(t testing.TB, path string, id pagefile.PageID, edit func(d []byte)) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	raw := make([]byte, pagefile.PageSize)
	off := int64(id) * pagefile.PageSize
	if _, err := f.ReadAt(raw, off); err != nil {
		t.Fatal(err)
	}
	edit(raw[crcSize:])
	binary.LittleEndian.PutUint32(raw, crc32.ChecksumIEEE(raw[crcSize:]))
	if _, err := f.WriteAt(raw, off); err != nil {
		t.Fatal(err)
	}
}

// readPages returns the payloads of every client page of the file at
// path, concatenated: the input form FuzzTreePages reads.
func readPages(t testing.TB, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for off := pagefile.PageSize; off < len(raw); off += pagefile.PageSize {
		out = append(out, raw[off+crcSize:off+pagefile.PageSize]...)
	}
	return out
}

// openTree reopens the tree kept in root slots 0 and 1 of the file at
// path, behind a pool small enough that reads go to the file.
func openTree(t testing.TB, path string) (*Tree, *pagefile.File) {
	t.Helper()
	pf, err := pagefile.Open(path, pagefile.Options{CacheSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	return New(pf, 0, 1), pf
}

// TestCorruptRootCount sets the root's key count past what a page holds,
// with a valid checksum: every read must fail with a CorruptPageError
// instead of slicing past the page.
func TestCorruptRootCount(t *testing.T) {
	for _, compress := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "tree.db")
		buildTreeFile(t, path, 5000, compress)
		tr, pf := openTree(t, path)
		root := tr.root
		pf.Close()
		patchPage(t, path, root, func(d []byte) { setNodeCount(d, 0xffff) })

		tr, pf = openTree(t, path)
		var ce *CorruptPageError
		if _, err := tr.Contains(Key{3, 4, 5}); !errors.As(err, &ce) || ce.Page != root {
			t.Errorf("compress=%v: Contains: err = %v, want a CorruptPageError for page %d", compress, err, root)
		}
		if err := tr.Scan(Key{}, MaxKey, func(Key) bool { return true }); !errors.As(err, &ce) {
			t.Errorf("compress=%v: Scan: err = %v, want a CorruptPageError", compress, err)
		}
		if err := tr.ScanPrefix1(7, func(Key) bool { return true }); !errors.As(err, &ce) {
			t.Errorf("compress=%v: ScanPrefix1: err = %v, want a CorruptPageError", compress, err)
		}
		if _, err := tr.Insert(Key{1, 1, 9}); !errors.As(err, &ce) {
			t.Errorf("compress=%v: Insert: err = %v, want a CorruptPageError", compress, err)
		}
		if err := tr.CheckInvariants(); !errors.As(err, &ce) {
			t.Errorf("compress=%v: CheckInvariants: err = %v, want a CorruptPageError", compress, err)
		}
		pf.Close()
	}
}

// TestCorruptLeafHeaders damages the first leaf's header: a raw leaf's
// count, a compressed leaf's count and its stream length, and the tag.
func TestCorruptLeafHeaders(t *testing.T) {
	cases := []struct {
		name     string
		compress bool
		edit     func(d []byte)
	}{
		{"raw leaf count", false, func(d []byte) { setNodeCount(d, MaxLeafKeys+1) }},
		{"compressed leaf count", true, func(d []byte) { setNodeCount(d, 0xffff) }},
		{"compressed stream length", true, func(d []byte) { binary.LittleEndian.PutUint16(d[8:10], 0xfff0) }},
		{"unknown tag", false, func(d []byte) { d[0] = 9 }},
	}
	for _, c := range cases {
		path := filepath.Join(t.TempDir(), "tree.db")
		buildTreeFile(t, path, 300, c.compress)
		tr, pf := openTree(t, path)
		leaf, err := tr.findLeaf(Key{})
		if err != nil {
			t.Fatal(err)
		}
		id := leaf.ID()
		pf.Release(leaf)
		pf.Close()
		patchPage(t, path, id, c.edit)

		tr, pf = openTree(t, path)
		var ce *CorruptPageError
		if _, err := tr.Contains(Key{1, 1, 2}); !errors.As(err, &ce) || ce.Page != id {
			t.Errorf("%s: Contains: err = %v, want a CorruptPageError for page %d", c.name, err, id)
		}
		if err := tr.Scan(Key{}, MaxKey, func(Key) bool { return true }); !errors.As(err, &ce) {
			t.Errorf("%s: Scan: err = %v, want a CorruptPageError", c.name, err)
		}
		pf.Close()
	}
}

// TestCorruptLoops points a leaf's next link at itself and an internal
// node's child at the node: a scan and a descent must end in an error.
func TestCorruptLoops(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tree.db")
	buildTreeFile(t, path, 300, false)
	tr, pf := openTree(t, path)
	root := tr.root
	leaf, err := tr.findLeaf(Key{})
	if err != nil {
		t.Fatal(err)
	}
	first := leaf.ID()
	pf.Release(leaf)
	pf.Close()
	patchPage(t, path, first, func(d []byte) { setLeafNext(d, first) })

	tr, pf = openTree(t, path)
	var ce *CorruptPageError
	if err := tr.Scan(Key{}, MaxKey, func(Key) bool { return true }); !errors.As(err, &ce) {
		t.Errorf("Scan over a looping leaf chain: err = %v, want a CorruptPageError", err)
	}
	pf.Close()

	patchPage(t, path, root, func(d []byte) { putChildAt(d, 0, root) })
	tr, pf = openTree(t, path)
	defer pf.Close()
	if _, err := tr.Contains(Key{}); !errors.As(err, &ce) {
		t.Errorf("Contains under a looping child pointer: err = %v, want a CorruptPageError", err)
	}
	if _, err := tr.Depth(); !errors.As(err, &ce) {
		t.Errorf("Depth under a looping child pointer: err = %v, want a CorruptPageError", err)
	}
	if err := tr.CheckInvariants(); err == nil {
		t.Error("CheckInvariants accepted a looping child pointer")
	}
}

// FuzzTreePages reads the input as the payloads of a file's pages, one
// page per pagefile.PayloadSize bytes (the last zero-padded), with the
// last page the root, where BulkBuild puts it. The pages are written
// through the pagefile, so their checksums hold and the bytes reach the
// tree as they are. Every read must return or fail, never panic or loop.
func FuzzTreePages(f *testing.F) {
	dir := f.TempDir()
	for i, seed := range []struct {
		keys     int
		compress bool
	}{{40, false}, {400, false}, {40, true}, {2000, true}} {
		path := filepath.Join(dir, "seed.db")
		buildTreeFile(f, path, seed.keys, seed.compress)
		f.Add(readPages(f, path))
		if i%2 == 1 {
			// The root is an internal node: the corrupt-root case.
			tr, pf := openTree(f, path)
			root := tr.root
			pf.Close()
			patchPage(f, path, root, func(d []byte) { setNodeCount(d, 0xffff) })
			f.Add(readPages(f, path))
		}
	}

	path := filepath.Join(dir, "fuzz.db")
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 16*pagefile.PayloadSize {
			return
		}
		pf, err := pagefile.Create(path, pagefile.Options{CacheSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		var root pagefile.PageID
		for off := 0; off < len(data); off += pagefile.PayloadSize {
			p, err := pf.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			copy(p.Data(), data[off:])
			p.MarkDirty()
			root = p.ID()
			pf.Release(p)
		}
		pf.SetRoot(0, uint64(root))
		if err := pf.Close(); err != nil {
			t.Fatal(err)
		}
		tr, pf := openTree(t, path)
		defer pf.Close()

		probe := Key{1, 1, 1}
		if len(data) >= 24 {
			probe = keyAt(data, 0, 0)
		}
		for _, k := range []Key{{}, probe, MaxKey} {
			tr.Contains(k)
			tr.ScanPrefix1(k[0], func(Key) bool { return true })
		}
		tr.Scan(Key{}, MaxKey, func(Key) bool { return true })
		tr.Scan(probe, MaxKey, func(Key) bool { return true })
		tr.Depth()
		tr.CheckInvariants()
	})
}
