// Package pagefile implements the paged-storage substrate of the
// disk-based Hexastore (the "fully operational disk-based Hexastore"
// named as future work in §7 of the paper).
//
// A File is a sequence of fixed-size pages. Page 0 is a meta page holding
// the file header, the head of the free-page list, and a small array of
// root slots in which client structures (the six B+-trees of a disk
// Hexastore, plus the dictionary heap) record their root page ids. Every
// page carries a CRC-32 checksum that is verified on each read from disk,
// so torn or corrupted pages are detected rather than silently served.
//
// Reads and writes go through a pinning LRU buffer pool, so hot index
// pages (tree roots, upper internal nodes) stay in memory across
// operations while the working set of a scan is bounded.
package pagefile

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sync"

	"hexastore/internal/iofault"
)

const (
	// PageSize is the on-disk size of every page, including its header.
	PageSize = 4096

	// headerSize is the per-page overhead: a CRC-32 of the payload.
	headerSize = 4

	// PayloadSize is the number of usable bytes in a page.
	PayloadSize = PageSize - headerSize

	// RootSlots is the number of root ids a File stores for its clients.
	RootSlots = 16

	// metaMagic identifies a pagefile; its last byte doubles as the
	// version of the formats its clients keep in the pages. Version 2
	// added restart points to the B+-tree's compressed leaves.
	metaMagic = "HEXPAGE2"

	// maxFreeBufs bounds the page buffers kept for reuse after their
	// pages were evicted. In steady state each miss takes the buffer
	// the previous miss's eviction left, so one is enough; the rest
	// absorb a pool shrinking back after pins had grown it.
	maxFreeBufs = 16
)

// PageID identifies a page within a File. Page 0 is the meta page and is
// never returned by Allocate; 0 therefore doubles as a nil page id.
type PageID uint32

// NilPage is the zero PageID, used as "no page".
const NilPage PageID = 0

// Options configures a File.
type Options struct {
	// CacheSize is the capacity of the buffer pool in pages. Zero means
	// DefaultCacheSize. It must be large enough to hold every page pinned
	// simultaneously by the client (a handful for a B+-tree descent).
	CacheSize int

	// FS routes the pagefile's I/O through a fault-injection layer;
	// nil means the real filesystem.
	FS iofault.FS
}

// DefaultCacheSize is the buffer pool capacity when Options.CacheSize is 0.
const DefaultCacheSize = 256

// Stats reports buffer pool and allocation activity since the File was
// opened. It is used by the disk-store benchmarks to show how cache size
// shapes I/O.
type Stats struct {
	Hits      int64 // Get served from the buffer pool
	Misses    int64 // Get that had to read from disk
	Evictions int64 // pages evicted to make room
	Writes    int64 // pages written to disk
	Allocs    int64 // pages allocated (fresh or recycled)
	Frees     int64 // pages returned to the free list
}

// Page is a pinned in-memory copy of one disk page. The caller owns it
// until Release; after Release the Data slice must not be touched.
type Page struct {
	id    PageID
	buf   []byte // the page as on disk, PageSize bytes; nil once evicted
	data  []byte // the payload, buf[headerSize:]
	pins  int
	dirty bool
	// LRU bookkeeping (guarded by the File mutex).
	prev, next *Page
}

// ID returns the page's id.
func (p *Page) ID() PageID { return p.id }

// Data returns the page payload (PayloadSize bytes). Mutating it requires
// a MarkDirty call for the change to be persisted.
func (p *Page) Data() []byte { return p.data }

// MarkDirty records that the payload changed and must be written back.
func (p *Page) MarkDirty() { p.dirty = true }

// File is a paged file with a buffer pool. It is safe for concurrent use.
type File struct {
	mu   sync.Mutex
	f    iofault.File
	path string

	numPages uint32 // including the meta page
	freeHead PageID
	roots    [RootSlots]uint64
	metaDirt bool

	cacheCap int
	cache    map[PageID]*Page
	lruHead  *Page    // most recently used
	lruTail  *Page    // least recently used
	freeBufs [][]byte // buffers of evicted pages, at most maxFreeBufs

	stats  Stats
	closed bool
}

// Create creates a fresh pagefile at path, truncating any existing file.
func Create(path string, opts Options) (*File, error) {
	f, err := iofault.Or(opts.FS).OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pagefile: create %s: %w", path, err)
	}
	pf := newFile(f, path, opts)
	pf.numPages = 1 // meta page
	pf.metaDirt = true
	if err := pf.writeMeta(); err != nil {
		f.Close()
		return nil, err
	}
	return pf, nil
}

// Open opens an existing pagefile at path and verifies its header.
func Open(path string, opts Options) (*File, error) {
	f, err := iofault.Or(opts.FS).OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pagefile: open %s: %w", path, err)
	}
	pf := newFile(f, path, opts)
	if err := pf.readMeta(); err != nil {
		f.Close()
		return nil, err
	}
	return pf, nil
}

func newFile(f iofault.File, path string, opts Options) *File {
	cap := opts.CacheSize
	if cap <= 0 {
		cap = DefaultCacheSize
	}
	return &File{
		f:        f,
		path:     path,
		cacheCap: cap,
		cache:    make(map[PageID]*Page, cap),
	}
}

// CorruptionError reports a page whose checksum did not match its
// contents when read from disk.
type CorruptionError struct {
	Path string
	Page PageID
}

func (e *CorruptionError) Error() string {
	return fmt.Sprintf("pagefile: %s: page %d checksum mismatch (corrupted)", e.Path, e.Page)
}

// meta page payload layout:
//
//	[0:8]   magic
//	[8:12]  numPages
//	[12:16] freeHead
//	[16:16+8*RootSlots] root slots
func (pf *File) writeMeta() error {
	var buf [PayloadSize]byte
	copy(buf[0:8], metaMagic)
	binary.LittleEndian.PutUint32(buf[8:12], pf.numPages)
	binary.LittleEndian.PutUint32(buf[12:16], uint32(pf.freeHead))
	for i, r := range pf.roots {
		binary.LittleEndian.PutUint64(buf[16+8*i:], r)
	}
	if err := pf.writePage(0, buf[:]); err != nil {
		return err
	}
	pf.metaDirt = false
	return nil
}

func (pf *File) readMeta() error {
	raw, err := pf.readPage(0)
	if err != nil {
		return err
	}
	defer pf.putBuf(raw)
	buf := raw[headerSize:]
	if magic := string(buf[0:8]); magic != metaMagic {
		if magic[:7] == metaMagic[:7] {
			return fmt.Errorf("pagefile: %s: page format version %q, this build reads %q: reload the store from its N-Triples source or its WAL",
				pf.path, magic[7:], metaMagic[7:])
		}
		return fmt.Errorf("pagefile: %s: bad magic (not a pagefile)", pf.path)
	}
	pf.numPages = binary.LittleEndian.Uint32(buf[8:12])
	pf.freeHead = PageID(binary.LittleEndian.Uint32(buf[12:16]))
	for i := range pf.roots {
		pf.roots[i] = binary.LittleEndian.Uint64(buf[16+8*i:])
	}
	return nil
}

// writePage checksums and writes one payload at page id.
func (pf *File) writePage(id PageID, payload []byte) error {
	var raw [PageSize]byte
	copy(raw[headerSize:], payload)
	crc := crc32.ChecksumIEEE(raw[headerSize:])
	binary.LittleEndian.PutUint32(raw[0:4], crc)
	if _, err := pf.f.WriteAt(raw[:], int64(id)*PageSize); err != nil {
		return fmt.Errorf("pagefile: write page %d: %w", id, err)
	}
	pf.stats.Writes++
	return nil
}

// readPage reads and checksum-verifies one page into a buffer from
// takeBuf and returns the whole page, header included. A buffer whose
// read failed goes back to the free list, never into the pool.
func (pf *File) readPage(id PageID) ([]byte, error) {
	raw := pf.takeBuf()
	if _, err := pf.f.ReadAt(raw, int64(id)*PageSize); err != nil {
		pf.putBuf(raw)
		return nil, fmt.Errorf("pagefile: read page %d: %w", id, err)
	}
	want := binary.LittleEndian.Uint32(raw[0:4])
	if crc32.ChecksumIEEE(raw[headerSize:]) != want {
		pf.putBuf(raw)
		return nil, &CorruptionError{Path: pf.path, Page: id}
	}
	return raw, nil
}

// takeBuf returns a PageSize buffer of unspecified contents: an evicted
// page's when one is kept, else a new one.
func (pf *File) takeBuf() []byte {
	if n := len(pf.freeBufs); n > 0 {
		buf := pf.freeBufs[n-1]
		pf.freeBufs = pf.freeBufs[:n-1]
		return buf
	}
	return make([]byte, PageSize)
}

// putBuf keeps buf for the next takeBuf, unless enough are kept.
func (pf *File) putBuf(buf []byte) {
	if len(pf.freeBufs) < maxFreeBufs {
		pf.freeBufs = append(pf.freeBufs, buf)
	}
}

// newPage wraps the page buffer raw as page id with one pin and adds it
// to the pool.
func (pf *File) newPage(id PageID, raw []byte, dirty bool) (*Page, error) {
	p := &Page{id: id, buf: raw, data: raw[headerSize:], pins: 1, dirty: dirty}
	if err := pf.insertCache(p); err != nil {
		pf.putBuf(raw)
		return nil, err
	}
	return p, nil
}

// SetRoot stores v in root slot i (persisted at the next Flush/Close).
func (pf *File) SetRoot(i int, v uint64) {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if pf.roots[i] != v {
		pf.roots[i] = v
		pf.metaDirt = true
	}
}

// Root returns root slot i.
func (pf *File) Root(i int) uint64 {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	return pf.roots[i]
}

// NumPages returns the number of pages in the file, including the meta
// page and any freed pages.
func (pf *File) NumPages() int {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	return int(pf.numPages)
}

// Stats returns a copy of the activity counters.
func (pf *File) Stats() Stats {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	return pf.stats
}

// Allocate returns a zeroed, pinned page, recycling the free list when
// possible. The caller must Release it.
func (pf *File) Allocate() (*Page, error) {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	var id PageID
	if pf.freeHead != NilPage {
		// Pop the free list: the first 4 payload bytes of a free page
		// link to the next free page.
		head, err := pf.getLocked(pf.freeHead)
		if err != nil {
			return nil, err
		}
		id = pf.freeHead
		pf.freeHead = PageID(binary.LittleEndian.Uint32(head.data[0:4]))
		pf.metaDirt = true
		for i := range head.data {
			head.data[i] = 0
		}
		head.dirty = true
		pf.stats.Allocs++
		return head, nil
	}
	id = PageID(pf.numPages)
	pf.numPages++
	pf.metaDirt = true
	pf.stats.Allocs++

	raw := pf.takeBuf()
	clear(raw)
	return pf.newPage(id, raw, true)
}

// Free returns page id to the free list. The page must not be pinned.
func (pf *File) Free(id PageID) error {
	if id == NilPage {
		return fmt.Errorf("pagefile: Free(0): meta page cannot be freed")
	}
	pf.mu.Lock()
	defer pf.mu.Unlock()
	p, err := pf.getLocked(id)
	if err != nil {
		return err
	}
	if p.pins > 1 {
		p.pins--
		return fmt.Errorf("pagefile: Free(%d): page still pinned", id)
	}
	binary.LittleEndian.PutUint32(p.data[0:4], uint32(pf.freeHead))
	p.dirty = true
	pf.freeHead = id
	pf.metaDirt = true
	pf.stats.Frees++
	p.pins--
	return nil
}

// Get returns the page with the given id, pinned. The caller must Release
// it when done.
func (pf *File) Get(id PageID) (*Page, error) {
	if id == NilPage {
		return nil, fmt.Errorf("pagefile: Get(0): meta page is not client-accessible")
	}
	pf.mu.Lock()
	defer pf.mu.Unlock()
	return pf.getLocked(id)
}

func (pf *File) getLocked(id PageID) (*Page, error) {
	if p, ok := pf.cache[id]; ok {
		p.pins++
		pf.lruTouch(p)
		pf.stats.Hits++
		return p, nil
	}
	pf.stats.Misses++
	raw, err := pf.readPage(id)
	if err != nil {
		return nil, err
	}
	return pf.newPage(id, raw, false)
}

// Release unpins p. Dirty pages stay cached and are written back on
// eviction or Flush.
func (pf *File) Release(p *Page) {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if p.pins <= 0 {
		panic("pagefile: Release of unpinned page")
	}
	p.pins--
}

// insertCache adds p to the pool, evicting the least recently used
// unpinned page if the pool is full. An evicted page gives up its
// buffer for reuse: nobody holds it (a Page is untouchable after
// Release), and a stale holder now faults on nil instead of reading
// another page's bytes.
func (pf *File) insertCache(p *Page) error {
	for len(pf.cache) >= pf.cacheCap {
		victim := pf.lruTail
		for victim != nil && victim.pins > 0 {
			victim = victim.prev
		}
		if victim == nil {
			// Everything is pinned; let the pool grow rather than fail.
			break
		}
		if victim.dirty {
			if err := pf.writePage(victim.id, victim.data); err != nil {
				return err
			}
			victim.dirty = false
		}
		pf.lruRemove(victim)
		delete(pf.cache, victim.id)
		pf.putBuf(victim.buf)
		victim.buf, victim.data = nil, nil
		pf.stats.Evictions++
	}
	pf.cache[p.id] = p
	pf.lruPush(p)
	return nil
}

// lruPush inserts p at the head (most recently used).
func (pf *File) lruPush(p *Page) {
	p.prev = nil
	p.next = pf.lruHead
	if pf.lruHead != nil {
		pf.lruHead.prev = p
	}
	pf.lruHead = p
	if pf.lruTail == nil {
		pf.lruTail = p
	}
}

func (pf *File) lruRemove(p *Page) {
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		pf.lruHead = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		pf.lruTail = p.prev
	}
	p.prev, p.next = nil, nil
}

func (pf *File) lruTouch(p *Page) {
	pf.lruRemove(p)
	pf.lruPush(p)
}

// Flush writes every dirty page and the meta page to disk.
func (pf *File) Flush() error {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	return pf.flushLocked()
}

func (pf *File) flushLocked() error {
	for _, p := range pf.cache {
		if p.dirty {
			if err := pf.writePage(p.id, p.data); err != nil {
				return err
			}
			p.dirty = false
		}
	}
	if pf.metaDirt {
		if err := pf.writeMeta(); err != nil {
			return err
		}
	}
	return nil
}

// Sync flushes and then fsyncs the underlying file.
func (pf *File) Sync() error {
	if err := pf.Flush(); err != nil {
		return err
	}
	return pf.f.Sync()
}

// Close flushes and closes the file. The File must not be used afterwards.
func (pf *File) Close() error {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if pf.closed {
		return nil
	}
	pf.closed = true
	if err := pf.flushLocked(); err != nil {
		pf.f.Close()
		return err
	}
	return pf.f.Close()
}

// Path returns the file system path of the pagefile.
func (pf *File) Path() string { return pf.path }
