package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"hexastore/internal/btree"
	"hexastore/internal/core"
	"hexastore/internal/dictionary"
	"hexastore/internal/graph"
	"hexastore/internal/idlist"
	"hexastore/internal/pagefile"
	"hexastore/internal/rdf"
)

// ladderBudget is how long each leaf measurement repeats its loop: long
// enough that timer resolution and a stray preemption do not show.
const ladderBudget = 30 * time.Millisecond

// perUnit runs body, which processes units items per call, until
// ladderBudget has passed, and returns nanoseconds per item.
func perUnit(units int, body func()) float64 {
	if units == 0 {
		return 0
	}
	start, calls := time.Now(), 0
	for time.Since(start) < ladderBudget {
		body()
		calls++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls*units)
}

// ladders measures the leaf layers on inputs the traced stream touched:
// the candidate lists its patterns fetched, the terms and ids in them,
// the data set's own lines, and (disk workload) a B+-tree of the store's
// spo keys behind a small buffer pool.
func ladders(m metricSet, cfg runConfig, run string, ds dataset, be *backend, ctr *graphCounters) error {
	sorted, ok := graph.AsSortedSource(be.g)
	if !ok {
		return fmt.Errorf("ladders: %T has no sorted lists", be.g)
	}
	patterns := make([][3]graph.ID, 0, len(ctr.patterns))
	for p := range ctr.patterns {
		patterns = append(patterns, p)
	}
	slices.SortFunc(patterns, func(a, b [3]graph.ID) int { return slices.Compare(a[:], b[:]) })

	// idlist: the compressed form of every fetched list.
	var (
		lists   []idlist.Compressed
		cols    [][]graph.ID // every other id: a binding column to merge against the list
		ids     []graph.ID   // all lists' ids
		nBytes  int
		nCol    int
		nSeeks  int
		scratch []graph.ID
	)
	for _, p := range patterns {
		l, err := sorted.AppendSortedList(nil, p[0], p[1], p[2])
		if err != nil {
			return err
		}
		if len(l) == 0 {
			continue
		}
		c := idlist.Compress(l)
		lists = append(lists, c)
		col := make([]graph.ID, 0, len(l)/2+1)
		for i := 0; i < len(l); i += 2 {
			col = append(col, l[i])
		}
		cols = append(cols, col)
		ids = append(ids, l...)
		nBytes += c.SizeBytes()
		nCol += len(col)
		nSeeks += (len(col) + 1) / 2
	}
	if len(ids) > 0 {
		m["idlist.bytes_per_id"] = float64(nBytes) / float64(len(ids))
		m["idlist.decode_ns_per_id"] = perUnit(len(ids), func() {
			for _, c := range lists {
				scratch = c.View().AppendTo(scratch[:0])
			}
		})
		m["idlist.seekge_ns"] = perUnit(nSeeks, func() {
			for i, c := range lists {
				it := c.Iter()
				col := cols[i]
				for j := 0; j < len(col); j += 2 {
					it.SeekGE(col[j])
				}
			}
		})
		m["idlist.mergefilter_ns_per_id"] = perUnit(nCol, func() {
			for i, c := range lists {
				idlist.MergeFilterView(cols[i], c.View(), func(int) {})
			}
		})
	}

	// dictionary: the store's own, on ids and terms the stream met.
	dict := be.g.Dictionary()
	var consts []rdf.Term
	for _, p := range patterns {
		for _, id := range p {
			if id != graph.None {
				if t, err := dict.Decode(id); err == nil {
					consts = append(consts, t)
				}
			}
		}
	}
	m["dictionary.lookup_ns"] = perUnit(len(consts), func() {
		for _, t := range consts {
			dict.Lookup(t)
		}
	})
	m["dictionary.decode_ns"] = perUnit(len(ids), func() {
		for _, id := range ids {
			dict.Decode(id) //nolint:errcheck // ids came from the store
		}
	})
	if n := dict.Len(); n > 0 {
		m["dictionary.bytes_per_term"] = float64(dict.SizeBytes()) / float64(n)
	}

	// rdf and dictionary encode: the head of the data set file.
	const head = 50000
	f, err := os.Open(ds.Path)
	if err != nil {
		return err
	}
	defer f.Close()
	rd := rdf.NewReader(f)
	triples := make([]rdf.Triple, 0, head)
	start := time.Now()
	for len(triples) < head {
		t, err := rd.Read()
		if err != nil {
			break // a data set smaller than head: measure what there is
		}
		triples = append(triples, t)
	}
	if len(triples) > 0 {
		m["rdf.parse_ns_per_triple"] = float64(time.Since(start).Nanoseconds()) / float64(len(triples))
		fresh := dictionary.New()
		start = time.Now()
		for _, t := range triples {
			fresh.EncodeTriple(t)
		}
		m["dictionary.encode_ns_per_term"] = float64(time.Since(start).Nanoseconds()) / float64(3*len(triples))
	}

	if be.mem != nil {
		m["core.build_s"] = be.buildS
		stats, is := be.mem.Stats(), be.mem.IndexStats()
		m["core.index_bytes_per_triple"] = is.BytesPerTriple()
		m["core.expansion_factor"] = stats.ExpansionFactor()
		if is.Compressed && is.Bytes > 0 {
			m["core.compression_ratio"] = float64(core.EstimateRawIndexBytes(stats)) / float64(is.Bytes)
		}
	}
	if be.dsk != nil {
		m["disk.bulkload_s"] = be.buildS
		if size, err := be.dsk.SizeBytes(); err == nil && be.dsk.Len() > 0 {
			m["disk.bytes_per_triple"] = float64(size) / float64(be.dsk.Len())
		}
		if err := pageLadder(m, run, be, patterns); err != nil {
			return err
		}
	}
	return nil
}

// pageLadder builds a B+-tree of the store's spo keys in a pagefile of its
// own, behind a pool far smaller than the tree, and measures prefix scans
// and page fetches on it.
func pageLadder(m metricSet, run string, be *backend, patterns [][3]graph.ID) error {
	keys := make([]btree.Key, 0, be.dsk.Len())
	if err := be.dsk.Match(graph.None, graph.None, graph.None, func(s, p, o graph.ID) bool {
		keys = append(keys, btree.Key{uint64(s), uint64(p), uint64(o)})
		return true
	}); err != nil {
		return err
	}
	slices.SortFunc(keys, btree.Compare)
	pf, err := pagefile.Create(filepath.Join(run, "ladder.pages"), pagefile.Options{CacheSize: 64})
	if err != nil {
		return err
	}
	defer pf.Close()
	tree := btree.New(pf, 0, 1)
	tree.SetCompression(true)
	if err := tree.BulkBuild(keys); err != nil {
		return err
	}
	if err := pf.Flush(); err != nil {
		return err
	}

	// Prefix scans over the (s, p) pairs the stream's patterns bound, or,
	// failing those, over a spread of the keys themselves.
	var prefixes [][2]uint64
	for _, p := range patterns {
		if p[0] != graph.None && p[1] != graph.None {
			prefixes = append(prefixes, [2]uint64{uint64(p[0]), uint64(p[1])})
		}
	}
	for i := 0; len(prefixes) < 256 && i < len(keys); i += len(keys)/256 + 1 {
		prefixes = append(prefixes, [2]uint64{keys[i][0], keys[i][1]})
	}
	var scanned int
	var scanErr error
	s0 := pf.Stats()
	start := time.Now()
	for _, p := range prefixes {
		if err := tree.ScanPrefix2(p[0], p[1], func(btree.Key) bool { scanned++; return true }); err != nil {
			scanErr = err
		}
	}
	took := time.Since(start)
	s1 := pf.Stats()
	if scanErr != nil {
		return scanErr
	}
	if scanned > 0 {
		m["btree.scan_ns_per_key"] = float64(took.Nanoseconds()) / float64(scanned)
	}
	m["btree.pages_per_lookup"] = float64(s1.Hits-s0.Hits+s1.Misses-s0.Misses) / float64(len(prefixes))

	// One resident page fetched repeatedly, then every page in turn
	// through a pool that cannot hold them.
	var getErr error
	get := func(id pagefile.PageID) {
		p, err := pf.Get(id)
		if err != nil {
			getErr = err
			return
		}
		pf.Release(p)
	}
	get(1)
	m["pagefile.get_hit_ns"] = perUnit(1, func() { get(1) })
	s0 = pf.Stats()
	start = time.Now()
	for id := 1; id < pf.NumPages(); id++ {
		get(pagefile.PageID(id))
	}
	took = time.Since(start)
	s1 = pf.Stats()
	if getErr != nil {
		return getErr
	}
	if misses := s1.Misses - s0.Misses; misses > 0 {
		m["pagefile.get_miss_us"] = micros(took) / float64(misses)
	}
	return nil
}
