package bench

import (
	"fmt"
	"os"
	"path/filepath"

	"hexastore/internal/core"
	"hexastore/internal/dictionary"
	"hexastore/internal/disk"
	"hexastore/internal/lubm"
	"hexastore/internal/triplestore"
)

// SpaceFigureIDs names the index-space figures RunSpace produces.
var SpaceFigureIDs = []string{"space01"}

// RunSpace produces the space01 figure: bytes per triple of the memory
// backend (the packed layout measured by core.Store.IndexBytes, against
// core.EstimateRawIndexBytes' model of the paper's shared-list layout),
// the disk backend (raw vs compressed B+-tree leaves, measured as on-disk
// file bytes), and the flat triples-table baseline, over growing LUBM
// prefixes — plus the memory and disk compression ratios as their own
// series. This is the repository's answer to the paper's §4.1 space
// analysis: the acknowledged worst-case five-fold expansion, estimated,
// and then halved (or better) by the delta+varint block layer.
func RunSpace(cfg Config, progress func(string)) ([]*Figure, error) {
	cfg = cfg.withDefaults()
	data := lubm.Config{Universities: cfg.LUBMUniversities, Seed: cfg.Seed}.GenerateAll()

	dict := dictionary.New()
	encoded := core.EncodeTriples(dict, data, cfg.Workers)

	fig := &Figure{
		ID:     "space01",
		Title:  "Index bytes per triple: block-compressed vs raw layouts",
		YLabel: "bytes/triple (ratio series: x)",
	}
	addPoint := func(series string, triples int, v float64) {
		for i := range fig.Series {
			if fig.Series[i].Name == series {
				fig.Series[i].Points = append(fig.Series[i].Points, Point{Triples: triples, Value: v})
				return
			}
		}
		fig.Series = append(fig.Series, Series{Name: series, Points: []Point{{Triples: triples, Value: v}}})
	}

	tmp, err := os.MkdirTemp("", "hexbench-space")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	run := 0
	for _, n := range prefixSizes(len(encoded), cfg.Steps) {
		if progress != nil {
			progress(fmt.Sprintf("space: prefix of %d triples", n))
		}

		// Memory backend: the packed store, and the paper's layout as the
		// cost model prices the same content.
		b := core.NewBuilder(dict)
		b.AddAll(encoded[:n])
		st := b.BuildParallel(cfg.Workers)
		triples := st.Len()
		packed := st.IndexStats().BytesPerTriple()
		raw := float64(core.EstimateRawIndexBytes(st.Stats())) / float64(triples)
		addPoint("Memory raw (estimate)", triples, raw)
		addPoint("Memory compressed", triples, packed)
		if packed > 0 {
			addPoint("Memory ratio", triples, raw/packed)
		}

		// Disk backend, both leaf formats, measured as file bytes.
		var diskBytes [2]float64
		for i, uncompressed := range []bool{true, false} {
			run++
			dir := filepath.Join(tmp, fmt.Sprintf("d%d", run))
			st, derr := disk.Create(dir, disk.Options{Uncompressed: uncompressed})
			if derr != nil {
				return nil, derr
			}
			if derr := st.BulkLoadParallel(encoded[:n], cfg.Workers); derr != nil {
				st.Close()
				return nil, derr
			}
			// Close before measuring: buffered pages reach the file on
			// the closing flush (a compressed store often fits its whole
			// tree set in the buffer pool until then).
			if derr := st.Close(); derr != nil {
				return nil, derr
			}
			size, derr := st.SizeBytes()
			if derr != nil {
				return nil, derr
			}
			diskBytes[i] = float64(size) / float64(triples)
			os.RemoveAll(dir)
		}
		addPoint("Disk raw", triples, diskBytes[0])
		addPoint("Disk compressed", triples, diskBytes[1])
		if diskBytes[1] > 0 {
			addPoint("Disk ratio", triples, diskBytes[0]/diskBytes[1])
		}

		// Flat triples-table baseline (the paper's "conventional
		// solution"): its own SizeBytes estimate.
		base := triplestore.New(dict)
		for _, t := range encoded[:n] {
			base.Add(t[0], t[1], t[2])
		}
		addPoint("Baseline", triples, float64(base.SizeBytes())/float64(triples))
	}
	return []*Figure{fig}, nil
}
