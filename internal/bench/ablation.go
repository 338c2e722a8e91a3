package bench

import (
	"fmt"
	"os"
	"sort"

	"hexastore/internal/core"
	"hexastore/internal/cracking"
	"hexastore/internal/disk"
	"hexastore/internal/kowari"
	"hexastore/internal/lubm"
	"hexastore/internal/queries"
)

// AblationIDs lists the extension-subsystem comparisons RunAblations can
// regenerate (DESIGN.md §5, extension rows).
var AblationIDs = []string{"disk", "cracking", "kowari"}

// RunAblations produces prefix-sweep tables for the extension
// subsystems: the disk-based Hexastore vs the in-memory store on an
// object-bound lookup, cracking vs eager sorting on a per-property
// workload, and the Kowari cyclic store vs the sextuple store on the
// sorted-subjects operation. The LUBM generator provides the data.
func RunAblations(cfg Config, ids []string, progress func(string)) ([]*Figure, error) {
	cfg = cfg.withDefaults()
	if len(ids) == 0 {
		ids = AblationIDs
	}
	want := map[string]bool{}
	for _, id := range ids {
		found := false
		for _, known := range AblationIDs {
			if id == known {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("bench: unknown ablation %q (known: %v)", id, AblationIDs)
		}
		want[id] = true
	}
	if progress == nil {
		progress = func(string) {}
	}

	data := lubm.Config{Universities: cfg.LUBMUniversities, Seed: cfg.Seed}.GenerateAll()
	sizes := prefixSizes(len(data), cfg.Steps)

	var figs []*Figure
	series := map[string]map[string][]Point{} // ablation id → series name → points
	addPoint := func(id, name string, triples int, v float64) {
		if series[id] == nil {
			series[id] = map[string][]Point{}
		}
		series[id][name] = append(series[id][name], Point{Triples: triples, Value: v})
	}

	for _, n := range sizes {
		prefix := data[:n]
		progress(fmt.Sprintf("ablations: loading %d triples", n))
		s := queries.Load(prefix)
		lubmIDs := queries.ResolveLUBM(s.Dict)
		triples := s.Hexa.Len()

		var flat [][3]core.ID
		s.Hexa.Match(core.None, core.None, core.None, func(sub, p, o core.ID) bool {
			flat = append(flat, [3]core.ID{sub, p, o})
			return true
		})

		if want["disk"] {
			dir, err := os.MkdirTemp("", "hexablation")
			if err != nil {
				return nil, err
			}
			dst, err := disk.Create(dir, disk.Options{CacheSize: 4096})
			if err != nil {
				os.RemoveAll(dir)
				return nil, err
			}
			if err := dst.BulkLoad(flat); err != nil {
				dst.Close()
				os.RemoveAll(dir)
				return nil, err
			}
			course := lubmIDs.Course10
			addPoint("disk", "Memory", triples, timeBest(cfg.Repeats, func() {
				s.Hexa.Match(core.None, core.None, course, func(_, _, _ core.ID) bool { return true })
			}))
			addPoint("disk", "Disk", triples, timeBest(cfg.Repeats, func() {
				dst.Match(disk.None, disk.None, course, func(_, _, _ disk.ID) bool { return true })
			}))
			dst.Close()
			os.RemoveAll(dir)
		}

		if want["cracking"] {
			props := s.Hexa.HeadIDs(core.PSO)
			pso := make([]cracking.Triple, 0, len(flat))
			for _, t := range flat {
				pso = append(pso, cracking.Triple{t[1], t[0], t[2]})
			}
			addPoint("cracking", "EagerSort", triples, timeBest(1, func() {
				cp := append([]cracking.Triple(nil), pso...)
				sort.Slice(cp, func(i, j int) bool {
					a, b := cp[i], cp[j]
					if a[0] != b[0] {
						return a[0] < b[0]
					}
					if a[1] != b[1] {
						return a[1] < b[1]
					}
					return a[2] < b[2]
				})
				scanAllSorted(cp, props)
			}))
			addPoint("cracking", "Cracking", triples, timeBest(1, func() {
				col := cracking.NewColumn(append([]cracking.Triple(nil), pso...))
				for _, p := range props {
					col.Scan(p, func(cracking.Triple) bool { return true })
				}
			}))
		}

		if want["kowari"] {
			kb := kowari.NewBuilder(s.Dict)
			for _, t := range flat {
				kb.Add(t[0], t[1], t[2])
			}
			ks := kb.Build()
			p := lubmIDs.TeacherOf
			addPoint("kowari", "HexaPSO", triples, timeBest(cfg.Repeats, func() {
				// The sorted subjects: the pso vector's keys, walked to the end.
				c := s.Hexa.Head(core.PSO, p).Keys()
				subjs := make([]core.ID, 0, c.Len())
				for k, ok := c.Next(); ok; k, ok = c.Next() {
					subjs = append(subjs, k)
				}
			}))
			addPoint("kowari", "KowariPOS", triples, timeBest(cfg.Repeats, func() {
				_ = ks.SubjectsForProperty(p)
			}))
		}
	}

	titles := map[string]string{
		"disk":     "Disk vs memory Hexastore — object-bound lookup (LQ1 shape)",
		"cracking": "Eager sort vs database cracking — first pass over all properties",
		"kowari":   "Sextuple pso vs Kowari cyclic pos — sorted subjects of a property",
	}
	for _, id := range ids {
		fig := &Figure{ID: "ablation-" + id, Title: titles[id], YLabel: "seconds"}
		names := make([]string, 0, len(series[id]))
		for name := range series[id] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fig.Series = append(fig.Series, Series{Name: name, Points: series[id][name]})
		}
		figs = append(figs, fig)
	}
	return figs, nil
}

// scanAllSorted scans every property head of a presorted pso column.
func scanAllSorted(ts []cracking.Triple, props []core.ID) {
	for _, p := range props {
		lo, hi := 0, len(ts)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if ts[mid][0] < p {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		for ; lo < len(ts) && ts[lo][0] == p; lo++ {
			_ = ts[lo]
		}
	}
}
