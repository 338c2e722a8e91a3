// Library: a Longwell-style browsing session over the synthetic Barton
// catalog — the workload behind the paper's Barton queries (§5.2.1).
// Each step is a facet refinement the RDF browser would issue.
package main

import (
	"fmt"
	"sort"

	"hexastore"
	"hexastore/internal/barton"
)

func main() {
	b := hexastore.NewBuilder(nil)
	cfg := barton.Config{Records: 20000, Seed: 7}
	cfg.Generate(func(t hexastore.Triple) bool {
		b.AddTriple(t)
		return true
	})
	st := b.Build()
	dict := st.Dictionary()
	fmt.Printf("catalog: %d triples, %d properties\n\n",
		st.Len(), st.Heads(hexastore.PSO))

	lookup := func(t hexastore.Term) hexastore.ID {
		id, _ := dict.Lookup(t)
		return id
	}

	// Step 1 (BQ1): what kinds of resources are in the catalog? A
	// single walk of Type's pos vector.
	typeID := lookup(barton.PropType)
	fmt.Println("Resource types (BQ1):")
	type kv struct {
		name  string
		count int
	}
	var counts []kv
	st.Head(hexastore.POS, typeID).Range(
		func(o hexastore.ID, subjs hexastore.View) bool {
			counts = append(counts, kv{dict.MustDecode(o).Value, subjs.Len()})
			return true
		})
	sort.Slice(counts, func(i, j int) bool { return counts[i].count > counts[j].count })
	for _, c := range counts {
		fmt.Printf("  %-24s %6d\n", c.name, c.count)
	}

	// Step 2 (BQ2): the user clicks "Text" — which properties do Text
	// resources carry, and how often?
	textSubjects := st.Subjects(typeID, lookup(barton.TypeText))
	fmt.Printf("\nText resources: %d; their properties (BQ2, top 8):\n", textSubjects.Len())
	freq := map[hexastore.ID]int{}
	textSubjects.Range(func(s hexastore.ID) bool {
		st.Head(hexastore.SPO, s).Range(
			func(p hexastore.ID, objs hexastore.View) bool {
				freq[p] += objs.Len()
				return true
			})
		return true
	})
	var fs []kv
	for p, c := range freq {
		fs = append(fs, kv{dict.MustDecode(p).Value, c})
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i].count > fs[j].count })
	for i := 0; i < len(fs) && i < 8; i++ {
		fmt.Printf("  %-24s %6d\n", fs[i].name, fs[i].count)
	}

	// Step 3 (BQ7): the user spots a Point property with value "end"
	// and asks what it means — retrieve Encoding and Type for those
	// resources.
	endSubjects := st.Subjects(lookup(barton.PropPoint), lookup(barton.PointEnd))
	fmt.Printf("\nResources with Point \"end\": %d (BQ7); first three:\n", endSubjects.Len())
	shown := 0
	endSubjects.Range(func(s hexastore.ID) bool {
		enc := st.Objects(s, lookup(barton.PropEncoding))
		typ := st.Objects(s, typeID)
		if enc.Len() > 0 && typ.Len() > 0 {
			fmt.Printf("  %s: encoding=%s type=%s\n",
				dict.MustDecode(s).Value,
				dict.MustDecode(enc.AppendTo(nil)[0]).Value,
				dict.MustDecode(typ.AppendTo(nil)[0]).Value)
			shown++
		}
		return shown < 3
	})
	fmt.Println("  → all are Dates; \"end\" marks end dates.")
}
