// Quickstart: build a small Hexastore, run statement patterns and a
// SPARQL-subset query, and inspect the sextuple index statistics.
package main

import (
	"fmt"
	"log"
	"os"

	"hexastore"
)

func main() {
	b := hexastore.NewBuilder(nil)

	// The paper's Figure 1 sample data: academic facts about four people.
	facts := [][3]string{
		{"ID1", "type", "FullProfessor"},
		{"ID1", "teacherOf", "AI"},
		{"ID1", "bachelorFrom", "MIT"},
		{"ID1", "mastersFrom", "Cambridge"},
		{"ID1", "phdFrom", "Yale"},
		{"ID2", "type", "AssocProfessor"},
		{"ID2", "worksFor", "MIT"},
		{"ID2", "teacherOf", "DataBases"},
		{"ID2", "bachelorsFrom", "Yale"},
		{"ID2", "phdFrom", "Stanford"},
		{"ID3", "type", "GradStudent"},
		{"ID3", "advisor", "ID2"},
		{"ID3", "teachingAssist", "AI"},
		{"ID3", "bachelorsFrom", "Stanford"},
		{"ID3", "mastersFrom", "Princeton"},
		{"ID4", "type", "GradStudent"},
		{"ID4", "advisor", "ID1"},
		{"ID4", "takesCourse", "DataBases"},
		{"ID4", "bachelorsFrom", "Columbia"},
	}
	for _, f := range facts {
		b.AddTriple(hexastore.T(
			hexastore.IRI(f[0]), hexastore.IRI(f[1]), hexastore.IRI(f[2])))
	}
	st := b.Build()
	fmt.Printf("loaded %d triples\n\n", st.Len())

	// Statement pattern: everything about ID2 (subject-bound, spo index).
	fmt.Println("All facts about ID2:")
	id2, _ := st.Dictionary().Lookup(hexastore.IRI("ID2"))
	if err := st.DecodeMatch(id2, hexastore.None, hexastore.None,
		func(t hexastore.Triple) bool {
			fmt.Printf("  %s\n", t)
			return true
		}); err != nil {
		log.Fatal(err)
	}

	// The paper's first Figure 1(b) query: what relationship does ID2
	// have to MIT? (subject- and object-bound — the sop index.)
	run(st, "Relationship of ID2 to MIT",
		`SELECT ?property WHERE { <ID2> ?property <MIT> }`)

	// The second Figure 1(b) query: people with the same relationship
	// to Stanford as ID1 has to Yale.
	run(st, "Same relationship to Stanford as ID1 has to Yale",
		`SELECT ?person ?property WHERE {
			<ID1> ?property <Yale> .
			?person ?property <Stanford>
		}`)

	// Index statistics — the §4.1 space accounting.
	stats := st.Stats()
	fmt.Printf("index statistics: %d headers, %d vector entries, %d list ids\n",
		stats.Headers, stats.VectorEntries, stats.ListEntries)
	fmt.Printf("space expansion over a triples table: %.2f× (worst case 5×)\n",
		stats.ExpansionFactor())
}

func run(st *hexastore.Store, title, q string) {
	res, err := hexastore.Query(st, q)
	if err != nil {
		fmt.Fprintf(os.Stderr, "query failed: %v\n", err)
		os.Exit(1)
	}
	res.SortRows()
	fmt.Printf("\n%s:\n", title)
	for _, row := range res.Rows {
		for _, v := range res.Vars {
			fmt.Printf("  ?%s = %s", v, row[v])
		}
		fmt.Println()
	}
}
