// Pathquery demonstrates §4.3 of the paper: evaluating path expressions
// without pre-materializing them. A path query follows a chain of
// properties — here "who is advised by someone who teaches course X" —
// which requires subject-object joins at every internal node.
//
// Thanks to the pso and pos indices, the Hexastore renders the first of
// the n-1 joins in a length-n path as a linear merge-join and the rest
// as sort-merge joins, with no precalculated path tables.
package main

import (
	"fmt"
	"log"

	"hexastore"
)

func main() {
	bld := hexastore.NewBuilder(nil)
	iri := hexastore.IRI

	// A small org chart: employees report to managers, managers lead
	// departments, departments belong to divisions.
	reports := [][2]string{
		{"ann", "mia"}, {"ben", "mia"}, {"cal", "noa"}, {"dee", "noa"}, {"eli", "ovi"},
	}
	leads := [][2]string{
		{"mia", "engineering"}, {"noa", "research"}, {"ovi", "sales"},
	}
	belongs := [][2]string{
		{"engineering", "product-division"},
		{"research", "product-division"},
		{"sales", "gtm-division"},
	}
	for _, r := range reports {
		bld.AddTriple(hexastore.T(iri(r[0]), iri("reportsTo"), iri(r[1])))
	}
	for _, l := range leads {
		bld.AddTriple(hexastore.T(iri(l[0]), iri("leadsDept"), iri(l[1])))
	}
	for _, b := range belongs {
		bld.AddTriple(hexastore.T(iri(b[0]), iri("inDivision"), iri(b[1])))
	}

	st := bld.Build()
	eng := hexastore.NewEngine(st)
	dict := st.Dictionary()

	// Path expression: employee --reportsTo--> manager --leadsDept-->
	// department --inDivision--> division. PathEndpoints returns the
	// sorted set of path end nodes; PathPairs streams (start, end).
	props := []hexastore.ID{}
	for _, p := range []string{"reportsTo", "leadsDept", "inDivision"} {
		id, ok := dict.Lookup(iri(p))
		if !ok {
			log.Fatalf("property %s missing", p)
		}
		props = append(props, id)
	}

	fmt.Println("Divisions reachable from any employee via reportsTo/leadsDept/inDivision:")
	ends := eng.PathEndpoints(props)
	ends.Range(func(id hexastore.ID) bool {
		term, err := dict.Decode(id)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s\n", term.Value)
		return true
	})

	fmt.Println("\nEmployee → division pairs:")
	eng.PathPairs(props, func(start, end hexastore.ID) bool {
		s, err := dict.Decode(start)
		if err != nil {
			log.Fatal(err)
		}
		e, err := dict.Decode(end)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-4s → %s\n", s.Value, e.Value)
		return true
	})

	// Reachability over every property: the transitive neighbourhood of
	// a resource, bounded by hop count (§4.3 discusses why computing all
	// path expressions offline is infeasible; online traversal is not).
	annID, _ := dict.Lookup(iri("ann"))
	fmt.Println("\nEverything reachable from ann within 3 hops:")
	eng.Reachable(annID, 3).Range(func(id hexastore.ID) bool {
		term, err := dict.Decode(id)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s\n", term.Value)
		return true
	})
}
