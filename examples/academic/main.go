// Academic: load a generated LUBM-style university data set and answer
// the kinds of questions the paper's LUBM evaluation (§5.2.2) poses —
// including the object-bound, property-unbound queries that motivate
// sextuple indexing.
package main

import (
	"fmt"
	"log"

	"hexastore"
	"hexastore/internal/lubm"
)

func main() {
	// Generate a two-university data set and bulk-load it.
	b := hexastore.NewBuilder(nil)
	cfg := lubm.Config{Universities: 2, Seed: 42}
	cfg.Generate(func(t hexastore.Triple) bool {
		b.AddTriple(t)
		return true
	})
	st := b.Build()
	fmt.Printf("loaded %d triples about %d resources\n\n", st.Len(), st.Dictionary().Len())

	// LQ1-style: who is related to Course10, in any way? One walk of
	// the ops index — no property enumeration, no unions.
	course10, _ := st.Dictionary().Lookup(lubm.Course(10))
	fmt.Println("Everyone related to Course10 (any property):")
	n := 0
	st.Head(hexastore.OPS, course10).Range(
		func(p hexastore.ID, subjects hexastore.View) bool {
			prop := st.Dictionary().MustDecode(p)
			fmt.Printf("  via %-28s %d people\n", prop, subjects.Len())
			n += subjects.Len()
			return true
		})
	fmt.Printf("  total: %d\n\n", n)

	// LQ4-style as a SPARQL join: students taking a course taught by
	// their own advisor.
	res, err := hexastore.Query(st, `
		SELECT DISTINCT ?student ?course WHERE {
			?student <lubm:advisor> ?prof .
			?prof <lubm:teacherOf> ?course .
			?student <lubm:takesCourse> ?course
		} LIMIT 5`)
	if err != nil {
		log.Fatal(err)
	}
	res.SortRows()
	fmt.Println("Students taking a course taught by their advisor (first 5):")
	for _, row := range res.Rows {
		fmt.Printf("  %s takes %s\n", row["student"], row["course"])
	}

	// LQ5-style: degree-holders from University0, grouped by degree.
	u0, _ := st.Dictionary().Lookup(lubm.University(0))
	fmt.Println("\nDegrees awarded by University0:")
	for _, dp := range lubm.DegreeProps {
		p, ok := st.Dictionary().Lookup(dp)
		if !ok {
			continue
		}
		holders := st.Subjects(p, u0)
		fmt.Printf("  %-36s %d holders\n", dp, holders.Len())
	}

	// Path expression (§4.3): advisee —advisor→ professor —teacherOf→
	// course: every course reachable through an advisor.
	eng := hexastore.NewEngine(st)
	advisor, _ := st.Dictionary().Lookup(lubm.PropAdvisor)
	teacherOf, _ := st.Dictionary().Lookup(lubm.PropTeacherOf)
	courses := eng.PathEndpoints([]hexastore.ID{advisor, teacherOf})
	fmt.Printf("\ncourses reachable via an advisor (path advisor/teacherOf): %d\n",
		courses.Len())
}
