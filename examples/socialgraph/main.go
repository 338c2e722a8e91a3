// Socialgraph: the paper's §3 motivation — querying relationships
// without specifying them. A small social network is loaded and
// answered with the object-headed indexes no property-oriented store
// provides: "who relates to X at all", "who relates to both X and Y",
// and bounded reachability.
package main

import (
	"fmt"
	"math/rand"

	"hexastore"
)

func main() {
	b := hexastore.NewBuilder(nil)
	dict := b.Dictionary()

	people := make([]hexastore.Term, 200)
	for i := range people {
		people[i] = hexastore.IRI(fmt.Sprintf("person%d", i))
	}
	relations := []hexastore.Term{
		hexastore.IRI("follows"), hexastore.IRI("friendOf"),
		hexastore.IRI("colleagueOf"), hexastore.IRI("mentorOf"),
	}

	rng := rand.New(rand.NewSource(7))
	for i := range people {
		n := 3 + rng.Intn(8)
		for k := 0; k < n; k++ {
			other := rng.Intn(len(people))
			if other == i {
				continue
			}
			b.AddTriple(hexastore.T(
				people[i], relations[rng.Intn(len(relations))], people[other]))
		}
	}
	st := b.Build()
	fmt.Printf("social graph: %d people, %d edges\n\n", len(people), st.Len())

	eng := hexastore.NewEngine(st)
	alice, _ := dict.Lookup(people[0])
	bob, _ := dict.Lookup(people[1])

	// "Who has any relationship to person0?" — one ops walk; a
	// property-table store would visit every relation table.
	fmt.Println("Relations pointing at person0:")
	eng.RelatedResources(alice, func(p, s hexastore.ID) bool {
		fmt.Printf("  %s —%s→ person0\n",
			dict.MustDecode(s).Value, dict.MustDecode(p).Value)
		return true
	})

	// "Who is connected to BOTH person0 and person1 (by anything)?" —
	// a single merge-join of two osp subject vectors (§4.2).
	both := eng.SubjectsRelatedToBothObjects(alice, bob)
	fmt.Printf("\npeople related to both person0 and person1: %d\n", both.Len())
	both.Range(func(s hexastore.ID) bool {
		fmt.Printf("  %s\n", dict.MustDecode(s).Value)
		return true
	})

	// Bounded reachability: person0's network within 2 hops.
	reach := eng.Reachable(alice, 2)
	fmt.Printf("\npeople within 2 hops of person0: %d\n", reach.Len())

	// SPARQL over the graph: mutual follows.
	res, err := hexastore.Query(st, `
		SELECT ?a ?b WHERE {
			?a <follows> ?b .
			?b <follows> ?a
		} LIMIT 5`)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nmutual follows (first %d):\n", len(res.Rows))
	for _, row := range res.Rows {
		fmt.Printf("  %s ⇄ %s\n", row["a"].Value, row["b"].Value)
	}
}
