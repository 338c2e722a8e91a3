package lubm

import (
	"reflect"
	"testing"

	"hexastore/internal/core"
	"hexastore/internal/rdf"
)

func smallConfig() Config {
	return Config{
		Universities: 3, Seed: 7, DeptsPerUniv: 4,
		UndergradPerDept: 40, GradPerDept: 12, CoursesPerDept: 12,
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	a := smallConfig().GenerateAll()
	b := smallConfig().GenerateAll()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two runs with the same config differ")
	}
	c := Config{Universities: 3, Seed: 8}.GenerateAll()
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical data")
	}
}

func TestGenerateAllTriplesValid(t *testing.T) {
	for _, tr := range smallConfig().GenerateAll() {
		if !tr.Valid() {
			t.Fatalf("invalid triple generated: %v", tr)
		}
	}
}

func TestExactlyEighteenPredicates(t *testing.T) {
	if len(AllProps) != 18 {
		t.Fatalf("AllProps has %d predicates, want 18", len(AllProps))
	}
	declared := make(map[string]bool, len(AllProps))
	for _, p := range AllProps {
		declared[p.Value] = true
	}
	seen := make(map[string]bool)
	for _, tr := range smallConfig().GenerateAll() {
		if !declared[tr.Predicate.Value] {
			t.Fatalf("generator emitted undeclared predicate %v", tr.Predicate)
		}
		seen[tr.Predicate.Value] = true
	}
	for _, p := range AllProps {
		if !seen[p.Value] {
			t.Errorf("predicate %v never emitted", p)
		}
	}
}

func TestQueryAnchorsExist(t *testing.T) {
	stb := core.NewBuilder(nil)
	for _, tr := range smallConfig().GenerateAll() {
		stb.AddTriple(tr)
	}
	st := stb.Build()
	dict := st.Dictionary()
	anchors := []rdf.Term{University(0), Course(10), AssociateProfessor(10)}
	for _, a := range anchors {
		if _, ok := dict.Lookup(a); !ok {
			t.Errorf("anchor resource %v missing from generated data", a)
		}
	}

	// AssociateProfessor10 must have all three degrees and teach
	// something (LQ3–LQ5 depend on it).
	ap, _ := dict.Lookup(AssociateProfessor(10))
	teacherOf, _ := dict.Lookup(PropTeacherOf)
	if st.Objects(ap, teacherOf).Len() == 0 {
		t.Error("AssociateProfessor10 teaches no courses")
	}
	for _, dp := range DegreeProps {
		dpID, ok := dict.Lookup(dp)
		if !ok {
			t.Fatalf("degree predicate %v unused", dp)
		}
		if st.Objects(ap, dpID).Len() == 0 {
			t.Errorf("AssociateProfessor10 lacks %v", dp)
		}
	}

	// Course10 must have people related to it (LQ1).
	c10, _ := dict.Lookup(Course(10))
	related := 0
	st.Match(core.None, core.None, c10, func(_, _, _ core.ID) bool {
		related++
		return true
	})
	if related == 0 {
		t.Error("nothing relates to Course10")
	}

	// University0 must be the object of degree triples (LQ2/LQ5).
	u0, _ := dict.Lookup(University(0))
	degreeEdges := 0
	for _, dp := range DegreeProps {
		dpID, _ := dict.Lookup(dp)
		degreeEdges += st.Subjects(dpID, u0).Len()
	}
	if degreeEdges == 0 {
		t.Error("no degree edges point at University0")
	}
}

func TestAdvisorEdgesPointAtProfessors(t *testing.T) {
	stb := core.NewBuilder(nil)
	for _, tr := range smallConfig().GenerateAll() {
		stb.AddTriple(tr)
	}
	st := stb.Build()
	dict := st.Dictionary()
	advisor, _ := dict.Lookup(PropAdvisor)
	typeID, _ := dict.Lookup(PropType)
	profClasses := map[string]bool{
		ClassFullProfessor.Value:   true,
		ClassAssocProfessor.Value:  true,
		ClassAssistProfessor.Value: true,
	}
	n := 0
	st.Match(core.None, advisor, core.None, func(_, _, prof core.ID) bool {
		n++
		types := st.Objects(prof, typeID)
		if types.Len() != 1 {
			t.Fatalf("advisor target %d has %d types", prof, types.Len())
		}
		class := dict.MustDecode(types.AppendTo(nil)[0])
		if !profClasses[class.Value] {
			t.Fatalf("advisor target %d has class %v", prof, class)
		}
		return true
	})
	if n == 0 {
		t.Fatal("no advisor edges generated")
	}
}

func TestGenerateEarlyStop(t *testing.T) {
	n := 0
	smallConfig().Generate(func(rdf.Triple) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Errorf("early stop emitted %d triples, want 10", n)
	}
}

func TestDefaultConfigScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full default generation in -short mode")
	}
	n := 0
	DefaultConfig().Generate(func(rdf.Triple) bool { n++; return true })
	// Ten universities should produce a non-trivial corpus.
	if n < 100_000 {
		t.Errorf("default config produced only %d triples", n)
	}
}
