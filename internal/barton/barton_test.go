package barton

import (
	"reflect"
	"testing"

	"hexastore/internal/core"
	"hexastore/internal/rdf"
)

func smallConfig() Config { return Config{Records: 5000, Seed: 3} }

func TestGenerateIsDeterministic(t *testing.T) {
	a := smallConfig().GenerateAll()
	b := smallConfig().GenerateAll()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two runs with the same config differ")
	}
}

func TestGenerateAllTriplesValid(t *testing.T) {
	for _, tr := range smallConfig().GenerateAll() {
		if !tr.Valid() {
			t.Fatalf("invalid triple generated: %v", tr)
		}
	}
}

func TestStructuralFeaturesForQueries(t *testing.T) {
	stb := core.NewBuilder(nil)
	for _, tr := range smallConfig().GenerateAll() {
		stb.AddTriple(tr)
	}
	st := stb.Build()
	dict := st.Dictionary()
	lookup := func(term rdf.Term) core.ID {
		id, ok := dict.Lookup(term)
		if !ok {
			t.Fatalf("required term %v missing from generated data", term)
		}
		return id
	}

	typeID := lookup(PropType)
	text := lookup(TypeText)
	date := lookup(TypeDate)
	lang := lookup(PropLanguage)
	french := lookup(LangFrench)
	origin := lookup(PropOrigin)
	dlc := lookup(OriginDLC)
	records := lookup(PropRecords)
	point := lookup(PropPoint)
	end := lookup(PointEnd)
	encoding := lookup(PropEncoding)

	// Text must dominate the Type distribution (BQ1/BQ2 selectivity).
	textCount := st.Subjects(typeID, text).Len()
	total := st.Count(core.None, typeID, core.None)
	if textCount*2 < total {
		t.Errorf("Type:Text count %d is under half of %d type triples", textCount, total)
	}

	// French subjects exist but are a minority (BQ4).
	frenchCount := st.Subjects(lang, french).Len()
	langTotal := st.Count(core.None, lang, core.None)
	if frenchCount == 0 || frenchCount*3 > langTotal {
		t.Errorf("French = %d of %d language triples; want non-zero minority", frenchCount, langTotal)
	}

	// DLC ∧ Records subjects exist, and their recorded objects have a
	// Type (the BQ5 inference chain).
	dlcSubjects := st.Subjects(origin, dlc)
	if dlcSubjects.Len() == 0 {
		t.Fatal("no Origin:DLC subjects")
	}
	chain := 0
	dlcSubjects.Range(func(s core.ID) bool {
		st.Objects(s, records).Range(func(obj core.ID) bool {
			if st.Objects(obj, typeID).Len() > 0 {
				chain++
			}
			return true
		})
		return true
	})
	if chain == 0 {
		t.Error("no DLC→Records→Type inference chains")
	}

	// Point:end subjects carry Encoding and Type:Date (BQ7).
	endSubjects := st.Subjects(point, end)
	if endSubjects.Len() == 0 {
		t.Fatal("no Point:end subjects")
	}
	endSubjects.Range(func(s core.ID) bool {
		if st.Objects(s, encoding).Len() == 0 {
			t.Errorf("Point:end subject %d lacks Encoding", s)
			return false
		}
		if !st.Objects(s, typeID).Contains(date) {
			t.Errorf("Point:end subject %d is not Type:Date", s)
			return false
		}
		return true
	})
}

func TestPropertyTailIsZipfian(t *testing.T) {
	stb := core.NewBuilder(nil)
	for _, tr := range smallConfig().GenerateAll() {
		stb.AddTriple(tr)
	}
	st := stb.Build()
	// Many distinct properties, most of them rare.
	nProps := st.Heads(core.PSO)
	if nProps < 50 {
		t.Fatalf("only %d distinct properties generated", nProps)
	}
	rare := 0
	for _, p := range st.HeadIDs(core.PSO) {
		if st.Count(core.None, p, core.None) <= 20 {
			rare++
		}
	}
	if rare*2 < nProps {
		t.Errorf("only %d of %d properties are rare; tail not heavy enough", rare, nProps)
	}
}

func TestTotalPropertiesBound(t *testing.T) {
	stb := core.NewBuilder(nil)
	for _, tr := range (Config{Records: 20000, Seed: 1}).GenerateAll() {
		stb.AddTriple(tr)
	}
	st := stb.Build()
	if n := st.Heads(core.PSO); n > TotalProperties {
		t.Errorf("%d distinct properties exceed the declared %d", n, TotalProperties)
	}
}

func TestGenerateEarlyStop(t *testing.T) {
	n := 0
	smallConfig().Generate(func(rdf.Triple) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("early stop emitted %d, want 5", n)
	}
}

func TestTriplesPerRecordRatio(t *testing.T) {
	n := 0
	cfg := smallConfig()
	cfg.Generate(func(rdf.Triple) bool { n++; return true })
	ratio := float64(n) / float64(cfg.Records)
	if ratio < 4 || ratio > 12 {
		t.Errorf("triples per record = %.1f, want a catalog-like 4–12", ratio)
	}
}
