// Package barton generates a synthetic library-catalog data set standing
// in for the MIT Barton Libraries dump used in the Hexastore paper's
// evaluation (§5.1.1). The real dump (61M triples, 285 unique
// properties, highly irregular) is not redistributable here; this
// generator reproduces the structural features the paper's seven Barton
// queries (BQ1–BQ7) exercise:
//
//   - a dominant Type property whose object distribution is skewed, with
//     Type: Text the heavy class (BQ1, BQ2);
//   - a Language property with a French minority (BQ4);
//   - an Origin property with a DLC subpopulation (BQ5);
//   - Records links from catalog records to other subjects whose Type
//     supports the BQ5/BQ6 inference step;
//   - Point: "end" resources carrying Encoding and Type: Date (BQ7);
//   - a long Zipf-distributed tail of rare properties, 285 in total,
//     with multi-valued attributes — "the vast majority of properties
//     appear infrequently" (§5.1.1).
//
// The substitution holds because the queries bind exactly these
// properties and objects, so preserving the cardinality profile
// preserves the performance shape.
package barton

import (
	"fmt"
	"math"
	"math/rand"

	"hexastore/internal/rdf"
)

// Namespace prefixes all generated IRIs.
const Namespace = "barton:"

// TotalProperties is the number of distinct properties the generator can
// emit, matching the paper's Barton count.
const TotalProperties = 285

// Named properties exercised by the benchmark queries.
var (
	PropType      = rdf.NewIRI(Namespace + "Type")
	PropLanguage  = rdf.NewIRI(Namespace + "Language")
	PropOrigin    = rdf.NewIRI(Namespace + "Origin")
	PropRecords   = rdf.NewIRI(Namespace + "Records")
	PropPoint     = rdf.NewIRI(Namespace + "Point")
	PropEncoding  = rdf.NewIRI(Namespace + "Encoding")
	PropTitle     = rdf.NewIRI(Namespace + "Title")
	PropAuthor    = rdf.NewIRI(Namespace + "Author")
	PropSubject   = rdf.NewIRI(Namespace + "Subject")
	PropDate      = rdf.NewIRI(Namespace + "Date")
	PropFormat    = rdf.NewIRI(Namespace + "Format")
	PropPublisher = rdf.NewIRI(Namespace + "Publisher")
)

// Objects the queries bind.
var (
	TypeText    = rdf.NewIRI(Namespace + "Text")
	TypeDate    = rdf.NewIRI(Namespace + "Date")
	TypeImage   = rdf.NewIRI(Namespace + "Image")
	TypeSound   = rdf.NewIRI(Namespace + "Sound")
	TypeMap     = rdf.NewIRI(Namespace + "Map")
	TypeNotated = rdf.NewIRI(Namespace + "NotatedMusic")

	LangFrench  = rdf.NewLiteral("French")
	LangEnglish = rdf.NewLiteral("English")
	LangGerman  = rdf.NewLiteral("German")
	LangSpanish = rdf.NewLiteral("Spanish")

	OriginDLC   = rdf.NewLiteral("DLC")
	OriginOther = rdf.NewLiteral("OCLC")

	PointEnd   = rdf.NewLiteral("end")
	PointStart = rdf.NewLiteral("start")

	EncodingMarc = rdf.NewLiteral("marc8")
)

// typeClasses with cumulative weights: Text dominates, as in the catalog.
var typeClasses = []struct {
	term   rdf.Term
	weight int
}{
	{TypeText, 55},
	{TypeNotated, 12},
	{TypeSound, 10},
	{TypeImage, 9},
	{TypeMap, 7},
	{TypeDate, 7},
}

var languages = []struct {
	term   rdf.Term
	weight int
}{
	{LangEnglish, 70},
	{LangFrench, 12},
	{LangGerman, 10},
	{LangSpanish, 8},
}

// TailProperty returns the i-th rare ("tail") property; i ranges over
// [0, TotalProperties-12) — the 12 named properties above complete the
// 285 total.
func TailProperty(i int) rdf.Term {
	return rdf.NewIRI(fmt.Sprintf("%sprop%d", Namespace, i))
}

// Record returns the i-th catalog record resource.
func Record(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("%srecord%d", Namespace, i)) }

// Config parameterizes the generator.
type Config struct {
	Records int   // catalog records to generate
	Seed    int64 // rng seed; generation is deterministic per seed
}

// DefaultConfig generates a laptop-scale catalog (≈ 1M triples at
// 120k records).
func DefaultConfig() Config { return Config{Records: 120_000, Seed: 1} }

// Generate emits the data set in a fixed deterministic order, stopping
// early if emit returns false. Roughly 8–9 triples are produced per
// record.
func (c Config) Generate(emit func(rdf.Triple) bool) {
	rng := rand.New(rand.NewSource(c.Seed))
	stopped := false
	t := func(s, p, o rdf.Term) {
		if stopped {
			return
		}
		if !emit(rdf.T(s, p, o)) {
			stopped = true
		}
	}
	pick := func(classes []struct {
		term   rdf.Term
		weight int
	}) rdf.Term {
		total := 0
		for _, c := range classes {
			total += c.weight
		}
		r := rng.Intn(total)
		for _, c := range classes {
			if r < c.weight {
				return c.term
			}
			r -= c.weight
		}
		return classes[len(classes)-1].term
	}

	for i := 0; i < c.Records && !stopped; i++ {
		rec := Record(i)
		class := pick(typeClasses)
		t(rec, PropType, class)
		t(rec, PropTitle, rdf.NewLiteral(fmt.Sprintf("Title of record %d", i)))

		if class == TypeDate {
			// Date resources carry Point and Encoding (BQ7's chain).
			if rng.Intn(2) == 0 {
				t(rec, PropPoint, PointEnd)
			} else {
				t(rec, PropPoint, PointStart)
			}
			t(rec, PropEncoding, EncodingMarc)
			continue // date resources are small; no further attributes
		}

		t(rec, PropLanguage, pick(languages))

		if rng.Intn(10) < 3 { // 30% DLC origin
			t(rec, PropOrigin, OriginDLC)
		} else if rng.Intn(2) == 0 {
			t(rec, PropOrigin, OriginOther)
		}

		// Records links point at earlier records (so the linked subject
		// exists and has a Type — the BQ5 inference source).
		if i > 0 && rng.Intn(10) < 4 {
			t(rec, PropRecords, Record(rng.Intn(i)))
		}

		// Multi-valued authors and subjects.
		nAuthors := 1 + rng.Intn(3)
		for k := 0; k < nAuthors; k++ {
			t(rec, PropAuthor, rdf.NewLiteral(fmt.Sprintf("Author %d", rng.Intn(c.Records/10+10))))
		}
		if rng.Intn(2) == 0 {
			t(rec, PropSubject, rdf.NewLiteral(fmt.Sprintf("Subject %d", rng.Intn(200))))
		}
		if rng.Intn(3) == 0 {
			t(rec, PropPublisher, rdf.NewLiteral(fmt.Sprintf("Publisher %d", rng.Intn(500))))
		}
		if rng.Intn(4) == 0 {
			t(rec, PropDate, rdf.NewLiteral(fmt.Sprintf("%d", 1800+rng.Intn(220))))
		}
		if rng.Intn(4) == 0 {
			t(rec, PropFormat, rdf.NewLiteral("print"))
		}

		// Zipfian tail: each record gets 0–3 rare properties; property
		// rank follows an approximate power law so most of the 285
		// appear infrequently.
		nTail := rng.Intn(4)
		for k := 0; k < nTail; k++ {
			rank := zipfRank(rng, TotalProperties-12)
			t(rec, TailProperty(rank), rdf.NewLiteral(fmt.Sprintf("value %d", rng.Intn(50))))
		}
	}
}

// GenerateAll materializes the whole data set.
func (c Config) GenerateAll() []rdf.Triple {
	var out []rdf.Triple
	c.Generate(func(t rdf.Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// zipfRank draws a rank in [0, n) with probability ∝ 1/(rank+1),
// approximated by inverse transform over the harmonic series. Low ranks
// (common properties) dominate; high ranks are rare.
func zipfRank(rng *rand.Rand, n int) int {
	// Inverse CDF of 1/x on [1, n+1): x = (n+1)^u.
	u := rng.Float64()
	x := math.Pow(float64(n+1), u)
	rank := int(x) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return rank
}
