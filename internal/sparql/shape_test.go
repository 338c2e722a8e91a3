package sparql

import (
	"bytes"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"hexastore/internal/rdf"
)

// A skel is a query text with its variables and constants left as
// slots, so it can be rendered under any variable names and constants.
// Two renderings differ only in constants and variable names exactly
// when their skels have the same canon.
type skel struct {
	items   []skelItem
	outputs []int // the variable slots the answer names
}

// skelItem is literal text, a variable slot (v >= 0) or a constant slot.
type skelItem struct {
	text    string
	v       int
	isConst bool
}

func (s *skel) lit(text string) { s.items = append(s.items, skelItem{text: text, v: -1}) }
func (s *skel) variable(v int)  { s.items = append(s.items, skelItem{v: v}) }
func (s *skel) constant()       { s.items = append(s.items, skelItem{v: -1, isConst: true}) }

// render writes s with variable slot v named names[v] and the k-th
// constant slot holding consts[k].
func (s *skel) render(names []string, consts []rdf.Term) string {
	var b strings.Builder
	k := 0
	for _, it := range s.items {
		switch {
		case it.v >= 0:
			b.WriteString("?" + names[it.v])
		case it.isConst:
			c := consts[k]
			k++
			switch c.Kind {
			case rdf.IRI:
				b.WriteString("<" + c.Value + ">")
			case rdf.Literal:
				b.WriteString(strconv.Quote(c.Value))
			default:
				b.WriteString("_:" + c.Value)
			}
		default:
			b.WriteString(it.text)
		}
	}
	return b.String()
}

// canon renders s with its variables numbered by first occurrence and
// every constant alike.
func (s *skel) canon() string {
	var b strings.Builder
	seen := map[int]int{}
	for _, it := range s.items {
		switch {
		case it.v >= 0:
			if _, ok := seen[it.v]; !ok {
				seen[it.v] = len(seen)
			}
			b.WriteString("?" + strconv.Itoa(seen[it.v]))
		case it.isConst:
			b.WriteString("$")
		default:
			b.WriteString(it.text)
		}
	}
	return b.String()
}

func (s *skel) numConsts() int {
	n := 0
	for _, it := range s.items {
		if it.isConst {
			n++
		}
	}
	return n
}

// skelVars is the number of variable slots genSkel uses: 0–3 in the
// patterns, 4–5 aggregate aliases.
const skelVars = 6

// genSkel writes a query of the parser's forms — ASK; SELECT with
// DISTINCT, *, variables or COUNT aggregates and GROUP BY; patterns,
// UNION, OPTIONAL and FILTER; ORDER BY, LIMIT and OFFSET — from the
// choices pick makes. Each clause has one spelling (no ASC, no LIMIT 0,
// WHERE groups in clause order), so that texts equal up to names and
// constants are exactly those of equal canon.
func genSkel(pick func(n int) int) *skel {
	var where skel
	var used []int
	pattern := func() {
		for pos := 0; pos < 3; pos++ {
			if pick(3) == 0 {
				where.constant()
			} else {
				v := pick(4)
				where.variable(v)
				if !slices.Contains(used, v) {
					used = append(used, v)
				}
			}
			where.lit(" ")
		}
		where.lit(". ")
	}
	where.lit("{ ")
	for n := 1 + pick(3); n > 0; n-- {
		pattern()
	}
	if pick(3) == 0 {
		where.lit("{ ")
		pattern()
		where.lit("} UNION { ")
		pattern()
		where.lit("} ")
	}
	if pick(3) == 0 {
		where.lit("OPTIONAL { ")
		pattern()
		where.lit("} ")
	}
	if pick(3) == 0 && len(used) > 0 {
		where.lit("FILTER (")
		where.variable(used[pick(len(used))])
		where.lit(" " + []string{"=", "!=", "<", "<=", ">", ">="}[pick(6)] + " ")
		if pick(2) == 0 {
			where.constant()
		} else {
			where.variable(used[pick(len(used))])
		}
		where.lit(") ")
	}
	where.lit("}")

	// some returns 1..max distinct entries of from, in a picked order.
	some := func(from []int, max int) []int {
		from = slices.Clone(from)
		var out []int
		for n := 1 + pick(max); n > 0 && len(from) > 0; n-- {
			i := pick(len(from))
			out = append(out, from[i])
			from = slices.Delete(from, i, i+1)
		}
		return out
	}
	s := &skel{}
	var group, orderable []int
	switch form := pick(4); {
	case form == 0 || len(used) == 0:
		s.lit("ASK WHERE ")
		s.items = append(s.items, where.items...)
		return s
	case form == 1:
		s.lit("SELECT ")
		if pick(2) == 0 {
			s.lit("DISTINCT ")
		}
		s.lit("* WHERE ")
		s.outputs, orderable = used, used
	case form == 2:
		s.lit("SELECT ")
		if pick(2) == 0 {
			s.lit("DISTINCT ")
		}
		s.outputs = some(used, 3)
		for _, v := range s.outputs {
			s.variable(v)
			s.lit(" ")
		}
		s.lit("WHERE ")
		orderable = used
	default:
		s.lit("SELECT ")
		if pick(2) == 0 {
			group = some(used, 2)
		}
		for _, v := range group {
			s.variable(v)
			s.lit(" ")
		}
		s.outputs = slices.Clone(group)
		orderable = slices.Clone(group)
		for alias := 4; alias < 4+1+pick(2); alias++ {
			s.lit("(COUNT(")
			switch pick(3) {
			case 0:
				s.lit("*")
			case 1:
				s.variable(used[pick(len(used))])
			default:
				s.lit("DISTINCT ")
				s.variable(used[pick(len(used))])
			}
			s.lit(") AS ")
			s.variable(alias)
			s.lit(") ")
			s.outputs = append(s.outputs, alias)
			orderable = append(orderable, alias)
		}
		s.lit("WHERE ")
	}
	s.items = append(s.items, where.items...)
	if len(group) > 0 {
		s.lit(" GROUP BY")
		for _, v := range group {
			s.lit(" ")
			s.variable(v)
		}
	}
	if pick(3) == 0 {
		s.lit(" ORDER BY")
		for _, v := range some(orderable, 2) {
			if pick(2) == 0 {
				s.lit(" ")
				s.variable(v)
			} else {
				s.lit(" DESC(")
				s.variable(v)
				s.lit(")")
			}
		}
	}
	if pick(3) == 0 {
		s.lit(" LIMIT " + strconv.Itoa(1+pick(20)))
	}
	if pick(3) == 0 {
		s.lit(" OFFSET " + strconv.Itoa(1+pick(20)))
	}
	return s
}

// script replays recorded choices, then picks at random, and records
// every choice it makes.
type script struct {
	rng    *rand.Rand
	replay []int
	made   []int
}

func (sc *script) pick(n int) int {
	var c int
	if i := len(sc.made); i < len(sc.replay) {
		c = sc.replay[i] % n
	} else {
		c = sc.rng.Intn(n)
	}
	sc.made = append(sc.made, c)
	return c
}

// skelNames returns an injective naming of the variable slots.
func skelNames(rng *rand.Rand) []string {
	pool := []string{"a", "b", "c", "x", "y", "z", "s", "o", "who", "n", "v1", "v2"}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool[:skelVars]
}

// skelConst returns a constant of any kind.
func skelConst(rng *rand.Rand) rdf.Term {
	return rdf.Term{Kind: []rdf.TermKind{rdf.IRI, rdf.Literal, rdf.Blank}[rng.Intn(3)], Value: "k" + strconv.Itoa(rng.Intn(4))}
}

func skelConsts(rng *rand.Rand, n int) []rdf.Term {
	out := make([]rdf.Term, n)
	for i := range out {
		out[i] = skelConst(rng)
	}
	return out
}

func parseSkel(t *testing.T, s *skel, names []string, consts []rdf.Term) *Query {
	t.Helper()
	src := s.render(names, consts)
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("generated query does not parse: %v\n%s", err, src)
	}
	return q
}

// TestShapeProperty checks on seeded queries of every form that two
// texts get the same shape exactly when they differ only in constants
// and variable names. Each query is rendered twice, under other names
// and constants, beside neighbours that differ from it in one choice of
// the generator, and every rendering is compared with every other.
func TestShapeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	type sample struct {
		canon, shape, src string
	}
	var samples []sample
	for i := 0; i < 150; i++ {
		base := &script{rng: rng}
		sk := genSkel(base.pick)
		family := []*skel{sk}
		for m := 0; m < 3; m++ {
			replay := slices.Clone(base.made)
			replay[rng.Intn(len(replay))] = rng.Intn(64)
			family = append(family, genSkel((&script{rng: rng, replay: replay}).pick))
		}
		for _, s := range family {
			for r := 0; r < 2; r++ {
				names, consts := skelNames(rng), skelConsts(rng, s.numConsts())
				shape, _, _ := shapeOf(parseSkel(t, s, names, consts))
				samples = append(samples, sample{s.canon(), shape, s.render(names, consts)})
			}
		}
	}
	for i := range samples {
		for j := i + 1; j < len(samples); j++ {
			a, b := samples[i], samples[j]
			if same := a.canon == b.canon; same != (a.shape == b.shape) {
				t.Fatalf("same text up to names and constants = %v, same shape = %v:\n%s\n%s\nshapes %q, %q",
					same, !same, a.src, b.src, a.shape, b.shape)
			}
		}
	}
}

// TestResultKeyProperty checks on seeded queries of every form that the
// result-cache key of a query changes whenever a constant (its value or
// only its kind) or an output name changes, and only then: renaming a
// variable the answer does not name keeps the key. Each query is
// compared with variants that change one slot, and with one that
// changes many at once.
func TestResultKeyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	key := func(s *skel, names []string, consts []rdf.Term) []byte {
		shape, cs, out := shapeOf(parseSkel(t, s, names, consts))
		return appendResultKey(nil, shape, out, cs)
	}
	type variant struct {
		what          string
		names         []string
		consts        []rdf.Term
		rename, alter []int // the variable and constant slots changed
	}
	kept, changed := 0, 0
	for i := 0; i < 300; i++ {
		s := genSkel((&script{rng: rng}).pick)
		names, consts := skelNames(rng), skelConsts(rng, s.numConsts())
		base := key(s, names, consts)

		var variants []variant
		renamed := func(vs ...int) variant {
			n := slices.Clone(names)
			for _, v := range vs {
				n[v] = "r" + strconv.Itoa(v) // fresh, so the naming stays injective
			}
			return variant{"rename", n, consts, vs, nil}
		}
		altered := func(what string, change func(*rdf.Term), ks ...int) variant {
			c := slices.Clone(consts)
			for _, k := range ks {
				change(&c[k])
			}
			return variant{what, names, c, nil, ks}
		}
		value := func(c *rdf.Term) { c.Value += "x" }
		kind := func(c *rdf.Term) { c.Kind = []rdf.TermKind{rdf.Literal, rdf.Blank, rdf.IRI}[c.Kind] }
		for v := 0; v < skelVars; v++ {
			variants = append(variants, renamed(v))
		}
		for k := range consts {
			variants = append(variants, altered("value", value, k), altered("kind", kind, k))
		}
		var vs, ks []int
		for v := 0; v < skelVars; v++ {
			if rng.Intn(3) == 0 {
				vs = append(vs, v)
			}
		}
		for k := range consts {
			if rng.Intn(4) == 0 {
				ks = append(ks, k)
			}
		}
		many := renamed(vs...)
		many.what, many.consts, many.alter = "many", altered("", value, ks...).consts, ks
		variants = append(variants, many)

		for _, vr := range variants {
			want := len(vr.alter) == 0
			for _, v := range vr.rename {
				want = want && !slices.Contains(s.outputs, v)
			}
			if got := bytes.Equal(base, key(s, vr.names, vr.consts)); got != want {
				t.Fatalf("%s: same key = %v, want %v:\n%s\n%s", vr.what, got, want,
					s.render(names, consts), s.render(vr.names, vr.consts))
			}
			if want {
				kept++
			} else {
				changed++
			}
		}
	}
	if kept == 0 || changed == 0 {
		t.Errorf("kept %d keys and changed %d: the generator misses one side", kept, changed)
	}
}
