package sparql

import (
	"encoding/binary"
	"strconv"
	"strings"

	"hexastore/internal/rdf"
)

// Query-shape normalization: the canonical key behind the plan cache.
//
// Two queries share a shape when they differ only in whitespace (already
// erased by the parser), in variable names, or in the concrete constants
// sitting at the same syntactic positions. The shape walk renames
// variables to ?0, ?1, … in first-occurrence order and replaces every
// constant with a positional placeholder $0, $1, …, returning the
// extracted constants alongside the key. The plan cache memoizes one join
// order per shape, priced with the constants of the query that missed,
// so one memoized plan serves every parameterization; the extracted constants
// re-enter the key only at the result-cache layer, where answers do
// depend on them.
//
// LIMIT and OFFSET stay literal in the key: they do not change the join
// order, but folding them into the constant vector would make result
// keys order-sensitive for no space win — they are small and almost
// always stable per shape.

// shapeWalk accumulates the canonical form.
type shapeWalk struct {
	b      strings.Builder
	vars   map[string]int
	consts []rdf.Term
}

func (w *shapeWalk) variable(name string) {
	id, ok := w.vars[name]
	if !ok {
		id = len(w.vars)
		w.vars[name] = id
	}
	w.b.WriteByte('?')
	w.b.WriteString(strconv.Itoa(id))
}

func (w *shapeWalk) constant(t rdf.Term) {
	w.b.WriteByte('$')
	w.b.WriteString(strconv.Itoa(len(w.consts)))
	w.consts = append(w.consts, t)
}

func (w *shapeWalk) term(t Term) {
	if t.Kind == Var {
		w.variable(t.Name)
	} else {
		w.constant(t.RDF)
	}
	w.b.WriteByte(' ')
}

func (w *shapeWalk) patterns(pats []Pattern) {
	for _, p := range pats {
		w.term(p.S)
		w.term(p.P)
		w.term(p.O)
		w.b.WriteByte('.')
	}
}

// shapeOf returns the canonical shape key of q, the constants extracted
// during the walk (in walk order), and the query's output column names
// (projection variables and aggregate aliases — or every variable for
// SELECT *). The output names are NOT normalized away: a result cached
// for `SELECT ?x …` cannot answer `SELECT ?y …` even when the shapes
// coincide, so the result-cache key re-attaches them (see appendResultKey).
func shapeOf(q *Query) (shape string, consts []rdf.Term, outVars []string) {
	w := &shapeWalk{vars: make(map[string]int)}
	if q.Ask {
		w.b.WriteString("ask ")
	} else {
		w.b.WriteString("sel ")
	}
	if q.Distinct {
		w.b.WriteString("distinct ")
	}
	for _, v := range q.Vars {
		w.variable(v)
		w.b.WriteByte(' ')
	}
	for _, a := range q.Aggregates {
		w.b.WriteByte('(')
		w.b.WriteString(a.Func)
		if a.Distinct {
			w.b.WriteString(" d")
		}
		w.b.WriteByte(' ')
		if a.Var != "" {
			w.variable(a.Var)
		} else {
			w.b.WriteByte('*')
		}
		w.b.WriteString(" as ")
		w.variable(a.As)
		w.b.WriteByte(')')
	}
	if len(q.GroupBy) > 0 {
		w.b.WriteString(" group ")
		for _, v := range q.GroupBy {
			w.variable(v)
			w.b.WriteByte(' ')
		}
	}
	w.b.WriteString("{")
	w.patterns(q.Patterns)
	for _, u := range q.Unions {
		w.b.WriteString(" union[")
		for _, alt := range u {
			w.b.WriteByte('{')
			w.patterns(alt)
			w.b.WriteByte('}')
		}
		w.b.WriteByte(']')
	}
	for _, g := range q.Optionals {
		w.b.WriteString(" opt{")
		w.patterns(g)
		w.b.WriteByte('}')
	}
	for _, f := range q.Filters {
		w.b.WriteString(" filter(")
		w.term(f.Left)
		w.b.WriteString(f.Op)
		w.b.WriteByte(' ')
		w.term(f.Right)
		w.b.WriteByte(')')
	}
	w.b.WriteByte('}')
	if len(q.OrderBy) > 0 {
		w.b.WriteString(" order ")
		for _, k := range q.OrderBy {
			w.variable(k.Var)
			if k.Desc {
				w.b.WriteString(" desc")
			}
			w.b.WriteByte(' ')
		}
	}
	if q.Limit != NoLimit {
		w.b.WriteString(" limit ")
		w.b.WriteString(strconv.Itoa(q.Limit))
	}
	if q.Offset > 0 {
		w.b.WriteString(" offset ")
		w.b.WriteString(strconv.Itoa(q.Offset))
	}

	if q.Ask {
		outVars = nil
	} else if len(q.Vars) > 0 || len(q.Aggregates) > 0 {
		outVars = append(outVars, q.Vars...)
		for _, a := range q.Aggregates {
			outVars = append(outVars, a.As)
		}
	} else {
		outVars = q.AllVars()
	}
	return w.b.String(), w.consts, outVars
}

// appendResultKey appends the full result-cache key to dst: the shape,
// the actual output column names, and the extracted constants, each
// length-prefixed so that no name or value can mimic a boundary.
// Everything an answer depends on except the snapshot epoch, which the
// cache itself tracks.
func appendResultKey(dst []byte, shape string, outVars []string, consts []rdf.Term) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(shape)))
	dst = append(dst, shape...)
	dst = binary.AppendUvarint(dst, uint64(len(outVars)))
	for _, v := range outVars {
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		dst = append(dst, v...)
	}
	for _, c := range consts {
		dst = append(dst, byte(c.Kind))
		dst = binary.AppendUvarint(dst, uint64(len(c.Value)))
		dst = append(dst, c.Value...)
	}
	return dst
}
