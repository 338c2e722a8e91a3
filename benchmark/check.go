package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"hexastore/internal/dictionary"
	"hexastore/internal/graph"
	"hexastore/internal/rdf"
	"hexastore/internal/sparql"
	"hexastore/internal/triplestore"
)

// oracle is the reference the server's answers are compared with: the
// repository's flat triples table (graph.Baseline over triplestore), which
// shares no index, join or cache code with what is being measured. Its
// only concession to scale is a candidate list per subject, predicate and
// object value, so a bound position narrows the linear scan instead of
// walking half a million rows per probe; membership is still decided by
// comparing the table row with the pattern.
type oracle struct {
	graph.Graph
	table         [][3]graph.ID
	byS, byP, byO map[graph.ID][]int32
}

var errOracleWrite = errors.New("oracle is read-only after loading")

func newOracle() *oracle {
	return &oracle{
		Graph: graph.Baseline(triplestore.New(dictionary.New())),
		byS:   map[graph.ID][]int32{},
		byP:   map[graph.ID][]int32{},
		byO:   map[graph.ID][]int32{},
	}
}

// load adds one triple of the data set.
func (o *oracle) load(t rdf.Triple) {
	s, p, ob := o.Dictionary().EncodeTriple(t)
	if added, _ := o.Graph.Add(s, p, ob); !added {
		return
	}
	i := int32(len(o.table))
	o.table = append(o.table, [3]graph.ID{s, p, ob})
	o.byS[s] = append(o.byS[s], i)
	o.byP[p] = append(o.byP[p], i)
	o.byO[ob] = append(o.byO[ob], i)
}

func (o *oracle) Add(s, p, ob graph.ID) (bool, error)    { return false, errOracleWrite }
func (o *oracle) Remove(s, p, ob graph.ID) (bool, error) { return false, errOracleWrite }

func (o *oracle) Match(s, p, ob graph.ID, fn func(s, p, o graph.ID) bool) error {
	var cands []int32
	bound := false
	consider := func(id graph.ID, idx map[graph.ID][]int32) {
		if id == graph.None {
			return
		}
		if l := idx[id]; !bound || len(l) < len(cands) {
			cands, bound = l, true
		}
	}
	consider(s, o.byS)
	consider(p, o.byP)
	consider(ob, o.byO)
	if !bound {
		return o.Graph.Match(s, p, ob, fn)
	}
	for _, i := range cands {
		t := o.table[i]
		if (s == graph.None || t[0] == s) && (p == graph.None || t[1] == p) && (ob == graph.None || t[2] == ob) {
			if !fn(t[0], t[1], t[2]) {
				return nil
			}
		}
	}
	return nil
}

func (o *oracle) Count(s, p, ob graph.ID) (int, error) {
	n := 0
	err := o.Match(s, p, ob, func(_, _, _ graph.ID) bool { n++; return true })
	return n, err
}

// answer evaluates query in-process over the oracle and returns its rows
// in canonical form.
func (o *oracle) answer(query string) ([]string, error) {
	res, err := sparql.ExecContext(context.Background(), o, query)
	if err != nil {
		return nil, err
	}
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		cells := make([]string, 0, len(r))
		for name, term := range r {
			cells = append(cells, name+"="+term.Key())
		}
		rows[i] = canonicalRow(cells)
	}
	sort.Strings(rows)
	return rows, nil
}

func canonicalRow(cells []string) string {
	sort.Strings(cells)
	return strings.Join(cells, "\x1f")
}

// sparqlJSON is the part of a SPARQL 1.1 JSON results document the
// benchmark reads.
type sparqlJSON struct {
	Results struct {
		Bindings []map[string]struct {
			Type  string `json:"type"`
			Value string `json:"value"`
		} `json:"bindings"`
	} `json:"results"`
}

// responseRows decodes a response body into canonical rows.
func responseRows(body []byte) ([]string, error) {
	var doc sparqlJSON
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, err
	}
	rows := make([]string, len(doc.Results.Bindings))
	for i, b := range doc.Results.Bindings {
		cells := make([]string, 0, len(b))
		for name, v := range b {
			var term rdf.Term
			switch v.Type {
			case "uri":
				term = rdf.NewIRI(v.Value)
			case "literal":
				term = rdf.NewLiteral(v.Value)
			case "bnode":
				term = rdf.NewBlank(v.Value)
			default:
				return nil, fmt.Errorf("binding type %q", v.Type)
			}
			cells = append(cells, name+"="+term.Key())
		}
		rows[i] = canonicalRow(cells)
	}
	sort.Strings(rows)
	return rows, nil
}

// sameAnswer compares a response body with the oracle's answer as sorted
// row multisets.
func (o *oracle) sameAnswer(query string, body []byte) error {
	got, err := responseRows(body)
	if err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	want, err := o.answer(query)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, oracle has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("row %d is %q, oracle has %q", i, got[i], want[i])
		}
	}
	return nil
}
