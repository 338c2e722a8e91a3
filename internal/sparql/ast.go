// Package sparql implements a small SPARQL subset — SELECT queries over
// basic graph patterns — on top of the Hexastore. It demonstrates the
// paper's claim of "quick and scalable general-purpose query processing":
// one cost-based planner orders triple patterns by estimated join size
// (Planner) and the executor binds them with index lookups, never
// scanning tables that are irrelevant to the query (§4.2, "Reduced I/O
// cost").
//
// Supported grammar:
//
//	query    = { "PREFIX" prefix ":" "<iri>" } (select | ask)
//	select   = "SELECT" ["DISTINCT"] (selitem {selitem} | "*")
//	           "WHERE" "{" clauses "}"
//	           ["GROUP" "BY" ?name {?name}]
//	           ["ORDER" "BY" orderkey {orderkey}] ["LIMIT" n] ["OFFSET" n]
//	ask      = "ASK" ["WHERE"] "{" clauses "}"
//	selitem  = ?name | "(" "COUNT" "(" ("*" | ["DISTINCT"] ?name) ")" "AS" ?alias ")"
//	clauses  = clause { ["."] clause } ["."]
//	clause   = pattern | filter | optional | union
//	pattern  = term term term
//	filter   = "FILTER" "(" operand op operand ")"   op ∈ = != < <= > >=
//	optional = "OPTIONAL" "{" pattern { "." pattern } ["."] "}"
//	union    = group "UNION" group { "UNION" group }
//	group    = "{" pattern { "." pattern } ["."] "}"
//	orderkey = ?name | "ASC" "(" ?name ")" | "DESC" "(" ?name ")"
//	term     = "?name" | "<iri>" | "prefix:local" | '"literal"' | "_:label"
//	operand  = term | number
//
// Example:
//
//	PREFIX ex: <http://example.org/>
//	SELECT DISTINCT ?person WHERE {
//	    ?person ex:advisor ?prof .
//	    ?prof ex:worksFor ?org .
//	    FILTER (?org != ?person)
//	} ORDER BY ?person LIMIT 10 OFFSET 5
package sparql

import (
	"fmt"
	"strings"

	"hexastore/internal/rdf"
)

// TermKind discriminates pattern terms.
type TermKind uint8

const (
	// Var is a ?variable.
	Var TermKind = iota
	// Const is a concrete RDF term.
	Const
)

// Term is one position of a triple pattern: either a variable name or a
// constant RDF term.
type Term struct {
	Kind TermKind
	Name string   // variable name without '?', when Kind == Var
	RDF  rdf.Term // constant, when Kind == Const
}

// V returns a variable term.
func V(name string) Term { return Term{Kind: Var, Name: name} }

// C returns a constant term.
func C(t rdf.Term) Term { return Term{Kind: Const, RDF: t} }

// String renders the term in query syntax.
func (t Term) String() string {
	if t.Kind == Var {
		return "?" + t.Name
	}
	return t.RDF.String()
}

// Pattern is one triple pattern of a basic graph pattern.
type Pattern struct {
	S, P, O Term
}

// String renders the pattern in query syntax.
func (p Pattern) String() string {
	return fmt.Sprintf("%s %s %s .", p.S, p.P, p.O)
}

// Vars returns the distinct variable names in the pattern, in S,P,O
// position order.
func (p Pattern) Vars() []string {
	var out []string
	seen := map[string]bool{}
	for _, t := range [3]Term{p.S, p.P, p.O} {
		if t.Kind == Var && !seen[t.Name] {
			seen[t.Name] = true
			out = append(out, t.Name)
		}
	}
	return out
}

// Filter is a FILTER(left op right) constraint. Operands are variables
// or constants; operators are =, !=, <, <=, >, >=. Equality compares
// whole terms; inequalities compare numerically when both operands are
// numeric literals and lexicographically otherwise.
type Filter struct {
	Left  Term
	Op    string
	Right Term
}

// String renders the filter in query syntax.
func (f Filter) String() string {
	return fmt.Sprintf("FILTER (%s %s %s)", f.Left, f.Op, f.Right)
}

// Vars returns the variable names the filter references.
func (f Filter) Vars() []string {
	var out []string
	for _, t := range [2]Term{f.Left, f.Right} {
		if t.Kind == Var {
			out = append(out, t.Name)
		}
	}
	return out
}

// OrderKey is one ORDER BY sort key.
type OrderKey struct {
	Var  string
	Desc bool
}

// Union is one UNION clause: two or more alternative pattern groups.
// During evaluation the query is expanded into the cross product of the
// alternatives of all its Union clauses (the standard BGP rewriting).
type Union [][]Pattern

// Aggregate is one aggregated projection item:
// (COUNT(?v) AS ?alias), (COUNT(*) AS ?alias), or
// (COUNT(DISTINCT ?v) AS ?alias). COUNT is the only supported function —
// it is the one the paper's evaluation queries need (BQ1–BQ4 all report
// counts and frequencies).
type Aggregate struct {
	Func     string // "COUNT"
	Var      string // counted variable; empty means COUNT(*)
	Distinct bool
	As       string // output alias
}

// String renders the aggregate in query syntax.
func (a Aggregate) String() string {
	arg := "*"
	if a.Var != "" {
		arg = "?" + a.Var
		if a.Distinct {
			arg = "DISTINCT " + arg
		}
	}
	return fmt.Sprintf("(%s(%s) AS ?%s)", a.Func, arg, a.As)
}

// ExplainMode selects how much of an EXPLAIN-prefixed query runs.
type ExplainMode int

const (
	// ExplainNone is a regular query: execute, return solutions.
	ExplainNone ExplainMode = iota
	// ExplainPlan (EXPLAIN) plans each union branch — pattern order and
	// per-step cardinality estimates — without executing any join step.
	ExplainPlan
	// ExplainExec (EXPLAIN ANALYZE) executes the query fully, recording
	// actual per-step row counts alongside the estimates.
	ExplainExec
)

// Query is a parsed SELECT or ASK query.
type Query struct {
	// Explain, when non-zero, marks an EXPLAIN / EXPLAIN ANALYZE query:
	// the caller should evaluate with an obs trace attached and render
	// the span tree (plan-only for ExplainPlan).
	Explain ExplainMode
	// Ask marks an ASK query: evaluation stops at the first solution and
	// reports only whether one exists.
	Ask      bool
	Vars     []string // projection; empty means SELECT *
	Distinct bool
	// Aggregates holds aggregated projection items; when non-empty the
	// query is evaluated in grouping mode and Vars lists only the
	// group-key variables (GroupBy order defines the grouping).
	Aggregates []Aggregate
	GroupBy    []string
	Patterns   []Pattern
	// Optionals holds the OPTIONAL groups in source order. Variables
	// bound only inside an optional group may be absent from solutions.
	Optionals [][]Pattern
	// Unions holds the UNION clauses in source order.
	Unions  []Union
	Filters []Filter
	OrderBy []OrderKey
	Limit   int // 0 means no limit
	Offset  int
}

// Update is a parsed SPARQL 1.1 UPDATE request: a sequence of
// INSERT DATA / DELETE DATA operations separated by ';'. The DATA forms
// carry ground triples only (no variables), which is exactly what the
// backend-neutral Graph interface can apply to any store.
type Update struct {
	Ops []UpdateOp
}

// UpdateOp is one INSERT DATA or DELETE DATA operation.
type UpdateOp struct {
	// Delete marks a DELETE DATA operation; otherwise INSERT DATA.
	Delete bool
	// Triples holds the ground triples of the DATA block.
	Triples []rdf.Triple
}

// String renders the operation in update syntax.
func (op UpdateOp) String() string {
	verb := "INSERT"
	if op.Delete {
		verb = "DELETE"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s DATA {", verb)
	for _, t := range op.Triples {
		fmt.Fprintf(&sb, " %s %s %s .", t.Subject, t.Predicate, t.Object)
	}
	sb.WriteString(" }")
	return sb.String()
}

// AllVars returns every variable mentioned in required patterns, union
// alternatives and optional groups, in first-appearance order.
func (q *Query) AllVars() []string {
	var out []string
	seen := map[string]bool{}
	add := func(pats []Pattern) {
		for _, p := range pats {
			for _, name := range p.Vars() {
				if !seen[name] {
					seen[name] = true
					out = append(out, name)
				}
			}
		}
	}
	add(q.Patterns)
	for _, u := range q.Unions {
		for _, alt := range u {
			add(alt)
		}
	}
	for _, opt := range q.Optionals {
		add(opt)
	}
	return out
}

// OptionalVars returns the set of variables a solution may leave
// unbound: those no required pattern binds that occur in an optional
// group, or in some but not every branch of a UNION.
func (q *Query) OptionalVars() map[string]bool {
	required := map[string]bool{}
	for _, p := range q.Patterns {
		for _, name := range p.Vars() {
			required[name] = true
		}
	}
	// A variable every branch of a union binds is bound in each of its
	// solutions.
	for _, u := range q.Unions {
		branches := map[string]int{}
		for _, alt := range u {
			inAlt := map[string]bool{}
			for _, p := range alt {
				for _, name := range p.Vars() {
					if !inAlt[name] {
						inAlt[name] = true
						branches[name]++
					}
				}
			}
		}
		for name, n := range branches {
			if n == len(u) {
				required[name] = true
			}
		}
	}
	opt := map[string]bool{}
	mark := func(pats []Pattern) {
		for _, p := range pats {
			for _, name := range p.Vars() {
				if !required[name] {
					opt[name] = true
				}
			}
		}
	}
	for _, u := range q.Unions {
		for _, alt := range u {
			mark(alt)
		}
	}
	for _, group := range q.Optionals {
		mark(group)
	}
	return opt
}
