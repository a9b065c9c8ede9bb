// Package separable implements Naughton's separability (conditions (1)–(4)
// of Section 6.1), the single-column selections of the paper's Theorem
// 4.1 — commutativity plus one commuting selection suffices for the
// separable evaluation
//
//	σ(A1+A2)* q  =  A1*(σ A2* q),
//
// which strictly widens the class of rules the efficient algorithm covers
// (Theorem 6.2: separable ⇒ commutative, not conversely) — and the
// closure-then-filter baselines that evaluation is checked against.  The
// evaluation itself, Algorithm 4.1 and its n-ary form from Section 4.1,
// is a plan kind of package planner, run on the one closure kernel.
package separable

import (
	"fmt"
	"strings"

	"linrec/internal/agraph"
	"linrec/internal/ast"
	"linrec/internal/eval"
	"linrec/internal/rel"
)

// Report carries the outcome of the separability test, one flag per clause
// of the definition.
type Report struct {
	Cond1 bool // ∀x, i: hᵢ(x) = x or hᵢ(x) nondistinguished
	Cond2 bool // ∀x, i: x and hᵢ(x) both under nonrecursive predicates, or neither
	Cond3 bool // the two rules' selected-variable sets are equal or disjoint
	Cond4 bool // static-arc subgraph connected in each rule
	// Disjoint reports whether the Cond3 sets are disjoint — the case in
	// which the separable algorithm's efficient form applies.
	Disjoint bool
}

// Separable reports the conjunction of the four conditions.
func (r Report) Separable() bool { return r.Cond1 && r.Cond2 && r.Cond3 && r.Cond4 }

// String renders the per-condition flags.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "separable: %v", r.Separable())
	fmt.Fprintf(&b, " (1)=%v (2)=%v (3)=%v (4)=%v disjoint=%v",
		r.Cond1, r.Cond2, r.Cond3, r.Cond4, r.Disjoint)
	return b.String()
}

// IsSeparable tests Naughton's definition on a pair of rules with the same
// consequent.
func IsSeparable(r1, r2 *ast.Op) (Report, error) {
	if !ast.SameConsequent(r1, r2) {
		return Report{}, fmt.Errorf("separable: rules must share their consequent")
	}
	rep := Report{Cond1: true, Cond2: true}
	for _, op := range []*ast.Op{r1, r2} {
		nro := op.NonRecOccurrences()
		for _, t := range op.Head.Args {
			x := t.Name
			hx, _ := op.H(x)
			if hx != x && isHeadVar(op, hx) {
				rep.Cond1 = false
			}
			inNR := nro[x] > 0
			hInNR := nro[hx] > 0
			if hx != x && inNR != hInNR {
				rep.Cond2 = false
			}
		}
	}
	d1 := selectedVars(r1)
	d2 := selectedVars(r2)
	inter := 0
	for v := range d1 {
		if d2.Has(v) {
			inter++
		}
	}
	equal := inter == len(d1) && inter == len(d2)
	rep.Disjoint = inter == 0
	rep.Cond3 = equal || rep.Disjoint
	rep.Cond4 = staticConnected(r1) && staticConnected(r2)
	return rep, nil
}

func isHeadVar(op *ast.Op, v string) bool {
	for _, t := range op.Head.Args {
		if t.Name == v {
			return true
		}
	}
	return false
}

// selectedVars returns the distinguished variables appearing under
// nonrecursive predicates.
func selectedVars(op *ast.Op) ast.VarSet {
	dist := op.Distinguished()
	out := ast.VarSet{}
	for _, a := range op.NonRec {
		for _, t := range a.Args {
			if t.IsVar() && dist.Has(t.Name) {
				out.Add(t.Name)
			}
		}
	}
	return out
}

// staticConnected reports whether the subgraph of the a-graph induced by
// the static arcs is connected (condition (4)).
func staticConnected(op *ast.Op) bool {
	g := agraph.New(op)
	if len(g.Static) == 0 {
		return true
	}
	adj := map[string][]string{}
	nodes := ast.VarSet{}
	for _, s := range g.Static {
		adj[s.From] = append(adj[s.From], s.To)
		adj[s.To] = append(adj[s.To], s.From)
		nodes.Add(s.From)
		nodes.Add(s.To)
	}
	start := g.Static[0].From
	seen := ast.VarSet{}
	stack := []string{start}
	seen.Add(start)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range adj[cur] {
			if !seen.Has(nb) {
				seen.Add(nb)
				stack = append(stack, nb)
			}
		}
	}
	return len(seen) == len(nodes)
}

// Selection is a single-column equality selection σ on the recursive
// predicate's answer.
type Selection struct {
	Col   int
	Value rel.Value
}

// Apply filters a store by the selection into a new relation, probing
// the store's index on the selected column.
func (s Selection) Apply(r rel.Store) *rel.Relation {
	out := rel.NewRelation(r.Arity())
	for _, t := range r.Lookup(s.Col, s.Value) {
		out.Insert(t)
	}
	return out
}

// CommutesWith reports whether σ commutes with the operator: σA = Aσ holds
// exactly when the selected column's consequent variable is 1-persistent
// (the operator passes the column through unchanged), the paper's "full
// selection" situation specialized to one column.
func (s Selection) CommutesWith(op *ast.Op) bool {
	if s.Col < 0 || s.Col >= op.Arity() {
		return false
	}
	x := op.Head.Args[s.Col].Name
	hx, ok := op.H(x)
	return ok && hx == x
}

// BaselineMulti computes σ0σ1…σn(ΣAᵢ)* q the monolithic way: the full
// closure of the sum, then every selection as a filter.  It is the
// closure-then-filter reference the planner's separable plans are checked
// and measured against: the A41 paper table, the flights example and the
// Theorem 4.1 property tests.
func BaselineMulti(e *eval.Engine, db rel.DB, ops []*ast.Op, sels []Selection, q *rel.Relation) (*rel.Relation, eval.Stats) {
	full, stats := e.SemiNaive(db, ops, q)
	for _, sel := range sels {
		full = sel.Apply(full)
	}
	return full, stats
}

// Baseline is BaselineMulti for Theorem 4.1's σ(A1+A2)* q.
func Baseline(e *eval.Engine, db rel.DB, a1, a2 *ast.Op, q *rel.Relation, sel Selection) (*rel.Relation, eval.Stats) {
	return BaselineMulti(e, db, []*ast.Op{a1, a2}, []Selection{sel}, q)
}
