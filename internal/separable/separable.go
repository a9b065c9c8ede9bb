// Package separable implements Naughton's separability (conditions (1)–(4)
// of Section 6.1), the separable algorithm (Algorithm 4.1) at the data
// level, and the paper's Theorem 4.1: commutativity plus one commuting
// selection suffices for the separable evaluation
//
//	σ(A1+A2)* q  =  A1*(σ A2* q),
//
// which strictly widens the class of rules the efficient algorithm covers
// (Theorem 6.2: separable ⇒ commutative, not conversely).
package separable

import (
	"context"
	"fmt"
	"strings"

	"linrec/internal/agraph"
	"linrec/internal/ast"
	"linrec/internal/commute"
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

// Apply filters a relation by the selection.
func (s Selection) Apply(r *rel.Relation) *rel.Relation {
	return r.Select(s.Col, s.Value)
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

// Result is the outcome of a separable evaluation.
type Result struct {
	Rel   *rel.Relation
	Stats eval.Stats
	// UsedMagic reports whether phase 1 ran the constant-driven context
	// iteration (Algorithm 4.1's operator loop) rather than a full A2
	// closure plus filter.
	UsedMagic bool
}

// Eval computes σ(A1+A2)* q as A1*(σ A2* q) per Theorem 4.1.  It verifies
// the theorem's premises — A1 and A2 commute (syntactically if possible,
// by definition otherwise) and σ commutes with A1 — and returns an error
// when they fail.
func Eval(e *eval.Engine, db rel.DB, a1, a2 *ast.Op, q *rel.Relation, sel Selection) (Result, error) {
	return EvalCtx(context.Background(), e, db, a1, a2, q, sel)
}

// EvalCtx is Eval with cancellation: both phases (the context iteration or
// A2 closure, then the A1 closure) poll ctx and return its error once it
// fires.
func EvalCtx(cx context.Context, e *eval.Engine, db rel.DB, a1, a2 *ast.Op, q *rel.Relation, sel Selection) (Result, error) {
	if !sel.CommutesWith(a1) {
		return Result{}, fmt.Errorf("separable: selection on column %d does not commute with A1", sel.Col)
	}
	if ok, err := commutes(a1, a2); err != nil {
		return Result{}, err
	} else if !ok {
		return Result{}, fmt.Errorf("separable: A1 and A2 do not commute; Theorem 4.1 does not apply")
	}
	res := Result{}

	// Phase 1: R := σ(A2* q).
	var mid *rel.Relation
	if ctx, ok := contextProgram(a2, sel.Col); ok {
		var err error
		mid, err = magicPhase(cx, e, db, ctx, q, sel, &res.Stats)
		if err != nil {
			return Result{}, err
		}
		res.UsedMagic = true
	} else {
		full, s, err := e.SemiNaiveCtx(cx, db, []*ast.Op{a2}, q)
		res.Stats.Add(s)
		if err != nil {
			return Result{}, err
		}
		mid = sel.Apply(full)
	}

	// Phase 2: semi-naive closure of A1 seeded with R.
	out, s2, err := e.SemiNaiveCtx(cx, db, []*ast.Op{a1}, mid)
	res.Stats.Add(s2)
	if err != nil {
		return Result{}, err
	}
	res.Rel = out
	return res, nil
}

// Baseline computes σ(A1+A2)* q the monolithic way: full closure, then
// filter.  It is the reference answer and derivation count that
// Algorithm 4.1 is checked and compared against: the A41 paper table,
// the flights example and this package's differential tests.
func Baseline(e *eval.Engine, db rel.DB, a1, a2 *ast.Op, q *rel.Relation, sel Selection) (Result, error) {
	full, s := e.SemiNaive(db, []*ast.Op{a1, a2}, q)
	return Result{Rel: sel.Apply(full), Stats: s}, nil
}

func commutes(a1, a2 *ast.Op) (bool, error) {
	if rep, err := commute.Syntactic(a1, a2); err == nil {
		return rep.Verdict == commute.Commute, nil
	}
	v, err := commute.Definition(a1, a2)
	if err != nil {
		return false, err
	}
	return v == commute.Commute, nil
}

// contextOp is the compiled "operator loop" of Algorithm 4.1: it transforms
// the set of bound-column contexts.  Composing σ with A2 k times yields a
// selection-like operator whose state is the set of values reachable at the
// recursive atom's bound column; contextProgram extracts that transformer
// when A2 has the required shape.
type contextOp struct {
	rule ast.Rule // head ctx(Out) :- body…, with In bound
}

// contextProgram builds the context transformer for A2 and bound column c.
// It exists when every consequent position other than c is 1-persistent in
// A2 (those columns pass through, so σA2ᵏ remains a one-column selection)
// and the recursive atom's variable at column c is connected to the head's
// via the nonrecursive atoms.
func contextProgram(a2 *ast.Op, c int) (contextOp, bool) {
	if c < 0 || c >= a2.Arity() {
		return contextOp{}, false
	}
	nro := a2.NonRecOccurrences()
	for i, t := range a2.Head.Args {
		if i == c {
			continue
		}
		// Pass-through columns must be *free* 1-persistent: a link
		// 1-persistent column carries nonrecursive conditions that the
		// context iteration would not re-check per tuple.
		hx, ok := a2.H(t.Name)
		if !ok || hx != t.Name || nro[t.Name] > 0 {
			return contextOp{}, false
		}
	}
	in := a2.Head.Args[c]
	out := a2.Rec.Args[c]
	if !out.IsVar() || out.Name == in.Name {
		return contextOp{}, false
	}
	// The transformer must bind `out` from `in` using only the
	// nonrecursive atoms.
	bodyVars := ast.AtomsVars(a2.NonRec...)
	if !bodyVars.Has(out.Name) {
		return contextOp{}, false
	}
	rule := ast.Rule{
		Head: ast.NewAtom("$ctx", out),
		Body: append([]ast.Atom{ast.NewAtom("$seed", in)}, a2.NonRec...),
	}
	return contextOp{rule: rule}, true
}

// magicPhase runs Algorithm 4.1's first loop: starting from the selection
// constant, repeatedly push the context through A2's nonrecursive atoms,
// and join every context generation against q.  It returns σ(A2* q).
// The frontier loop polls cx once per generation.
func magicPhase(cx context.Context, e *eval.Engine, db rel.DB, ctx contextOp, q *rel.Relation, sel Selection, stats *eval.Stats) (*rel.Relation, error) {
	out := rel.NewRelation(q.Arity())
	collect := func(v rel.Value) {
		for _, t := range q.Lookup(sel.Col, v) {
			nt := t.Clone()
			nt[sel.Col] = sel.Value
			stats.Derivations++
			if !out.Insert(nt) {
				stats.Duplicates++
			}
		}
	}

	seen := rel.NewRelation(1)
	frontier := rel.NewRelation(1)
	seed := rel.Tuple{sel.Value}
	seen.Insert(seed)
	frontier.Insert(seed)
	collect(sel.Value)

	// Shallow copy: share the EDB relations, override only $seed.
	scratch := rel.DB{}
	for k, v := range db {
		scratch[k] = v
	}
	for frontier.Len() > 0 {
		if err := cx.Err(); err != nil {
			return nil, err
		}
		stats.Iterations++
		scratch["$seed"] = frontier
		next, err := e.EvalRule(scratch, ctx.rule)
		if err != nil {
			// The context rule is safe by construction; an error here is
			// a programming bug, not a data condition.
			panic(fmt.Sprintf("separable: context rule failed: %v", err))
		}
		frontier = rel.NewRelation(1)
		next.Each(func(t rel.Tuple) {
			if seen.Insert(t) {
				frontier.Insert(t)
				collect(t[0])
			}
		})
	}
	return out, nil
}
