package separable_test

import (
	"context"
	"slices"
	"strings"
	"testing"

	"linrec/internal/eval"
	"linrec/internal/parser"
	"linrec/internal/planner"
	"linrec/internal/rel"
	"linrec/internal/separable"
	"linrec/internal/workload"
)

// Theorem 4.1 and its n-ary form are evaluated by the planner's Separable
// plan kind.  These tests drive that plan the way a query does —
// planner.Analyze, ChooseMulti, ExecuteSeeded — and hold it to the
// closure-then-filter baselines of this package.

// analyze parses src and analyzes its predicate p.
func analyze(t *testing.T, src string) *planner.Analysis {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	a, err := planner.Analyze(prog, "p")
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return a
}

// runSeparable chooses the plan for sels, requires it to be a legal
// Separable plan — every operator pair commutes, σ0 commutes with every
// operator, each step's σ with the operators of every later step —
// executes it and checks the answer against BaselineMulti.  It returns the
// plan, the execution result with its trace, and the baseline statistics.
func runSeparable(t *testing.T, a *planner.Analysis, e *eval.Engine, db rel.DB, sels ...separable.Selection) (*planner.Plan, *planner.Result, *eval.Trace, eval.Stats) {
	t.Helper()
	plan := a.ChooseMulti(sels, planner.Options{})
	if plan.Kind != planner.Separable {
		t.Fatalf("plan = %v (%s), want separable", plan.Kind, plan.Why)
	}
	if !a.AllCommute() {
		t.Fatalf("separable plan over non-commuting operators")
	}
	for _, s0 := range plan.Sep.Sigma0 {
		for i, op := range a.Ops {
			if !s0.CommutesWith(op) {
				t.Fatalf("σ0 on column %d does not commute with rule %d", s0.Col, i+1)
			}
		}
	}
	for i, st := range plan.Sep.Steps {
		for _, later := range plan.Sep.Steps[i+1:] {
			if st.Sel != nil && !st.Sel.CommutesWith(a.Ops[later.Op]) {
				t.Fatalf("step %d's σ[%d] does not commute with rule %d, which runs after it", i, st.Sel.Col, later.Op+1)
			}
		}
	}
	q, err := a.Seed(e, db)
	if err != nil {
		t.Fatal(err)
	}
	tr := &eval.Tracer{}
	res, err := a.ExecuteSeeded(eval.WithTracer(context.Background(), tr), e, db, plan, nil, planner.Options{}, q)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	ans := res.Answer
	for _, sel := range plan.Residual(sels) {
		ans = sel.Apply(ans)
	}
	want, baseStats := separable.BaselineMulti(e, db, a.Ops, sels, q)
	if !ans.Equal(want) {
		t.Fatalf("separable plan (%s) answers %d tuples, closure-then-filter %d:\n got %v\nwant %v",
			plan.Why, ans.Len(), want.Len(), ans.Tuples(), want.Tuples())
	}
	res.Answer = ans
	return plan, res, tr.Trace(), baseStats
}

// usedFrontier reports whether a trace ran Algorithm 4.1's context
// iteration.
func usedFrontier(tr *eval.Trace) bool {
	return slices.ContainsFunc(tr.Phases, func(ph *eval.PhaseTrace) bool { return ph.Name == "magic-frontier" })
}

// ancestor is the canonical separable pair over up and down, seeded by
// the exit relation.
func ancestor(exit string) string {
	return "p(X,Y) :- " + exit + "(X,Y).\np(X,Y) :- p(X,U), up(U,Y).\np(X,Y) :- down(X,U), p(U,Y).\n"
}

// TestEvalMatchesBaseline: Theorem 4.1's plan returns exactly σ(A1+A2)* q
// on a two-relation ancestor-style workload, running phase 1 as the
// context iteration.
func TestEvalMatchesBaseline(t *testing.T) {
	e := eval.NewEngine(nil)
	db := rel.DB{}
	workload.ChainShared(e, db, "up", 20)
	workload.Random(e, db, "down", 21, 40, 7)
	_, res, tr, _ := runSeparable(t, analyze(t, ancestor("up")), e, db, separable.Selection{Col: 0, Value: e.Syms.Intern("v0")})
	if !usedFrontier(tr) {
		t.Fatalf("ancestor shape should run the context iteration")
	}
	if res.Answer.Len() == 0 {
		t.Fatalf("degenerate workload: empty answer")
	}
}

// TestEvalSelectionOnSecondColumn: σ on column 1 commutes with the
// right-linear rule, so the roles of the operators flip.
func TestEvalSelectionOnSecondColumn(t *testing.T) {
	e := eval.NewEngine(nil)
	db := rel.DB{}
	workload.ChainShared(e, db, "up", 15)
	workload.ChainShared(e, db, "down", 15)
	plan, _, _, _ := runSeparable(t, analyze(t, ancestor("down")), e, db, separable.Selection{Col: 1, Value: e.Syms.Intern("v15")})
	if steps := plan.Sep.Steps; steps[0].Op != 0 || steps[1].Op != 1 {
		t.Fatalf("steps = %+v, want σ on rule 1 first and rule 2 as A1", steps)
	}
}

// TestEvalCommutativeNonSeparable: Theorem 4.1 widens the separable
// algorithm to commutative-but-not-separable rules (Example 5.3 shape).
func TestEvalCommutativeNonSeparable(t *testing.T) {
	a := analyze(t, `p(X,Y,Z) :- s(X,Y,Z).
		p(X,Y,Z) :- p(U,Y,Z), q(X,Y).
		p(X,Y,Z) :- p(X,Y,U), r(Z,Y).
		s(v1,v0,v5).`)
	if rep, _ := separable.IsSeparable(a.Ops[0], a.Ops[1]); rep.Separable() {
		t.Fatalf("precondition: rules should not be separable")
	}
	e := eval.NewEngine(nil)
	db := rel.DB{}
	workload.Pairs(e, db, "q", [][2]int{{1, 0}, {2, 0}, {3, 0}, {4, 0}})
	workload.Pairs(e, db, "r", [][2]int{{5, 0}, {6, 0}, {7, 0}})
	db.Rel("s", 3).Insert(rel.Tuple{e.Syms.Intern("v1"), e.Syms.Intern("v0"), e.Syms.Intern("v5")})
	// σ selects on the link 1-persistent column Y = v0; it commutes with
	// both operators.
	_, res, _, _ := runSeparable(t, a, e, db, separable.Selection{Col: 1, Value: e.Syms.Intern("v0")})
	if res.Answer.Len() != 4*3 {
		t.Fatalf("expected 12 tuples (4 q-values × 3 r-values), got %d", res.Answer.Len())
	}
}

// TestEvalRejectsNonCommutingPremise: Theorem 4.1's premises decide plan
// choice — the planner never builds a separable plan over a
// non-commuting pair, and puts A1 on the operator σ commutes with.
func TestEvalRejectsNonCommutingPremise(t *testing.T) {
	e := eval.NewEngine(nil)
	sel := separable.Selection{Col: 0, Value: e.Syms.Intern("v0")}
	same := analyze(t, "p(X,Y) :- up(X,Y).\np(X,Y) :- p(X,U), up(U,Y).\np(X,Y) :- p(X,U), dn(U,Y).\n")
	if plan := same.ChooseMulti([]separable.Selection{sel}, planner.Options{}); plan.Kind == planner.Separable {
		t.Fatalf("non-commuting pair got a separable plan: %s", plan.Why)
	}
	// σ[1] fails against the left-linear rule 1, so rule 2 must be A1.
	db := rel.DB{}
	workload.ChainShared(e, db, "up", 4)
	workload.ChainShared(e, db, "down", 4)
	plan, _, _, _ := runSeparable(t, analyze(t, ancestor("up")), e, db, separable.Selection{Col: 1, Value: e.Syms.Intern("v3")})
	if last := plan.Sep.Steps[len(plan.Sep.Steps)-1]; last.Op != 1 {
		t.Fatalf("A1 = rule %d, want rule 2", last.Op+1)
	}
}

// TestMagicPhaseTouchesLessData: with a selection bound to one constant
// the separable plan derives far fewer tuples than the baseline on a
// long chain.
func TestMagicPhaseTouchesLessData(t *testing.T) {
	e := eval.NewEngine(nil)
	db := rel.DB{}
	workload.ChainShared(e, db, "up", 60)
	workload.ChainShared(e, db, "down", 60)
	_, res, tr, base := runSeparable(t, analyze(t, ancestor("up")), e, db, separable.Selection{Col: 0, Value: e.Syms.Intern("v0")})
	if !usedFrontier(tr) || res.Stats.Derivations*10 >= base.Derivations {
		t.Fatalf("separable evaluation should touch less data: %d vs %d derivations (context iteration: %v)",
			res.Stats.Derivations, base.Derivations, usedFrontier(tr))
	}
}

// threeOps: three mutually commuting rules, each driving one column of
// p/3 and passing the others through, over a one-tuple seed.
const threeOps = `p(X,Y,Z) :- s0(X,Y,Z).
p(X,Y,Z) :- p(U,Y,Z), q(X,U).
p(X,Y,Z) :- p(X,U,Z), r(Y,U).
p(X,Y,Z) :- p(X,Y,U), s(Z,U).
`

func multiDB() (*eval.Engine, rel.DB, func(string) rel.Value) {
	e := eval.NewEngine(nil)
	db := rel.DB{}
	workload.Pairs(e, db, "q", [][2]int{{1, 0}, {2, 1}, {3, 1}})
	workload.Pairs(e, db, "r", [][2]int{{4, 0}, {5, 4}})
	workload.Pairs(e, db, "s", [][2]int{{6, 0}, {7, 6}})
	v0 := e.Syms.Intern("v0")
	db.Rel("s0", 3).Insert(rel.Tuple{v0, v0, v0})
	return e, db, func(name string) rel.Value { return e.Syms.Intern(name) }
}

// TestNArySeparableMatchesBaseline: the n-ary decomposition with two attached
// selections equals the monolithic closure + filters.
func TestNArySeparableMatchesBaseline(t *testing.T) {
	e, db, v := multiDB()
	sels := []separable.Selection{{Col: 0, Value: v("v1")}, {Col: 1, Value: v("v4")}}
	plan, res, _, _ := runSeparable(t, analyze(t, threeOps), e, db, sels...)
	if !strings.Contains(plan.Why, "n-ary") {
		t.Fatalf("want the n-ary form, got %q", plan.Why)
	}
	for _, st := range plan.Sep.Steps {
		if (st.Op == 0) != (st.Sel != nil && *st.Sel == sels[0]) || (st.Op == 1) != (st.Sel != nil && *st.Sel == sels[1]) {
			t.Fatalf("steps = %+v: σ[0] belongs to rule 1, σ[1] to rule 2", plan.Sep.Steps)
		}
	}
	if res.Answer.Len() == 0 {
		t.Fatalf("degenerate: empty answer")
	}
}

// TestNArySeparableSigmaZero: a selection commuting with every operator is a
// σ0 that filters the seed.
func TestNArySeparableSigmaZero(t *testing.T) {
	e, db, v := multiDB()
	a := analyze(t, strings.Join(strings.Split(threeOps, "\n")[:3], "\n"))
	s0 := separable.Selection{Col: 2, Value: v("v0")}
	plan, _, _, _ := runSeparable(t, a, e, db, separable.Selection{Col: 0, Value: v("v1")}, s0)
	if len(plan.Sep.Sigma0) != 1 || plan.Sep.Sigma0[0] != s0 {
		t.Fatalf("σ0 = %+v, want the column-2 selection", plan.Sep.Sigma0)
	}
}

// TestNArySeparableRejectsBadPremises: the planner never builds an n-ary
// assignment the formula does not license.
func TestNArySeparableRejectsBadPremises(t *testing.T) {
	e, db, v := multiDB()
	// σ[0] fails against both rules of a commuting pair (A and A²): no
	// separable plan at all.
	pow := analyze(t, "p(X,Y) :- b(X,Y).\np(X,Y) :- e(X,Z), p(Z,Y).\np(X,Y) :- e(X,U), e(U,V), p(V,Y).\n")
	sels := []separable.Selection{{Col: 0, Value: v("v1")}, {Col: 1, Value: v("v4")}}
	if !pow.AllCommute() {
		t.Fatalf("premise: A and A² commute")
	}
	if plan := pow.ChooseMulti(sels, planner.Options{}); plan.Kind == planner.Separable {
		t.Fatalf("σ failing against two operators got a separable plan: %s", plan.Why)
	}
	// σ[0] and σ[1] both fail against rule 1 only: the n-ary form is
	// off, Theorem 4.1's form takes σ[0] and σ[1] post-filters.
	shared := analyze(t, `p(X,Y,Z) :- s0(X,Y,Z).
		p(X,Y,Z) :- p(U,V,Z), q(X,U), r(Y,V).
		p(X,Y,Z) :- p(X,Y,U), s(Z,U).`)
	plan, _, _, _ := runSeparable(t, shared, e, db, sels...)
	if strings.Contains(plan.Why, "n-ary") || !slices.Equal(plan.Residual(sels), sels[1:]) {
		t.Fatalf("plan %q leaves %v to filter, want Theorem 4.1's form with σ[1] residual", plan.Why, plan.Residual(sels))
	}
	// A non-commuting pair, and a column outside the predicate.
	b := analyze(t, "p(X,Y,Z) :- s0(X,Y,Z).\np(X,Y,Z) :- p(U,Y,Z), q(X,U).\np(X,Y,Z) :- p(U,Y,Z), s(X,U).\n")
	if plan := b.ChooseMulti(sels, planner.Options{}); plan.Kind == planner.Separable {
		t.Fatalf("non-commuting operators got a separable plan: %s", plan.Why)
	}
	oob := []separable.Selection{{Col: 9, Value: v("v1")}, {Col: 0, Value: v("v1")}}
	if plan := analyze(t, threeOps).ChooseMulti(oob, planner.Options{}); plan.Kind == planner.Separable {
		t.Fatalf("out-of-range column got a separable plan: %s", plan.Why)
	}
	if prog, err := parser.Parse("p(X,Y) :- b(X,Y)."); err != nil {
		t.Fatal(err)
	} else if _, err := planner.Analyze(prog, "p"); err == nil {
		t.Fatalf("a predicate with no recursive rules must be rejected")
	}
}

// TestNArySeparableNoSelections: with nothing bound the commuting operators
// run as the plain decomposed closure.
func TestNArySeparableNoSelections(t *testing.T) {
	e, db, _ := multiDB()
	a := analyze(t, threeOps)
	plan := a.ChooseMulti(nil, planner.Options{})
	if plan.Kind != planner.Decomposed {
		t.Fatalf("plan = %v, want decomposed", plan.Kind)
	}
	q, _ := a.Seed(e, db)
	got, err := a.ExecuteSeeded(context.Background(), e, db, plan, nil, planner.Options{}, q)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := e.SemiNaive(db, a.Ops, q); !got.Answer.Equal(want) {
		t.Fatalf("decomposed closure differs: %d vs %d", got.Answer.Len(), want.Len())
	}
}
