package separable

import (
	"testing"

	"linrec/internal/ast"
	"linrec/internal/commute"
	"linrec/internal/parser"
)

func two(t *testing.T, s1, s2 string) (*opT, *opT) {
	t.Helper()
	a, err := parser.ParseOp(s1)
	if err != nil {
		t.Fatalf("%v", err)
	}
	b, err := parser.ParseOp(s2)
	if err != nil {
		t.Fatalf("%v", err)
	}
	return a, b
}

type astOp = ast.Op
type opT = astOp

// TestAncestorIsSeparable: the canonical separable pair (the two linear TC
// forms) passes all four conditions with disjoint selected-variable sets.
func TestAncestorIsSeparable(t *testing.T) {
	r1, r2 := two(t,
		"p(X,Y) :- p(X,U), up(U,Y).",
		"p(X,Y) :- down(X,U), p(U,Y).")
	rep, err := IsSeparable(r1, r2)
	if err != nil {
		t.Fatalf("IsSeparable: %v", err)
	}
	if !rep.Separable() || !rep.Disjoint {
		t.Fatalf("TC pair should be separable/disjoint: %v", rep)
	}
}

// TestExample53NotSeparableButCommutes reproduces Theorem 6.2's strictness:
// Example 5.3's rules commute but violate separability conditions (2) and
// (3).
func TestExample53NotSeparableButCommutes(t *testing.T) {
	r1, r2 := two(t,
		"p(X,Y,Z) :- p(U,Y,Z), q(X,Y).",
		"p(X,Y,Z) :- p(X,Y,U), r(Z,Y).")
	rep, err := IsSeparable(r1, r2)
	if err != nil {
		t.Fatalf("IsSeparable: %v", err)
	}
	if rep.Separable() {
		t.Fatalf("Example 5.3 rules must not be separable: %v", rep)
	}
	if rep.Cond2 {
		t.Fatalf("condition (2) should fail (X paired with nondistinguished h(X) under q)")
	}
	if rep.Cond3 {
		t.Fatalf("condition (3) should fail (selected sets {X,Y} and {Y,Z} overlap)")
	}
	cr, err := commute.Syntactic(r1, r2)
	if err != nil || cr.Verdict != commute.Commute {
		t.Fatalf("Example 5.3 rules should commute: %v %v", cr, err)
	}
}

// TestSeparableImpliesCommute (Theorem 6.2 forward direction) over a family
// of separable pairs.
func TestSeparableImpliesCommute(t *testing.T) {
	pairs := [][2]string{
		{"p(X,Y) :- p(X,U), up(U,Y).", "p(X,Y) :- down(X,U), p(U,Y)."},
		{"p(X,Y,Z) :- p(X,U,Z), a(U,Y).", "p(X,Y,Z) :- b(X,U), p(U,Y,Z)."},
	}
	for _, pr := range pairs {
		r1, r2 := two(t, pr[0], pr[1])
		rep, err := IsSeparable(r1, r2)
		if err != nil {
			t.Fatalf("%v", err)
		}
		if !rep.Separable() {
			t.Fatalf("pair %v should be separable: %v", pr, rep)
		}
		d, err := commute.Definition(r1, r2)
		if err != nil || d != commute.Commute {
			t.Fatalf("separable pair does not commute: %v %v", d, err)
		}
	}
}

func TestSelectionCommutesWith(t *testing.T) {
	r1, r2 := two(t,
		"p(X,Y) :- p(X,U), up(U,Y).",
		"p(X,Y) :- down(X,U), p(U,Y).")
	sel0 := Selection{Col: 0}
	sel1 := Selection{Col: 1}
	if !sel0.CommutesWith(r1) || sel0.CommutesWith(r2) {
		t.Fatalf("σ[0] should commute with r1 only")
	}
	if sel1.CommutesWith(r1) || !sel1.CommutesWith(r2) {
		t.Fatalf("σ[1] should commute with r2 only")
	}
	if (Selection{Col: 5}).CommutesWith(r1) {
		t.Fatalf("out-of-range column should not commute")
	}
}

func TestIsSeparableRequiresSameConsequent(t *testing.T) {
	r1, r2 := two(t,
		"p(X,Y) :- p(X,U), up(U,Y).",
		"p(A,B) :- down(A,U), p(U,B).")
	if _, err := IsSeparable(r1, r2); err == nil {
		t.Fatalf("different consequent variable names should be rejected")
	}
}

func TestCondition4Disconnected(t *testing.T) {
	// Static arcs form two components: a(X,U) and b(W,W) disconnected.
	r1, r2 := two(t,
		"p(X,Y) :- p(X,U), a(U,Y), b(W,W).",
		"p(X,Y) :- c(X,U), p(U,Y).")
	rep, err := IsSeparable(r1, r2)
	if err != nil {
		t.Fatalf("%v", err)
	}
	if rep.Cond4 {
		t.Fatalf("condition (4) should fail for disconnected static subgraph")
	}
}
