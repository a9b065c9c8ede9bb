package experiments

import (
	"context"
	"fmt"
	"io"

	"linrec/internal/ast"
	"linrec/internal/eval"
	"linrec/internal/rel"
	"linrec/internal/workload"
)

// I31 verifies formula (3.1) of the paper on data:
//
//	(B+C)* = B*C* + (B+C)*·C·B·(B+C)*
//
// for arbitrary (not necessarily commuting) operators: the terms of the
// closure split into those without the factor CB (covered by B*C*) and
// those with it.  When B and C commute the second summand contributes only
// duplicates, which is exactly why the decomposition saves work.
func I31(w io.Writer) error {
	type pair struct {
		name   string
		b, c   string
		expect string
	}
	pairs := []pair{
		{"commuting TC forms", "p(X,Y) :- p(X,U), up(U,Y).", "p(X,Y) :- down(X,U), p(U,Y).",
			"second summand ⊆ B*C*q (only duplicates)"},
		{"non-commuting same-side", "p(X,Y) :- p(X,U), up(U,Y).", "p(X,Y) :- p(X,U), down(U,Y).",
			"second summand contributes new tuples"},
	}
	for _, pr := range pairs {
		b := mustOp(pr.b)
		c := mustOp(pr.c)
		e := eval.NewEngine(nil)
		db := rel.DB{}
		workload.ChainShared(e, db, "up", 16)
		workload.Random(e, db, "down", 17, 24, 9)
		q := db["up"].Clone()

		lhs, _ := e.SemiNaive(db, []*ast.Op{b, c}, q)
		bc, _, err := e.Decomposed(context.Background(), db, []*ast.Op{b}, []*ast.Op{c}, q)
		if err != nil {
			return err
		}

		// (B+C)*·C·B·(B+C)* q, computed right to left.
		t1, _ := e.SemiNaive(db, []*ast.Op{b, c}, q)
		t2 := rel.NewRelation(q.Arity())
		var s eval.Stats
		e.Apply(db, b, t1, t2, &s)
		t3 := rel.NewRelation(q.Arity())
		e.Apply(db, c, t2, t3, &s)
		t4, _ := e.SemiNaive(db, []*ast.Op{b, c}, t3)

		rhs := bc.Clone()
		rhs.UnionInto(t4)

		extra := 0
		t4.Each(func(t rel.Tuple) {
			if !bc.Has(t) {
				extra++
			}
		})
		fmt.Fprintf(w, "%s:\n", pr.name)
		fmt.Fprintf(w, "  (B+C)*q = %d tuples; B*C*q = %d; CB-summand adds %d new\n",
			lhs.Len(), bc.Len(), extra)
		fmt.Fprintf(w, "  identity (3.1) holds: %v (%s)\n\n", lhs.Equal(rhs), pr.expect)
		if !lhs.Equal(rhs) {
			return fmt.Errorf("I31: identity (3.1) failed for %s", pr.name)
		}
	}
	fmt.Fprintf(w, "paper's claim: the closure terms partition into CB-free terms (B*C*) and\n")
	fmt.Fprintf(w, "CB-containing terms; commutativity makes the latter pure duplicate work.\n")
	return nil
}

// P7 demonstrates the Section 7 extension implemented in the planner:
// partial commutativity — grouping non-commuting operators and decomposing
// across mutually commuting groups.
func P7(w io.Writer) error {
	b1 := mustOp("p(X,Y) :- p(X,U), e1(U,Y).")
	b2 := mustOp("p(X,Y) :- p(X,U), e2(U,Y).")
	c := mustOp("p(X,Y) :- e3(X,U), p(U,Y).")
	fmt.Fprintf(w, "operators:\n  B1: %v\n  B2: %v\n  C:  %v\n\n", b1, b2, c)
	fmt.Fprintf(w, "B1,B2 do not commute; each commutes with C ⇒ groups {B1,B2} | {C}\n")
	fmt.Fprintf(w, "(ΣB + C)* = (ΣB)* C*  —  measured:\n\n")

	e := eval.NewEngine(nil)
	db := rel.DB{}
	workload.ChainShared(e, db, "e1", 24)
	workload.Random(e, db, "e2", 25, 30, 3)
	workload.Random(e, db, "e3", 25, 30, 4)
	q := db["e1"].Clone()

	flat, flatStats := e.SemiNaive(db, []*ast.Op{b1, b2, c}, q)
	grouped, groupStats, err := e.Decomposed(context.Background(), db, []*ast.Op{b1, b2}, []*ast.Op{c}, q)
	if err != nil {
		return err
	}
	if !flat.Equal(grouped) {
		return fmt.Errorf("P7: grouped decomposition changed the answer")
	}
	fmt.Fprintf(w, "  flat (ΣAᵢ)*:      %v\n", flatStats)
	fmt.Fprintf(w, "  grouped (ΣB)*C*:  %v\n", groupStats)
	fmt.Fprintf(w, "  answers equal: true (%d tuples)\n", flat.Len())
	if groupStats.Duplicates > flatStats.Duplicates {
		return fmt.Errorf("P7: grouped plan produced more duplicates")
	}
	return nil
}
