// Command flights demonstrates a reachability workload showing
// Theorem 4.1 — the separable algorithm applies to commutative rules
// even when they are NOT separable
// in Naughton's sense.
//
// reach(X,Y,Cls): Y is reachable from X in travel class Cls.  One rule
// extends the start of the trip by a feeder flight (left side), the other
// appends an onward connection recorded per class (right side); both keep
// the class column fixed, which is what makes them commute while sharing
// the selected variable Cls (breaking Naughton's condition (3)).
package main

import (
	"context"
	"fmt"
	"log"

	"linrec/internal/ast"
	"linrec/internal/commute"
	"linrec/internal/eval"
	"linrec/internal/parser"
	"linrec/internal/planner"
	"linrec/internal/rel"
	"linrec/internal/separable"
)

func main() {
	check := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	// a1 prepends feeder flights; a2 appends onward hops.  The class
	// column Cls is link 1-persistent in both (each consults a per-class
	// table), so the two rules share a selected variable.  Trips seed
	// the recursion.
	a1 := parser.MustParseOp("reach(X,Y,Cls) :- reach(U,Y,Cls), feeder(X,U,Cls).")
	a2 := parser.MustParseOp("reach(X,Y,Cls) :- reach(X,U,Cls), onward(Y,U,Cls).")
	a, err := planner.Analyze(&ast.Program{Rules: []ast.Rule{
		parser.MustParseRule("reach(X,Y,Cls) :- trip(X,Y,Cls)."), a1.Rule(), a2.Rule()}}, "reach")
	check(err)

	rep, err := commute.Syntactic(a1, a2)
	check(err)
	sep, err := separable.IsSeparable(a1, a2)
	check(err)
	fmt.Printf("rules:\n  A1: %v\n  A2: %v\n\n", a1, a2)
	fmt.Printf("commutativity (Theorem 5.2): %v\n", rep.Verdict)
	fmt.Printf("Naughton separability: %v\n\n", sep)
	if sep.Separable() && sep.Disjoint {
		log.Fatal("expected a non-separable pair")
	}

	// Data: per-class feeder and onward tables plus seed trips.
	e := eval.NewEngine(nil)
	db := rel.DB{}
	const cities = 60
	econ := e.Syms.Intern("economy")
	biz := e.Syms.Intern("business")
	feeder := db.Rel("feeder", 3)
	onward := db.Rel("onward", 3)
	city := func(i int) rel.Value { return e.Syms.Intern(fmt.Sprintf("c%d", i)) }
	for i := 0; i+1 < cities; i++ {
		feeder.Insert(rel.Tuple{city(i), city(i + 1), econ})
		onward.Insert(rel.Tuple{city(i + 1), city(i), econ})
		if i%2 == 0 {
			feeder.Insert(rel.Tuple{city(i), city(i + 1), biz})
			onward.Insert(rel.Tuple{city(i + 1), city(i), biz})
		}
	}
	q := db.Rel("trip", 3)
	q.Insert(rel.Tuple{city(cities - 1), city(0), econ})
	q.Insert(rel.Tuple{city(cities - 1), city(0), biz})

	// Query: all reachability in economy class — a selection on the class
	// column, which commutes with both rules.  Theorem 4.1 licenses
	// A1*(σ A2* q) even though the pair is not separable, and the planner
	// chooses it.
	sel := separable.Selection{Col: 2, Value: econ}
	plan := a.ChooseMulti([]separable.Selection{sel}, planner.Options{})
	res, err := a.ExecuteSeeded(context.Background(), e, db, plan, &sel, planner.Options{}, q)
	check(err)
	base, baseStats := separable.Baseline(e, db, a1, a2, q, sel)
	if plan.Kind != planner.Separable || !res.Answer.Equal(base) {
		log.Fatalf("%v diverged: %d vs %d tuples", plan.Kind, res.Answer.Len(), base.Len())
	}
	fmt.Printf("economy-class reach facts: %d\n", res.Answer.Len())
	fmt.Printf("baseline (full closure + filter): %v\n", baseStats)
	fmt.Printf("separable plan (Theorem 4.1):     %v\n", res.Stats)
}
