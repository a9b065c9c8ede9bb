package linrec_test

import (
	"context"
	"fmt"
	"log"
	"os"
	"strings"

	"linrec"
)

// ExampleLoad demonstrates the quick-start path: load a program, answer a
// selection query, and see which plan the commutativity analysis licensed.
func ExampleLoad() {
	sys, err := linrec.Load(`
		path(X,Y) :- edge(X,Y).
		path(X,Y) :- path(X,Z), edge(Z,Y).
		edge(a,b). edge(b,c). edge(c,d).
		?- path(b, Y).
	`, linrec.Options{})
	if err != nil {
		log.Fatal(err)
	}
	results, err := sys.Run()
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range results[0].Rows(sys) {
		fmt.Printf("path(%s)\n", strings.Join(row, ","))
	}
	// Output:
	// path(b,c)
	// path(b,d)
}

// ExampleSystem_Evaluate demonstrates the bound-query fast path: a goal
// that binds an argument column is answered by magic-seeded evaluation —
// a frontier grown from the constant — instead of closing the whole
// predicate and filtering.  The single recursive rule here has no
// separable partner, so before the MagicSeeded plan kind this query paid
// for the full closure of buys.
func ExampleSystem_Evaluate() {
	sys, err := linrec.Load(`
		buys(X,Y) :- trusts(X,Y).
		buys(X,Y) :- knows(X,Z), buys(Z,Y).
		knows(ann,bob). knows(bob,cho).
		trusts(bob,figs). trusts(cho,tea).
	`, linrec.Options{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.Evaluate(context.Background(), linrec.NewQueryRequest(linrec.NewAtom("buys", linrec.C("ann"), linrec.V("Y"))))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("plan:", res.Plan.Kind)
	for _, row := range res.Rows(sys) {
		fmt.Printf("buys(%s)\n", strings.Join(row, ","))
	}
	// Output:
	// plan: magic-seeded evaluation (σ-bound frontier)
	// buys(ann,figs)
	// buys(ann,tea)
}

// ExampleOpenStorage demonstrates durable snapshots: a system attached
// to a storage directory publishes every snapshot swap as immutable
// on-disk segments, and a later process pointed at the same directory
// recovers the newest one — including facts pushed after boot — without
// re-parsing the program's fact list.
func ExampleOpenStorage() {
	dir, err := os.MkdirTemp("", "linrec-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	program := `
		path(X,Y) :- edge(X,Y).
		path(X,Y) :- path(X,Z), edge(Z,Y).
		edge(a,b). edge(b,c).
	`

	// First process: open storage, load, push a fact.  The swap
	// publishes durably before it becomes visible.
	store, err := linrec.OpenStorage(dir)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := linrec.Load(program, linrec.Options{Persist: store})
	if err != nil {
		log.Fatal(err)
	}
	if _, _, err := sys.Apply(context.Background(), []linrec.Atom{linrec.NewAtom("edge", linrec.C("c"), linrec.C("d"))}, nil); err != nil {
		log.Fatal(err)
	}

	// "Reboot": a fresh manager over the same directory recovers the
	// last published snapshot, so the pushed edge(c,d) survives.
	store2, err := linrec.OpenStorage(dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("recovered:", store2.HasSnapshot())
	sys2, err := linrec.Load(program, linrec.Options{Persist: store2})
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys2.Evaluate(context.Background(), linrec.NewQueryRequest(linrec.NewAtom("path", linrec.C("a"), linrec.V("Y"))))
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows(sys2) {
		fmt.Printf("path(%s)\n", strings.Join(row, ","))
	}
	// Output:
	// recovered: true
	// path(a,b)
	// path(a,c)
	// path(a,d)
}

// ExampleSystem_Analyze inspects the paper's analysis: the two transitive-
// closure forms commute, so the closure decomposes.
func ExampleSystem_Analyze() {
	sys, err := linrec.Load(`
		path(X,Y) :- up(X,Y).
		path(X,Y) :- path(X,Z), up(Z,Y).
		path(X,Y) :- down(X,Z), path(Z,Y).
		up(a,b).
	`, linrec.Options{})
	if err != nil {
		log.Fatal(err)
	}
	a, err := sys.Analyze("path")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("rules:", len(a.Ops))
	fmt.Println("pair commutes:", a.Commutes[[2]int{0, 1}] == linrec.Commute)
	plan, err := sys.PlanFor(linrec.NewAtom("path", linrec.V("X"), linrec.V("Y")), linrec.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("plan:", plan.Kind)
	// Output:
	// rules: 2
	// pair commutes: true
	// plan: decomposed closure (B*C*)
}
