// Command quickstart demonstrates the quick-start path: load a
// transitive-closure program through the public API, inspect the
// paper's analysis (the two rules commute, so the closure
// decomposes), and answer queries with the plan the analysis licenses.
package main

import (
	"fmt"
	"log"
	"strings"

	"linrec"
)

const program = `
% Two linear forms of transitive closure over different edge relations —
% the canonical commuting pair of Example 5.2 in the paper.
path(X,Y) :- up(X,Y).
path(X,Y) :- path(X,Z), up(Z,Y).
path(X,Y) :- down(X,Z), path(Z,Y).

up(a,b).  up(b,c).  up(c,d).
down(d,c). down(c,b).

?- path(a, Y).     % selection: the separable algorithm applies
?- path(X, Y).     % full closure: decomposed as B*C*
`

func main() {
	sys, err := linrec.Load(program, linrec.Options{})
	if err != nil {
		log.Fatal(err)
	}

	report, err := sys.Report()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== analysis ===")
	fmt.Println(report)

	results, err := sys.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== queries ===")
	for _, r := range results {
		fmt.Printf("\n?- %v.   [plan: %v]\n", r.Query, r.Plan.Kind)
		for _, row := range r.Rows(sys) {
			fmt.Printf("  path(%s)\n", strings.Join(row, ","))
		}
		fmt.Printf("  stats: %v\n", r.Stats)
	}
}
