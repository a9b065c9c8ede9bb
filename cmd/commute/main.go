// Command commute analyzes a Datalog program with the paper's machinery:
// for every linear recursive predicate it prints the a-graph variable
// classification, commutativity verdicts per rule pair, Naughton
// separability, recursively redundant predicates and the evaluation plan
// the planner would choose.  With queries present ("?- p(a, X)."), it also
// answers them and reports the plan and statistics used.
//
// Usage:
//
//	commute program.dl
//	commute -          # read from stdin
//	commute -q program.dl   # answer the program's queries too
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"linrec/internal/core"
	"linrec/internal/parser"
)

// emitDot prints one digraph per recursive rule of every recursive
// predicate.
func emitDot(sys *core.System) error {
	for _, pred := range sys.Prog.IDBPreds() {
		recursive := false
		for _, r := range sys.Prog.RulesFor(pred) {
			if r.IsRecursiveWith(pred) {
				recursive = true
			}
		}
		if !recursive {
			continue
		}
		a, err := sys.Analyze(pred)
		if err != nil {
			return err
		}
		for i, g := range a.Graphs {
			fmt.Print(g.DOT(fmt.Sprintf("%s_rule%d", pred, i+1)))
		}
	}
	return nil
}

func main() {
	answer := flag.Bool("q", false, "answer the program's ?- queries")
	dot := flag.Bool("dot", false, "emit Graphviz dot for each recursive rule's a-graph instead of the report")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: commute [-q] <program.dl | ->")
		os.Exit(2)
	}

	var src []byte
	var err error
	if flag.Arg(0) == "-" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(flag.Arg(0))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "commute: %v\n", err)
		os.Exit(1)
	}

	prog, err := parser.Parse(string(src))
	if err != nil {
		fmt.Fprintf(os.Stderr, "commute: %v\n", err)
		os.Exit(1)
	}
	sys, err := core.NewSystem(prog, core.Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "commute: %v\n", err)
		os.Exit(1)
	}

	if *dot {
		if err := emitDot(sys); err != nil {
			fmt.Fprintf(os.Stderr, "commute: %v\n", err)
			os.Exit(1)
		}
		return
	}

	rep, err := sys.Report()
	if err != nil {
		fmt.Fprintf(os.Stderr, "commute: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(rep)

	if *answer && len(sys.Prog.Queries) > 0 {
		results, err := sys.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "commute: %v\n", err)
			os.Exit(1)
		}
		for _, r := range results {
			fmt.Printf("\n?- %v.  [%v; %v]\n", r.Query, r.Plan.Kind, r.Stats)
			for _, row := range r.Rows(sys) {
				fmt.Printf("  %s(%s)\n", r.Query.Pred, strings.Join(row, ","))
			}
		}
	}
}
