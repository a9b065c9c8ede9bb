// Command lrbench regenerates the paper's evaluation artifacts: every
// figure (a-graph), worked example, algorithm comparison and complexity
// claim, printed as tables and reports.  The engine's performance is
// measured by the bench module (go run -C bench .), not here.
//
// Usage:
//
//	lrbench              # run every experiment
//	lrbench -exp F3      # run one experiment by id
//	lrbench -list        # list experiment ids and titles
package main

import (
	"flag"
	"fmt"
	"os"

	"linrec/internal/experiments"
)

func main() {
	expID := flag.String("exp", "", "experiment id to run (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-5s %s\n", e.ID, e.Title)
		}
		return
	}

	run := experiments.All()
	if *expID != "" {
		e, ok := experiments.Lookup(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "lrbench: unknown experiment %q (try -list)\n", *expID)
			os.Exit(2)
		}
		run = []experiments.Experiment{e}
	}

	for i, e := range run {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("=== %s: %s ===\n\n", e.ID, e.Title)
		if err := e.Run(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "lrbench: %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
	}
}
