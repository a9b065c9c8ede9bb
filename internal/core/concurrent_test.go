package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"linrec/internal/planner"
)

// concurrentProgram is a commuting two-rule program with enough facts that
// closures take several rounds, three query shapes (open, selection,
// ground), and a predicate ("ghost") that appears in no fact, so the
// read-only Probe path for absent relations is exercised too.
func concurrentProgram() string {
	var b strings.Builder
	b.WriteString("p(X,Y) :- base(X,Y).\n")
	b.WriteString("p(X,Y) :- p(X,U), fwd(U,Y).\n")
	b.WriteString("p(X,Y) :- bwd(X,U), p(U,Y).\n")
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&b, "base(n%d,n%d).\n", i, i+1)
		fmt.Fprintf(&b, "fwd(n%d,n%d).\n", i+1, (i*7+2)%61)
		fmt.Fprintf(&b, "bwd(n%d,n%d).\n", (i*5+3)%61, i)
	}
	b.WriteString("?- p(X, Y).\n")
	b.WriteString("?- p(n0, Y).\n")
	b.WriteString("?- p(X, n1).\n")
	return b.String()
}

// TestSystemRunConcurrent: N goroutines calling System.Run on one loaded
// System must agree with a single-threaded baseline (run with -race in the
// CI race lane).
func TestSystemRunConcurrent(t *testing.T) {
	for _, opts := range []Options{
		{},           // sequential closures
		{Workers: 4}, // parallel closures
		{Workers: 2, Strategy: planner.ForceSemiNaive}, // forced flat plan
	} {
		opts := opts
		t.Run(fmt.Sprintf("workers=%d,strategy=%v", opts.Workers, opts.Strategy), func(t *testing.T) {
			sys, err := load(concurrentProgram(), opts)
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			baseline, err := sys.Run()
			if err != nil {
				t.Fatalf("baseline Run: %v", err)
			}
			if len(baseline) != 3 || baseline[0].Answer.Len() == 0 {
				t.Fatalf("unexpected baseline: %d results", len(baseline))
			}

			const goroutines = 8
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rs, err := sys.Run()
					if err != nil {
						errs <- fmt.Errorf("concurrent Run: %v", err)
						return
					}
					for i, r := range rs {
						if !r.Answer.Equal(baseline[i].Answer) {
							errs <- fmt.Errorf("query %d: %d tuples, baseline %d",
								i, r.Answer.Len(), baseline[i].Answer.Len())
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestOptionsForceStrategy: the strategy override changes the plan without
// changing the answer.
func TestOptionsForceStrategy(t *testing.T) {
	src := concurrentProgram()
	auto, err := load(src, Options{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	forced, err := load(src, Options{Workers: 3, Strategy: planner.ForceSemiNaive})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	ra, err := auto.Run()
	if err != nil {
		t.Fatalf("auto Run: %v", err)
	}
	rf, err := forced.Run()
	if err != nil {
		t.Fatalf("forced Run: %v", err)
	}
	// The open query decomposes under auto but must stay flat when forced.
	if ra[0].Plan.Kind != planner.Decomposed {
		t.Fatalf("auto open-query plan = %v, want decomposed", ra[0].Plan.Kind)
	}
	if rf[0].Plan.Kind != planner.SemiNaive {
		t.Fatalf("forced open-query plan = %v, want semi-naive", rf[0].Plan.Kind)
	}
	for i := range ra {
		if !ra[i].Answer.Equal(rf[i].Answer) {
			t.Fatalf("query %d: forced strategy changed the answer", i)
		}
	}
}

// TestNegativeWorkersMeansGOMAXPROCS: Options normalization.
func TestNegativeWorkersMeansGOMAXPROCS(t *testing.T) {
	sys, err := load(concurrentProgram(), Options{Workers: -1})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if sys.Opts.Workers < 1 {
		t.Fatalf("Workers = %d after normalization", sys.Opts.Workers)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}
