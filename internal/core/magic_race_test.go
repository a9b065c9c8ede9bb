package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"linrec/internal/ast"
	"linrec/internal/parser"
	"linrec/internal/planner"
)

// parseFacts parses Datalog source containing only ground facts.
func parseFacts(src string) ([]ast.Atom, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return prog.Facts, nil
}

// magicRaceProgram: a left-chain transitive closure (context-mode magic on
// column 0) over an initial chain c0 → … → c19.
func magicRaceProgram() string {
	var b strings.Builder
	b.WriteString("p(X,Y) :- e(X,Y).\np(X,Y) :- e(X,Z), p(Z,Y).\n")
	for i := 0; i < 19; i++ {
		fmt.Fprintf(&b, "e(c%d,c%d).\n", i, i+1)
	}
	return b.String()
}

// TestMagicCacheConcurrentQueriesAndSwaps hammers the (goal-binding,
// version) magic cache: many goroutines issue bound queries over a mix of
// hot and cold bindings — hitting the single-flight build, the cached
// set, and superseded snapshots — while a writer keeps publishing new
// snapshots.  Run under -race this is the data-race proof for the new
// cache dimension; afterwards every binding's cached answer must equal a
// fresh closure-then-filter baseline on the final snapshot.
func TestMagicCacheConcurrentQueriesAndSwaps(t *testing.T) {
	sys, err := load(magicRaceProgram(), Options{})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	ctx := context.Background()

	const readers = 8
	var wg sync.WaitGroup
	errc := make(chan error, readers+1)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 60; i++ {
				// Bias toward c0: a hot binding exercises cache hits while
				// the tail still forces fresh single-flight builds.
				k := 0
				if rng.Intn(3) > 0 {
					k = rng.Intn(20)
				}
				goal := mustAtom(t, fmt.Sprintf("p(c%d, Y)", k))
				res, err := sys.Evaluate(ctx, QueryRequest{Goal: goal, Opts: sys.Opts})
				if err != nil {
					errc <- fmt.Errorf("reader %d: %v", g, err)
					return
				}
				if res.Plan.Kind != planner.MagicSeeded {
					errc <- fmt.Errorf("reader %d: plan = %v, want MagicSeeded (%s)", g, res.Plan.Kind, res.Plan.Why)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			facts, err := parseFacts(fmt.Sprintf("e(c%d,d%d). e(d%d,c%d).", i%20, i, i, (i+7)%20))
			if err != nil {
				errc <- err
				return
			}
			if _, _, err := sys.AddFacts(facts); err != nil {
				errc <- fmt.Errorf("writer: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Settled state: cached magic answers equal the forced baseline.
	snap := sys.Snapshot()
	for k := 0; k < 20; k++ {
		goal := mustAtom(t, fmt.Sprintf("p(c%d, Y)", k))
		auto, err := sys.Evaluate(ctx, QueryRequest{Goal: goal, Snap: snap, Opts: Options{}})
		if err != nil {
			t.Fatalf("auto p(c%d,Y): %v", k, err)
		}
		base, err := sys.Evaluate(ctx, QueryRequest{Goal: goal, Snap: snap, Opts: Options{Strategy: planner.ForceSemiNaive}})
		if err != nil {
			t.Fatalf("baseline p(c%d,Y): %v", k, err)
		}
		if !reflect.DeepEqual(auto.Rows(sys), base.Rows(sys)) {
			t.Fatalf("p(c%d,Y): cached magic answer diverges from baseline: %d vs %d rows",
				k, auto.Answer.Len(), base.Answer.Len())
		}
	}
}

// TestMagicCacheStatsDeterministic: the first bound query pays for the
// magic frontier; a second identical query reuses the cached set but must
// report identical rows and statistics (the build's stats are stored with
// the set).
func TestMagicCacheStatsDeterministic(t *testing.T) {
	sys, err := load(magicRaceProgram(), Options{})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	goal := mustAtom(t, "p(c3, Y)")
	first, err := query(sys, goal)
	if err != nil {
		t.Fatalf("first: %v", err)
	}
	second, err := query(sys, goal)
	if err != nil {
		t.Fatalf("second: %v", err)
	}
	if first.Plan.Kind != planner.MagicSeeded || second.Plan.Kind != planner.MagicSeeded {
		t.Fatalf("plans = %v, %v, want MagicSeeded", first.Plan.Kind, second.Plan.Kind)
	}
	if !reflect.DeepEqual(first.Rows(sys), second.Rows(sys)) {
		t.Fatalf("cached query changed the answer")
	}
	if first.Stats != second.Stats {
		t.Fatalf("cache hit changed statistics: %v vs %v", first.Stats, second.Stats)
	}
}

// TestMagicCacheCapBounded: sweeping more distinct bound constants than
// magicCacheCap must not grow the cache without bound, and queries past
// the cap (computed inline, uncached) still answer correctly.
func TestMagicCacheCapBounded(t *testing.T) {
	var b strings.Builder
	b.WriteString("p(X,Y) :- e(X,Y).\np(X,Y) :- e(X,Z), p(Z,Y).\n")
	const n = magicCacheCap + 200
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "e(c%d,c%d).\n", i, i+1)
	}
	sys, err := load(b.String(), Options{})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	snap := sys.Snapshot()
	for k := n - 1; k >= 0; k-- { // back to front: tiny answers first
		goal := mustAtom(t, fmt.Sprintf("p(c%d, Y)", k))
		res, err := sys.Evaluate(context.Background(), QueryRequest{Goal: goal, Snap: snap, Opts: Options{}})
		if err != nil {
			t.Fatalf("p(c%d,Y): %v", k, err)
		}
		if want := n - k; res.Answer.Len() != want {
			t.Fatalf("p(c%d,Y) = %d rows, want %d", k, res.Answer.Len(), want)
		}
	}
	st := sys.SeedCacheStatsNow()
	if entries := st.SeedEntries + st.MagicEntries; entries > magicCacheCap+1 { // +1: the exit-rule seed entry
		t.Fatalf("cache grew to %d entries, cap is %d", entries, magicCacheCap)
	}
}
