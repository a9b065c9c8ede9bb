package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"linrec/internal/ast"
)

// chainProgram builds a path/edge program over a chain c0→c1→…→cN.
func chainProgram(n int) string {
	var b strings.Builder
	b.WriteString("path(X,Y) :- edge(X,Y).\n")
	b.WriteString("path(X,Y) :- path(X,U), edge(U,Y).\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "edge(c%d,c%d).\n", i, i+1)
	}
	return b.String()
}

func edgeFact(from, to int) ast.Atom {
	return ast.NewAtom("edge", ast.C(fmt.Sprintf("c%d", from)), ast.C(fmt.Sprintf("c%d", to)))
}

// TestAddFactsSwapIsolation: a swap bumps the version and becomes visible
// to new queries, while a query pinned to the old snapshot still sees the
// old world.
func TestAddFactsSwapIsolation(t *testing.T) {
	sys, err := load(chainProgram(2), Options{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	goal := ast.NewAtom("path", ast.C("c0"), ast.V("Y"))

	old := sys.Snapshot()
	if old.Version != 1 {
		t.Fatalf("initial version = %d, want 1", old.Version)
	}
	r1, err := query(sys, goal)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if r1.Answer.Len() != 2 || r1.Version != 1 {
		t.Fatalf("initial answer = %d rows at version %d", r1.Answer.Len(), r1.Version)
	}

	next, added, err := sys.AddFacts([]ast.Atom{edgeFact(2, 3)})
	if err != nil {
		t.Fatalf("AddFacts: %v", err)
	}
	if next.Version != 2 || added != 1 {
		t.Fatalf("post-swap version = %d (added %d), want 2 (added 1)", next.Version, added)
	}

	r2, err := query(sys, goal)
	if err != nil {
		t.Fatalf("Query after swap: %v", err)
	}
	if r2.Answer.Len() != 3 || r2.Version != 2 {
		t.Fatalf("post-swap answer = %d rows at version %d, want 3 at 2", r2.Answer.Len(), r2.Version)
	}

	// The pinned old snapshot still answers from the old world.
	rOld, err := sys.Evaluate(context.Background(), QueryRequest{Goal: goal, Snap: old, Opts: sys.Opts})
	if err != nil {
		t.Fatalf("Evaluate(old): %v", err)
	}
	if rOld.Answer.Len() != 2 || rOld.Version != 1 {
		t.Fatalf("pinned snapshot answer = %d rows at version %d, want 2 at 1", rOld.Answer.Len(), rOld.Version)
	}
	// Relations untouched by the swap are shared, not copied.
	if old.DB.Probe("path") != next.DB.Probe("path") {
		t.Fatalf("untouched relations should be shared between snapshots")
	}
	if old.DB.Probe("edge") == next.DB.Probe("edge") {
		t.Fatalf("the grown relation must be cloned, not shared")
	}
}

// TestAddFactsRejectsBadFacts: non-ground atoms and arity mismatches are
// rejected without publishing a snapshot.
func TestAddFactsRejectsBadFacts(t *testing.T) {
	sys, err := load(chainProgram(2), Options{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	v := sys.Snapshot().Version
	if _, _, err := sys.AddFacts([]ast.Atom{ast.NewAtom("edge", ast.C("c9"), ast.V("Y"))}); err == nil {
		t.Fatalf("non-ground fact accepted")
	}
	if _, _, err := sys.AddFacts([]ast.Atom{ast.NewAtom("edge", ast.C("c9"))}); err == nil {
		t.Fatalf("arity mismatch accepted")
	}
	if got := sys.Snapshot().Version; got != v {
		t.Fatalf("rejected update bumped the version: %d -> %d", v, got)
	}
}

// TestAddFactsRejectsDerivedPredicate: facts for a rule-head predicate
// would be stored but never consulted by evaluation — silent data loss —
// so the update is rejected outright.
func TestAddFactsRejectsDerivedPredicate(t *testing.T) {
	sys, err := load(chainProgram(2), Options{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	v := sys.Snapshot().Version
	if _, _, err := sys.AddFacts([]ast.Atom{ast.NewAtom("path", ast.C("x"), ast.C("y"))}); err == nil {
		t.Fatalf("fact for derived predicate accepted")
	}
	if got := sys.Snapshot().Version; got != v {
		t.Fatalf("rejected update bumped the version: %d -> %d", v, got)
	}
}

// TestAddFactsIdempotentRepush: a batch of pure duplicates publishes no
// new snapshot (version stable, caches stay warm).
func TestAddFactsIdempotentRepush(t *testing.T) {
	sys, err := load(chainProgram(2), Options{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	snap, added, err := sys.AddFacts([]ast.Atom{edgeFact(0, 1), edgeFact(1, 2)})
	if err != nil {
		t.Fatalf("AddFacts: %v", err)
	}
	if added != 0 || snap.Version != 1 {
		t.Fatalf("duplicate batch: added %d at version %d, want 0 at 1", added, snap.Version)
	}
	if snap != sys.Snapshot() {
		t.Fatalf("duplicate batch published a new snapshot")
	}
}

// TestUnknownConstantDoesNotIntern: a query constant occurring in no rule
// or fact answers empty without growing the shared symbol table — the
// server-facing guard against unbounded interning by remote clients.
func TestUnknownConstantDoesNotIntern(t *testing.T) {
	sys, err := load(chainProgram(2), Options{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	before := sys.Engine.Syms.Len()
	r, err := query(sys, ast.NewAtom("path", ast.C("nosuchnode"), ast.V("Y")))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if r.Answer.Len() != 0 {
		t.Fatalf("unknown constant returned %d rows", r.Answer.Len())
	}
	if after := sys.Engine.Syms.Len(); after != before {
		t.Fatalf("query interned %d new symbols", after-before)
	}
}

// TestRuleConstantQueryable: constants appearing only in rules (never in
// facts) are pre-interned at load, so querying them still evaluates
// rather than short-circuiting to empty.
func TestRuleConstantQueryable(t *testing.T) {
	sys, err := load(`
p(X,Y) :- e(X,Y).
p(X,Y) :- p(X,U), e(U,Y).
p(X,root) :- anchor(X).
e(a,b). anchor(a).
`, Options{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	r, err := query(sys, ast.NewAtom("p", ast.V("X"), ast.C("root")))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if r.Answer.Len() != 1 {
		t.Fatalf("rule-constant query = %d rows, want 1", r.Answer.Len())
	}
}

// TestSnapshotSwapRace: N reader goroutines query while a writer swaps
// fact snapshots; every answer must be consistent with exactly one
// snapshot — for a chain of k edges, path(c0, Y) has exactly k rows, all
// with index ≤ k, where k is determined by the version the query pinned.
// Run under -race in the CI race lane.
func TestSnapshotSwapRace(t *testing.T) {
	const (
		initial = 8  // edges in version 1
		swaps   = 40 // each swap appends one edge
		readers = 6
	)
	sys, err := load(chainProgram(initial), Options{Workers: 4})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	goal := ast.NewAtom("path", ast.C("c0"), ast.V("Y"))
	// chain length at version v: initial + (v-1).
	lenAt := func(version uint64) int { return initial + int(version) - 1 }

	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	done := make(chan struct{})

	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		defer close(done)
		for i := 0; i < swaps; i++ {
			snap, _, err := sys.AddFacts([]ast.Atom{edgeFact(initial+i, initial+i+1)})
			if err != nil {
				errs <- fmt.Errorf("AddFacts %d: %v", i, err)
				return
			}
			if want := uint64(i + 2); snap.Version != want {
				errs <- fmt.Errorf("swap %d: version %d, want %d", i, snap.Version, want)
				return
			}
		}
	}()

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				r, err := query(sys, goal)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %v", g, err)
					return
				}
				want := lenAt(r.Version)
				if r.Answer.Len() != want {
					errs <- fmt.Errorf("reader %d: torn read: %d rows at version %d, want %d",
						g, r.Answer.Len(), r.Version, want)
					return
				}
				// Every reachable node index must exist at this version.
				for _, row := range r.Rows(sys) {
					idx, err := strconv.Atoi(strings.TrimPrefix(row[1], "c"))
					if err != nil || idx < 1 || idx > want {
						errs <- fmt.Errorf("reader %d: row %v inconsistent with version %d",
							g, row, r.Version)
						return
					}
				}
			}
		}(g)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// After the writer finishes, the final snapshot has every edge.
	final, err := query(sys, goal)
	if err != nil {
		t.Fatalf("final query: %v", err)
	}
	if final.Answer.Len() != initial+swaps {
		t.Fatalf("final answer = %d rows, want %d", final.Answer.Len(), initial+swaps)
	}
}

// TestQueryCtxTimeout: a per-query deadline kills a long closure promptly
// through the core entry point.
func TestQueryCtxTimeout(t *testing.T) {
	var b strings.Builder
	b.WriteString("p(X,Y) :- e(X,Y).\n")
	b.WriteString("p(X,Y) :- p(X,U), e(U,Y).\n")
	const n = 1000 // cycle: closure would be n² tuples over n rounds
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "e(v%d,v%d).\n", i, (i+1)%n)
	}
	for _, workers := range []int{1, 4} {
		sys, err := load(b.String(), Options{Workers: workers})
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
		start := time.Now()
		_, err = sys.Evaluate(ctx, QueryRequest{Goal: ast.NewAtom("p", ast.V("X"), ast.V("Y")), Opts: sys.Opts})
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("workers=%d: err = %v, want DeadlineExceeded", workers, err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("workers=%d: timed-out query took %v to return", workers, elapsed)
		}
	}
}
