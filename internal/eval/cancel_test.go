package eval

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"linrec/internal/ast"
	"linrec/internal/parser"
	"linrec/internal/rel"
)

// cycleDB builds a directed n-cycle whose transitive closure is the full
// n×n cross product — n semi-naive rounds, n² tuples — big enough that a
// cancelled closure provably stopped early.
func cycleDB(e *Engine, n int) (rel.DB, *rel.Relation) {
	db := rel.DB{}
	r := db.Rel("e", 2)
	for i := 0; i < n; i++ {
		r.Insert(rel.Tuple{
			e.Syms.Intern(fmt.Sprintf("v%d", i)),
			e.Syms.Intern(fmt.Sprintf("v%d", (i+1)%n)),
		})
	}
	return db, r.Clone()
}

// TestSemiNaiveCtxMatchesPlain: with a background context the ctx variant
// is bit-for-bit the plain evaluation, sequential and parallel.
func TestSemiNaiveCtxMatchesPlain(t *testing.T) {
	e := NewEngine(nil)
	db, q := cycleDB(e, 60)
	op := parser.MustParseOp("p(X,Y) :- p(X,Z), e(Z,Y).")

	want, wantStats := e.SemiNaive(db, []*ast.Op{op}, q)
	for _, workers := range []int{1, 4} {
		pe := Parallel(e, workers)
		got, stats, err := pe.SemiNaiveCtx(context.Background(), db, []*ast.Op{op}, q)
		if err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		if !got.Equal(want) {
			t.Fatalf("workers=%d: ctx variant changed the answer: %d vs %d tuples", workers, got.Len(), want.Len())
		}
		if stats != wantStats {
			t.Fatalf("workers=%d: stats diverge: %v vs %v", workers, stats, wantStats)
		}
	}
}

// TestSemiNaiveCtxCancelPrompt: a deadline fired mid-closure aborts the
// evaluation promptly (round barriers and worker shard scans both poll),
// for the sequential and the sharded engine alike.
func TestSemiNaiveCtxCancelPrompt(t *testing.T) {
	const n = 1200 // closure would be 1.44M tuples over 1200 rounds
	e := NewEngine(nil)
	db, q := cycleDB(e, n)
	op := parser.MustParseOp("p(X,Y) :- p(X,Z), e(Z,Y).")

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
			defer cancel()
			pe := Parallel(e, workers)
			start := time.Now()
			_, _, err := pe.SemiNaiveCtx(ctx, db, []*ast.Op{op}, q)
			elapsed := time.Since(start)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want DeadlineExceeded", err)
			}
			if elapsed > 2*time.Second {
				t.Fatalf("cancelled closure took %v to return", elapsed)
			}
		})
	}
}

// TestSemiNaiveCtxAlreadyCancelled: a dead context fails fast without
// evaluating anything.
func TestSemiNaiveCtxAlreadyCancelled(t *testing.T) {
	e := NewEngine(nil)
	db, q := cycleDB(e, 30)
	op := parser.MustParseOp("p(X,Y) :- p(X,Z), e(Z,Y).")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Parallel(e, 4).SemiNaiveCtx(ctx, db, []*ast.Op{op}, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
}

// TestCancelDoesNotLeakGoroutines: repeated cancelled parallel closures
// leave no workers or watchers behind — the round barrier joins every
// worker even on the abort path.  The 2048-cycle's rounds are wide, so
// its 2-worker closure is cancelled mid-pipeline: while a merge feeds
// the next round's joiners, or while they finish its rows.
func TestCancelDoesNotLeakGoroutines(t *testing.T) {
	e := NewEngine(nil)
	op := parser.MustParseOp("p(X,Y) :- p(X,Z), e(Z,Y).")

	before := runtime.NumGoroutine()
	for _, tc := range []struct{ nodes, workers int }{{800, 8}, {2048, 2}} {
		db, q := cycleDB(e, tc.nodes)
		for i := 0; i < 5; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			tr := &Tracer{}
			start := time.Now()
			_, _, err := Parallel(e, tc.workers).SemiNaiveCtx(WithTracer(ctx, tr), db, []*ast.Op{op}, q)
			cancel()
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("%d workers, iteration %d: err = %v, want DeadlineExceeded", tc.workers, i, err)
			}
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Fatalf("%d workers, iteration %d: cancelled closure took %v to return", tc.workers, i, elapsed)
			}
			if rounds := tr.Trace().Phases[0].Rounds; tc.workers == 2 && len(rounds) > 1 && !rounds[len(rounds)-1].Pipelined {
				t.Fatalf("iteration %d: the last of %d rounds before the cancel was not pipelined", i, len(rounds))
			}
		}
	}
	// Give exiting goroutines a moment to unwind, then require the count
	// back at (or below) the baseline, with slack for runtime helpers.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after cancelled closures", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDecomposedCtxCancel: the chained decomposition propagates ctx into
// both phases.
func TestDecomposedCtxCancel(t *testing.T) {
	e := NewEngine(nil)
	db, q := cycleDB(e, 1000)
	b := parser.MustParseOp("p(X,Y) :- p(X,Z), e(Z,Y).")
	c := parser.MustParseOp("p(X,Y) :- e(X,Z), p(Z,Y).")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, err := Parallel(e, 4).Decomposed(ctx, db, []*ast.Op{b}, []*ast.Op{c}, q); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}
