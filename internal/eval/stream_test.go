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

// drain pulls every row from the stream into a fresh relation of the
// given arity, returning it with the stream's error.
func drain(c *ClosureStream, arity int) (*rel.Relation, error) {
	out := rel.NewRelation(arity)
	for {
		t, ok := c.Next()
		if !ok {
			break
		}
		out.Insert(t)
	}
	return out, c.Err()
}

// TestStreamCtxMatchesSemiNaive: a fully drained stream yields exactly
// the materialized closure — same rows, same stats — sequential and
// parallel.
func TestStreamCtxMatchesSemiNaive(t *testing.T) {
	e := NewEngine(nil)
	db, q := cycleDB(e, 60)
	op := parser.MustParseOp("p(X,Y) :- p(X,Z), e(Z,Y).")

	want, wantStats := e.SemiNaive(db, []*ast.Op{op}, q)
	for _, workers := range []int{1, 2, 4} {
		pe := Parallel(e, workers)
		st := pe.StreamCtx(context.Background(), db, []*ast.Op{op}, q)
		got, err := drain(st, q.Arity())
		if err != nil {
			t.Fatalf("workers=%d: stream errored: %v", workers, err)
		}
		if !st.Exhausted() {
			t.Fatalf("workers=%d: drained stream not Exhausted", workers)
		}
		if !got.Equal(want) {
			t.Fatalf("workers=%d: streamed closure diverges: %d vs %d tuples", workers, got.Len(), want.Len())
		}
		if !st.Total().Equal(want) {
			t.Fatalf("workers=%d: Total() diverges from the materialized closure", workers)
		}
		if st.Stats() != wantStats {
			t.Fatalf("workers=%d: stats diverge: %v vs %v", workers, st.Stats(), wantStats)
		}
		st.Close()
	}

	// An already-complete stream serves a materialized relation through
	// the same iterator, with no rounds to run.
	done := Completed(want)
	got, err := drain(done, q.Arity())
	if err != nil || !got.Equal(want) || !done.Exhausted() || done.Stats() != (Stats{}) {
		t.Fatalf("Completed stream: err=%v rows=%d exhausted=%v stats=%v", err, got.Len(), done.Exhausted(), done.Stats())
	}
	done.Close()
}

// TestStreamRestrictedMatches: the restricted stream equals
// SemiNaiveRestrictedCtx on the same magic set.
func TestStreamRestrictedMatches(t *testing.T) {
	e := NewEngine(nil)
	db, q := cycleDB(e, 40)
	op := parser.MustParseOp("p(X,Y) :- p(X,Z), e(Z,Y).")

	// Allow only closure rows starting at v0 or v1.
	allowed := rel.NewRelation(1)
	allowed.Insert(rel.Tuple{e.Syms.Intern("v0")})
	allowed.Insert(rel.Tuple{e.Syms.Intern("v1")})
	cols := []int{0}
	seed := rel.SelectInCols(q, cols, allowed)

	for _, workers := range []int{1, 4} {
		pe := Parallel(e, workers)
		want, wantStats, err := pe.SemiNaiveRestrictedCtx(context.Background(), db, []*ast.Op{op}, seed, cols, allowed)
		if err != nil {
			t.Fatalf("workers=%d: materialized restricted closure: %v", workers, err)
		}
		st := pe.StreamRestrictedCtx(context.Background(), db, []*ast.Op{op}, seed, cols, allowed)
		got, err := drain(st, seed.Arity())
		if err != nil {
			t.Fatalf("workers=%d: restricted stream errored: %v", workers, err)
		}
		if !got.Equal(want) {
			t.Fatalf("workers=%d: restricted stream diverges: %d vs %d tuples", workers, got.Len(), want.Len())
		}
		if st.Stats() != wantStats {
			t.Fatalf("workers=%d: stats diverge: %v vs %v", workers, st.Stats(), wantStats)
		}
		st.Close()
	}
}

// TestStreamEarlyCloseSkipsRounds: pulling a handful of rows and closing
// runs only the rounds those rows needed — the fixpoint's remaining
// rounds never execute.
func TestStreamEarlyCloseSkipsRounds(t *testing.T) {
	const n = 300 // full closure: 300 rounds, 90k tuples
	e := NewEngine(nil)
	db, q := cycleDB(e, n)
	op := parser.MustParseOp("p(X,Y) :- p(X,Z), e(Z,Y).")

	for _, workers := range []int{1, 4} {
		pe := Parallel(e, workers)
		st := pe.StreamCtx(context.Background(), db, []*ast.Op{op}, q)
		// The seed's n rows come for free; one more row forces exactly one
		// round.
		for i := 0; i < n+1; i++ {
			if _, ok := st.Next(); !ok {
				t.Fatalf("workers=%d: stream ended after %d rows", workers, i)
			}
		}
		st.Close()
		if it := st.Stats().Iterations; it >= n/2 {
			t.Fatalf("workers=%d: %d rounds ran for n+1 rows; early close did not stop the fixpoint", workers, it)
		}
		if st.Exhausted() {
			t.Fatalf("workers=%d: early-closed stream claims exhaustion", workers)
		}
	}
}

// TestStreamCancel: cancelling the stream's context stops Next with the
// context's error, mid-stream and before the first pull alike.
func TestStreamCancel(t *testing.T) {
	e := NewEngine(nil)
	db, q := cycleDB(e, 500)
	op := parser.MustParseOp("p(X,Y) :- p(X,Z), e(Z,Y).")

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			pe := Parallel(e, workers)
			st := pe.StreamCtx(ctx, db, []*ast.Op{op}, q)
			if _, ok := st.Next(); !ok {
				t.Fatalf("first row missing: %v", st.Err())
			}
			cancel()
			// The watcher flips the flag asynchronously; a cancelled stream
			// must stop within a bounded number of pulls.
			deadline := time.Now().Add(2 * time.Second)
			for {
				if _, ok := st.Next(); !ok {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("stream kept yielding 2s after cancellation")
				}
			}
			if !errors.Is(st.Err(), context.Canceled) {
				t.Fatalf("err = %v, want Canceled", st.Err())
			}
			st.Close()

			// A dead context fails on the first pull.
			st2 := pe.StreamCtx(ctx, db, []*ast.Op{op}, q)
			if _, ok := st2.Next(); ok {
				t.Fatal("dead-context stream yielded a row")
			}
			if !errors.Is(st2.Err(), context.Canceled) {
				t.Fatalf("dead-context err = %v, want Canceled", st2.Err())
			}
			st2.Close()
		})
	}
}

// TestStreamCloseReleasesWatcher: abandoned streams release their
// context watcher on Close — repeated open/close cycles leave the
// goroutine count at the baseline.
func TestStreamCloseReleasesWatcher(t *testing.T) {
	e := NewEngine(nil)
	db, q := cycleDB(e, 100)
	op := parser.MustParseOp("p(X,Y) :- p(X,Z), e(Z,Y).")

	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		st := Parallel(e, 4).StreamCtx(ctx, db, []*ast.Op{op}, q)
		st.Next() // at least touch the stream
		st.Close()
		cancel()
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after closed streams", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
