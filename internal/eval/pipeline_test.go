package eval

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"linrec/internal/ast"
	"linrec/internal/parser"
	"linrec/internal/rel"
)

// TestPipelinedJoinerPanic: a joiner that panics in a pipelined round —
// the 2048-cycle's second round, joined while the first round merges —
// has its panic re-raised on the caller's goroutine at the barrier,
// carrying the stack of the goroutine that panicked.
func TestPipelinedJoinerPanic(t *testing.T) {
	const n = 2048 // round 1 joins the n seed edges into n paths
	e := NewEngine(nil)
	db, q := cycleDB(e, n)
	ops := []*ast.Op{parser.MustParseOp("p(X,Y) :- p(X,Z), e(Z,Y).")}
	var emitted atomic.Int64
	newKeep := func() func(rel.Tuple) bool {
		return func(rel.Tuple) bool {
			if emitted.Add(1) > n {
				panic("joiner panic in round 2")
			}
			return true
		}
	}
	pe := Parallel(e, 2)
	c := pe.open(context.Background(), db, pe.compiledOps(ops), q.Clone(), 0, "semi-naive", newKeep)
	defer func() {
		r := recover()
		wp, ok := r.(*workerPanic)
		if !ok {
			t.Fatalf("recovered %#v, want a *workerPanic", r)
		}
		if msg := wp.String(); !strings.Contains(msg, "joiner panic in round 2") || !strings.Contains(msg, "(*roundWorker).join") {
			t.Fatalf("re-raised panic lacks its value or the joiner's stack:\n%s", msg)
		}
		if pipelined := c.spare[0].execs != nil; c.stats.Iterations != 1 || !pipelined {
			t.Fatalf("panicked in round %d, pipelined=%v; want round 1's merge pipelined", c.stats.Iterations, pipelined)
		}
	}()
	c.Drain()
	t.Fatal("Drain returned without re-raising the joiner panic")
}

// TestStreamNeverJoinsAhead: a limit-k stream at 2 workers steps only
// the rounds its rows need — its wide first round fans out but never
// pipelines the next join — so it derives exactly what the sequential
// stream derives for the same rows.
func TestStreamNeverJoinsAhead(t *testing.T) {
	const n = 2048
	e := NewEngine(nil)
	db, q := cycleDB(e, n)
	ops := []*ast.Op{parser.MustParseOp("p(X,Y) :- p(X,Z), e(Z,Y).")}
	var want Stats
	for _, workers := range []int{1, 2} {
		st := Parallel(e, workers).StreamCtx(context.Background(), db, ops, q)
		for i := 0; i < n+10; i++ { // the seed and ten rows of round 1
			if _, ok := st.Next(); !ok {
				t.Fatalf("workers=%d: stream ended after %d rows", workers, i)
			}
		}
		if st.joined || st.spare[0].execs != nil {
			t.Fatalf("workers=%d: the stream joined round 2 ahead of its consumer", workers)
		}
		if workers == 1 {
			want = st.Stats()
		} else if st.Stats() != want {
			t.Fatalf("workers=%d: stats %v, sequential stream %v", workers, st.Stats(), want)
		}
		if st.Stats().Iterations != 1 {
			t.Fatalf("workers=%d: %d rounds ran for round 1's rows", workers, st.Stats().Iterations)
		}
		st.Close()
	}
}
