// Streaming evaluation: a pull-based row iterator over the semi-naive
// closure.  The fixpoint loop is inverted — instead of running rounds to
// exhaustion and handing back the final relation, a ClosureStream runs
// one round at a time, on demand, whenever the consumer has drained every
// row materialized so far.  Rows the consumer never asks for are rows the
// engine never derives: a limit-k or exists query stops the closure at
// the round that produced its k-th answer, and every later round — often
// the bulk of the fixpoint on deep graphs — simply does not run.
//
// The total relation stays materialized (semi-naive needs it for
// duplicate elimination), so streaming here buys early termination and
// incremental delivery, not constant memory.  Yielded tuples are row
// views into that relation: valid indefinitely, but owned by the stream.

package eval

import (
	"context"

	"linrec/internal/ast"
	"linrec/internal/rel"
)

// ClosureStream is a pull-based row iterator over a closure: the stepper
// plus a read cursor.  It yields the seed rows first and then each
// round's new rows; the next round steps only when the consumer has
// pulled every row materialized so far, so a consumer that stops after k
// rows stops the fixpoint at the round that produced its k-th row.
// Rounds run, fan out, poll the stream's context and trace exactly as in
// the materialized closure — SemiNaiveCtx is this stream, drained — and
// the trace phase ends at the last round that actually ran.  Close
// releases the context watcher and the open trace phase and is
// idempotent; abandoning a stream without Close leaks its watcher until
// the context fires.
type ClosureStream struct {
	stepper
	next   int // next row index to yield
	closed bool
}

// StreamCtx opens a pull-based semi-naive closure of ops over the seed q
// (shared, not consumed: the stream clones it, so q may be one of db's
// own stores).  The closure advances only as the returned stream is
// drained; Close abandons any rounds not yet run.  A Tracer carried by
// ctx records the rounds that ran as one "semi-naive" phase.
func (e *Engine) StreamCtx(ctx context.Context, db rel.DB, ops []*ast.Op, q rel.Store) *ClosureStream {
	return e.open(ctx, db, e.compiledOps(ops), q.Clone(), 0, "semi-naive", nil)
}

// StreamRestrictedCtx is StreamCtx for the magic-restricted closure:
// derived tuples whose cols projection is outside allowed are dropped
// before insertion (see SemiNaiveRestrictedCtx).  The phase traces as
// "restricted-closure".
func (e *Engine) StreamRestrictedCtx(ctx context.Context, db rel.DB, ops []*ast.Op, q rel.Store, cols []int, allowed *rel.Relation) *ClosureStream {
	return e.open(ctx, db, e.compiledOps(ops), q.Clone(), 0, "restricted-closure", func() func(rel.Tuple) bool { return magicKeep(cols, allowed) })
}

// Completed wraps an already-materialized answer as a stream with no
// rounds left to run: plan kinds that produce their answer whole, and
// cached answers, serve through the same iterator as a live closure.
// The relation is shared, not copied.
func Completed(r *rel.Relation) *ClosureStream {
	return &ClosureStream{stepper: stepper{total: r, lo: r.Len(), hi: r.Len()}}
}

// Next yields the next closure row and true, or (nil, false) once the
// stream is exhausted, cancelled or closed.  Row views stay valid for
// the life of the stream (the total relation only grows), but belong to
// it: Clone rows that must outlive Close.
func (c *ClosureStream) Next() (rel.Tuple, bool) {
	if c.closed || c.err != nil {
		return nil, false
	}
	if c.stopped() {
		c.Close()
		return nil, false
	}
	for c.next >= c.total.Len() {
		if c.lo >= c.hi || !c.step() {
			c.Close()
			return nil, false
		}
	}
	t := c.total.Row(c.next)
	c.next++
	return t, true
}

// Drain steps the closure to its fixpoint without yielding rows, closes
// the stream, and returns the complete closure with the statistics of
// the rounds run — or a nil relation and the context's error if it fired
// first.
func (c *ClosureStream) Drain() (*rel.Relation, Stats, error) {
	defer c.Close()
	c.pipeline = true
	for c.lo < c.hi {
		if !c.step() {
			return nil, c.stats, c.err
		}
	}
	return c.total, c.stats, nil
}

// Close abandons the stream: rounds not yet run never run, the context
// watcher is released and the trace phase closes at the rows
// materialized so far.  Idempotent.
func (c *ClosureStream) Close() {
	if c.closed {
		return
	}
	c.closed = true
	if c.release != nil {
		c.release()
	}
	c.ph.close(c.total.Len())
}

// Err reports why the stream stopped: nil after natural exhaustion (or
// mid-stream), the context's error if evaluation was cancelled.
func (c *ClosureStream) Err() error { return c.err }

// Stats returns the evaluation statistics for the rounds that ran so
// far.  Equal to the materialized closure's stats once Exhausted.
func (c *ClosureStream) Stats() Stats { return c.stats }

// Exhausted reports whether the closure reached its fixpoint and every
// row was yielded — i.e. Total is the complete answer.
func (c *ClosureStream) Exhausted() bool {
	return c.err == nil && c.lo >= c.hi && c.next >= c.total.Len()
}

// Total exposes the materialized closure prefix: all rows derived so
// far, the full fixpoint once Exhausted.  The relation is owned by the
// stream; callers must not mutate it, and must not call Total while
// another goroutine is still calling Next.
func (c *ClosureStream) Total() *rel.Relation { return c.total }
