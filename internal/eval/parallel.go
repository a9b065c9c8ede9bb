// Round fan-out: a wide round shards its delta across a worker pool;
// workers join their shard against the (read-only) database into private
// output buffers, which the stepping goroutine merges into the total
// relation at the round barrier.  No locks are taken on the hot path —
// workers share nothing but the immutable inputs — and the merge
// reproduces an inline round's set semantics and statistics exactly
// (proven by the differential property test in
// parallel_property_test.go).

package eval

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"linrec/internal/ast"
	"linrec/internal/rel"
)

// workerPanic carries a closure worker's panic value together with the
// stack captured inside the worker goroutine.  The round barrier
// re-raises it in the caller, where recovery (core.Evaluate) formats it
// with %v — without the captured stack the frames that actually hit the
// invariant violation would be lost to the worker's recover.
type workerPanic struct {
	val   any
	stack []byte
}

func (p *workerPanic) String() string {
	return fmt.Sprintf("%v\n%s", p.val, p.stack)
}

// prebuildIndexes forces every index the compiled operators will probe, so
// workers never contend on lazy index construction.
func prebuildIndexes(db rel.DB, cs []*compiled) {
	for _, c := range cs {
		for i := range c.atoms {
			if a := &c.atoms[i]; a.idxCol >= 0 && !a.member {
				db.Probe(a.pred).BuildIndex(a.idxCol)
			}
		}
	}
}

// roundWorker is one pool slot's private state for the fanned-out rounds
// of one closure, reused round after round: its executors (one per
// operator, built by the slot's first goroutine) and its emission buffer
// — the round's derived tuples back to back, arity values each.  Flat
// buffers keep the round's output pointer-free, so the garbage collector
// never scans the in-flight derivations.
type roundWorker struct {
	execs []*executor
	buf   []rel.Value
}

// start builds the worker's executors and sizes its buffer for a shard of
// the given rows.  A non-nil newKeep builds this worker's own filter (the
// restricted closure's magic-set test may keep mutable probe state),
// dropping emissions before they are buffered.
func (w *roundWorker) start(db rel.DB, cs []*compiled, arity, rows int, newKeep func() func(rel.Tuple) bool) {
	var keep func(rel.Tuple) bool
	if newKeep != nil {
		keep = newKeep()
	}
	emit := func(t rel.Tuple) {
		if keep != nil && !keep(t) {
			return
		}
		w.buf = append(w.buf, t...)
	}
	w.buf = make([]rel.Value, 0, rows*arity)
	w.execs = make([]*executor, len(cs))
	for i, c := range cs {
		w.execs[i] = newExecutor(db, c, emit)
	}
}

// applyRound runs every operator over rows [lo, hi) of src, sharded
// across the pool, leaving each worker's emissions (arity values each) in
// its buffer.  A non-nil stop flag makes every worker abandon its shard
// within cancelCheckRows rows of the flag being set; the waitgroup barrier
// still joins every worker, so cancellation never leaks goroutines.  A
// worker panic (e.g. the join arity guard) is recovered and re-raised at
// the barrier in the caller's goroutine — a panic escaping a bare worker
// goroutine would kill the process, while the caller's stack has recovery
// (core.Evaluate turns it into an error) — with all workers joined first.
func applyRound(db rel.DB, cs []*compiled, src *rel.Relation, lo, hi, arity int, pool []roundWorker, stop *atomic.Bool, newKeep func() func(rel.Tuple) bool) {
	var panicked atomic.Pointer[any]
	var wg sync.WaitGroup
	for i := range pool {
		w := &pool[i]
		w.buf = w.buf[:0]
		slo, shi := lo+i*(hi-lo)/len(pool), lo+(i+1)*(hi-lo)/len(pool)
		if slo == shi {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					wp := any(&workerPanic{val: r, stack: debug.Stack()})
					panicked.CompareAndSwap(nil, &wp)
					// Sibling workers' output is doomed with this round;
					// flip the stop flag so they abandon their shards
					// within cancelCheckRows rows instead of scanning to
					// the barrier.
					if stop != nil {
						stop.Store(true)
					}
				}
			}()
			if w.execs == nil {
				w.start(db, cs, arity, shi-slo, newKeep)
			}
			for _, x := range w.execs {
				if !x.run(src, slo, shi, stop) {
					break
				}
			}
		}()
	}
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(*r)
	}
}

// mergeRound folds the worker buffers into total, charging stats one
// derivation per emission and one duplicate per emission of an
// already-known tuple — the same accounting as an inline round.  New
// tuples are the rows total gained; callers recover the round's delta as
// the row range [Len-before, Len).
func mergeRound(total *rel.Relation, pool []roundWorker, stats *Stats) {
	arity := total.Arity()
	for i := range pool {
		buf := pool[i].buf
		stats.Derivations += int64(len(buf) / arity)
		for off := 0; off < len(buf); off += arity {
			if !total.Insert(buf[off : off+arity : off+arity]) {
				stats.Duplicates++
			}
		}
	}
}

// ApplyInto computes one application of op with all of src as the
// recursive input, sharding the scan across the worker pool when src is
// large enough to pay for the barrier, and inserts every derived tuple
// into dst; it returns the number of new tuples.  Stats accounting
// matches Apply.  The maintenance path uses it for the one-step
// occurrence-delta joins, whose recursive input is an entire cached
// fixpoint — the scan is the dominant cost of absorbing a small update,
// and it shards perfectly.
func (e *Engine) ApplyInto(db rel.DB, op *ast.Op, src, dst *rel.Relation, stats *Stats) int {
	if e.Workers <= 1 || src.Arity() == 0 || src.Len() < 4096 {
		return e.Apply(db, op, src, dst, stats)
	}
	cs := []*compiled{e.compiledFor(op)}
	prebuildIndexes(db, cs)
	before := dst.Len()
	pool := make([]roundWorker, e.Workers)
	applyRound(db, cs, src, 0, src.Len(), dst.Arity(), pool, nil, nil)
	mergeRound(dst, pool, stats)
	return dst.Len() - before
}
