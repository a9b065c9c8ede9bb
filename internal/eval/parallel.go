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
// re-raises it in the caller, where recovery (core.QueryOn) formats it
// with %v — without the captured stack the frames that actually hit the
// invariant violation would be lost to the worker's recover.
type workerPanic struct {
	val   any
	stack []byte
}

func (p *workerPanic) String() string {
	return fmt.Sprintf("%v\n%s", p.val, p.stack)
}

// shardBounds splits n items into at most w contiguous shards of
// near-equal size, returning the boundary offsets.
func shardBounds(n, w int) []int {
	if w > n {
		w = n
	}
	if w == 0 {
		return []int{0}
	}
	bounds := make([]int, 0, w+1)
	for i := 0; i <= w; i++ {
		bounds = append(bounds, i*n/w)
	}
	return bounds
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

// applyRound runs every operator over rows [lo, hi) of src, sharded on
// a pool of the given width, and returns one flat emission buffer per
// worker: derived tuples laid out back to back, arity values each.  Flat
// buffers keep the round's output pointer-free, so the garbage collector
// never scans the (potentially millions of) in-flight derivations.  A
// non-nil newKeep factory builds one filter per worker, dropping
// emissions inside the worker before they are buffered (the restricted
// closure's magic-set test) — per-worker instances let a filter keep
// mutable probe state without cross-shard races.  A non-nil stop flag
// makes every worker abandon its shard within cancelCheckRows rows of
// the flag being set; the waitgroup barrier still joins every worker, so
// cancellation never leaks goroutines.  A worker panic (e.g. the join arity guard) is
// recovered and re-raised at the barrier in the caller's goroutine — a
// panic escaping a bare worker goroutine would kill the process, while
// the caller's stack has recovery (core.QueryOn turns it into an error)
// — with all workers joined first.
func applyRound(db rel.DB, cs []*compiled, src *rel.Relation, lo, hi, arity, workers int, stop *atomic.Bool, newKeep func() func(rel.Tuple) bool) [][]rel.Value {
	bounds := shardBounds(hi-lo, workers)
	bufs := make([][]rel.Value, len(bounds)-1)
	var panicked atomic.Pointer[any]
	var wg sync.WaitGroup
	for w := 0; w < len(bounds)-1; w++ {
		slo, shi := lo+bounds[w], lo+bounds[w+1]
		if slo == shi {
			continue
		}
		wg.Add(1)
		go func(w, slo, shi int) {
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
			buf := make([]rel.Value, 0, (shi-slo)*arity)
			var keep func(rel.Tuple) bool
			if newKeep != nil {
				keep = newKeep()
			}
			emit := func(t rel.Tuple) {
				if keep != nil && !keep(t) {
					return
				}
				buf = append(buf, t...)
			}
			for _, c := range cs {
				if !applyCompiledRange(db, c, src, slo, shi, stop, emit) {
					break
				}
			}
			bufs[w] = buf
		}(w, slo, shi)
	}
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(*r)
	}
	return bufs
}

// mergeRound folds the worker buffers into total, charging stats one
// derivation per emission and one duplicate per emission of an
// already-known tuple — the same accounting as an inline round.  New
// tuples are the rows total gained; callers recover the round's delta as
// the row range [Len-before, Len).
func mergeRound(total *rel.Relation, bufs [][]rel.Value, arity int, stats *Stats) {
	for _, buf := range bufs {
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
	bufs := applyRound(db, cs, src, 0, src.Len(), dst.Arity(), e.Workers, nil, nil)
	mergeRound(dst, bufs, dst.Arity(), stats)
	return dst.Len() - before
}
