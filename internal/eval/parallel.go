// Round fan-out: a wide round's delta is joined by every slot of a
// worker pool, each claiming fixed-size chunks of delta rows from a
// shared cursor and joining them against the (read-only) database into
// a private output buffer; the stepping goroutine merges the buffers
// into the total relation at the round barrier, in chunk order.  When a
// closure is drained, the merge of a wide round is pipelined with the
// next round's join: the merge publishes the rows it appends, and the
// other slots join them as they appear.  No lock is taken per row —
// joiners share only the immutable inputs and the chunk cursor — and
// the merge reproduces an inline round's set semantics and statistics
// exactly (proven by the differential property test in
// parallel_property_test.go).

package eval

import (
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

	"linrec/internal/rel"
)

// chunkRows is how many delta rows a joiner claims at a time: enough to
// make the claim's lock invisible, few enough that a joiner trails the
// merge publishing them by little.
const chunkRows = 256

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
				// Every backend builds a column index on its first Lookup.
				db.Probe(a.pred).Lookup(a.idxCol, 0)
			}
		}
	}
}

// feed is the delta rows a fanned-out round's joiners claim, chunkRows
// at a time from a shared cursor: rows [start, …) of a packed row
// array, published whole up front or, in a pipelined round, by the
// merge as it appends them.  Every claimed chunk but the feed's last is
// whole, so chunk i is rows start+i·chunkRows onwards.
type feed struct {
	mu    sync.Mutex
	wake  sync.Cond
	rows  []rel.Value // the rows published so far (a Packed view)
	arity int
	start int
	next  int  // the first row not yet claimed
	done  bool // no publication follows
}

// newFeed returns the feed of rows [start, …) of rows, all of them
// published when done.
func newFeed(rows []rel.Value, arity, start int, done bool) *feed {
	f := &feed{rows: rows, arity: arity, start: start, next: start, done: done}
	f.wake.L = &f.mu
	return f
}

// publish makes the rows of view readable and wakes parked joiners;
// done marks it the last publication.
func (f *feed) publish(view []rel.Value, done bool) {
	f.mu.Lock()
	f.rows, f.done = view, done
	f.wake.Broadcast()
	f.mu.Unlock()
}

// claim returns the next chunk, [lo, hi) of rows, parking until a whole
// chunk is published or the feed is done; lo == hi when none is left.
func (f *feed) claim() (rows []rel.Value, lo, hi int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for lo = f.next; !f.done && len(f.rows) < (lo+chunkRows)*f.arity; lo = f.next {
		f.wake.Wait()
	}
	hi = max(lo, min(lo+chunkRows, len(f.rows)/f.arity))
	f.next = hi
	return f.rows, lo, hi
}

// roundWorker is one pool slot's private state for the rounds of one
// closure, reused round after round: its executors (one per operator,
// built by the first goroutine to run the slot; slots never run
// concurrently with themselves) and its emission buffer — the round's
// derived tuples back to back, arity values each, rows of them (a
// nullary tuple has no values to count), the chunks it joined ending
// at the marked buffer offsets.  Flat buffers keep the round's output
// pointer-free, so the garbage collector never scans the in-flight
// derivations.
type roundWorker struct {
	execs []*executor
	buf   []rel.Value
	rows  int
	marks []chunkMark
	// Each emission writes buf and rows: the padding keeps neighbouring
	// slots' written fields over a cache line apart, so two workers
	// never write one line.
	_ [64]byte
}

// chunkMark records that the feed's chunk'th chunk emitted into a
// worker's buffer up to offset end.
type chunkMark struct{ chunk, end int }

// start builds the worker's executors and sizes its buffer for the given
// rows.  A non-nil newKeep builds this worker's own filter (the
// restricted closure's magic-set test may keep mutable probe state),
// dropping emissions before they are buffered.  The buffer grows by
// doubling, not by append's 1.25x steps for large slices, so a closure
// reallocates it O(log n) times.
func (w *roundWorker) start(db rel.DB, cs []*compiled, arity, rows int, newKeep func() func(rel.Tuple) bool) {
	var keep func(rel.Tuple) bool
	if newKeep != nil {
		keep = newKeep()
	}
	emit := func(t rel.Tuple) {
		if keep != nil && !keep(t) {
			return
		}
		n := len(w.buf)
		if n+len(t) > cap(w.buf) {
			w.buf = append(make([]rel.Value, 0, 2*cap(w.buf)+len(t)), w.buf...)
		}
		w.buf = w.buf[:n+len(t)]
		for i, v := range t { // not append's memmove call, for a few values
			w.buf[n+i] = v
		}
		w.rows++
	}
	w.buf = make([]rel.Value, 0, rows*arity)
	w.execs = make([]*executor, len(cs))
	for i, c := range cs {
		w.execs[i] = newExecutor(db, c, emit)
	}
}

// join runs every operator over the chunks the worker claims from f,
// until none is left or the stop flag is seen set.
func (w *roundWorker) join(f *feed, stop *atomic.Bool) {
	for {
		rows, lo, hi := f.claim()
		if lo == hi {
			return
		}
		for _, x := range w.execs {
			if !x.run(rows, lo, hi, stop) {
				return
			}
		}
		w.marks = append(w.marks, chunkMark{(lo - f.start) / chunkRows, len(w.buf)})
	}
}

// fanOut joins f's rows on every slot of pool: slots 1… on goroutines of
// their own from the start, slot 0 on the caller's once during (when
// non-nil) has returned — during runs while the others join, and must
// make its last publication to f even when it panics.  A non-nil stop
// flag makes every joiner abandon its chunks within cancelCheckRows
// rows of the flag being set; the barrier still joins every goroutine,
// so cancellation never leaks one, and fanOut reports false.  A joiner panic (e.g. the join arity guard) is
// recovered and re-raised at the barrier in the caller's goroutine — a
// panic escaping a bare goroutine would kill the process, while the
// caller's stack has recovery (core.Evaluate turns it into an error) —
// with all joiners joined first.
func (s *stepper) fanOut(pool []roundWorker, f *feed, during func()) bool {
	var panicked atomic.Pointer[any]
	var wg sync.WaitGroup
	defer wg.Wait() // also when during panics
	run := func(w *roundWorker) {
		defer func() {
			if r := recover(); r != nil {
				wp := any(&workerPanic{val: r, stack: debug.Stack()})
				panicked.CompareAndSwap(nil, &wp)
				// Sibling joiners' output is doomed with this round; flip
				// the stop flag so they abandon their chunks within
				// cancelCheckRows rows instead of joining to the barrier.
				if s.stop != nil {
					s.stop.Store(true)
				}
			}
		}()
		if w.execs == nil {
			w.start(s.db, s.cs, s.total.Arity(), chunkRows, s.newKeep)
		}
		w.buf, w.rows, w.marks = w.buf[:0], 0, w.marks[:0]
		w.join(f, s.stop)
	}
	wg.Add(len(pool) - 1)
	for i := 1; i < len(pool); i++ {
		go func(w *roundWorker) {
			defer wg.Done()
			run(w)
		}(&pool[i])
	}
	if during != nil {
		during()
	}
	run(&pool[0])
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(*r)
	}
	return !s.stopped()
}

// roundMerge is the round barrier's reusable state: the batched
// insert's sort space and the list of the pool's buffers it is handed.
type roundMerge struct {
	scratch []uint64
	bufs    [][]rel.Value
}

// merge folds the worker buffers into total in one batched insert, in
// chunk order, charging stats one derivation per emission and one
// duplicate per emission total already held, and returns the number of
// new tuples.  It is the only place a closure's derivations enter
// total.  New tuples are the rows total gained; callers recover the
// round's delta as the row range [Len-before, Len).  A non-nil publish
// is handed views of total's rows as the insert appends them (see
// rel.Relation.InsertBatch).  A nullary emission carries no values: it
// is the relation's one tuple, new only when total is empty (never in a
// closure, whose delta row is that tuple).
func (m *roundMerge) merge(total *rel.Relation, pool []roundWorker, publish func([]rel.Value), stats *Stats) (added int) {
	chunks, rows := 0, 0
	for i := range pool {
		chunks += len(pool[i].marks)
		rows += pool[i].rows
	}
	m.bufs = slices.Grow(m.bufs[:0], chunks)[:chunks]
	for i := range pool {
		w, from := &pool[i], 0
		for _, mk := range w.marks {
			m.bufs[mk.chunk], from = w.buf[from:mk.end], mk.end
		}
	}
	if total.Arity() > 0 {
		added = total.InsertBatch(&m.scratch, publish, m.bufs...)
	} else if rows > 0 && total.Insert(rel.Tuple{}) {
		added = 1
	}
	stats.Derivations += int64(rows)
	stats.Duplicates += int64(rows - added)
	return added
}
