// The closure kernel.  Every closure the engine computes — the plain
// semi-naive closure (ΣAᵢ)*q, each factor of a decomposed B*C*q, the
// magic frontier and the magic-restricted closure, a maintenance resume
// from a cached fixpoint, the delete-and-rederive over-delete cone,
// materialized or streamed, on one goroutine or many — is this one
// stepper run over a different seed, starting watermark and keep
// filter; a single operator application (Engine.Apply) is one of its
// rounds.

package eval

import (
	"context"
	"sync/atomic"
	"time"

	"linrec/internal/ast"
	"linrec/internal/rel"
)

// parallelRoundRows is the delta size below which a round runs inline on
// the caller's goroutine instead of fanning out: beneath it the
// spawn-and-barrier cost of a round exceeds the join work being sharded.
// Deep recursions spend most rounds on narrow deltas (a maintenance
// resume often carries a handful of rows per round).
const parallelRoundRows = 1024

// stepper is the semi-naive round-stepper.  Its state is the closure so
// far (total), of which rows [lo, hi) are the current delta: total[0, lo)
// has already been joined, nothing past hi exists yet.
//
// Step contract: one step joins every operator against the delta rows
// only — the paper's Theorem 3.1 model, "the same tuple is not derived
// through the same arc more than once" — appends the new tuples to
// total and advances the watermark to [hi, total.Len()).  The closure is
// complete when the delta is empty.  A fresh closure starts at lo = 0
// over a clone of its seed; a resume starts at lo > 0 over an externally
// supplied fixpoint total[0, lo) plus appended delta rows.  What a step
// derives depends only on the set of delta rows, so the closure, its
// Stats and the per-round trace counts are the same whoever drives the
// steps and however many workers run them.
//
// Accounting: an emission the keep filter rejects is dropped before it
// is buffered; every other emission is one derivation, and one duplicate
// when the round's merge finds total already holding the tuple — an
// earlier round's or an earlier emission of the same round.  A round's
// derivations are charged when it merges, whenever its join ran.
// Iterations counts steps, MaxDepth the steps that added tuples.
//
// Inline or fan-out: a step fans out across the pool (fanOut) when the
// effective worker count exceeds 1 and the delta holds at least
// parallelRoundRows rows: every slot claims chunks of the delta from one
// cursor.  Otherwise the pool's first slot runs it on the stepping
// goroutine.  Either way the round's emissions go to flat buffers, and
// roundMerge, on the stepping goroutine, is the one place they enter
// total: one batched insert of all of them in chunk order, which probes
// the key table in slot order, so a round's new rows land in total in
// that (deterministic) hash order rather than in emission order.  The
// effective count is 1 when Engine.Workers ≤ 1 or the relation is
// nullary (no payload to shard), and is what the phase trace records.
// An inline round attributes its time per operator (RoundTrace.RuleUS);
// a fanned-out round instead reports each worker's emission count
// (RoundTrace.ShardRows, summing to the round's derivations).
//
// Pipelined rounds: when a drained closure (Drain) merges a batch of at
// least parallelRoundRows emissions at more than one worker, the next
// round's join — over the rows this merge appends — does not wait for
// the barrier: the merge is serial, and would leave the other workers
// idle.  The merge publishes the rows as it appends them, the other
// slots of a spare pool join them chunk by chunk meanwhile (parking
// when they catch up), and the stepping goroutine joins what is left
// once the merge is done.  The next step then merges the spare pool's
// buffers without joining (RoundTrace.Pipelined).  The rounds, their delta sets and every count
// are those of the unpipelined closure; a ClosureStream's Next never
// joins ahead, so a stream stops deriving at the round its consumer
// needs.
type stepper struct {
	db      rel.DB
	cs      []*compiled
	total   *rel.Relation
	lo, hi  int
	workers int
	// newKeep builds one keep filter per pool slot (a filter may own
	// mutable probe state).
	newKeep func() func(rel.Tuple) bool
	// Round scratch, reused round after round: the pool (executors and
	// emission buffer per slot, built on the first round that runs the
	// slot; inline rounds use slot 0) and the merge's sort space.  The
	// buffers grow by doubling, so a closure allocates them O(log n)
	// times, not per round.
	pool  []roundWorker
	merge roundMerge
	// A drained closure pipelines (see Pipelined rounds above): spare
	// is the pool the next round's join fills while pool merges, and
	// joined reports that pool already holds the current round's
	// emissions.
	pipeline bool
	spare    []roundWorker
	joined   bool

	ctx     context.Context
	stop    *atomic.Bool
	release func() bool
	ph      *PhaseTrace
	stats   Stats
	err     error
}

// newStepper returns a stepper of the compiled operators cs over total,
// with all of total as the first delta, on e's effective pool: 1 when
// Engine.Workers ≤ 1 or the relation is nullary (no payload to shard).
func (e *Engine) newStepper(db rel.DB, cs []*compiled, total *rel.Relation) stepper {
	workers := e.Workers
	if workers < 1 || total.Arity() == 0 {
		workers = 1
	}
	if workers > 1 {
		prebuildIndexes(db, cs)
	}
	pools := make([]roundWorker, 2*workers)
	return stepper{db: db, cs: cs, total: total, hi: total.Len(), workers: workers, pool: pools[:workers], spare: pools[workers:]}
}

// compiledOps returns ops compiled through the engine's cache.
func (e *Engine) compiledOps(ops []*ast.Op) []*compiled {
	cs := make([]*compiled, len(ops))
	for i, op := range ops {
		cs[i] = e.compiledFor(op)
	}
	return cs
}

// open starts a closure of the compiled operators cs over total with
// rows [lo, total.Len()) as the first delta.  total is extended in
// place.  The context is polled at every step and every
// cancelCheckRows delta rows inside one, and a Tracer it carries
// records the steps as one phase under the given name; Close releases
// both.
func (e *Engine) open(ctx context.Context, db rel.DB, cs []*compiled, total *rel.Relation, lo int, phase string, newKeep func() func(rel.Tuple) bool) *ClosureStream {
	c := &ClosureStream{stepper: e.newStepper(db, cs, total)}
	c.lo, c.newKeep, c.ctx = lo, newKeep, ctx
	c.stop, c.release = watchContext(ctx)
	c.ph = TracerFrom(ctx).phase(phase, c.workers, lo, total.Len()-lo)
	return c
}

// stopped polls the stop flag, latching the context's error once set.
func (s *stepper) stopped() bool {
	if s.stop != nil && s.stop.Load() {
		s.err = ctxErr(s.ctx)
		return true
	}
	return false
}

// step runs exactly one round (see the contract on stepper).  It reports
// false when the context fired first; the abandoned round's buffers are
// then dropped unmerged.
func (s *stepper) step() bool {
	if s.stopped() {
		return false
	}
	s.stats.Iterations++
	rt := RoundTrace{Round: s.stats.Iterations, DeltaRows: s.hi - s.lo, Pipelined: s.joined}
	d0, u0 := s.stats.Derivations, s.stats.Duplicates
	var start time.Time
	if s.ph != nil {
		start = time.Now()
	}
	pool := s.pool
	if s.joined { // during the previous round's merge
		s.joined = false
	} else {
		var ok bool
		if pool, ok = s.join(s.total.Packed(), s.lo, s.hi, &rt); !ok {
			return false // a torn delta: never merged
		}
	}
	rows := 0
	for i := range pool {
		rows += pool[i].rows
		if len(pool) > 1 && s.ph != nil {
			rt.ShardRows = append(rt.ShardRows, pool[i].rows)
		}
	}
	if s.pipeline && s.workers > 1 && rows >= parallelRoundRows {
		// The next round's delta is the rows this merge appends: the
		// spare pool joins them as the merge publishes them.
		f := newFeed(s.total.Packed(), s.total.Arity(), s.hi, false)
		if !s.fanOut(s.spare, f, func() {
			defer func() { f.publish(s.total.Packed(), true) }()
			s.merge.merge(s.total, pool, func(v []rel.Value) { f.publish(v, false) }, &s.stats)
		}) {
			return false
		}
		s.pool, s.spare, s.joined = s.spare, s.pool, true
	} else {
		s.merge.merge(s.total, pool, nil, &s.stats)
	}
	if s.ph != nil {
		rt.NewRows = s.total.Len() - s.hi
		rt.Derivations = s.stats.Derivations - d0
		rt.Duplicates = s.stats.Duplicates - u0
		rt.ElapsedUS = time.Since(start).Microseconds()
		s.ph.round(rt)
	}
	s.lo, s.hi = s.hi, s.total.Len()
	if s.hi > s.lo {
		s.stats.MaxDepth++
	}
	return true
}

// join joins every operator with rows [lo, hi) of rows (a Packed view
// of the recursive input) into the pool's buffers and returns the slots
// holding the emissions: fanned out (fanOut) when the effective worker
// count exceeds 1 and the rows number at least parallelRoundRows,
// otherwise on slot 0 on the calling goroutine, which attributes its
// time per operator to rt when tracing.  It reports false when the stop
// flag fired first.
func (s *stepper) join(rows []rel.Value, lo, hi int, rt *RoundTrace) ([]roundWorker, bool) {
	if s.workers > 1 && hi-lo >= parallelRoundRows {
		return s.pool, s.fanOut(s.pool, newFeed(rows, s.total.Arity(), lo, true), nil)
	}
	w := &s.pool[0]
	w.buf, w.rows, w.marks = w.buf[:0], 0, w.marks[:0]
	if w.execs == nil {
		w.start(s.db, s.cs, s.total.Arity(), hi-lo, s.newKeep)
	}
	for _, x := range w.execs {
		var opStart time.Time
		if s.ph != nil {
			opStart = time.Now()
		}
		if !x.run(rows, lo, hi, s.stop) {
			s.stopped()
			return nil, false
		}
		if s.ph != nil {
			rt.RuleUS = append(rt.RuleUS, time.Since(opStart).Microseconds())
		}
	}
	w.marks = append(w.marks, chunkMark{0, len(w.buf)})
	return s.pool[:1], true
}

// Apply computes f(src) for one operator — the head tuples derivable
// with all of src as the recursive input — and adds them to dst,
// returning how many were new.  It is one stepper round over src,
// inline or fanned out across the pool like any other, merged into dst,
// so Stats count as a round's: one derivation per emission, one
// duplicate per emission dst already held or the same application
// emitted before.  src and dst hold the operator's arity and may be the
// same relation.
func (e *Engine) Apply(db rel.DB, op *ast.Op, src, dst *rel.Relation, stats *Stats) int {
	s := e.newStepper(db, []*compiled{e.compiledFor(op)}, dst)
	pool, _ := s.join(src.Packed(), 0, src.Len(), nil)
	return s.merge.merge(dst, pool, nil, stats)
}

// SemiNaive computes (Σᵢ opsᵢ)* q by semi-naive iteration: each round
// applies every operator to the previous round's delta only.
func (e *Engine) SemiNaive(db rel.DB, ops []*ast.Op, q *rel.Relation) (*rel.Relation, Stats) {
	total, stats, _ := e.SemiNaiveCtx(context.Background(), db, ops, q)
	return total, stats
}

// SemiNaiveCtx is SemiNaive with cancellation: the closure polls ctx at
// every round and every cancelCheckRows delta rows within one (inside
// each worker's chunks when the round fans out), and returns ctx's
// error — with all workers joined — once it fires.  A Tracer carried by
// ctx (WithTracer) records the closure as one "semi-naive" phase.
func (e *Engine) SemiNaiveCtx(ctx context.Context, db rel.DB, ops []*ast.Op, q rel.Store) (*rel.Relation, Stats, error) {
	return e.StreamCtx(ctx, db, ops, q).Drain()
}

// SemiNaiveResumeCtx resumes a semi-naive closure from an externally
// supplied fixpoint: total[0, lo) must already be closed under ops over
// db, and rows [lo, total.Len()) are the delta to propagate.  The
// relation is extended in place to the new fixpoint.  This is the
// incremental-maintenance entry point — additions against a cached
// closure append their one-step consequences as delta rows and resume
// from here instead of re-deriving the world.  A Tracer carried by ctx
// records the resume as one "resume" phase.
func (e *Engine) SemiNaiveResumeCtx(ctx context.Context, db rel.DB, ops []*ast.Op, total *rel.Relation, lo int) (Stats, error) {
	_, stats, err := e.open(ctx, db, e.compiledOps(ops), total, lo, "resume", nil).Drain()
	return stats, err
}

// Decomposed computes B*C*q as two chained semi-naive closures — the
// decomposition (B+C)* = B*C* that commutativity licenses (Section 3).
// Cancellation behaves as SemiNaiveCtx.
func (e *Engine) Decomposed(ctx context.Context, db rel.DB, b, c []*ast.Op, q *rel.Relation) (*rel.Relation, Stats, error) {
	mid, s1, err := e.SemiNaiveCtx(ctx, db, c, q)
	if err != nil {
		return nil, s1, err
	}
	out, s2, err := e.SemiNaiveCtx(ctx, db, b, mid)
	s1.Add(s2)
	return out, s1, err
}
