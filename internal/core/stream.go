// Streaming queries: Stream is the pull-based sibling of Evaluate.
// Where Evaluate runs the chosen plan to its fixpoint and hands back a
// materialized answer, Stream hands back an iterator whose underlying
// closure advances only as rows are pulled — a consumer that stops
// after k rows (a limit-k or exists query) stops the fixpoint at the
// round that produced its k-th answer.
//
// The planner opens every plan's final closure as an un-drained stream
// (planner.Analysis.Open), so laziness covers the three closure-shaped
// plan paths: plain semi-naive, the final group of a decomposed closure
// (earlier groups must materialize — they feed the next closure's
// seed), and the magic-restricted closure of filter-mode magic plans.
// The remaining plan kinds (separable, context-mode magic, the
// n-ary separable decomposition) produce their answer as a whole and
// come back as an already-complete stream, so early termination saves
// transport but not evaluation.
//
// Result-cache interaction: a stream peeks the goal-level cache and
// serves a completed entry's rows, but never joins an in-flight build
// (a stream's consumer controls its pace; parking it behind another
// query's evaluation would defeat the point).  Limited streams never
// populate the cache — their evaluation may be partial.  An unbounded
// stream that reaches natural exhaustion holds the same full answer
// Evaluate would have built and populates the cache with it.

package core

import (
	"context"
	"fmt"
	"runtime/debug"

	"linrec/internal/ast"
	"linrec/internal/eval"
	"linrec/internal/planner"
	"linrec/internal/rel"
	"linrec/internal/separable"
)

// QueryStream is a pull-based handle on one query's answer rows.  It is
// not safe for concurrent use; a single consumer calls Next until it
// returns false (or until it has enough rows) and then Close.  Close is
// idempotent and required: an abandoned stream holds its context
// watcher and open trace phase until closed.
type QueryStream struct {
	sys     *System
	query   ast.Atom
	plan    *planner.Plan
	version uint64
	cached  bool
	limit   int

	// closure feeds the rows: a live closure stepping on demand, or an
	// already-complete one over a cached or materialized answer.
	closure  *eval.ClosureStream
	filters  []separable.Selection
	preStats eval.Stats

	key      resultKey
	populate bool // cache the reconstructed answer at natural exhaustion

	names   []string
	yielded int
	err     error
	done    bool
	early   bool
	closed  bool
}

// Stream opens a streamed evaluation of a query request — the
// pull-based sibling of Evaluate.  An unset req.Snap pins the current
// snapshot.  req.Limit > 0 caps the stream at that many rows (the k-th
// row ends it, and rounds past the one that produced it never run);
// Limit ≤ 0 streams the full answer.  Construction may already
// evaluate: the seed, a magic frontier, or — for plan kinds with no
// streamable closure — the whole query.  Errors during construction or
// streaming that stem from engine invariant violations are recovered
// into ErrInternal, as in Evaluate.
func (s *System) Stream(ctx context.Context, req QueryRequest) (st *QueryStream, err error) {
	snap := req.Snap
	if snap == nil {
		snap = s.Snapshot()
	}
	q, opts, limit := req.Goal, req.Opts, req.Limit
	defer func() {
		if r := recover(); r != nil {
			st, err = nil, fmt.Errorf("core: %w: query %v: %v\n%s", ErrInternal, q, r, debug.Stack())
		}
	}()
	opts = opts.normalize()
	if limit < 0 {
		limit = 0
	}
	a, sels, unknown, err := s.resolveQuery(q)
	if err != nil {
		return nil, err
	}
	st = &QueryStream{sys: s, query: q, version: snap.Version, limit: limit}
	if unknown != "" {
		st.plan = &planner.Plan{Kind: planner.SemiNaive, Why: fmt.Sprintf("constant %q occurs in no rule or fact: empty answer", unknown)}
		st.closure = eval.Completed(rel.NewRelation(q.Arity()))
		return st, nil
	}
	st.key = resultKey{
		goal:     normalizeGoal(q),
		kind:     s.intendedKind(a, sels, opts),
		strategy: opts.Strategy,
		workers:  opts.Workers,
	}
	tr := eval.TracerFrom(ctx)
	if res := s.results.peek(st.key, snap.Version); res != nil {
		tr.Cache("result", "hit", st.key.goal, 0)
		st.plan, st.cached = res.Plan, true
		st.preStats = res.Stats
		st.closure = eval.Completed(res.Answer)
		return st, nil
	}
	tr.Cache("result", "miss", st.key.goal, 0)

	if nArySeparableCandidate(a, sels) {
		// The n-ary separable decomposition (and its fallbacks) evaluates
		// exactly as Evaluate — full answer, full cost.
		res, err := s.queryEval(ctx, snap, q, a, sels, opts)
		if err != nil {
			return nil, err
		}
		s.populateResult(st.key, snap.Version, res)
		st.plan, st.preStats, st.closure = res.Plan, res.Stats, eval.Completed(res.Answer)
		return st, nil
	}
	plan, seed, err := s.planSeeded(ctx, snap, a, sels, opts)
	if err != nil {
		return nil, err
	}
	st.plan, st.filters = plan, plan.Residual(sels)
	st.closure, st.preStats, err = a.Open(ctx, s.Engine, snap.DB, plan, opts.planOpts(), seed)
	if err != nil {
		return nil, err
	}
	// A plan kind with no lazy closure produced its answer whole and was
	// paid for in full: cache it now, even under a limit.  A live closure
	// populates the cache only if an unbounded consumer drains it (finish).
	if plan.Parallelizable() {
		st.populate = true
	} else {
		s.populateResult(st.key, snap.Version, st.result())
	}
	return st, nil
}

// result assembles the query result from a complete closure: the
// residual selections applied to its total, the pre-stream statistics
// plus the closure's.
func (st *QueryStream) result() *QueryResult {
	ans := st.closure.Total()
	for _, sel := range st.filters {
		ans = sel.Apply(ans)
	}
	return &QueryResult{Query: st.query, Answer: ans, Stats: st.Stats(), Plan: st.plan, Version: st.version}
}

// populateResult offers a complete query result to the result cache
// without ever blocking: if no entry exists for the key it becomes a
// completed entry, and if one exists (in-flight or done) the offer is
// dropped — the cache's single-flight builders keep their own protocol.
func (s *System) populateResult(key resultKey, version uint64, res *QueryResult) {
	if res == nil {
		return
	}
	e, build := s.results.acquire(key, version)
	if e == nil || !build {
		return
	}
	res.memo = &rowsMemo{syms: s.Engine.Syms}
	s.results.complete(e, res, nil)
}

// match applies the query's residual selections to one candidate row.
func (st *QueryStream) match(t rel.Tuple) bool {
	for _, sel := range st.filters {
		if t[sel.Col] != sel.Value {
			return false
		}
	}
	return true
}

// Next yields the next answer row, advancing the underlying closure by
// as many rounds as it takes to produce one (or prove there are none).
// The returned tuple is owned by the stream: Clone rows that must
// outlive it.  After a false return, Err distinguishes exhaustion or a
// reached limit (nil) from a cancelled or failed evaluation.
func (st *QueryStream) Next() (row rel.Tuple, ok bool) {
	if st.done || st.err != nil {
		return nil, false
	}
	defer func() {
		if r := recover(); r != nil {
			// A worker panic re-raised at the round barrier surfaces here,
			// in the consumer's stack; recover it into ErrInternal exactly
			// as Evaluate does.
			st.err = fmt.Errorf("core: %w: query %v: %v\n%s", ErrInternal, st.query, r, debug.Stack())
			st.done = true
			st.finish()
			row, ok = nil, false
		}
	}()
	for {
		t, more := st.closure.Next()
		if !more {
			st.err = st.closure.Err()
			st.done = true
			st.finish()
			return nil, false
		}
		if !st.match(t) {
			continue
		}
		st.yielded++
		if st.limit > 0 && st.yielded >= st.limit {
			// The k-th row ends the stream: mark it done (and release the
			// closure) before handing the row out, so no further round can
			// run on a later Next.
			st.done, st.early = true, true
			st.finish()
		}
		return t, true
	}
}

// finish releases the stream's resources once and, when an unbounded
// stream exhausted its closure naturally, offers the reconstructed full
// answer to the result cache.
func (st *QueryStream) finish() {
	if st.closed {
		return
	}
	st.closed = true
	exhausted := st.closure.Exhausted()
	st.closure.Close()
	if st.populate && st.limit == 0 && !st.early && exhausted && st.err == nil {
		st.sys.populateResult(st.key, st.version, st.result())
	}
}

// Close ends the stream early; rounds not yet run never run.  Idempotent.
func (st *QueryStream) Close() {
	st.done = true
	st.finish()
}

// Err reports why the stream stopped: nil for exhaustion or a reached
// limit, the context's error for a cancelled evaluation, an ErrInternal
// wrapper for a recovered engine panic.
func (st *QueryStream) Err() error { return st.err }

// Stats returns the evaluation statistics accumulated so far: any
// pre-stream work (magic frontier, earlier decomposed groups, or the
// full evaluation on materialized paths) plus the closure rounds that
// actually ran.
func (st *QueryStream) Stats() eval.Stats {
	stats := st.preStats
	stats.Add(st.closure.Stats())
	return stats
}

// Plan returns the evaluation plan the stream executes.
func (st *QueryStream) Plan() *planner.Plan { return st.plan }

// Version returns the snapshot version the stream evaluates against.
func (st *QueryStream) Version() uint64 { return st.version }

// Cached reports that the stream serves a completed result-cache entry
// instead of evaluating.
func (st *QueryStream) Cached() bool { return st.cached }

// EarlyTerminated reports that the stream stopped at its limit, leaving
// the underlying evaluation's remaining rounds unrun — the signal the
// server's early-termination counters record.
func (st *QueryStream) EarlyTerminated() bool { return st.early }

// RowsYielded returns the number of rows handed out so far.
func (st *QueryStream) RowsYielded() int { return st.yielded }

// RenderRow renders one yielded tuple as symbol strings, with the same
// unknown-value fallback as QueryResult.Rows.  The symbol-table snapshot
// is taken on first use and reused for the stream's life.
func (st *QueryStream) RenderRow(t rel.Tuple) []string {
	if st.names == nil {
		st.names = st.sys.Engine.Syms.Names()
	}
	row := make([]string, len(t))
	for i, v := range t {
		if int(v) >= 0 && int(v) < len(st.names) {
			row[i] = st.names[v]
		} else {
			row[i] = fmt.Sprintf("#%d", v)
		}
	}
	return row
}
