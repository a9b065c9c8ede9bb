package core

import (
	"linrec/internal/ast"
	"linrec/internal/planner"
)

// QueryRequest bundles everything a query evaluation needs — the goal
// plus the knobs of one Evaluate or Stream call.  The zero value of
// every field means "the sensible default": a nil Snap pins the current
// snapshot at dispatch, zero Opts evaluates sequentially with the auto
// plan, zero Limit streams unbounded.  Construct one literally or with
// NewQueryRequest and functional options; either way the struct is
// plain data and may be stored, copied or retried freely.
type QueryRequest struct {
	// Goal is the query atom; constants become selections exactly as in
	// Query.
	Goal ast.Atom
	// Snap optionally pins an explicit snapshot (e.g. to correlate
	// several queries against one version).  nil means the system's
	// current snapshot when the request is dispatched.
	Snap *Snapshot
	// Opts carries the per-query evaluation options (workers, strategy).
	Opts Options
	// Limit bounds a streamed evaluation to at most this many rows,
	// enabling early termination; 0 means unbounded.  Evaluate ignores
	// it — a materialized result is always complete.
	Limit int
}

// QueryOption customizes a QueryRequest built by NewQueryRequest.
type QueryOption func(*QueryRequest)

// NewQueryRequest builds a request for goal with the given options.
func NewQueryRequest(goal ast.Atom, opts ...QueryOption) QueryRequest {
	req := QueryRequest{Goal: goal}
	for _, o := range opts {
		o(&req)
	}
	return req
}

// WithSnapshot pins the request to an explicit snapshot.
func WithSnapshot(snap *Snapshot) QueryOption {
	return func(r *QueryRequest) { r.Snap = snap }
}

// WithOptions replaces the request's evaluation options wholesale.
// Combine with WithWorkers/WithStrategy, which modify in place, only by
// applying WithOptions first.
func WithOptions(opts Options) QueryOption {
	return func(r *QueryRequest) { r.Opts = opts }
}

// WithWorkers sets the closure worker pool size for this query.
func WithWorkers(n int) QueryOption {
	return func(r *QueryRequest) { r.Opts.Workers = n }
}

// WithStrategy forces an evaluation strategy instead of the
// analysis-driven choice.
func WithStrategy(strategy planner.Strategy) QueryOption {
	return func(r *QueryRequest) { r.Opts.Strategy = strategy }
}

// WithLimit bounds a streamed evaluation to n rows (0 = unbounded).
func WithLimit(n int) QueryOption {
	return func(r *QueryRequest) { r.Limit = n }
}
