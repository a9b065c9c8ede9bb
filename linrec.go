// Package linrec is a reproduction, as a reusable Go library, of
//
//	Yannis E. Ioannidis, "Commutativity and its Role in the Processing of
//	Linear Recursion" (VLDB 1989; extended version in J. Logic
//	Programming 14:223–252, 1992).
//
// It implements the paper's algebraic model of linear recursion, the
// a-graph machinery and syntactic commutativity tests of Section 5
// (Theorems 5.1–5.3), the separable algorithm and its widening to
// commutative rules (Theorem 4.1), recursive-redundancy detection and
// elimination (Theorems 4.2, 6.3, 6.4), and a bottom-up Datalog engine
// with plan selection that exploits all of the above.
//
// Quick start:
//
//	sys, err := linrec.Load(`
//	    path(X,Y) :- edge(X,Y).
//	    path(X,Y) :- path(X,Z), edge(Z,Y).
//	    edge(a,b). edge(b,c).
//	    ?- path(a, Y).
//	`, linrec.Options{})
//	results, err := sys.Run()
//
// System.Evaluate and System.Stream answer one goal under per-query
// options, and System.Apply publishes a batch of fact additions and
// retractions as one new snapshot.
//
// The deeper machinery (operator algebra, a-graphs, commutativity reports,
// redundancy decompositions) is exposed through System.Analyze and the
// re-exported report types below.
package linrec

import (
	"linrec/internal/ast"
	"linrec/internal/commute"
	"linrec/internal/core"
	"linrec/internal/parser"
	"linrec/internal/planner"
	"linrec/internal/rel"
	"linrec/internal/segment"
	"linrec/internal/separable"
)

// System is a loaded Datalog program with its database and analyses.
type System = core.System

// Options configure evaluation: Workers sizes the parallel closure pool
// (0/1 sequential, negative = GOMAXPROCS), Strategy can force a plan,
// ResultCacheRows sizes the goal-level result cache (0 default, negative
// disables), and Persist plugs in durable snapshot storage (see
// OpenStorage).
type Options = core.Options

// Strategy forces an evaluation strategy; see the planner constants below.
type Strategy = planner.Strategy

// Re-exported strategies.
const (
	Auto            = planner.Auto
	ForceSemiNaive  = planner.ForceSemiNaive
	ForceDecomposed = planner.ForceDecomposed
)

// QueryResult is an answered query with its plan and statistics.
type QueryResult = core.QueryResult

// QueryRequest bundles a query goal with its evaluation knobs — the
// single argument of System.Evaluate and System.Stream.  The zero value
// of every field is the sensible default; build one literally or with
// NewQueryRequest.
type QueryRequest = core.QueryRequest

// QueryOption customizes a QueryRequest built by NewQueryRequest.
type QueryOption = core.QueryOption

// NewQueryRequest builds a request for goal with the given options.
func NewQueryRequest(goal Atom, opts ...QueryOption) QueryRequest {
	return core.NewQueryRequest(goal, opts...)
}

// WithSnapshot pins the request to an explicit snapshot.
func WithSnapshot(snap *Snapshot) QueryOption { return core.WithSnapshot(snap) }

// WithOptions replaces the request's evaluation options wholesale.
func WithOptions(opts Options) QueryOption { return core.WithOptions(opts) }

// WithWorkers sets the closure worker pool size for this query.
func WithWorkers(n int) QueryOption { return core.WithWorkers(n) }

// WithStrategy forces an evaluation strategy instead of the
// analysis-driven choice.
func WithStrategy(strategy Strategy) QueryOption { return core.WithStrategy(strategy) }

// WithLimit bounds a streamed evaluation to n rows (0 = unbounded).
func WithLimit(n int) QueryOption { return core.WithLimit(n) }

// Snapshot is an immutable, versioned view of the extensional database.
// System.Apply publishes new snapshots copy-on-write while in-flight
// queries keep the one they pinned — the substrate behind the linrecd
// server's online fact updates and retractions, and the version key
// behind every evaluation cache.
type Snapshot = core.Snapshot

// Store is the relation storage interface: in-memory columnar tables
// and lazily-loaded on-disk segments implement it identically, so every
// snapshot — and every query plan — runs against either backend.
type Store = rel.Store

// Persister is the pluggable durability seam: when set in
// Options.Persist, NewSystem boots from the last persisted snapshot
// (when one exists) and every snapshot swap is persisted before it
// becomes visible.  Storage, returned by OpenStorage, is the on-disk
// segment implementation.
type Persister = core.Persister

// Storage is the on-disk segment store behind OpenStorage: immutable
// columnar segment files addressed by a versioned manifest, published
// with fsync'd atomic renames and recovered in time proportional to
// segment metadata.  It satisfies Persister.
type Storage = segment.Manager

// OpenStorage opens (or initializes) a durable storage directory.  Wire
// the result into Options.Persist to make a system's snapshots survive
// restarts:
//
//	store, err := linrec.OpenStorage("/var/lib/myapp")
//	sys, err := linrec.Load(src, linrec.Options{Persist: store})
func OpenStorage(dir string) (*Storage, error) { return segment.Open(dir) }

// ResultCacheStats reports the goal-level result cache's hit/miss/
// eviction counters (System.ResultCacheStats, the server's /v1/stats
// "result_cache" section).
type ResultCacheStats = core.ResultCacheStats

// Analysis is the paper's full symbolic analysis of one recursive
// predicate.
type Analysis = planner.Analysis

// Plan is a selected evaluation strategy.  Plans are chosen once per
// binding pattern and shared between queries: treat them as read-only.
type Plan = planner.Plan

// CommuteVerdict is the outcome of a commutativity test.
type CommuteVerdict = commute.Verdict

// Re-exported verdicts.
const (
	Commute    = commute.Commute
	NotCommute = commute.NotCommute
	Unknown    = commute.Unknown
)

// Selection is a single-column equality selection on a query answer.
type Selection = separable.Selection

// Atom, Rule, Program and Term are the syntax-tree types used by queries
// and programmatic construction.
type (
	Atom    = ast.Atom
	Rule    = ast.Rule
	Program = ast.Program
	Term    = ast.Term
)

// V builds a variable term; C builds a constant term.
func V(name string) Term { return ast.V(name) }

// C builds a constant term.
func C(name string) Term { return ast.C(name) }

// NewAtom builds a query or fact atom from terms, e.g.
// NewAtom("path", C("a"), V("Y")) for the bound goal path(a, Y).
func NewAtom(pred string, args ...Term) Atom { return ast.NewAtom(pred, args...) }

// Load parses a Datalog program (rules, facts, queries) and builds a
// system over it with NewSystem.
func Load(src string, opts Options) (*System, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return core.NewSystem(prog, opts)
}

// NewSystem is the one constructor: it builds a system from an
// already-parsed (or programmatically constructed) program and options,
// booting from Options.Persist when it holds a persisted snapshot.
func NewSystem(p *Program, opts Options) (*System, error) {
	return core.NewSystem(p, opts)
}
