// Package core is the facade tying the substrates together: build a
// System over a parsed Datalog program (NewSystem), analyze its linear
// recursion with the paper's machinery, choose an evaluation plan and
// answer queries (Evaluate, Stream).  The root package linrec re-exports
// this API for library users.
//
// The extensional database lives behind an atomically-swapped immutable
// Snapshot: queries pin the snapshot current when they start and evaluate
// entirely against it, while writers publish new snapshots copy-on-write
// (Apply), so online fact updates never tear an in-flight query.
package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"linrec/internal/ast"
	"linrec/internal/eval"
	"linrec/internal/planner"
	"linrec/internal/rel"
	"linrec/internal/separable"
)

// ErrInternal wraps an evaluation panic recovered into an error: the
// engine hit an invariant violation (e.g. a relation whose arity
// disagrees with the program) that load- and update-time validation
// should have made impossible.  Callers can branch on it with errors.Is
// to report such failures as server faults rather than bad requests.
var ErrInternal = errors.New("internal evaluation error")

// Options configure a System's evaluation.
type Options struct {
	// Workers sizes the closure worker pool: every semi-naive round shards
	// its delta across this many goroutines.  0 or 1 evaluates
	// sequentially; negative selects runtime.GOMAXPROCS(0).
	Workers int
	// Strategy optionally overrides the analysis-driven plan choice.
	Strategy planner.Strategy
	// ResultCacheRows caps the goal-level result cache by total cached
	// answer rows.  0 selects DefaultResultCacheRows; negative disables
	// result caching only — exit-rule seeds and magic sets stay cached.
	// Only the value passed at System construction matters —
	// the cache belongs to the System, not to individual queries.
	ResultCacheRows int
	// Persist, when set, makes snapshots durable: NewSystem boots the
	// last published snapshot from it (skipping the program's fact load
	// when one exists), and every snapshot swap publishes through it
	// before becoming visible.  A publish failure aborts the swap, so
	// the durable state never lags the served state.  Only the value
	// passed at System construction matters.
	Persist Persister
}

// Persister is the persistence seam between the engine and a storage
// backend (see internal/segment for the on-disk implementation).  Boot
// restores the last published snapshot: it replays the persisted symbol
// table into syms — so persisted column values stay meaningful — and
// returns the database and its snapshot version; ok is false on a fresh
// (empty) backend.  Publish makes a snapshot durable before it is
// served; it runs under the system's write lock, so calls are
// serialized, and may retain db and read it lazily afterwards — every
// store in a published snapshot is immutable forever.
type Persister interface {
	Boot(syms *rel.Symtab) (db rel.DB, version uint64, ok bool, err error)
	Publish(version uint64, db rel.DB, syms *rel.Symtab) error
}

// DeltaPersister is the optional partial-reuse extension of Persister:
// PublishDelta has Publish's durability contract, but a backend that
// implements it may persist a predicate whose store is one overlay
// layer (rel.Layered) over its previously published store as a delta
// chained onto the existing base, instead of rewriting the relation.
// The backend may also replace entries of db in place with equivalent
// compacted stores (same tuples, flat representation) before the
// snapshot becomes visible — which is how long chains fold back into
// single segments.  Fact swaps prefer this path when the backend
// offers it.
type DeltaPersister interface {
	Persister
	PublishDelta(version uint64, db rel.DB, syms *rel.Symtab) error
}

// persistSwap publishes a fact-update snapshot through the configured
// backend, routing through the delta path when the backend supports
// it.  It must run before the snapshot is stored (durability before
// visibility) and before cache maintenance binds to next.DB, since a
// delta backend may swap compacted stores into it.
func (s *System) persistSwap(next *Snapshot) error {
	if s.Opts.Persist == nil {
		return nil
	}
	if dp, ok := s.Opts.Persist.(DeltaPersister); ok {
		return dp.PublishDelta(next.Version, next.DB, s.Engine.Syms)
	}
	return s.Opts.Persist.Publish(next.Version, next.DB, s.Engine.Syms)
}

func (o Options) normalize() Options {
	if o.Workers < 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// planOpts maps the options onto the planner's.
func (o Options) planOpts() planner.Options {
	return planner.Options{Workers: o.Workers, Strategy: o.Strategy}
}

// Snapshot is an immutable version of the extensional database.  Once
// published it is never mutated: queries evaluate against whichever
// snapshot they pinned, and fact updates build a successor copy-on-write.
// Relations untouched by an update are shared between versions, and a
// changed one gains one rel.Layered layer over its previous store, so a
// swap costs one shallow map copy plus the update's own tuples.
type Snapshot struct {
	DB      rel.DB
	Version uint64
}

// System holds a loaded program, its extensional database and the engine.
// After construction, a System is safe for concurrent use: Evaluate,
// Stream, Run, Analyze and Report may be called from any number of
// goroutines, and Apply may swap in new fact snapshots concurrently with
// in-flight queries (writers are serialized internally).
type System struct {
	// Prog is the program's rules and queries.  Its facts are in the
	// database, not here: Facts is always empty.
	Prog   *ast.Program
	Engine *eval.Engine
	Opts   Options

	// snap is the current database snapshot; readers load it once per
	// query and never look again (snapshot isolation).
	snap atomic.Pointer[Snapshot]
	// factMu serializes snapshot writers (Apply).
	factMu sync.Mutex

	// idb is the set of rule-head predicates: evaluation derives them, it
	// never reads their db relation, so Apply rejects them (facts for
	// a derived predicate would be stored yet invisible to every query).
	idb map[string]bool
	// arity maps every predicate the program mentions (rule heads, rule
	// bodies, facts) to its declared arity.  Apply validates against it,
	// so a rule-referenced EDB predicate with no initial facts — absent
	// from every snapshot — still rejects wrong-arity facts up front
	// instead of surfacing the mismatch as a join panic at query time.
	arity map[string]int

	mu       sync.Mutex
	analyses map[string]*planner.Analysis

	// store holds the views derived from the current snapshot — goal
	// results, exit-rule seeds and magic sets (see store.go) — so repeated
	// goals skip evaluation and repeated bound goals skip re-materializing
	// their inputs; snapshot swaps carry its entries to the new version
	// (see maintain.go) before purging.
	store *store

	// deltas caches the occurrence-restricted delta operators the
	// maintenance paths derive from the analysis operators (maintain.go).
	deltas deltaOps
}

// seedFor returns the evaluation seed for a on snap.  A copy exit rule's
// seed is the snapshot's stored relation itself (planner's CopySource):
// nothing is built, cached or maintained for it.  Every other seed is
// materialized once per (predicate, snapshot version) and cached.
func (s *System) seedFor(ctx context.Context, a *planner.Analysis, snap *Snapshot) (rel.Store, error) {
	if pred, ok := a.CopySource(); ok {
		arity := a.ExitRules[0].Head.Arity()
		st, ok := snap.DB[pred]
		if !ok {
			return rel.NewRelation(arity), nil
		}
		if st.Arity() != arity {
			return nil, fmt.Errorf("core: %w: exit rule of %q reads %q at arity %d, stored at %d", ErrInternal, a.Pred, pred, arity, st.Arity())
		}
		return st, nil
	}
	res, _, err := s.view(ctx, viewKey{kind: seedView, pred: a.Pred}, snap.Version, func() (*QueryResult, error) {
		q, err := a.Seed(s.Engine, snap.DB)
		if err != nil {
			return nil, err
		}
		return &QueryResult{Answer: q}, nil
	})
	if err != nil {
		return nil, err
	}
	return res.Answer, nil
}

// magicFor returns the magic set for a bound goal on snap, cached per
// (predicate, adornment, bound tuple), along with the frontier statistics
// recorded when the set was built, so every query over the cached set
// reports the same statistics as the one that paid for it.  vals carries
// the bound values in spec.Cols order.
func (s *System) magicFor(ctx context.Context, a *planner.Analysis, snap *Snapshot, spec eval.MagicSpec, vals rel.Tuple) (*rel.Relation, eval.Stats, error) {
	key := viewKey{kind: magicView, pred: a.Pred, goal: magicAdornKey(spec.Cols, vals)}
	res, _, err := s.view(ctx, key, snap.Version, func() (*QueryResult, error) {
		var stats eval.Stats
		set, err := s.Engine.MagicSetCtx(ctx, snap.DB, spec, vals, &stats)
		if err != nil {
			return nil, err
		}
		return &QueryResult{Answer: set, Stats: stats}, nil
	})
	if err != nil {
		return nil, eval.Stats{}, err
	}
	return res.Answer, res.Stats, nil
}

// NewSystem builds a System from a parsed program (see parser.Parse) —
// the one constructor.  Without
// persistence it loads the program's facts as snapshot version 1.  With
// Options.Persist set, it first asks the persister for a previously
// published snapshot: when one exists, the engine boots from it —
// symbol table restored, database served as-is at its persisted version,
// the program's fact list skipped (those facts were part of whatever
// history produced the persisted snapshot) and no closure recomputed.
// On a fresh backend it loads the program's facts and publishes them as
// the first durable snapshot.
func NewSystem(prog *ast.Program, opts Options) (*System, error) {
	s := &System{
		// A shallow copy without the facts, so the parsed atoms do not
		// outlive the load; the caller's program is left as it is.
		Prog:     &ast.Program{Rules: prog.Rules, Queries: prog.Queries},
		Engine:   eval.NewEngine(nil),
		Opts:     opts.normalize(),
		idb:      map[string]bool{},
		arity:    map[string]int{},
		analyses: map[string]*planner.Analysis{},
		store:    newStore(opts.ResultCacheRows),
	}
	for _, r := range prog.Rules {
		s.idb[r.Head.Pred] = true
	}
	// Fix every predicate's arity before anything evaluates: a program
	// using one predicate at two arities would otherwise load fine and
	// only blow up as a join panic mid-query.
	record := func(a ast.Atom) error {
		if want, ok := s.arity[a.Pred]; ok && want != a.Arity() {
			return fmt.Errorf("core: predicate %q used with arity %d and %d", a.Pred, want, a.Arity())
		}
		s.arity[a.Pred] = a.Arity()
		return nil
	}
	for _, r := range prog.Rules {
		if err := record(r.Head); err != nil {
			return nil, err
		}
		for _, a := range r.Body {
			if err := record(a); err != nil {
				return nil, err
			}
		}
	}
	for _, f := range prog.Facts {
		if err := record(f); err != nil {
			return nil, err
		}
	}
	var (
		db      rel.DB
		version uint64 = 1
		booted  bool
	)
	if s.Opts.Persist != nil {
		bdb, bver, ok, err := s.Opts.Persist.Boot(s.Engine.Syms)
		if err != nil {
			return nil, err
		}
		if ok {
			db, version, booted = bdb, bver, true
			// The recovered database must still fit the program: a
			// persisted relation whose arity disagrees with the rules, or
			// one shadowing a derived predicate, would resurface as a join
			// panic (or silently dead facts) at query time.
			for pred, st := range db {
				if s.idb[pred] {
					return nil, fmt.Errorf("core: recovered snapshot stores derived predicate %q", pred)
				}
				if want, ok := s.arity[pred]; ok && want != st.Arity() {
					return nil, fmt.Errorf("core: recovered predicate %q has arity %d, program declares %d",
						pred, st.Arity(), want)
				}
			}
		}
	}
	if !booted {
		db = rel.DB{}
		if err := s.Engine.LoadFacts(db, prog.Facts); err != nil {
			return nil, err
		}
	}
	// Pre-intern every rule constant: afterwards, a query constant that
	// Lookup cannot resolve provably occurs in no rule and no snapshot
	// relation, so the query path can answer "empty" without interning —
	// otherwise remote clients could grow the symbol table without bound
	// through fresh constants in read-only queries.  After a boot this is
	// idempotent for constants the persisted symtab already holds and
	// extends it for rules added since the snapshot was published.
	for _, r := range prog.Rules {
		internAtomConstants(s.Engine.Syms, r.Head)
		for _, a := range r.Body {
			internAtomConstants(s.Engine.Syms, a)
		}
	}
	if s.Opts.Persist != nil && !booted {
		if err := s.Opts.Persist.Publish(version, db, s.Engine.Syms); err != nil {
			return nil, fmt.Errorf("core: persisting initial snapshot: %w", err)
		}
	}
	s.snap.Store(&Snapshot{DB: db, Version: version})
	return s, nil
}

func internAtomConstants(syms *rel.Symtab, a ast.Atom) {
	for _, t := range a.Args {
		if !t.IsVar() {
			syms.Intern(t.Name)
		}
	}
}

// Snapshot returns the current database snapshot.  The returned snapshot
// stays valid (and immutable) forever; queries running against it are
// unaffected by later Apply swaps.
func (s *System) Snapshot() *Snapshot {
	return s.snap.Load()
}

// DB returns the current snapshot's database.  Mutating it is only safe
// before the System is shared across goroutines (e.g. bulk-loading
// generated facts right after NewSystem); once concurrent queries or
// Apply run, all updates must go through Apply.
func (s *System) DB() rel.DB {
	return s.snap.Load().DB
}

// Apply publishes one new database snapshot: the current facts with
// removes retracted and then adds inserted, as one validated, maintained
// and durable version.  Both halves obey one contract — ground atoms,
// no derived (rule-head) predicates, arities consistent with the
// program, the current snapshot's relations and each other, and no more
// new constants than the symbol table has room for — and a rejected
// batch changes nothing, the shared symbol table included.
// The net effect is resolved against the current snapshot, removals
// first: a fact in both halves ends up present, a retraction of an
// absent fact (or one naming a constant never seen) is a no-op, and a
// duplicate addition is skipped.  Maintenance.Added and .Removed count
// the tuples that actually changed; a batch that changes nothing
// publishes nothing and returns the current snapshot, so warm caches
// survive idempotent re-pushes.
//
// The swap is copy-on-write: relations the batch does not change are
// shared with the previous snapshot, and every changed store, in memory
// or on disk, gains one rel.Layered layer carrying the batch's additions
// and tombstones — the shape a delta-capable persister publishes as one
// chained link — folded by rel's chain policy (see nextStore).  The snapshot
// is persisted before it becomes visible (a publish failure aborts the
// swap), and the caches are carried to it by one maintenance pass (see
// maintain.go) before it publishes.  In-flight queries keep the
// snapshot they pinned.  ctx carries observability — an eval.Tracer on
// it records every cache upgrade/purge and resume phase — and its
// cancellation never aborts the swap; it only degrades in-progress
// result upgrades to purges.
func (s *System) Apply(ctx context.Context, adds, removes []ast.Atom) (*Snapshot, Maintenance, error) {
	var m Maintenance
	if len(adds) == 0 && len(removes) == 0 {
		return s.Snapshot(), m, nil
	}
	s.factMu.Lock()
	defer s.factMu.Unlock()
	old := s.snap.Load()
	// Validate the entire batch before interning anything: rejection
	// must leave the shared symbol table byte-identical, or repeatedly
	// rejected batches would grow it without bound.
	batch := map[string]int{}
	for _, half := range [][]ast.Atom{removes, adds} {
		for _, f := range half {
			if err := s.checkFact(old, batch, f); err != nil {
				return nil, m, err
			}
		}
	}
	if err := s.checkSymbolRoom(adds); err != nil {
		return nil, m, err
	}
	// Resolve the net delta per predicate: added holds adds \ old and
	// removed holds removes ∩ old \ adds.  kept (adds ∩ old) is only
	// needed to shield those facts from the removal half.
	added, removed, kept := map[string]*rel.Relation{}, map[string]*rel.Relation{}, map[string]*rel.Relation{}
	for _, f := range adds {
		t := make(rel.Tuple, f.Arity())
		for i, a := range f.Args {
			t[i] = s.Engine.Syms.Intern(a.Name)
		}
		if prev, ok := old.DB[f.Pred]; ok && prev.Has(t) {
			if len(removes) > 0 {
				insertDelta(kept, f.Pred, t)
			}
			continue
		}
		if insertDelta(added, f.Pred, t) {
			m.Added++
		}
	}
	for _, f := range removes {
		prev, ok := old.DB[f.Pred]
		if !ok {
			continue
		}
		// Lookup, never Intern: a constant the symbol table has never
		// seen occurs in no tuple, so its retraction is a no-op rather
		// than symbol-table growth.
		t := make(rel.Tuple, f.Arity())
		known := true
		for i, a := range f.Args {
			t[i], known = s.Engine.Syms.Lookup(a.Name)
			if !known {
				break
			}
		}
		if !known || !prev.Has(t) || (kept[f.Pred] != nil && kept[f.Pred].Has(t)) {
			continue
		}
		if insertDelta(removed, f.Pred, t) {
			m.Removed++
		}
	}
	if m.Added == 0 && m.Removed == 0 {
		return old, m, nil
	}
	db := maps.Clone(old.DB)
	for pred, d := range removed {
		db[pred] = s.nextStore(old.DB[pred], added[pred], d)
	}
	for pred, a := range added {
		if _, both := removed[pred]; !both {
			db[pred] = s.nextStore(old.DB[pred], a, nil)
		}
	}
	next := &Snapshot{DB: db, Version: old.Version + 1}
	// Durability before visibility: if the snapshot cannot be persisted,
	// the swap is aborted and queries keep serving the old version, so a
	// restart can never regress behind what clients have observed.
	if err := s.persistSwap(next); err != nil {
		return nil, Maintenance{}, fmt.Errorf("core: persisting snapshot %d: %w", next.Version, err)
	}
	maint := s.maintainSwap(ctx, old, next, added, removed)
	maint.Added, maint.Removed = m.Added, m.Removed
	s.snap.Store(next)
	return next, maint, nil
}

// checkFact validates one fact of an update batch against the program,
// the current snapshot's relations and the arities the batch has used
// so far (recorded in batch).
func (s *System) checkFact(old *Snapshot, batch map[string]int, f ast.Atom) error {
	if !f.IsGround() {
		return fmt.Errorf("core: fact %v is not ground", f)
	}
	if s.idb[f.Pred] {
		return fmt.Errorf("core: %q is a derived (rule-head) predicate; its facts are computed, not stored", f.Pred)
	}
	// Check against the program's declared arity, not just an existing
	// relation: a rule-referenced predicate with no facts yet has no
	// relation in any snapshot, and a wrong-arity fact accepted here
	// would panic the join of the next query that touches it.
	if want, ok := s.arity[f.Pred]; ok && want != f.Arity() {
		return fmt.Errorf("core: fact %v has arity %d, predicate %q has arity %d", f, f.Arity(), f.Pred, want)
	}
	if r, ok := old.DB[f.Pred]; ok && r.Arity() != f.Arity() {
		return fmt.Errorf("core: fact %v has arity %d, relation %q has %d", f, f.Arity(), f.Pred, r.Arity())
	}
	if want, ok := batch[f.Pred]; ok && want != f.Arity() {
		return fmt.Errorf("core: batch uses predicate %q with arity %d and %d", f.Pred, want, f.Arity())
	}
	batch[f.Pred] = f.Arity()
	return nil
}

// maxSymbols is the symbol-table ceiling Apply admits batches against:
// rel.MaxSymbols, lowered only by tests.
var maxSymbols = rel.MaxSymbols

// checkSymbolRoom rejects a batch whose additions name more constants
// the symbol table has not seen than it has room for: interning them
// would pass the table's int32 ceiling.
func (s *System) checkSymbolRoom(adds []ast.Atom) error {
	fresh := map[string]bool{}
	for _, f := range adds {
		for _, a := range f.Args {
			if _, ok := s.Engine.Syms.Lookup(a.Name); !ok {
				fresh[a.Name] = true
			}
		}
	}
	if n := s.Engine.Syms.Len(); n+len(fresh) > maxSymbols {
		return fmt.Errorf("core: batch names %d new constants, the symbol table holds %d of at most %d", len(fresh), n, maxSymbols)
	}
	return nil
}

// insertDelta adds t to pred's relation in m, creating it on first
// use, and reports whether t was new.
func insertDelta(m map[string]*rel.Relation, pred string, t rel.Tuple) bool {
	r, ok := m[pred]
	if !ok {
		r = rel.NewRelation(len(t))
		m[pred] = r
	}
	return r.Insert(t)
}

// nextStore returns a predicate's store after a swap that removes dels
// (⊆ prev) and then adds adds (disjoint from prev); either may be nil.
// An absent predicate becomes adds itself.  Any other store is not
// copied: it becomes the base of one rel.Layered layer, so a write costs
// its delta on every backend, and the layer is the exact shape a
// delta-capable persister chains as one link.  Such a persister folds
// the chain as it publishes and hands back the disk's shape; without
// one the chain folds here, by the same policy (rel.Layered.Fold): a
// merge keeps the net layer, a rebase materializes the chain.
func (s *System) nextStore(prev rel.Store, adds, dels *rel.Relation) rel.Store {
	if prev == nil {
		return adds
	}
	if adds == nil {
		adds = rel.NewRelation(prev.Arity())
	}
	if dels == nil {
		dels = rel.NewRelation(prev.Arity())
	}
	top := rel.NewLayered(prev, adds, dels)
	if _, reshapes := s.Opts.Persist.(DeltaPersister); reshapes {
		return top
	}
	kind, folded := top.Fold(rel.MaxChainLinks)
	if kind == rel.FoldRebase {
		return top.Clone()
	}
	return folded
}

// AddFacts is Apply with additions only, reporting how many tuples
// were new.
func (s *System) AddFacts(facts []ast.Atom) (*Snapshot, int, error) {
	snap, m, err := s.Apply(context.Background(), facts, nil)
	return snap, m.Added, err
}

// AddFactsMaintCtx is Apply with additions only.
func (s *System) AddFactsMaintCtx(ctx context.Context, facts []ast.Atom) (*Snapshot, int, Maintenance, error) {
	snap, m, err := s.Apply(ctx, facts, nil)
	return snap, m.Added, m, err
}

// RemoveFactsMaintCtx is Apply with removals only.
func (s *System) RemoveFactsMaintCtx(ctx context.Context, facts []ast.Atom) (*Snapshot, int, Maintenance, error) {
	snap, m, err := s.Apply(ctx, nil, facts)
	return snap, m.Removed, m, err
}

// ResultCacheStats reports the store's results (the /v1/stats
// "result_cache" section).
func (s *System) ResultCacheStats() ResultCacheStats {
	rs, _ := s.store.stats()
	return rs
}

// SeedCacheStatsNow reports the store's seeds and magic sets (the
// /v1/stats "seed_cache" section).
func (s *System) SeedCacheStatsNow() SeedCacheStats {
	_, ss := s.store.stats()
	return ss
}

// CachedAnswer probes the store for q's answer on snap under plan — the
// plan PlanFor returned for q — without planning, evaluating or joining
// an in-flight build: the admission-free fast path the server uses to
// answer a repeated goal without consuming a queue slot or worker grant.
// The key is built from the plan's kind and the pool it records, which a
// grant of max(plan.Workers, 1) leaves as they are, so a plan chosen at
// the requested budget probes the entry built at its grant.  ok
// reports a completed hit; any miss (including a build in flight, and a
// goal naming an unknown constant, which is never cached) returns false
// and the caller proceeds through the normal Evaluate path.
func (s *System) CachedAnswer(snap *Snapshot, q ast.Atom, plan *planner.Plan, opts Options) (*QueryResult, bool) {
	res := s.store.peek(resultKey(q, plan, opts.Strategy), snap.Version)
	if res == nil {
		return nil, false
	}
	return cachedHit(res, q), true
}

// cachedHit is a stored result as served to goal q.
func cachedHit(res *QueryResult, q ast.Atom) *QueryResult {
	hit := *res
	hit.Query = q
	hit.Cached = true
	return &hit
}

// Analyze runs (and caches) the paper's full analysis for one recursive
// predicate.
func (s *System) Analyze(pred string) (*planner.Analysis, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if a, ok := s.analyses[pred]; ok {
		return a, nil
	}
	a, err := planner.Analyze(s.Prog, pred)
	if err != nil {
		return nil, err
	}
	s.analyses[pred] = a
	return a, nil
}

// QueryResult pairs an answer with the plan that produced it.
type QueryResult struct {
	Query  ast.Atom
	Answer *rel.Relation
	Stats  eval.Stats
	Plan   *planner.Plan
	// Version is the snapshot the query evaluated against.
	Version uint64
	// Cached reports that the result was served from the goal-level
	// result cache rather than evaluated for this call.  Everything else
	// — rows, stats, plan — is bit-for-bit the result of the query that
	// populated the entry.
	Cached bool

	// memo, when non-nil, shares the answer's sorted row order and its
	// rendered rows across every holder of this result — cached results
	// set it so repeated hits on a large answer pay neither the sort nor
	// the rendering per request.
	memo *answerMemo
}

// answerMemo sorts and renders an answer once per symbol table and
// shares both: the order is row numbers into the answer, the rendering
// its rows back to back in storage order.  Both are pointer-free, so
// the collector never scans them.  A memo is immutable once built: a
// swap that changes the answer gives the new result a new memo, and a
// holder of the old one keeps reading the old bytes.
type answerMemo struct {
	syms *rel.Symtab

	orderOnce sync.Once
	order     []int32

	renderOnce sync.Once
	rendered   []byte
	ends       []uint32 // row i is rendered[ends[i]:ends[i+1]]; nil: none
	bytes      atomic.Int64
}

// Rows renders the answer tuples as symbol strings in deterministic
// (lexicographically sorted) order, so output is stable across engines,
// worker counts and snapshot layouts.
func (qr *QueryResult) Rows(s *System) [][]string {
	// One symbol-table snapshot for the whole answer: large results would
	// otherwise pay a lock round-trip per cell.
	names := s.Engine.Syms.Names()
	order := qr.Order(s)
	out := make([][]string, len(order))
	for i, r := range order {
		out[i] = renderTuple(names, qr.Answer.Row(int(r)))
	}
	return out
}

// Order returns the answer's row numbers in the order Rows lists them:
// sorted by symbol name, column by column.  The slice may be shared with
// other holders of a cached result and must not be mutated.
func (qr *QueryResult) Order(s *System) []int32 {
	if m := qr.memo; m != nil && m.syms == s.Engine.Syms {
		m.orderOnce.Do(func() { m.order = sortedOrder(qr.Answer, s.Engine.Syms.Names()) })
		return m.order
	}
	return sortedOrder(qr.Answer, s.Engine.Syms.Names())
}

// Rendered returns the answer's rows as render renders them: back to
// back in storage order, row i at buf[ends[i]:ends[i+1]].  A result
// served from the cache renders once, on the first call, and every
// later hit shares the bytes, which must not be mutated.  ok is false
// for any other result — the miss that built an entry included, so an
// answer asked for once is never rendered into memory — and when render
// declines with nil ends; the caller then renders the rows itself.
func (qr *QueryResult) Rendered(s *System, render func(ans *rel.Relation) (buf []byte, ends []uint32)) (buf []byte, ends []uint32, ok bool) {
	m := qr.memo
	if m == nil || !qr.Cached || m.syms != s.Engine.Syms {
		return nil, nil, false
	}
	m.renderOnce.Do(func() {
		m.rendered, m.ends = render(qr.Answer)
		m.bytes.Store(int64(cap(m.rendered) + 4*cap(m.ends)))
	})
	return m.rendered, m.ends, m.ends != nil
}

// sortedOrder sorts the answer's row numbers by rendered symbol names.
func sortedOrder(ans *rel.Relation, names []string) []int32 {
	order := make([]int32, ans.Len())
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := ans.Row(int(order[i])), ans.Row(int(order[j]))
		for k := range a {
			if x, y := symbolName(names, a[k]), symbolName(names, b[k]); x != y {
				return x < y
			}
		}
		return false
	})
	return order
}

// renderTuple renders a tuple as symbol strings against a symbol-table
// snapshot.
func renderTuple(names []string, t rel.Tuple) []string {
	row := make([]string, len(t))
	for i, v := range t {
		row[i] = symbolName(names, v)
	}
	return row
}

// symbolName renders one value against a symbol-table snapshot, "#<v>"
// for a value the snapshot does not cover.
func symbolName(names []string, v rel.Value) string {
	if int(v) >= 0 && int(v) < len(names) {
		return names[v]
	}
	return fmt.Sprintf("#%d", v)
}

// resolved is one goal resolved under one set of options: the
// predicate's analysis, the goal's constants as selections and the plan
// chosen for them.  empty marks a goal naming a constant that occurs in
// no rule and no fact: it can match no tuple of this (or any) snapshot,
// so its answer is empty, nothing evaluates and nothing is cached.
type resolved struct {
	q     ast.Atom
	a     *planner.Analysis
	sels  []separable.Selection
	plan  *planner.Plan
	empty bool
}

// resolve turns goal q into its analysis, selections and plan under
// opts — the one resolution behind PlanFor, Explain, Evaluate and
// Stream.  Constants resolve with Lookup, never Intern, so remote
// queries cannot grow the shared symbol table.
func (s *System) resolve(q ast.Atom, opts Options) (resolved, error) {
	a, err := s.Analyze(q.Pred)
	if err != nil {
		return resolved{}, err
	}
	if q.Arity() != a.Ops[0].Arity() {
		return resolved{}, fmt.Errorf("core: query %v has arity %d, predicate has %d", q, q.Arity(), a.Ops[0].Arity())
	}
	r := resolved{q: q, a: a}
	for i, t := range q.Args {
		if t.IsVar() {
			continue
		}
		v, ok := s.Engine.Syms.Lookup(t.Name)
		if !ok {
			r.plan = &planner.Plan{Kind: planner.SemiNaive, Why: fmt.Sprintf("constant %q occurs in no rule or fact: empty answer", t.Name)}
			r.empty = true
			return r, nil
		}
		r.sels = append(r.sels, separable.Selection{Col: i, Value: v})
	}
	r.plan = a.ChooseMulti(r.sels, opts.normalize().planOpts())
	return r, nil
}

// PlanFor returns the plan Evaluate and Stream run for q under opts,
// without executing anything.  The plan records the pool it runs on
// (Plan.Workers): the server sizes each query's worker grant by it, so a
// context-mode magic plan, which evaluates sequentially, is granted one
// worker rather than a budget slice it would leave idle.
func (s *System) PlanFor(q ast.Atom, opts Options) (*planner.Plan, error) {
	r, err := s.resolve(q, opts)
	return r.plan, err
}

// internalError is an evaluation panic recovered on goal q, as an error
// wrapping ErrInternal.  It keeps the stack, the only pointer to the
// invariant violation once the panic is an error; a worker's panic
// carries the stack captured inside the worker goroutine as well
// (printed through %v).
func internalError(q ast.Atom, r any) error {
	return fmt.Errorf("core: %w: query %v: %v\n%s", ErrInternal, q, r, debug.Stack())
}

// recoverInternal, deferred by Evaluate and Stream, recovers an
// evaluation panic (an engine invariant violation) into internalError,
// so a poisoned snapshot can fail queries without killing the process
// hosting them.
func recoverInternal(q ast.Atom, err *error) {
	if r := recover(); r != nil {
		*err = internalError(q, r)
	}
}

// Evaluate answers a query request and materializes the full answer —
// the entry point behind RunCtx, and the full-control one the server
// front end uses to grant each query its own snapshot pin, worker budget
// and deadline while many queries share one System.  An unset req.Snap
// pins the current snapshot.  An evaluation panic is recovered into an
// error wrapping ErrInternal rather than propagated.
//
// Evaluate resolves the goal once, then consults the goal-level result
// cache: a repeated goal on the same snapshot version (same chosen plan
// kind, strategy and pool) is answered with the stored
// result — rows, stats and plan bit-for-bit identical to the query that
// built the entry.  Concurrent first queries for one key share a single
// evaluation (single-flight), run by the first arriver under its own
// context: it opens the plan as Stream does and drains it.  Waiters
// honor their own contexts and retry if the builder's context fires
// first.
func (s *System) Evaluate(ctx context.Context, req QueryRequest) (_ *QueryResult, err error) {
	snap := req.Snap
	if snap == nil {
		snap = s.Snapshot()
	}
	defer recoverInternal(req.Goal, &err)
	r, err := s.resolve(req.Goal, req.Opts)
	if err != nil {
		return nil, err
	}
	build := func() (*QueryResult, error) {
		st, err := s.open(ctx, snap, r)
		if err != nil {
			return nil, err
		}
		// Drain, not a Next loop: only a drained closure pipelines each
		// wide round's merge with the next round's join.
		if _, _, err := st.closure.Drain(); err != nil {
			return nil, err
		}
		return st.result(), nil
	}
	if r.empty {
		return build() // cheaper than a cache probe, and never cached
	}
	res, cached, err := s.view(ctx, resultKey(req.Goal, r.plan, req.Opts.Strategy), snap.Version, build)
	if err != nil || !cached {
		return res, err
	}
	return cachedHit(res, req.Goal), nil
}

// open is the one opener behind Evaluate and Stream: it fetches the
// plan's inputs of snap — the exit-rule seed (seedFor) and, for a
// magic-seeded plan, the magic set of this goal binding (magicFor), so
// repeated bound queries skip the frontier iteration — opens the plan
// (Analysis.Open) on the pool it records, and attaches the goal's
// residual filters.  The caller drains or streams it.  An
// empty goal opens as an already-complete empty stream.
func (s *System) open(ctx context.Context, snap *Snapshot, r resolved) (*QueryStream, error) {
	st := &QueryStream{sys: s, query: r.q, plan: r.plan, version: snap.Version}
	if r.empty {
		st.closure = eval.Completed(rel.NewRelation(r.q.Arity()))
		return st, nil
	}
	seed, err := s.seedFor(ctx, r.a, snap)
	if err != nil {
		return nil, err
	}
	var set *rel.Relation
	var setStats eval.Stats
	if m := r.plan.Magic; r.plan.Kind == planner.MagicSeeded {
		if set, setStats, err = s.magicFor(ctx, r.a, snap, m.Spec, m.BoundTuple()); err != nil {
			return nil, err
		}
	}
	st.res = residualFor(r.q, r.plan, r.sels)
	st.closure, st.preStats, err = r.a.Open(ctx, s.Engine, snap.DB, r.plan, planner.Options{Workers: r.plan.Workers}, seed, set)
	if err != nil {
		return nil, err
	}
	// A cached set skips the frontier iteration; its build's statistics
	// keep cached and uncached runs indistinguishable.
	st.preStats.Add(setStats)
	return st, nil
}

// residual is what the rows of a plan's opened closure must still pass
// to answer goal q: the selections the plan did not consume
// (planner.Plan.Residual) and one column equality per repeated variable
// of q — p(X,X) keeps the rows whose two columns agree.
type residual struct {
	sels []separable.Selection
	eqs  [][2]int
}

// residualFor builds the residual of plan, chosen for sels, on goal q.
func residualFor(q ast.Atom, plan *planner.Plan, sels []separable.Selection) residual {
	r := residual{sels: plan.Residual(sels)}
	for i, t := range q.Args {
		for j := 0; j < i && t.IsVar(); j++ {
			if q.Args[j] == t {
				r.eqs = append(r.eqs, [2]int{j, i})
				break
			}
		}
	}
	return r
}

// match reports whether one candidate row passes the residual filters.
func (r residual) match(t rel.Tuple) bool {
	for _, sel := range r.sels {
		if t[sel.Col] != sel.Value {
			return false
		}
	}
	for _, eq := range r.eqs {
		if t[eq[0]] != t[eq[1]] {
			return false
		}
	}
	return true
}

// apply filters a drained answer.
func (r residual) apply(ans *rel.Relation) *rel.Relation {
	for _, sel := range r.sels {
		ans = sel.Apply(ans)
	}
	if len(r.eqs) > 0 {
		ans = ans.Filter(r.match)
	}
	return ans
}

// Run answers every "?-" query of the program in order.
func (s *System) Run() ([]*QueryResult, error) {
	return s.RunCtx(context.Background())
}

// RunCtx is Run with cancellation.  All queries evaluate against the one
// snapshot current when RunCtx started.
func (s *System) RunCtx(ctx context.Context) ([]*QueryResult, error) {
	snap := s.Snapshot()
	var out []*QueryResult
	for _, q := range s.Prog.Queries {
		r, err := s.Evaluate(ctx, QueryRequest{Goal: q, Snap: snap, Opts: s.Opts})
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Report renders the analysis of every recursive predicate in the program.
func (s *System) Report() (string, error) {
	var b strings.Builder
	for _, pred := range s.Prog.IDBPreds() {
		recursive := false
		for _, r := range s.Prog.RulesFor(pred) {
			if r.IsRecursiveWith(pred) {
				recursive = true
			}
		}
		if !recursive {
			continue
		}
		a, err := s.Analyze(pred)
		if err != nil {
			return "", err
		}
		b.WriteString(a.Summary())
		plan := a.ChooseMulti(nil, s.Opts.planOpts())
		fmt.Fprintf(&b, "\nplan: %v — %s\n", plan.Kind, plan.Why)
	}
	return b.String(), nil
}
