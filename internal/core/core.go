// Package core is the facade tying the substrates together: load a Datalog
// program, analyze its linear recursion with the paper's machinery, choose
// an evaluation plan and answer queries.  The root package linrec re-exports
// this API for library users.
//
// The extensional database lives behind an atomically-swapped immutable
// Snapshot: queries pin the snapshot current when they start and evaluate
// entirely against it, while writers publish new snapshots copy-on-write
// (AddFacts), so online fact updates never tear an in-flight query.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"linrec/internal/ast"
	"linrec/internal/eval"
	"linrec/internal/parser"
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
	// the cache.  Only the value passed at System construction matters —
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
// Relations untouched by an update are shared between versions, so a swap
// costs one shallow map copy plus a clone of only the grown relations.
type Snapshot struct {
	DB      rel.DB
	Version uint64
}

// System holds a loaded program, its extensional database and the engine.
// After loading, a System is safe for concurrent use: Query, Run, Analyze
// and Report may be called from any number of goroutines, and AddFacts may
// swap in new fact snapshots concurrently with in-flight queries (writers
// are serialized internally).
type System struct {
	Prog   *ast.Program
	Engine *eval.Engine
	Opts   Options

	// snap is the current database snapshot; readers load it once per
	// query and never look again (snapshot isolation).
	snap atomic.Pointer[Snapshot]
	// factMu serializes snapshot writers (AddFacts).
	factMu sync.Mutex

	// idb is the set of rule-head predicates: evaluation derives them, it
	// never reads their db relation, so AddFacts rejects them (facts for
	// a derived predicate would be stored yet invisible to every query).
	idb map[string]bool
	// arity maps every predicate the program mentions (rule heads, rule
	// bodies, facts) to its declared arity.  AddFacts validates against it,
	// so a rule-referenced EDB predicate with no initial facts — absent
	// from every snapshot — still rejects wrong-arity facts up front
	// instead of surfacing the mismatch as a join panic at query time.
	arity map[string]int

	mu       sync.Mutex
	analyses map[string]*planner.Analysis

	// seeds caches, for the current snapshot version, the materialized
	// exit-rule seed per predicate (adorn == "") and the magic set per
	// (predicate, adornment, bound tuple) — the goal-binding dimension
	// the magic-seeded plans add.  Cached relations are immutable once
	// built (plans clone or only read them; their lazy indexes build
	// concurrency-safely), so one build serves every concurrent query on
	// that snapshot — without it, a busy server re-materializes the
	// (possibly huge) exit-rule union, or re-walks the magic frontier,
	// per request.  Single-flight: concurrent first queries share one
	// build.
	seedMu      sync.Mutex
	seedVersion uint64
	seeds       map[seedKey]*seedFuture

	// results is the goal-level result cache (see resultcache.go):
	// completed QueryResults keyed by normalized goal and plan kind,
	// valid at one snapshot version at a time, LRU-bounded by total
	// cached rows.  Where the seed cache saves re-materializing
	// evaluation inputs, this one skips evaluation entirely for repeated
	// goals on an unchanged database; snapshot swaps try to carry its
	// entries to the new version (see maintain.go) before purging.
	results *resultCache

	// deltas caches the occurrence-restricted delta operators the
	// maintenance paths derive from the analysis operators (maintain.go).
	deltas deltaOps

	// Lifetime seed/magic cache counters (SeedCacheStats): hits and
	// misses per dimension (a capacity or superseded-snapshot bypass
	// counts as a miss — the query evaluated the artifact itself), plus
	// how many entries swap maintenance carried forward versus dropped.
	seedHits, seedMisses   atomic.Int64
	magicHits, magicMisses atomic.Int64
	seedsUpgraded          atomic.Int64
	seedsPurged            atomic.Int64
}

// seedKey addresses one cached evaluation artifact of a snapshot: the
// exit-rule seed of a predicate (adorn == ""), or the magic set of a
// bound goal on that predicate, keyed by its adornment and bound tuple
// (see magicAdornKey).
type seedKey struct {
	pred  string
	adorn string
}

// magicAdornKey encodes a magic set's (adornment, bound tuple) pair as a
// seedKey component: "col=val" pairs over the bound columns, ascending.
// Values are interned rel.Values, so the encoding is exact and two
// distinct bound tuples never collide.
func magicAdornKey(cols []int, vals rel.Tuple) string {
	var b strings.Builder
	for i, c := range cols {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d=%d", c, vals[i])
	}
	return b.String()
}

type seedFuture struct {
	once sync.Once
	done chan struct{}
	q    *rel.Relation
	// stats are the frontier statistics of a magic-set build; queries
	// reusing the cached set fold them in so cache hits and misses
	// report identical statistics.
	stats eval.Stats
	err   error
}

// magicCacheCap bounds the number of cached entries per snapshot.
// Magic sets are keyed by the query's bound tuple, and a remote client
// can sweep arbitrarily many distinct constants on a snapshot that
// never swaps — without a cap that sweep would grow the cache (and its
// detached builds) without bound.  Queries past the cap still work;
// they just compute their magic set inline, under their own context.
const magicCacheCap = 1024

// cachedFuture returns the single-flight future for key on snap, or nil
// when the artifact should be computed fresh instead: the snapshot is
// superseded (no point repopulating the cache), or the cache is at
// capacity and the key is not already present.  created reports that
// this call inserted the future (the caller is about to run the build —
// a cache miss); false with a non-nil future is a hit on an existing
// (possibly still in-flight) entry.
func (s *System) cachedFuture(snap *Snapshot, key seedKey) (f *seedFuture, created bool) {
	s.seedMu.Lock()
	defer s.seedMu.Unlock()
	if snap.Version != s.seedVersion {
		if snap.Version < s.seedVersion {
			return nil, false
		}
		s.seedVersion = snap.Version
		s.seeds = map[seedKey]*seedFuture{}
	}
	f, ok := s.seeds[key]
	if !ok {
		// Exit-rule seeds (adorn == "") are bounded by the program's
		// predicate count and always cached; only the bound-tuple-keyed
		// magic dimension is capped.
		if key.adorn != "" && len(s.seeds) >= magicCacheCap {
			return nil, false
		}
		f = &seedFuture{done: make(chan struct{})}
		s.seeds[key] = f
		created = true
	}
	return f, created
}

// build runs fn exactly once on a detached goroutine (the artifact is
// bounded work every later query on this snapshot reuses), recovering a
// panic — an engine invariant violation — into the future's error, which
// every waiter then observes.  Waiters honor ctx: a query whose deadline
// fires during the build returns immediately instead of pinning its
// worker grant until the build completes.
func (f *seedFuture) build(ctx context.Context, what string, fn func() (*rel.Relation, eval.Stats, error)) (*rel.Relation, eval.Stats, error) {
	f.once.Do(func() {
		go func() {
			defer func() {
				if r := recover(); r != nil {
					// Keep the stack: it is the only pointer to the
					// invariant violation once the panic is flattened
					// into an error.
					f.q, f.err = nil, fmt.Errorf("core: %w: %s: %v\n%s", ErrInternal, what, r, debug.Stack())
				}
				close(f.done)
			}()
			f.q, f.stats, f.err = fn()
		}()
	})
	// A nil context (tolerated throughout the engine, see
	// eval.watchContext) waits unconditionally: a nil Done channel
	// blocks forever.
	var cancelled <-chan struct{}
	if ctx != nil {
		cancelled = ctx.Done()
	}
	select {
	case <-f.done:
		return f.q, f.stats, f.err
	case <-cancelled:
		return nil, eval.Stats{}, ctx.Err()
	}
}

// seedFor returns the evaluation seed for a on snap, cached per
// (predicate, snapshot version).
func (s *System) seedFor(ctx context.Context, a *planner.Analysis, snap *Snapshot) (*rel.Relation, error) {
	tr := eval.TracerFrom(ctx)
	f, created := s.cachedFuture(snap, seedKey{pred: a.Pred})
	if f == nil {
		s.seedMisses.Add(1)
		tr.Cache("seed", "bypass", a.Pred, 0)
		return a.Seed(s.Engine, snap.DB)
	}
	if created {
		s.seedMisses.Add(1)
	} else {
		s.seedHits.Add(1)
	}
	start := time.Now()
	q, _, err := f.build(ctx, fmt.Sprintf("seed for %q", a.Pred), func() (*rel.Relation, eval.Stats, error) {
		q, err := a.Seed(s.Engine, snap.DB)
		return q, eval.Stats{}, err
	})
	if created {
		tr.Cache("seed", "miss", a.Pred, time.Since(start))
	} else {
		tr.Cache("seed", "hit", a.Pred, time.Since(start))
	}
	return q, err
}

// magicFor returns the magic set for a bound goal on snap — the
// goal-binding dimension of the seed cache, keyed (predicate,
// adornment, bound tuple, snapshot version) — along with the frontier
// statistics recorded when the set was built, so every query over the
// cached set reports the same statistics as the one that paid for it.
// vals carries the bound values in spec.Cols order.
func (s *System) magicFor(ctx context.Context, a *planner.Analysis, snap *Snapshot, spec eval.MagicSpec, vals rel.Tuple) (*rel.Relation, eval.Stats, error) {
	tr := eval.TracerFrom(ctx)
	key := a.Pred + "[" + magicAdornKey(spec.Cols, vals) + "]"
	f, created := s.cachedFuture(snap, seedKey{pred: a.Pred, adorn: magicAdornKey(spec.Cols, vals)})
	if f == nil {
		// Uncached (superseded snapshot, or cache at capacity): compute
		// inline under the request's own context, so the query's
		// deadline and client disconnect still cancel the frontier.
		s.magicMisses.Add(1)
		tr.Cache("magic", "bypass", key, 0)
		var stats eval.Stats
		set, err := s.Engine.MagicSetCtx(ctx, snap.DB, spec, vals, &stats)
		return set, stats, err
	}
	if created {
		s.magicMisses.Add(1)
	} else {
		s.magicHits.Add(1)
	}
	start := time.Now()
	set, stats, err := f.build(ctx, fmt.Sprintf("magic set for %q[%s]", a.Pred, magicAdornKey(spec.Cols, vals)), func() (*rel.Relation, eval.Stats, error) {
		// The cached build is detached from any single request on
		// purpose: the set is bounded frontier work every later query
		// with this binding reuses, so it runs under no request
		// deadline (waiters still honor their own ctx).  That detachment
		// is also why frontier phases of cached builds never land on a
		// query's trace — the cache event recorded here is the query's
		// view of the work.
		var stats eval.Stats
		set, err := s.Engine.MagicSetCtx(context.Background(), snap.DB, spec, vals, &stats)
		return set, stats, err
	})
	if created {
		tr.Cache("magic", "miss", key, time.Since(start))
	} else {
		tr.Cache("magic", "hit", key, time.Since(start))
	}
	return set, stats, err
}

// Load parses a Datalog program and loads its facts.
func Load(src string) (*System, error) {
	return LoadOptions(src, Options{})
}

// LoadOptions is Load with evaluation options.
func LoadOptions(src string, opts Options) (*System, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return FromProgramOptions(prog, opts)
}

// FromProgram wraps an already-parsed program.
func FromProgram(prog *ast.Program) (*System, error) {
	return FromProgramOptions(prog, Options{})
}

// FromProgramOptions is FromProgram with evaluation options.
func FromProgramOptions(prog *ast.Program, opts Options) (*System, error) {
	return NewSystem(prog, opts)
}

// NewSystem builds a System from a parsed program — the canonical
// constructor behind Load, LoadOptions and FromProgram.  Without
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
		Prog:     prog,
		Engine:   eval.NewEngine(nil),
		Opts:     opts.normalize(),
		idb:      map[string]bool{},
		arity:    map[string]int{},
		analyses: map[string]*planner.Analysis{},
		results:  newResultCache(opts.ResultCacheRows),
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
// unaffected by later AddFacts swaps.
func (s *System) Snapshot() *Snapshot {
	return s.snap.Load()
}

// DB returns the current snapshot's database.  Mutating it is only safe
// before the System is shared across goroutines (e.g. bulk-loading
// generated facts right after FromProgram); once concurrent queries or
// AddFacts run, all updates must go through AddFacts.
func (s *System) DB() rel.DB {
	return s.snap.Load().DB
}

// AddFacts publishes a new database snapshot extended with the given
// ground facts, returning it along with the number of genuinely new
// tuples.  The swap is copy-on-write: only relations receiving new
// tuples are cloned, everything else is shared with the previous
// snapshot, and the new snapshot becomes visible to subsequent queries
// atomically.  In-flight queries keep the snapshot they pinned.  A batch
// of pure duplicates publishes nothing — the current snapshot comes back
// with added == 0, so warm caches survive idempotent re-pushes; on a
// real swap, cache maintenance (see maintain.go) carries what it can to
// the new version before the snapshot publishes.
func (s *System) AddFacts(facts []ast.Atom) (*Snapshot, int, error) {
	snap, added, _, err := s.AddFactsMaint(facts)
	return snap, added, err
}

// AddFactsMaint is AddFacts reporting what the swap's cache maintenance
// did: how many cached results and seeds were upgraded to the new
// version versus purged.
func (s *System) AddFactsMaint(facts []ast.Atom) (*Snapshot, int, Maintenance, error) {
	return s.AddFactsMaintCtx(context.Background(), facts)
}

// AddFactsMaintCtx is AddFactsMaint under a context.  The context is an
// observability carrier first: an eval.Tracer on it records every cache
// upgrade/purge decision and any resume phases the maintenance runs.
// Cancellation does not abort the swap itself — validation and the
// copy-on-write publish always complete — but a fired context degrades
// in-progress result upgrades to purges (the entry rebuilds on next
// query).
func (s *System) AddFactsMaintCtx(ctx context.Context, facts []ast.Atom) (*Snapshot, int, Maintenance, error) {
	var m Maintenance
	if len(facts) == 0 {
		return s.Snapshot(), 0, m, nil
	}
	s.factMu.Lock()
	defer s.factMu.Unlock()
	old := s.snap.Load()
	// Validate the entire batch — against the program, the current
	// snapshot's relations and the batch's own internal consistency —
	// before interning anything: rejection must leave the shared symbol
	// table byte-identical, or repeatedly rejected batches would grow it
	// without bound.
	batch := map[string]int{}
	for _, f := range facts {
		if !f.IsGround() {
			return nil, 0, m, fmt.Errorf("core: fact %v is not ground", f)
		}
		if s.idb[f.Pred] {
			return nil, 0, m, fmt.Errorf("core: %q is a derived (rule-head) predicate; facts for it would be invisible to queries", f.Pred)
		}
		// Check against the program's declared arity, not just an existing
		// relation: a rule-referenced predicate with no facts yet has no
		// relation in any snapshot, and a wrong-arity fact accepted here
		// would panic the join of the next query that touches it.
		if want, ok := s.arity[f.Pred]; ok && want != f.Arity() {
			return nil, 0, m, fmt.Errorf("core: fact %v has arity %d, predicate %q has arity %d",
				f, f.Arity(), f.Pred, want)
		}
		if r, ok := old.DB[f.Pred]; ok && r.Arity() != f.Arity() {
			return nil, 0, m, fmt.Errorf("core: fact %v has arity %d, relation %q has %d",
				f, f.Arity(), f.Pred, r.Arity())
		}
		if want, ok := batch[f.Pred]; ok && want != f.Arity() {
			return nil, 0, m, fmt.Errorf("core: batch uses predicate %q with arity %d and %d", f.Pred, want, f.Arity())
		}
		batch[f.Pred] = f.Arity()
	}
	db := make(rel.DB, len(old.DB)+1)
	for k, v := range old.DB {
		db[k] = v
	}
	counts := map[string]int{}
	for _, f := range facts {
		counts[f.Pred]++
	}
	// In-memory relations clone copy-on-write as always.  A disk-backed
	// store (lazy segment or an existing chain) is not cloned — the new
	// tuples collect in a small overlay relation that wraps the previous
	// store as one rel.Layered layer, which is both what keeps a
	// budgeted out-of-core write from inflating the whole segment and
	// the exact shape a delta-capable persister publishes as a chained
	// delta segment.
	added := 0
	addedBy := map[string]*rel.Relation{}
	cloned := map[string]*rel.Relation{}
	baseOf := map[string]rel.Store{}
	for _, f := range facts {
		r, ok := cloned[f.Pred]
		if !ok {
			if prev, exists := db[f.Pred]; exists {
				if pr, inMem := prev.(*rel.Relation); inMem {
					r = pr.Clone()
				} else {
					r = rel.NewRelation(f.Arity())
					baseOf[f.Pred] = prev
				}
			} else {
				r = rel.NewRelation(f.Arity())
			}
			r.Reserve(r.Len() + counts[f.Pred])
			cloned[f.Pred] = r
		}
		t := make(rel.Tuple, f.Arity())
		for i, a := range f.Args {
			t[i] = s.Engine.Syms.Intern(a.Name)
		}
		if base := baseOf[f.Pred]; base != nil && base.Has(t) {
			continue // already in the wrapped store: not a new tuple
		}
		if r.Insert(t) {
			added++
			d, ok := addedBy[f.Pred]
			if !ok {
				d = rel.NewRelation(f.Arity())
				addedBy[f.Pred] = d
			}
			d.Insert(t)
		}
	}
	for pred, r := range cloned {
		if base, wrapped := baseOf[pred]; wrapped {
			if r.Len() > 0 {
				db[pred] = rel.NewLayered(base, r, nil)
			}
			// r.Len() == 0: every fact was a duplicate; the store keeps
			// its identity so the publish reuses the segment untouched.
		} else {
			db[pred] = r
		}
	}
	if added == 0 {
		return old, 0, m, nil
	}
	next := &Snapshot{DB: db, Version: old.Version + 1}
	// Durability before visibility: if the snapshot cannot be persisted,
	// the swap is aborted and queries keep serving the old version, so a
	// restart can never regress behind what clients have observed.
	if err := s.persistSwap(next); err != nil {
		return nil, 0, m, fmt.Errorf("core: persisting snapshot %d: %w", next.Version, err)
	}
	m = s.maintainSwap(ctx, old, next, addedBy, true)
	s.snap.Store(next)
	return next, added, m, nil
}

// RemoveFacts publishes a new database snapshot with the given ground
// facts retracted, returning it along with the number of tuples actually
// removed.  Like AddFacts, the swap is copy-on-write — only relations
// losing tuples are rebuilt (tombstone-free, see rel.Relation.Without),
// everything else is shared with the previous snapshot — and in-flight
// queries keep their pinned pre-retraction snapshot.  Retraction is
// idempotent: facts that are not present (including facts naming
// constants the system has never seen) are skipped, and a batch that
// removes nothing publishes no snapshot, so warm caches survive; on a
// real swap, cache maintenance (delete-and-rederive, see maintain.go)
// carries what it can to the new version before the snapshot publishes.
// Facts must be ground, must not name derived (rule-head) predicates,
// and must match the program's declared arities — the same contract
// AddFacts enforces.
func (s *System) RemoveFacts(facts []ast.Atom) (*Snapshot, int, error) {
	snap, removed, _, err := s.RemoveFactsMaint(facts)
	return snap, removed, err
}

// RemoveFactsMaint is RemoveFacts reporting what the swap's cache
// maintenance did: how many cached results and seeds were upgraded to
// the new version versus purged.
func (s *System) RemoveFactsMaint(facts []ast.Atom) (*Snapshot, int, Maintenance, error) {
	return s.RemoveFactsMaintCtx(context.Background(), facts)
}

// RemoveFactsMaintCtx is RemoveFactsMaint under a context, with the same
// contract as AddFactsMaintCtx: the context carries observability (an
// eval.Tracer records the swap's cache decisions and resume phases), and
// cancellation degrades upgrades to purges without aborting the swap.
func (s *System) RemoveFactsMaintCtx(ctx context.Context, facts []ast.Atom) (*Snapshot, int, Maintenance, error) {
	var m Maintenance
	if len(facts) == 0 {
		return s.Snapshot(), 0, m, nil
	}
	for _, f := range facts {
		if !f.IsGround() {
			return nil, 0, m, fmt.Errorf("core: fact %v is not ground", f)
		}
		if s.idb[f.Pred] {
			return nil, 0, m, fmt.Errorf("core: %q is a derived (rule-head) predicate; retract the facts it is derived from instead", f.Pred)
		}
		if want, ok := s.arity[f.Pred]; ok && want != f.Arity() {
			return nil, 0, m, fmt.Errorf("core: fact %v has arity %d, predicate %q has arity %d",
				f, f.Arity(), f.Pred, want)
		}
	}
	s.factMu.Lock()
	defer s.factMu.Unlock()
	old := s.snap.Load()
	// Resolve retractions to tuples per predicate.  Lookup, never Intern:
	// a constant the symbol table has never seen occurs in no tuple, so
	// the retraction is a no-op rather than symbol-table growth.
	byPred := map[string][]rel.Tuple{}
	for _, f := range facts {
		r, ok := old.DB[f.Pred]
		if !ok {
			continue
		}
		if r.Arity() != f.Arity() {
			return nil, 0, m, fmt.Errorf("core: fact %v has arity %d, relation %q has %d",
				f, f.Arity(), f.Pred, r.Arity())
		}
		t := make(rel.Tuple, f.Arity())
		known := true
		for i, a := range f.Args {
			v, ok := s.Engine.Syms.Lookup(a.Name)
			if !ok {
				known = false
				break
			}
			t[i] = v
		}
		if known {
			byPred[f.Pred] = append(byPred[f.Pred], t)
		}
	}
	removed := 0
	rebuilt := map[string]rel.Store{}
	removedBy := map[string]*rel.Relation{}
	for pred, tuples := range byPred {
		r0 := old.DB[pred]
		r, n := rel.StoreWithout(r0, tuples)
		if n > 0 {
			rebuilt[pred] = r
			removed += n
			d := rel.NewRelation(r0.Arity())
			for _, t := range tuples {
				if r0.Has(t) {
					d.Insert(t)
				}
			}
			removedBy[pred] = d
		}
	}
	if removed == 0 {
		return old, 0, m, nil
	}
	db := make(rel.DB, len(old.DB))
	for k, v := range old.DB {
		db[k] = v
	}
	for pred, r := range rebuilt {
		db[pred] = r
	}
	next := &Snapshot{DB: db, Version: old.Version + 1}
	// Same durability-before-visibility contract as AddFactsMaintCtx.
	// Disk-backed stores surface retractions as one tombstone overlay
	// (see rel.Layered / Lazy.Without), which a delta-capable persister
	// publishes as a chained delta instead of rewriting the segment.
	if err := s.persistSwap(next); err != nil {
		return nil, 0, m, fmt.Errorf("core: persisting snapshot %d: %w", next.Version, err)
	}
	m = s.maintainSwap(ctx, old, next, removedBy, false)
	s.snap.Store(next)
	return next, removed, m, nil
}

// ValidateFacts checks a fact batch against the update contract shared
// by AddFacts and RemoveFacts — ground atoms only, no derived
// predicates, arities consistent with the program, the current
// snapshot's relations and each other — without publishing anything.
// The server front end validates both halves of a combined add+remove
// request with it before executing either, so a rejection is atomic:
// no half commits behind an error response.
func (s *System) ValidateFacts(facts []ast.Atom) error {
	snap := s.Snapshot()
	batch := map[string]int{}
	for _, f := range facts {
		if !f.IsGround() {
			return fmt.Errorf("core: fact %v is not ground", f)
		}
		if s.idb[f.Pred] {
			return fmt.Errorf("core: %q is a derived (rule-head) predicate", f.Pred)
		}
		if want, ok := s.arity[f.Pred]; ok && want != f.Arity() {
			return fmt.Errorf("core: fact %v has arity %d, predicate %q has arity %d",
				f, f.Arity(), f.Pred, want)
		}
		if r, ok := snap.DB[f.Pred]; ok && r.Arity() != f.Arity() {
			return fmt.Errorf("core: fact %v has arity %d, relation %q has %d",
				f, f.Arity(), f.Pred, r.Arity())
		}
		if want, ok := batch[f.Pred]; ok && want != f.Arity() {
			return fmt.Errorf("core: batch uses predicate %q with arity %d and %d", f.Pred, want, f.Arity())
		}
		batch[f.Pred] = f.Arity()
	}
	return nil
}

// ResultCacheStats reports the goal-level result cache's counters (the
// /v1/stats "result_cache" section).
func (s *System) ResultCacheStats() ResultCacheStats {
	return s.results.Stats()
}

// SeedCacheStats reports the seed/magic cache: current entries and rows
// plus lifetime hit/miss counters per dimension (a capacity or
// superseded-snapshot bypass counts as a miss) and the totals of entries
// carried across snapshot swaps versus dropped by them.
type SeedCacheStats struct {
	SeedEntries  int   `json:"seed_entries"`
	MagicEntries int   `json:"magic_entries"`
	Rows         int   `json:"rows"`
	SeedHits     int64 `json:"seed_hits"`
	SeedMisses   int64 `json:"seed_misses"`
	MagicHits    int64 `json:"magic_hits"`
	MagicMisses  int64 `json:"magic_misses"`
	Upgraded     int64 `json:"upgraded"`
	Purged       int64 `json:"purged"`
}

// SeedCacheStatsNow samples the seed/magic cache.  Row counts cover only
// completed builds — an in-flight future contributes its entry but no
// rows.
func (s *System) SeedCacheStatsNow() SeedCacheStats {
	st := SeedCacheStats{
		SeedHits:    s.seedHits.Load(),
		SeedMisses:  s.seedMisses.Load(),
		MagicHits:   s.magicHits.Load(),
		MagicMisses: s.magicMisses.Load(),
		Upgraded:    s.seedsUpgraded.Load(),
		Purged:      s.seedsPurged.Load(),
	}
	s.seedMu.Lock()
	defer s.seedMu.Unlock()
	for key, f := range s.seeds {
		if key.adorn == "" {
			st.SeedEntries++
		} else {
			st.MagicEntries++
		}
		select {
		case <-f.done:
			if f.q != nil {
				st.Rows += f.q.Len()
			}
		default:
		}
	}
	return st
}

// CachedAnswer probes the result cache for q on snap without planning,
// evaluating or joining an in-flight build — the admission-free fast
// path the server uses to answer a repeated goal without consuming a
// queue slot or worker grant.  ok reports a completed hit; any miss
// (including a build in flight) returns false and the caller proceeds
// through the normal Evaluate path.
func (s *System) CachedAnswer(snap *Snapshot, q ast.Atom, opts Options) (*QueryResult, bool) {
	opts = opts.normalize()
	a, sels, unknown, err := s.resolveQuery(q)
	if err != nil || unknown != "" {
		return nil, false
	}
	res := s.results.peek(resultKey{
		goal:     normalizeGoal(q),
		kind:     s.intendedKind(a, sels, opts),
		strategy: opts.Strategy,
		workers:  opts.Workers,
	}, snap.Version)
	if res == nil {
		return nil, false
	}
	hit := *res
	hit.Query = q
	hit.Cached = true
	return &hit, true
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

	// memo, when non-nil, shares the rendered sorted rows across every
	// holder of this result — cached results set it so repeated hits on
	// a large answer don't pay the render+sort per request.
	memo *rowsMemo
}

// rowsMemo renders an answer once per symbol table and shares the rows.
type rowsMemo struct {
	syms *rel.Symtab
	once sync.Once
	rows [][]string
}

// Rows renders the answer tuples as symbol strings in deterministic
// (lexicographically sorted) order, so output is stable across engines,
// worker counts and snapshot layouts.  The returned rows may be shared
// with other holders of a cached result and must not be mutated.
func (qr *QueryResult) Rows(s *System) [][]string {
	return qr.RowsSyms(s.Engine.Syms)
}

// RowsSyms is Rows against an explicit symbol table.  Like Rows, the
// returned slice must not be mutated.
func (qr *QueryResult) RowsSyms(syms *rel.Symtab) [][]string {
	if m := qr.memo; m != nil && m.syms == syms {
		m.once.Do(func() { m.rows = qr.renderRows(syms) })
		return m.rows
	}
	return qr.renderRows(syms)
}

// renderRows materializes and sorts the answer for one symbol table.
func (qr *QueryResult) renderRows(syms *rel.Symtab) [][]string {
	// One symbol-table snapshot for the whole answer: large results would
	// otherwise pay a lock round-trip per cell.
	names := syms.Names()
	name := func(v rel.Value) string {
		if int(v) >= 0 && int(v) < len(names) {
			return names[v]
		}
		return fmt.Sprintf("#%d", v)
	}
	out := make([][]string, 0, qr.Answer.Len())
	qr.Answer.Each(func(t rel.Tuple) {
		row := make([]string, len(t))
		for i, v := range t {
			row[i] = name(v)
		}
		out = append(out, row)
	})
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// resolveQuery analyzes q and resolves its constant arguments into
// selections — the shared front half of Query and PlanFor.  unknown names
// a constant that occurs in no rule and no fact (the answer is provably
// empty); resolution uses Lookup, never Intern, so remote queries cannot
// grow the shared symbol table.
func (s *System) resolveQuery(q ast.Atom) (a *planner.Analysis, sels []separable.Selection, unknown string, err error) {
	a, err = s.Analyze(q.Pred)
	if err != nil {
		return nil, nil, "", err
	}
	if q.Arity() != a.Ops[0].Arity() {
		return nil, nil, "", fmt.Errorf("core: query %v has arity %d, predicate has %d", q, q.Arity(), a.Ops[0].Arity())
	}
	for i, t := range q.Args {
		if t.IsVar() {
			continue
		}
		v, ok := s.Engine.Syms.Lookup(t.Name)
		if !ok {
			return a, nil, t.Name, nil
		}
		sels = append(sels, separable.Selection{Col: i, Value: v})
	}
	return a, sels, "", nil
}

// nArySeparableCandidate reports whether Query would attempt the n-ary
// separable decomposition (Section 4.1) — strictly sequential — for this
// analysis/selection shape.  Assignment legality is only decided at
// execution, so this can say true for a query that falls back to another
// plan; PlanFor errs toward the sequential grant in that case.
func nArySeparableCandidate(a *planner.Analysis, sels []separable.Selection) bool {
	return len(sels) >= 2 && len(a.Ops) >= 2 && a.AllCommute()
}

// PlanFor returns the plan Query would select for q under opts, without
// executing anything.  The server front end uses it to size per-query
// worker grants: separable and context-mode magic plans evaluate
// sequentially, so granting them a multi-worker budget slice would only
// starve other queries.  The result is for inspection, not execution —
// the n-ary and unknown-constant cases return stubs that the Execute
// entry points reject with an error rather than run.
func (s *System) PlanFor(q ast.Atom, opts Options) (*planner.Plan, error) {
	opts = opts.normalize()
	a, sels, unknown, err := s.resolveQuery(q)
	if err != nil {
		return nil, err
	}
	if unknown != "" {
		// Unknown constant: Query answers empty without evaluating.
		return &planner.Plan{Kind: planner.SemiNaive, Why: "unknown constant: empty answer"}, nil
	}
	if nArySeparableCandidate(a, sels) {
		return &planner.Plan{Kind: planner.Separable, Why: "n-ary separable candidate (Section 4.1)"}, nil
	}
	return a.ChooseMulti(sels, opts.planOpts()), nil
}

// Query answers one query atom over a recursive predicate.  Constant
// arguments become selections: the first constant drives the plan choice
// (the separable algorithm when Theorem 4.1 applies); remaining constants
// are applied as post-filters.
func (s *System) Query(q ast.Atom) (*QueryResult, error) {
	return s.QueryCtx(context.Background(), q)
}

// QueryCtx is Query with cancellation: the evaluation polls ctx at round
// barriers and inside worker shard scans, returning ctx's error promptly
// once it fires.
func (s *System) QueryCtx(ctx context.Context, q ast.Atom) (*QueryResult, error) {
	return s.Evaluate(ctx, QueryRequest{Goal: q, Opts: s.Opts})
}

// Evaluate answers a query request and materializes the full answer —
// the canonical entry point behind Query, QueryCtx and RunCtx, and the
// full-control one the server front end uses to grant each query its
// own snapshot pin, worker budget and deadline while many queries share
// one System.  An unset req.Snap pins the current snapshot.  An
// evaluation panic (engine invariant violation) is recovered into an
// error wrapping ErrInternal rather than propagated, so a poisoned
// snapshot can fail queries without killing the process hosting them.
//
// Before planning anything, Evaluate consults the goal-level result
// cache: a repeated goal on the same snapshot version (same intended
// plan kind, strategy and worker count) is answered with the stored
// result — rows, stats and plan bit-for-bit identical to the query that
// built the entry.  Concurrent first queries for one key share a single
// evaluation (single-flight), run by the first arriver under its own
// context; waiters honor their own contexts and retry if the builder's
// context fires first.
func (s *System) Evaluate(ctx context.Context, req QueryRequest) (res *QueryResult, err error) {
	snap := req.Snap
	if snap == nil {
		snap = s.Snapshot()
	}
	q, opts := req.Goal, req.Opts
	defer func() {
		if r := recover(); r != nil {
			// The stack is the only pointer to the invariant violation
			// once the panic becomes an error; worker panics additionally
			// carry the stack captured inside the worker goroutine
			// (printed through %v).
			res, err = nil, fmt.Errorf("core: %w: query %v: %v\n%s", ErrInternal, q, r, debug.Stack())
		}
	}()
	opts = opts.normalize()
	a, sels, unknown, err := s.resolveQuery(q)
	if err != nil {
		return nil, err
	}
	if unknown != "" {
		// A constant occurring in no rule and no fact can appear in no
		// tuple of this (or any) snapshot: the answer is empty.  Cheaper
		// than a cache probe — never cached.
		return &QueryResult{
			Query:   q,
			Answer:  rel.NewRelation(q.Arity()),
			Plan:    &planner.Plan{Kind: planner.SemiNaive, Why: fmt.Sprintf("constant %q occurs in no rule or fact: empty answer", unknown)},
			Version: snap.Version,
		}, nil
	}

	key := resultKey{
		goal:     normalizeGoal(q),
		kind:     s.intendedKind(a, sels, opts),
		strategy: opts.Strategy,
		workers:  opts.Workers,
	}
	tr := eval.TracerFrom(ctx)
	var cancelled <-chan struct{}
	if ctx != nil {
		cancelled = ctx.Done()
	}
	// Bounded retry: an abandoned build (the builder's context fired
	// before completion) removes its entry, and a surviving waiter takes
	// over as the next builder.  The bound only guards against a
	// pathological stampede of short-deadline builders; on exhaustion the
	// query simply evaluates uncached.
	for attempt := 0; attempt < 4; attempt++ {
		e, build := s.results.acquire(key, snap.Version)
		if e == nil {
			// Cache disabled, or snapshot superseded: evaluate fresh.
			tr.Cache("result", "bypass", key.goal, 0)
			break
		}
		if build {
			tr.Cache("result", "miss", key.goal, 0)
			res, err := s.queryEval(ctx, snap, q, a, sels, opts)
			if err == nil {
				// Cached hits share one render of the sorted rows.
				res.memo = &rowsMemo{syms: s.Engine.Syms}
			}
			s.results.complete(e, res, err)
			return res, err
		}
		// Distinguish a completed entry ("hit") from a single-flight wait
		// on another query's in-flight build ("join", with the wait time).
		event, waited := "hit", time.Duration(0)
		select {
		case <-e.done:
		default:
			event = "join"
			start := time.Now()
			select {
			case <-e.done:
				waited = time.Since(start)
			case <-cancelled:
				return nil, ctx.Err()
			}
		}
		if e.err != nil {
			if errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded) {
				continue // the builder was abandoned, not us: retry
			}
			return nil, e.err
		}
		tr.Cache("result", event, key.goal, waited)
		hit := *e.res
		hit.Query = q
		hit.Cached = true
		return &hit, nil
	}
	return s.queryEval(ctx, snap, q, a, sels, opts)
}

// intendedKind predicts the plan kind Evaluate will execute for this
// resolved query — the plan-kind component of the result-cache key.  It
// intentionally mirrors the dispatch order of queryEval: an n-ary
// separable candidate keys as Separable even when execution later falls
// back (the fallback is deterministic for a fixed goal and options, so
// the key still addresses exactly one result).
func (s *System) intendedKind(a *planner.Analysis, sels []separable.Selection, opts Options) planner.Kind {
	if nArySeparableCandidate(a, sels) {
		return planner.Separable
	}
	return a.ChooseMulti(sels, opts.planOpts()).Kind
}

// queryEval is the uncached evaluation path behind Evaluate: plan choice
// and seed/magic cache injection (planSeeded), execution, post-filters.
// It recovers evaluation panics into ErrInternal itself (rather than
// leaving that to Evaluate's recover) so that a panicking cache build
// still completes its entry — otherwise every waiter on the key would
// hang until its own deadline instead of observing the failure.
func (s *System) queryEval(ctx context.Context, snap *Snapshot, q ast.Atom, a *planner.Analysis, sels []separable.Selection, opts Options) (res *QueryResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("core: %w: query %v: %v\n%s", ErrInternal, q, r, debug.Stack())
		}
	}()
	// With two or more constants on commuting operators, try the n-ary
	// separable decomposition of Section 4.1:
	// σ0σ1…σn(ΣAᵢ)* = (σ1A1*)…(σnAn*)σ0.  When no legal assignment
	// exists, the query falls through to ChooseMulti, whose magic-seeded
	// branch still attempts a bound-tuple frontier over the full
	// adornment before conceding closure-then-filter.
	if nArySeparableCandidate(a, sels) {
		if res, ok, err := s.multiSeparable(ctx, snap, a, sels); err != nil {
			return nil, err
		} else if ok {
			res.Query = q
			return res, nil
		}
	}

	plan, seed, err := s.planSeeded(ctx, snap, a, sels, opts)
	if err != nil {
		return nil, err
	}
	cl, stats, err := a.Open(ctx, s.Engine, snap.DB, plan, opts.planOpts(), seed)
	if err != nil {
		return nil, err
	}
	ans, cs, err := cl.Drain()
	if err != nil {
		return nil, err
	}
	stats.Add(cs)
	for _, sel := range plan.Residual(sels) {
		ans = sel.Apply(ans)
	}
	return &QueryResult{Query: q, Answer: ans, Stats: stats, Plan: plan, Version: snap.Version}, nil
}

// planSeeded is the shared front half of the materialized and streamed
// evaluation paths: it chooses the plan and fetches the evaluation
// inputs this snapshot caches — the exit-rule seed and, for a
// magic-seeded plan, the magic set of this goal binding, injected into
// the plan so repeated bound queries skip the frontier iteration.  The
// planner opens the result (Analysis.Open); the caller drains or streams
// it and applies Plan.Residual.
func (s *System) planSeeded(ctx context.Context, snap *Snapshot, a *planner.Analysis, sels []separable.Selection, opts Options) (*planner.Plan, *rel.Relation, error) {
	plan := a.ChooseMulti(sels, opts.planOpts())
	seed, err := s.seedFor(ctx, a, snap)
	if err != nil {
		return nil, nil, err
	}
	if plan.Kind == planner.MagicSeeded {
		set, stats, err := s.magicFor(ctx, a, snap, plan.Magic.Spec, plan.Magic.BoundTuple())
		if err != nil {
			return nil, nil, err
		}
		plan.Magic.Set, plan.Magic.SetStats = set, stats
	}
	return plan, seed, nil
}

// multiSeparable attempts to assign every selection to an operator slot of
// the n-ary separable formula: σ attached to Aᵢ must commute with every
// other operator; σ commuting with all operators becomes a σ0.  ok is false
// when no legal assignment exists (the caller falls back to other plans).
func (s *System) multiSeparable(ctx context.Context, snap *Snapshot, a *planner.Analysis, sels []separable.Selection) (*QueryResult, bool, error) {
	taken := map[int]bool{}
	var ms []separable.MultiSelection
	for _, sel := range sels {
		owner := -2 // unassigned
		commutesWithAll := true
		for i, op := range a.Ops {
			if !sel.CommutesWith(op) {
				if owner != -2 {
					owner = -3 // fails against two operators: illegal
					break
				}
				owner = i
				commutesWithAll = false
			}
		}
		switch {
		case commutesWithAll:
			ms = append(ms, separable.MultiSelection{OpIndex: -1, Sel: sel})
		case owner >= 0 && !taken[owner]:
			taken[owner] = true
			ms = append(ms, separable.MultiSelection{OpIndex: owner, Sel: sel})
		default:
			return nil, false, nil
		}
	}

	q, err := s.seedFor(ctx, a, snap)
	if err != nil {
		return nil, false, err
	}
	out, stats, err := separable.EvalMultiCtx(ctx, s.Engine, snap.DB, a.Ops, ms, q)
	if err != nil {
		return nil, false, err
	}
	plan := &planner.Plan{
		Kind: planner.Separable,
		Why:  fmt.Sprintf("n-ary separable decomposition with %d selections (Section 4.1)", len(sels)),
	}
	return &QueryResult{Answer: out, Stats: stats, Plan: plan, Version: snap.Version}, true, nil
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
		plan := a.ChooseOpts(nil, s.Opts.planOpts())
		fmt.Fprintf(&b, "\nplan: %v — %s\n", plan.Kind, plan.Why)
	}
	return b.String(), nil
}
