// The derived-state store: every view the System derives from a snapshot
// and keeps for later queries — a goal's completed answer (a result), a
// predicate's materialized exit-rule seed (a seed) and a bound goal's
// magic set (a magic set) — in one versioned single-flight map.  A result
// stores the sorted answer relation and the statistics of the query that
// paid for it, so a hit is bit-for-bit the miss that built it, plus the
// answer's memo: its sorted order and its wire rendering, each built on
// first use and dropped with the entry.
//
// The store as a whole is valid at one snapshot version.  A swap N → N+1
// calls advance once, and one decision carries, upgrades or purges every
// completed entry (see maintain.go), so a stale view is never served:
// every admitted entry was built at, or verifiably upgraded to, the
// store's version.
//
// Every kind is built by one protocol.  The first arriver for a key builds
// inline under its own context, and a panic is recovered into the entry's
// ErrInternal.  Waiters honour their own contexts, and a build abandoned
// by its builder's context is retried by a surviving waiter rather than
// poisoning the key.  Only admission differs by kind, picked when an
// entry is inserted:
//   - results: LRU by total answer rows (one full-closure answer can
//     outweigh thousands of bound answers) under Options.ResultCacheRows,
//     whose negative value disables result entries only;
//   - magic sets: at most magicCacheCap per version;
//   - exit-rule seeds: uncapped, one per predicate.

package core

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"linrec/internal/ast"
	"linrec/internal/eval"
	"linrec/internal/planner"
	"linrec/internal/rel"
)

// DefaultResultCacheRows is the default cap on cached answer rows — sized
// to hold a handful of full-closure answers of the 240k-edge benchmark
// graph (≈ 2.9M tuples) alongside many small bound-query answers.
const DefaultResultCacheRows = 4 << 20

// magicCacheCap bounds the magic sets cached per snapshot.  They are
// keyed by the query's bound tuple, and a remote client can sweep
// arbitrarily many distinct constants on a snapshot that never swaps.
// Queries past the cap still work: they build their magic set uncached.
const magicCacheCap = 1024

// viewKind is what an entry holds.
type viewKind uint8

const (
	resultView viewKind = iota
	seedView
	magicView
	viewKinds
)

// viewNames are the kinds' names in trace events and errors.
var viewNames = [viewKinds]string{"result", "seed", "magic"}

// viewKey addresses one entry.  For a result, goal is the normalized goal
// — exactly the (predicate, adornment, bound tuple) triple — and plan,
// strategy and workers are part of the key because every plan returns the
// same rows, but Stats and the Plan's Why string differ across them.  For
// a magic set goal is the adornment key (magicAdornKey); a seed has none.
// The snapshot version is deliberately not part of the key: validity is a
// property of the store (see advance), which is what lets a swap carry an
// entry in place of purging it.
type viewKey struct {
	kind     viewKind
	pred     string
	goal     string
	plan     planner.Kind
	strategy planner.Strategy
	workers  int
}

// resultKey is the key of q's answer under plan, chosen with strategy:
// its workers are the pool the plan runs on (Plan.Workers, a pool of 0
// being the sequential pool of 1), not the pool the caller asked for, so
// every budget that runs the same plan shares one entry.
func resultKey(q ast.Atom, plan *planner.Plan, strategy planner.Strategy) viewKey {
	return viewKey{kind: resultView, pred: q.Pred, goal: normalizeGoal(q), plan: plan.Kind, strategy: strategy, workers: max(plan.Workers, 1)}
}

// String is the key as trace events show it: the normalized goal, the
// predicate, or the predicate with its magic binding.
func (k viewKey) String() string {
	switch k.kind {
	case resultView:
		return k.goal
	case magicView:
		return k.pred + "[" + k.goal + "]"
	}
	return k.pred
}

// Counter slots: one per planner.Kind for results plus an overflow slot,
// then one for seeds and one for magic sets.
const (
	planSlots  = int(planner.MagicSeeded) + 2
	seedSlot   = planSlots
	magicSlot  = planSlots + 1
	storeSlots = planSlots + 2
)

func (k viewKey) slot() int {
	switch {
	case k.kind == seedView:
		return seedSlot
	case k.kind == magicView:
		return magicSlot
	case int(k.plan) < 0 || int(k.plan) >= planSlots-1:
		return planSlots - 1
	}
	return int(k.plan)
}

// normalizeGoal renders a goal atom with variables renamed to their order
// of first occurrence, so p(a, Y) and p(a, Z) share a cache entry while
// p(X, X) and p(X, Y) do not.
func normalizeGoal(q ast.Atom) string {
	b := make([]byte, 0, len(q.Pred)+8*len(q.Args))
	b = append(append(b, q.Pred...), '(')
	vars := map[string]int{}
	for i, t := range q.Args {
		if i > 0 {
			b = append(b, ',')
		}
		if !t.IsVar() {
			b = strconv.AppendQuote(b, t.Name)
			continue
		}
		idx, ok := vars[t.Name]
		if !ok {
			idx = len(vars)
			vars[t.Name] = idx
		}
		b = strconv.AppendInt(append(b, '$'), int64(idx), 10)
	}
	return string(append(b, ')'))
}

// magicAdornKey encodes a magic set's (adornment, bound tuple) pair:
// "col=val" pairs over the bound columns, ascending.  Values are interned
// rel.Values, so two distinct bound tuples never collide.
func magicAdornKey(cols []int, vals rel.Tuple) string {
	b := make([]byte, 0, 8*len(cols))
	for i, c := range cols {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(c), 10)
		b = strconv.AppendInt(append(b, '='), int64(vals[i]), 10)
	}
	return string(b)
}

// viewEntry is one single-flight slot.  done closes when the build
// completes; res and err are immutable afterwards.  A seed's or magic
// set's rows are res.Answer, and a magic set's frontier statistics
// res.Stats, so a query over a cached set reports what its builder did.
type viewEntry struct {
	key      viewKey
	done     chan struct{}
	res      *QueryResult
	err      error
	admitted bool          // completed and servable
	elem     *list.Element // a result's LRU position once admitted
}

// store is the System's derived-state store.  All state is guarded by mu;
// builds run outside the lock.
type store struct {
	mu      sync.Mutex
	version uint64
	entries map[viewKey]*viewEntry
	n       [viewKinds]int // entries per kind, builds in flight included
	capRows int            // cap on result rows; 0 admits no results
	rows    int            // rows of admitted results
	lru     *list.List     // admitted results, front = most recent

	hits, misses, joins, bypasses, evictions [storeSlots]int64
	// upgraded and purged count the entries swaps carried and dropped;
	// dropped counts those a newer version's first query cleared.
	upgraded, purged, dropped [viewKinds]int64
}

// newStore sizes the result rows from the Options field: 0 selects
// DefaultResultCacheRows, negative admits no results.
func newStore(capRows int) *store {
	if capRows == 0 {
		capRows = DefaultResultCacheRows
	}
	return &store{capRows: max(capRows, 0), entries: map[viewKey]*viewEntry{}, lru: list.New()}
}

// atLocked moves the store to version if that is newer, dropping every
// entry, and reports whether version is the store's.  An older version
// is superseded: there is no point populating a dead snapshot's views.
func (c *store) atLocked(version uint64) bool {
	if version > c.version {
		for k, n := range c.n {
			c.dropped[k] += int64(n)
		}
		c.resetLocked(version)
	}
	return version == c.version
}

func (c *store) resetLocked(version uint64) {
	c.version = version
	c.entries = map[viewKey]*viewEntry{}
	c.n = [viewKinds]int{}
	c.lru.Init()
	c.rows = 0
}

// roomLocked is the admission rule of a new entry of kind k.
func (c *store) roomLocked(k viewKind) bool {
	switch k {
	case resultView:
		return c.capRows > 0
	case magicView:
		return c.n[magicView] < magicCacheCap
	}
	return true
}

// acquire returns the slot for key at the caller's snapshot version,
// reporting whether the caller must build it (a miss) or may wait on it,
// possibly still in flight.  A nil entry bypasses the store: the caller's
// snapshot is superseded, or the kind admits no new entry.  Hits count
// only completed entries; a waiter on a build in flight counts as a join.
func (c *store) acquire(key viewKey, version uint64) (e *viewEntry, build bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	slot := key.slot()
	if !c.atLocked(version) {
		c.bypasses[slot]++
		return nil, false
	}
	if e, ok := c.entries[key]; ok {
		if e.admitted {
			c.touchLocked(e)
			c.hits[slot]++
		} else {
			c.joins[slot]++
		}
		return e, false
	}
	if !c.roomLocked(key.kind) {
		c.bypasses[slot]++
		return nil, false
	}
	e = &viewEntry{key: key, done: make(chan struct{})}
	c.putLocked(e)
	c.misses[slot]++
	return e, true
}

// peek returns the completed entry for key at the caller's snapshot
// version, if any, counting a hit.  Unlike acquire it never creates an
// entry and never waits on a build in flight — it is the lock-probe
// behind the server's admission-free fast path.
func (c *store) peek(key viewKey, version uint64) *QueryResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.atLocked(version) {
		return nil
	}
	e, ok := c.entries[key]
	if !ok || !e.admitted {
		return nil
	}
	c.touchLocked(e)
	c.hits[key.slot()]++
	return e.res
}

// complete finishes a build: on success the entry is admitted under its
// kind's rule, and on failure — an abandoned build included — or when it
// does not fit, it leaves the map so the next query builds again.  Either
// way done closes and every waiter observes the outcome.
func (c *store) complete(e *viewEntry, res *QueryResult, err error) {
	c.mu.Lock()
	e.res, e.err = res, err
	if c.entries[e.key] == e && (err != nil || !c.admitLocked(e)) {
		c.dropLocked(e)
	}
	c.mu.Unlock()
	close(e.done)
}

// admitLocked makes a completed entry servable, reporting false when it
// does not fit: a result larger than the whole row cap.  A result goes to
// the front of the LRU, which evicts from its cold end until the rows fit.
func (c *store) admitLocked(e *viewEntry) bool {
	if e.key.kind == resultView {
		rows := e.res.Answer.Len()
		if rows > c.capRows {
			return false
		}
		e.elem = c.lru.PushFront(e)
		c.rows += rows
		for c.rows > c.capRows {
			victim := c.lru.Back().Value.(*viewEntry)
			c.dropLocked(victim)
			c.evictions[victim.key.slot()]++
		}
	}
	e.admitted = true
	return true
}

func (c *store) touchLocked(e *viewEntry) {
	if e.elem != nil {
		c.lru.MoveToFront(e.elem)
	}
}

func (c *store) putLocked(e *viewEntry) {
	c.entries[e.key] = e
	c.n[e.key.kind]++
}

func (c *store) dropLocked(e *viewEntry) {
	delete(c.entries, e.key)
	c.n[e.key.kind]--
	if e.elem != nil {
		c.lru.Remove(e.elem)
		c.rows -= e.res.Answer.Len()
		e.elem = nil
	}
}

// advance moves the store to version, offering every completed entry to
// upgrade: a non-nil return is re-admitted at the new version under its
// kind's rule (it must already be correct there), a nil return purges
// the entry.  Builds in flight leave uncounted: their completion finds no
// entry, and only their waiters, pinned at the old version, see the
// result.  upgrade runs outside the lock; the caller holds the System's
// write lock, so no competing swap interleaves.
func (c *store) advance(version uint64, upgrade func(viewKey, *QueryResult) *QueryResult) (upgraded, purged [viewKinds]int) {
	c.mu.Lock()
	if version <= c.version {
		c.mu.Unlock()
		return upgraded, purged
	}
	// Seeds and magic sets first, then results coldest-first, so that
	// re-admission keeps the LRU order.
	old := make([]*viewEntry, 0, len(c.entries))
	for _, e := range c.entries {
		if e.admitted && e.elem == nil {
			old = append(old, e)
		}
	}
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		old = append(old, el.Value.(*viewEntry))
	}
	c.resetLocked(version)
	c.mu.Unlock()

	kept := make([]*viewEntry, 0, len(old))
	for _, e := range old {
		if res := upgrade(e.key, e.res); res != nil {
			done := make(chan struct{})
			close(done)
			kept = append(kept, &viewEntry{key: e.key, done: done, res: res})
		} else {
			purged[e.key.kind]++
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range kept {
		if _, exists := c.entries[e.key]; exists || c.version != version {
			purged[e.key.kind]++
			continue
		}
		c.putLocked(e)
		if !c.admitLocked(e) {
			c.dropLocked(e)
			purged[e.key.kind]++
			continue
		}
		upgraded[e.key.kind]++
	}
	for k := range upgraded {
		c.upgraded[k] += int64(upgraded[k])
		c.purged[k] += int64(purged[k])
	}
	return upgraded, purged
}

// view returns the entry for key at version: a completed entry (a hit),
// another caller's build in flight (a join), or build run here (a miss)
// and offered to the store.  When the store bypasses the key, or four
// builders in a row abandon it, build runs uncached.  cached reports
// that res came from another caller's build.  A Tracer on ctx records the
// decision and the time it took.
func (s *System) view(ctx context.Context, key viewKey, version uint64, build func() (*QueryResult, error)) (res *QueryResult, cached bool, err error) {
	tr := eval.TracerFrom(ctx)
	var cancelled <-chan struct{}
	if ctx != nil {
		cancelled = ctx.Done()
	}
	// The bound only guards against a stampede of short-deadline builders.
	for attempt := 0; attempt < 4; attempt++ {
		e, building := s.store.acquire(key, version)
		if e == nil {
			break
		}
		start := time.Now()
		if building {
			res, err := protect(key, build)
			s.store.complete(e, res, err)
			traceView(tr, key, "miss", time.Since(start))
			return res, false, err
		}
		event := "hit"
		select {
		case <-e.done:
		default:
			event = "join"
			select {
			case <-e.done:
			case <-cancelled:
				return nil, false, ctx.Err()
			}
		}
		if e.err != nil {
			if errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded) {
				continue // the builder was abandoned, not us: retry
			}
			return nil, false, e.err
		}
		traceView(tr, key, event, time.Since(start))
		return e.res, true, nil
	}
	traceView(tr, key, "bypass", 0)
	res, err = protect(key, build)
	return res, false, err
}

// protect runs build, recovering a panic — an engine invariant violation
// — into an error wrapping ErrInternal, so the entry still completes and
// every waiter observes the failure instead of hanging.
func protect(key viewKey, build func() (*QueryResult, error)) (res *QueryResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			// Keep the stack: it is the only pointer to the invariant
			// violation once the panic is flattened into an error.
			res, err = nil, fmt.Errorf("core: %w: %s %s: %v\n%s", ErrInternal, viewNames[key.kind], key, r, debug.Stack())
		}
	}()
	return build()
}

// traceView records one decision on key; the key is rendered only when
// traced.
func traceView(tr *eval.Tracer, key viewKey, event string, d time.Duration) {
	if tr != nil {
		tr.Cache(viewNames[key.kind], event, key.String(), d)
	}
}

// ResultCacheStats is the /v1/stats view of the results: gauges for the
// current contents plus monotonic hit/miss/eviction counters per plan
// kind (keyed by the planner Kind's String form; kinds with zero counts
// are omitted), single-flight join counts, and the swap-maintenance
// counters — entries carried across swaps (upgrades), entries a swap
// failed to carry (upgrade_fallbacks), and total entries purged by swaps
// (invalidated, a superset of the fallbacks).  RenderedBytes is what the
// completed entries' rendered rows hold: bytes plus row offsets.
type ResultCacheStats struct {
	CapRows          int              `json:"cap_rows"`
	Entries          int              `json:"entries"`
	Rows             int              `json:"rows"`
	RenderedBytes    int64            `json:"rendered_bytes"`
	Hits             map[string]int64 `json:"hits,omitempty"`
	Misses           map[string]int64 `json:"misses,omitempty"`
	Evictions        map[string]int64 `json:"evictions,omitempty"`
	Joins            int64            `json:"joins"`
	Invalidated      int64            `json:"invalidated"`
	Upgrades         int64            `json:"upgrades"`
	UpgradeFallbacks int64            `json:"upgrade_fallbacks"`
}

// SeedCacheStats is the /v1/stats view of the seeds and magic sets:
// current entries and the rows of the completed ones, lifetime hit/miss
// counters per kind (a join counts as a hit, and a bypass — a superseded
// snapshot or a full magic cap — as a miss), and the entries swaps
// carried versus dropped.
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

// stats samples both views of the store in one locked pass.
func (c *store) stats() (ResultCacheStats, SeedCacheStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rs := ResultCacheStats{
		CapRows:          c.capRows,
		Entries:          c.n[resultView],
		Rows:             c.rows,
		Invalidated:      c.purged[resultView] + c.dropped[resultView],
		Upgrades:         c.upgraded[resultView],
		UpgradeFallbacks: c.purged[resultView],
		Hits:             byPlan(c.hits),
		Misses:           byPlan(c.misses),
		Evictions:        byPlan(c.evictions),
	}
	for _, n := range c.joins[:planSlots] {
		rs.Joins += n
	}
	ss := SeedCacheStats{
		SeedEntries:  c.n[seedView],
		MagicEntries: c.n[magicView],
		SeedHits:     c.hits[seedSlot] + c.joins[seedSlot],
		SeedMisses:   c.misses[seedSlot] + c.bypasses[seedSlot],
		MagicHits:    c.hits[magicSlot] + c.joins[magicSlot],
		MagicMisses:  c.misses[magicSlot] + c.bypasses[magicSlot],
		Upgraded:     c.upgraded[seedView] + c.upgraded[magicView],
		Purged:       c.purged[seedView] + c.purged[magicView],
	}
	for _, e := range c.entries {
		switch {
		case !e.admitted:
		case e.key.kind != resultView:
			ss.Rows += e.res.Answer.Len()
		case e.res.memo != nil:
			rs.RenderedBytes += e.res.memo.bytes.Load()
		}
	}
	return rs, ss
}

// byPlan maps the result slots' counts by plan kind name, omitting zeros.
func byPlan(src [storeSlots]int64) map[string]int64 {
	var m map[string]int64
	for i, n := range src[:planSlots] {
		if n == 0 {
			continue
		}
		if m == nil {
			m = map[string]int64{}
		}
		name := "unknown"
		if i < planSlots-1 {
			name = planner.Kind(i).String()
		}
		m[name] = n
	}
	return m
}
