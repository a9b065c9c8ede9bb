// The goal-level result cache: completed QueryResults keyed by
// (normalized goal, plan kind, strategy, workers), so a repeated goal on
// an unchanged database is served without planning or evaluating
// anything.  The cache stores the sorted answer relation and the
// evaluation statistics of the query that paid for the build, which
// makes hits bit-for-bit identical to the miss that populated them,
// plus the answer's memo: its sorted order and its wire rendering, each
// built on first use and dropped with the entry.
//
// Entries are maintainable views: the cache as a whole is valid at one
// snapshot version, and a snapshot swap N → N+1 calls advance with an
// upgrade callback that may carry an entry across the swap (free when
// the change can't reach the goal, by delta-resume for additions, by
// delete-and-rederive for retractions).  Entries the callback declines
// fall back to the old behavior — they are purged and the next query
// rebuilds them — so a stale answer can never be served: every admitted
// entry was either built at, or verifiably upgraded to, the cache's
// current version.
//
// Capacity is bounded by total cached answer rows (not entry count — one
// full-closure answer can outweigh thousands of bound-query answers) with
// LRU eviction.  Lookups are single-flight: concurrent queries for the
// same key share one evaluation, run inline by the first arriver under
// its own context; waiters honor their own contexts, and an abandoned
// build (the builder's context fired) is retried by the surviving
// waiters rather than poisoning the key.

package core

import (
	"container/list"
	"fmt"
	"strings"
	"sync"

	"linrec/internal/ast"
	"linrec/internal/planner"
)

// DefaultResultCacheRows is the result cache's default capacity in total
// cached answer rows — sized to hold a handful of full-closure answers of
// the 240k-edge benchmark graph (≈ 2.9M tuples) alongside many small
// bound-query answers.
const DefaultResultCacheRows = 4 << 20

// resultKey addresses one cached query result.  Kind, strategy and
// workers are all part of the key: every plan returns the same rows, but
// Stats and the Plan's Why string differ across them, and a hit must be
// bit-for-bit identical to the query that built the entry.  The goal
// string renders constants in place and variables canonically, so it is
// exactly the (predicate, adornment, bound tuple) triple — two goals
// with different binding patterns or different bound values can never
// share an entry.  The snapshot version is deliberately not part of the
// key: validity is a property of the cache (see advance), not the entry,
// which is what lets a swap upgrade an entry in place of purging it.
type resultKey struct {
	goal     string // normalized goal atom (canonical variable names)
	kind     planner.Kind
	strategy planner.Strategy
	workers  int
}

// normalizeGoal renders a goal atom with variables renamed to their order
// of first occurrence, so p(a, Y) and p(a, Z) share a cache entry while
// p(X, X) and p(X, Y) do not.
func normalizeGoal(q ast.Atom) string {
	var b strings.Builder
	b.WriteString(q.Pred)
	b.WriteByte('(')
	vars := map[string]int{}
	for i, t := range q.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		if t.IsVar() {
			idx, ok := vars[t.Name]
			if !ok {
				idx = len(vars)
				vars[t.Name] = idx
			}
			fmt.Fprintf(&b, "$%d", idx)
		} else {
			fmt.Fprintf(&b, "%q", t.Name)
		}
	}
	b.WriteByte(')')
	return b.String()
}

// resultEntry is one single-flight cache slot.  done closes when the
// build completes; res/err are immutable afterwards.
type resultEntry struct {
	key  resultKey
	done chan struct{}
	res  *QueryResult
	err  error
	rows int           // res.Answer.Len(), for capacity accounting
	elem *list.Element // LRU position once completed and admitted
}

// resultCacheKinds sizes the per-plan-kind counter arrays: every
// planner.Kind plus one overflow slot.
const resultCacheKinds = int(planner.MagicSeeded) + 2

func kindSlot(k planner.Kind) int {
	if int(k) < 0 || int(k) >= resultCacheKinds-1 {
		return resultCacheKinds - 1
	}
	return int(k)
}

func kindName(i int) string {
	if i >= resultCacheKinds-1 {
		return "unknown"
	}
	return planner.Kind(i).String()
}

// resultCache is the System's goal-level result cache.  All state is
// guarded by mu; builds run outside the lock.
type resultCache struct {
	mu      sync.Mutex
	capRows int // capacity in total cached rows; <= 0 disables the cache
	rows    int // rows held by completed entries
	version uint64
	entries map[resultKey]*resultEntry
	lru     *list.List // completed entries, front = most recent

	hits, misses, evictions [resultCacheKinds]int64
	joins                   int64 // waiters that joined an in-flight build
	invalidated             int64 // entries purged by swaps (fallbacks included)
	upgrades                int64 // entries carried across a swap by maintenance
	upgradeFallbacks        int64 // entries a swap tried and failed to upgrade
}

// newResultCache sizes the cache from the Options field: 0 selects
// DefaultResultCacheRows, negative disables caching entirely.
func newResultCache(capRows int) *resultCache {
	if capRows == 0 {
		capRows = DefaultResultCacheRows
	}
	if capRows < 0 {
		capRows = 0
	}
	return &resultCache{
		capRows: capRows,
		entries: map[resultKey]*resultEntry{},
		lru:     list.New(),
	}
}

// acquire returns the cache slot for key at the caller's pinned snapshot
// version, reporting whether the caller must build it (miss) or may wait
// on it (possibly still in flight).  A nil entry means the cache is
// bypassed for this query: disabled, or the caller's snapshot is
// superseded (no point repopulating a dead version).  Hits count only
// completed entries — a waiter joining a build still in flight is
// counted under joins instead, so the hit counters reflect results that
// were actually served from cache.
func (c *resultCache) acquire(key resultKey, version uint64) (e *resultEntry, build bool) {
	if c == nil || c.capRows <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if version != c.version {
		if version < c.version {
			return nil, false
		}
		c.purgeLocked(version)
	}
	if e, ok := c.entries[key]; ok {
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
			c.hits[kindSlot(key.kind)]++
		} else {
			c.joins++
		}
		return e, false
	}
	e = &resultEntry{key: key, done: make(chan struct{})}
	c.entries[key] = e
	c.misses[kindSlot(key.kind)]++
	return e, true
}

// peek returns the completed result for key at the caller's snapshot
// version, if any, bumping LRU recency and the hit counter.  Unlike
// acquire it never creates an entry and never waits on a build in
// flight — it is the lock-probe behind the server's admission-free fast
// path.
func (c *resultCache) peek(key resultKey, version uint64) *QueryResult {
	if c == nil || c.capRows <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if version != c.version {
		if version > c.version {
			c.purgeLocked(version)
		}
		return nil
	}
	e, ok := c.entries[key]
	if !ok || e.elem == nil {
		return nil // absent, or still building: the caller evaluates normally
	}
	c.lru.MoveToFront(e.elem)
	c.hits[kindSlot(key.kind)]++
	return e.res
}

// purgeLocked drops every entry and records the new high-water version.
// In-flight builds stay out of the map from the moment of the purge;
// their completion is a no-op.
func (c *resultCache) purgeLocked(version uint64) {
	c.invalidated += int64(len(c.entries))
	c.entries = map[resultKey]*resultEntry{}
	c.lru.Init()
	c.rows = 0
	c.version = version
}

// advance moves the cache to newVersion, offering every completed entry
// to the upgrade callback: a non-nil return is re-admitted at the new
// version (its result must already be correct for newVersion), a nil
// return purges the entry as before.  In-flight builds are detached
// uncounted — their completion no-ops and the surviving waiters retry.
// The callbacks run outside the cache lock; the caller must hold the
// System's write lock so no competing swap or same-key build interleaves.
func (c *resultCache) advance(newVersion uint64, upgrade func(key resultKey, res *QueryResult) *QueryResult) (upgraded, fallbacks int) {
	if c == nil || c.capRows <= 0 {
		return 0, 0
	}
	c.mu.Lock()
	if newVersion <= c.version {
		c.mu.Unlock()
		return 0, 0
	}
	// Collect completed entries coldest-first so re-admission preserves
	// the LRU order across the swap.
	old := make([]*resultEntry, 0, c.lru.Len())
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		old = append(old, el.Value.(*resultEntry))
	}
	c.entries = map[resultKey]*resultEntry{}
	c.lru.Init()
	c.rows = 0
	c.version = newVersion
	c.mu.Unlock()

	type carried struct {
		key resultKey
		res *QueryResult
	}
	kept := make([]carried, 0, len(old))
	for _, e := range old {
		var up *QueryResult
		if upgrade != nil {
			up = upgrade(e.key, e.res)
		}
		if up == nil {
			fallbacks++
			continue
		}
		kept = append(kept, carried{e.key, up})
	}

	c.mu.Lock()
	for _, k := range kept {
		rows := k.res.Answer.Len()
		if _, exists := c.entries[k.key]; exists || c.version != newVersion || rows > c.capRows {
			fallbacks++
			continue
		}
		done := make(chan struct{})
		close(done)
		e := &resultEntry{key: k.key, done: done, res: k.res, rows: rows}
		c.entries[k.key] = e
		e.elem = c.lru.PushFront(e)
		c.rows += rows
		for c.rows > c.capRows {
			c.evictLocked()
		}
		upgraded++
	}
	c.upgrades += int64(upgraded)
	c.upgradeFallbacks += int64(fallbacks)
	c.invalidated += int64(fallbacks)
	c.mu.Unlock()
	return upgraded, fallbacks
}

// complete finishes a build: on success the entry is admitted to the LRU
// (evicting from the cold end until the row budget holds); on failure —
// including an abandoned build whose context fired — the entry is removed
// so the next query retries.  Either way done closes and every waiter
// observes the outcome.  Answers larger than the whole capacity are
// returned to the caller but never admitted.
func (c *resultCache) complete(e *resultEntry, res *QueryResult, err error) {
	c.mu.Lock()
	if err == nil {
		e.res, e.rows = res, res.Answer.Len()
		if c.entries[e.key] == e && e.rows <= c.capRows {
			e.elem = c.lru.PushFront(e)
			c.rows += e.rows
			for c.rows > c.capRows {
				c.evictLocked()
			}
		} else if c.entries[e.key] == e {
			delete(c.entries, e.key)
		}
	} else {
		e.err = err
		if c.entries[e.key] == e {
			delete(c.entries, e.key)
		}
	}
	c.mu.Unlock()
	close(e.done)
}

// evictLocked drops the least-recently-used completed entry.
func (c *resultCache) evictLocked() {
	back := c.lru.Back()
	if back == nil {
		return
	}
	victim := back.Value.(*resultEntry)
	c.lru.Remove(back)
	victim.elem = nil
	c.rows -= victim.rows
	if c.entries[victim.key] == victim {
		delete(c.entries, victim.key)
	}
	c.evictions[kindSlot(victim.key.kind)]++
}

// ResultCacheStats is the /v1/stats view of the result cache: gauges for
// the current contents plus monotonic hit/miss/eviction counters per plan
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

// Stats reports the cache counters.
func (c *resultCache) Stats() ResultCacheStats {
	if c == nil {
		return ResultCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := ResultCacheStats{
		CapRows:          c.capRows,
		Entries:          len(c.entries),
		Rows:             c.rows,
		Joins:            c.joins,
		Invalidated:      c.invalidated,
		Upgrades:         c.upgrades,
		UpgradeFallbacks: c.upgradeFallbacks,
	}
	for el := c.lru.Front(); el != nil; el = el.Next() {
		if m := el.Value.(*resultEntry).res.memo; m != nil {
			out.RenderedBytes += m.bytes.Load()
		}
	}
	counts := func(src [resultCacheKinds]int64) map[string]int64 {
		var m map[string]int64
		for i, n := range src {
			if n == 0 {
				continue
			}
			if m == nil {
				m = map[string]int64{}
			}
			m[kindName(i)] = n
		}
		return m
	}
	out.Hits = counts(c.hits)
	out.Misses = counts(c.misses)
	out.Evictions = counts(c.evictions)
	return out
}
