package segment

import (
	"sync"
	"sync/atomic"
)

// Budget is the process-wide cap on heap bytes spent making mmap'd
// segments fast to probe.  A budgeted Lazy store serves Row/Each
// streaming straight off its mapped columns for free; what costs heap
// — and what the budget therefore tracks — are the *residency
// artifacts* a store builds to serve hash probes: per-column indexes
// (rel.Index) and, for membership-heavy small segments, a key table
// over the mapped rows — each charged at the bytes its layout holds.
// The mapped file bytes themselves are never charged: the kernel pages
// them in and out on its own, which is exactly the behavior "out of
// core" relies on.
//
// Admission is evict-before-admit: installing an artifact first evicts
// the least-recently-probed other members until the new total fits, so
// tracked residency only exceeds the cap when a single artifact is by
// itself larger than the whole budget.  Eviction drops a store back to
// mmap-only — correctness is unaffected because every probe path can
// rebuild (or scan) from the mapping — and in-flight readers holding
// the evicted artifact keep it alive until they finish, so eviction
// never races a probe.
//
// Recency is a coarse logical clock, bumped on every install and
// eviction rather than on every probe: all members probed since the
// last budget event tie, which keeps the probe hot path down to two
// uncontended atomic loads.
type Budget struct {
	capBytes int64

	clock        atomic.Int64
	evictions    atomic.Int64
	evictedBytes atomic.Int64

	mu      sync.Mutex
	members map[*Lazy]int64 // artifact bytes charged per resident store
	used    int64
	peak    int64
}

// NewBudget returns a budget capped at capBytes of residency artifacts.
func NewBudget(capBytes int64) *Budget {
	return &Budget{capBytes: capBytes, members: map[*Lazy]int64{}}
}

// Cap returns the configured cap in bytes.
func (b *Budget) Cap() int64 { return b.capBytes }

// tick advances the logical recency clock and returns the new value.
func (b *Budget) tick() int64 { return b.clock.Add(1) }

// now returns the current clock value without advancing it.
func (b *Budget) now() int64 { return b.clock.Load() }

// install makes res the resident artifact set of l, evicting the
// least-recently-probed other members until the budget fits.  All
// residency transitions (installs here, drops in evictLocked) happen
// under b.mu, so concurrent installs never double-charge and eviction
// never tears a half-installed artifact.
func (b *Budget) install(l *Lazy, res *residency) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if old, ok := b.members[l]; ok {
		b.used -= old
		delete(b.members, l)
	}
	for b.used+res.cost > b.capBytes {
		if !b.evictOneLocked(l) {
			break // only l itself (or nothing) left to evict
		}
	}
	b.members[l] = res.cost
	b.used += res.cost
	if b.used > b.peak {
		b.peak = b.used
	}
	l.res.Store(res)
	l.lastUsed.Store(b.tick())
}

// evictOneLocked drops the least-recently-probed member other than keep
// back to mmap-only.  Reports false when no such member exists.
func (b *Budget) evictOneLocked(keep *Lazy) bool {
	var victim *Lazy
	var oldest int64
	for m := range b.members {
		if m == keep {
			continue
		}
		if at := m.lastUsed.Load(); victim == nil || at < oldest {
			victim, oldest = m, at
		}
	}
	if victim == nil {
		return false
	}
	cost := b.members[victim]
	delete(b.members, victim)
	b.used -= cost
	victim.res.Store(nil)
	b.evictions.Add(1)
	b.evictedBytes.Add(cost)
	b.tick()
	return true
}

// BudgetStats is a point-in-time snapshot of the budget's accounting.
type BudgetStats struct {
	CapBytes     int64 `json:"cap_bytes"`
	UsedBytes    int64 `json:"used_bytes"`
	PeakBytes    int64 `json:"peak_bytes"`
	Resident     int   `json:"resident"`
	Evictions    int64 `json:"evictions"`
	EvictedBytes int64 `json:"evicted_bytes"`
}

// Stats returns the budget's current accounting.
func (b *Budget) Stats() BudgetStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BudgetStats{
		CapBytes:     b.capBytes,
		UsedBytes:    b.used,
		PeakBytes:    b.peak,
		Resident:     len(b.members),
		Evictions:    b.evictions.Load(),
		EvictedBytes: b.evictedBytes.Load(),
	}
}
