package segment

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"linrec/internal/rel"
)

// Lazy is a disk-backed rel.Store over one segment file.  Arity and Len
// answer from manifest metadata alone — booting a database of Lazy
// stores touches no segment data, which is what keeps recovery
// proportional to metadata.
//
// The first call that needs rows maps the segment exactly once
// (checksum-verified, mmap'd where possible).  Row and Each scan the
// mapped columns directly — streaming a segment costs no heap at all —
// while column probes (Lookup, Prober) are served by lazily-built
// per-column indexes — rel.Index, the layout an in-memory Relation uses
// too — whose row views point into the mapping, and Has by a promoted
// key table over the mapped rows.  Those are the store's residency
// artifacts.  Under a memory budget (Manager.SetMemBudget) they are
// charged to the Budget and evicted back to mmap-only under pressure; a
// later probe transparently rebuilds them.  Without one they are never
// evicted, and Has always promotes.
//
// A mapping failure panics with a descriptive error: by then the
// manifest validated at boot, so a failure means the file changed
// underneath us — an invariant violation the engine's panic recovery
// surfaces as an internal error rather than a wrong answer.
type Lazy struct {
	pred     string
	path     string
	arity    int
	rows     int
	checksum uint64

	// onLoad, when set, observes the one mapping (manager statistics).
	// It runs inside the once, so it never races.
	onLoad func(took time.Duration, bytes int64)

	// budget, when set, charges the residency artifacts and may evict
	// them.  Set before first use.
	budget *Budget

	mapOnce sync.Once
	mapped  atomic.Bool
	packed  []rel.Value // row-major column data viewing the mapping
	mapErr  error

	// buildMu serializes residency-artifact construction; res holds the
	// current artifact set (nil when evicted or never built); lastUsed
	// is the budget's recency stamp.
	buildMu  sync.Mutex
	res      atomic.Pointer[residency]
	lastUsed atomic.Int64
}

// residency is one immutable artifact set: whichever of the per-column
// indexes (and possibly a promoted key table) have been built for a
// store.  Growing it builds a fresh struct; eviction drops the
// whole set at once.
type residency struct {
	rel  *rel.Relation // non-nil once promoted for membership probes
	idx  []*rel.Index  // per-column indexes (len arity); nil entries absent
	cost int64         // heap bytes of the above, as charged to the Budget
}

// NewLazy returns a lazy store over a validated segment file.  Callers
// normally get these from Manager.Boot rather than constructing them.
func NewLazy(pred, path string, arity, rows int, checksum uint64) *Lazy {
	return &Lazy{pred: pred, path: path, arity: arity, rows: rows, checksum: checksum}
}

// data maps the segment (verifying the checksum) exactly once and
// returns the packed row-major column values.
func (l *Lazy) data() []rel.Value {
	l.mapOnce.Do(func() {
		start := time.Now()
		data, bytes, err := readSegment(l.path, l.arity, l.rows, l.checksum)
		if err != nil {
			l.mapErr = err
			return
		}
		l.packed = data
		l.mapped.Store(true)
		if l.onLoad != nil {
			l.onLoad(time.Since(start), bytes)
		}
	})
	if l.mapErr != nil {
		panic(fmt.Sprintf("segment: predicate %q: %v", l.pred, l.mapErr))
	}
	return l.packed
}

// ensureMapped forces the mapping without probing, reporting any
// failure as an error instead of a panic.  The manager calls it before
// garbage-collecting a file this store still reads from, so eviction to
// "mmap-only" can never turn into "file gone".
func (l *Lazy) ensureMapped() (err error) {
	defer func() {
		if recover() != nil {
			err = l.mapErr
		}
	}()
	l.data()
	return nil
}

// touch refreshes the budget's recency stamp for this store.
func (l *Lazy) touch() {
	if l.budget == nil {
		return
	}
	if now := l.budget.now(); l.lastUsed.Load() != now {
		l.lastUsed.Store(now)
	}
}

// rowView returns the i-th tuple as a view into the mapped columns.
func (l *Lazy) rowView(d []rel.Value, i int) rel.Tuple {
	return rel.Tuple(d[i*l.arity : (i+1)*l.arity])
}

// index returns the column index on col, building (and charging) it if
// it is not resident.
func (l *Lazy) index(col int) *rel.Index {
	if res := l.res.Load(); res != nil && res.idx[col] != nil {
		l.touch()
		return res.idx[col]
	}
	l.buildMu.Lock()
	defer l.buildMu.Unlock()
	res := l.res.Load()
	if res != nil && res.idx[col] != nil {
		return res.idx[col]
	}
	next := l.extend(res)
	next.idx[col] = rel.NewIndex(l.data(), l.arity, col)
	l.install(next)
	return next.idx[col]
}

// promote returns a relation for membership probes, materializing one
// over the mapped storage (key table only — the data stays the mmap)
// unless a budget is set and the key table would not fit a quarter of
// it; then it returns nil and Has falls back to the column-0 index.
func (l *Lazy) promote() *rel.Relation {
	if res := l.res.Load(); res != nil && res.rel != nil {
		l.touch()
		return res.rel
	}
	if l.budget != nil && rel.KeyTableBytes(l.rows)*4 > l.budget.Cap() {
		return nil
	}
	l.buildMu.Lock()
	defer l.buildMu.Unlock()
	res := l.res.Load()
	if res != nil && res.rel != nil {
		return res.rel
	}
	next := l.extend(res)
	next.rel = rel.FromPacked(l.arity, l.data())
	l.install(next)
	return next.rel
}

// extend returns a copy of res (nil: none) to add one artifact to.
func (l *Lazy) extend(res *residency) *residency {
	next := &residency{idx: make([]*rel.Index, l.arity)}
	if res != nil {
		next.rel = res.rel
		copy(next.idx, res.idx)
	}
	return next
}

// install publishes a new artifact set at the heap bytes its layout
// holds — the promoted relation's key table (its rows are the mapping)
// plus every index — charging the budget when one is configured (which
// may evict other stores to make room).
func (l *Lazy) install(next *residency) {
	if next.rel != nil {
		next.cost = rel.KeyTableBytes(l.rows)
	}
	for _, ix := range next.idx {
		if ix != nil {
			next.cost += ix.Bytes()
		}
	}
	if l.budget == nil {
		l.res.Store(next)
		return
	}
	l.budget.install(l, next)
}

// Loaded reports whether the segment data has been mapped yet, without
// triggering the mapping.
func (l *Lazy) Loaded() bool { return l.mapped.Load() }

// Resident reports whether any probe-acceleration artifacts (column
// indexes or a promoted key table) are currently held in memory for
// this store — false before the first probe, and after an eviction even
// though the mapping remains.
func (l *Lazy) Resident() bool { return l.res.Load() != nil }

// Arity returns the column count from manifest metadata (no load).
func (l *Lazy) Arity() int { return l.arity }

// Len returns the row count from manifest metadata (no load).
func (l *Lazy) Len() int { return l.rows }

// Row returns the i-th tuple as a view into the mapped columns —
// streaming a segment row by row holds no heap.
func (l *Lazy) Row(i int) rel.Tuple { return l.rowView(l.data(), i) }

// Has reports membership through the promoted key table, or — when the
// budget is too small to promote — a scan of the column-0 index bucket.
func (l *Lazy) Has(t rel.Tuple) bool {
	if r := l.promote(); r != nil {
		return r.Has(t)
	}
candidates:
	for _, row := range l.Lookup(0, t[0]) {
		for i := 1; i < l.arity; i++ {
			if row[i] != t[i] {
				continue candidates
			}
		}
		return true
	}
	return false
}

// Each calls f on every tuple, scanning the mapping.
func (l *Lazy) Each(f func(rel.Tuple)) {
	d := l.data()
	for i := 0; i < l.rows; i++ {
		f(l.rowView(d, i))
	}
}

// Lookup probes the column's index, building it on first use.
func (l *Lazy) Lookup(col int, v rel.Value) []rel.Tuple { return l.index(col).Lookup(v) }

// Prober returns a per-goroutine probe closure; index construction is
// deferred to the closure's first call, matching Relation.Prober's
// lazy-resolve contract.  The resolved index stays pinned for the
// closure's lifetime, so a concurrent eviction cannot stall a join
// mid-flight.
func (l *Lazy) Prober(col int) func(rel.Value) []rel.Tuple {
	var idx *rel.Index
	return func(v rel.Value) []rel.Tuple {
		if idx == nil {
			idx = l.index(col)
		}
		l.touch()
		return idx.Lookup(v)
	}
}

// Clone materializes an independent in-memory copy.
func (l *Lazy) Clone() *rel.Relation {
	d := l.data()
	cp := make([]rel.Value, len(d))
	copy(cp, d)
	return rel.FromPacked(l.arity, cp)
}

// Packed exposes the packed column data for republication; segment
// reuse by identity normally makes this unnecessary.
func (l *Lazy) Packed() []rel.Value { return l.data() }

var _ rel.Store = (*Lazy)(nil)
