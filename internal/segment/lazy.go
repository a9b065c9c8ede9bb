package segment

import (
	"fmt"
	"sort"
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
// The store runs in one of two modes:
//
// Unbudgeted (no memory budget configured): the first call that needs
// rows materializes the segment exactly once (checksum-verified, mmap'd
// where possible) as an in-memory relation via rel.FromPacked; every
// later call delegates at interface-dispatch cost.  This is the
// fastest shape when everything fits in RAM.
//
// Budgeted (Manager.SetMemBudget): the segment stays mmap-resident.
// Row, Each, Tuples, Filter and friends scan the mapped columns
// directly — streaming a segment costs no heap at all — while hash
// probes (Lookup, Prober, Select, SelectIn*, Has) are served by
// lazily-built per-column indexes — rel.Index, the layout an in-memory
// Relation uses too — whose row views point into the mapping.  Those
// indexes (plus, for membership-heavy segments small enough, a fully
// materialized relation sharing the mapped storage) are residency
// artifacts charged to the Budget and evicted back to mmap-only under
// pressure; a later probe transparently rebuilds them.
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

	// budget, when set, switches the store to mmap-resident probing
	// with evictable residency artifacts.  Set before first use.
	budget *Budget

	mapOnce sync.Once
	mapped  atomic.Bool
	packed  []rel.Value // row-major column data viewing the mapping
	mapErr  error

	// full is the unbudgeted mode's one-time materialization.
	full *rel.Relation

	// buildMu serializes residency-artifact construction; res holds the
	// current artifact set (nil when evicted or never built); lastUsed
	// is the budget's recency stamp.
	buildMu  sync.Mutex
	res      atomic.Pointer[residency]
	lastUsed atomic.Int64
}

// residency is one immutable artifact set: whichever of the per-column
// indexes (and possibly a materialized relation) have been built for a
// budgeted store.  Growing it builds a fresh struct; eviction drops the
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

// load is the unbudgeted mode's one-time full materialization.
func (l *Lazy) load() *rel.Relation {
	l.buildMu.Lock()
	defer l.buildMu.Unlock()
	if l.full == nil {
		l.full = rel.FromPacked(l.arity, l.data())
	}
	return l.full
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
// when its cost fits a quarter of the budget; it returns nil when the
// segment is too big to promote, in which case Has falls back to the
// column-0 index.
func (l *Lazy) promote() *rel.Relation {
	if res := l.res.Load(); res != nil && res.rel != nil {
		l.touch()
		return res.rel
	}
	if rel.KeyTableBytes(l.rows)*4 > l.budget.Cap() {
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
	if l.budget != nil {
		l.budget.install(l, next)
		return
	}
	l.res.Store(next)
}

// Loaded reports whether the segment data has been mapped yet, without
// triggering the mapping.
func (l *Lazy) Loaded() bool { return l.mapped.Load() }

// Resident reports whether any probe-acceleration artifacts (column
// indexes or a materialized relation) are currently held in memory for
// this store — false after an eviction even though the mapping remains.
func (l *Lazy) Resident() bool {
	if l.budget == nil {
		l.buildMu.Lock()
		defer l.buildMu.Unlock()
		return l.full != nil
	}
	return l.res.Load() != nil
}

// Arity returns the column count from manifest metadata (no load).
func (l *Lazy) Arity() int { return l.arity }

// Len returns the row count from manifest metadata (no load).
func (l *Lazy) Len() int { return l.rows }

// Row returns the i-th tuple.  Budgeted stores answer as a view into
// the mapped columns — streaming a segment row by row holds no heap.
func (l *Lazy) Row(i int) rel.Tuple {
	if l.budget == nil {
		return l.load().Row(i)
	}
	return l.rowView(l.data(), i)
}

// Has reports membership.  Budgeted stores use the materialized
// relation when the segment was small enough to promote, else a scan of
// the column-0 index bucket.
func (l *Lazy) Has(t rel.Tuple) bool {
	if l.budget == nil {
		return l.load().Has(t)
	}
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

// Each calls f on every tuple; budgeted stores scan the mapping.
func (l *Lazy) Each(f func(rel.Tuple)) {
	if l.budget == nil {
		l.load().Each(f)
		return
	}
	d := l.data()
	for i := 0; i < l.rows; i++ {
		f(l.rowView(d, i))
	}
}

// Tuples returns all tuples in sorted order.
func (l *Lazy) Tuples() []rel.Tuple {
	if l.budget == nil {
		return l.load().Tuples()
	}
	d := l.data()
	out := make([]rel.Tuple, l.rows)
	for i := range out {
		out[i] = l.rowView(d, i)
	}
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

// Lookup probes the column's index, building it on first use.
func (l *Lazy) Lookup(col int, v rel.Value) []rel.Tuple {
	if l.budget == nil {
		return l.load().Lookup(col, v)
	}
	return l.index(col).Lookup(v)
}

// BuildIndex forces the column index eagerly.
func (l *Lazy) BuildIndex(col int) {
	if l.budget == nil {
		l.load().BuildIndex(col)
		return
	}
	l.index(col)
}

// Prober returns a per-goroutine probe closure; index construction is
// deferred to the closure's first call, matching Relation.Prober's
// lazy-resolve contract.  The resolved index stays pinned for the
// closure's lifetime, so a concurrent eviction cannot stall a join
// mid-flight.
func (l *Lazy) Prober(col int) func(rel.Value) []rel.Tuple {
	if l.budget == nil {
		var probe func(rel.Value) []rel.Tuple
		return func(v rel.Value) []rel.Tuple {
			if probe == nil {
				probe = l.load().Prober(col)
			}
			return probe(v)
		}
	}
	var idx *rel.Index
	return func(v rel.Value) []rel.Tuple {
		if idx == nil {
			idx = l.index(col)
		}
		l.touch()
		return idx.Lookup(v)
	}
}

// Index renders the column index as a map (diagnostic).
func (l *Lazy) Index(col int) map[rel.Value][]rel.Tuple {
	if l.budget == nil {
		return l.load().Index(col)
	}
	return l.index(col).Map()
}

// Clone materializes an independent in-memory copy.
func (l *Lazy) Clone() *rel.Relation {
	if l.budget == nil {
		return l.load().Clone()
	}
	d := l.data()
	cp := make([]rel.Value, len(d))
	copy(cp, d)
	return rel.FromPacked(l.arity, cp)
}

// Select returns the tuples with t[col] == v as a new relation.
func (l *Lazy) Select(col int, v rel.Value) *rel.Relation {
	if l.budget == nil {
		return l.load().Select(col, v)
	}
	out := rel.NewRelation(l.arity)
	for _, t := range l.Lookup(col, v) {
		out.Insert(t)
	}
	return out
}

// SelectIn returns the tuples whose col value appears in allowed.
func (l *Lazy) SelectIn(col int, allowed *rel.Relation) *rel.Relation {
	return l.SelectInCols([]int{col}, allowed)
}

// SelectInCols is the multi-column seed restriction over the segment:
// probe the column index when allowed is small, scan the mapping when
// it is not — the same crossover Relation uses.
func (l *Lazy) SelectInCols(cols []int, allowed *rel.Relation) *rel.Relation {
	if l.budget == nil {
		return l.load().SelectInCols(cols, allowed)
	}
	out := rel.NewRelation(l.arity)
	if allowed.Len()*8 < l.rows {
		allowed.Each(func(m rel.Tuple) {
		candidates:
			for _, t := range l.Lookup(cols[0], m[0]) {
				for i := 1; i < len(cols); i++ {
					if t[cols[i]] != m[i] {
						continue candidates
					}
				}
				out.Insert(t)
			}
		})
		return out
	}
	key := make(rel.Tuple, len(cols))
	l.Each(func(t rel.Tuple) {
		for i, c := range cols {
			key[i] = t[c]
		}
		if allowed.Has(key) {
			out.Insert(t)
		}
	})
	return out
}

// Filter returns the tuples satisfying pred as a new relation.
func (l *Lazy) Filter(pred func(rel.Tuple) bool) *rel.Relation {
	if l.budget == nil {
		return l.load().Filter(pred)
	}
	out := rel.NewRelation(l.arity)
	l.Each(func(t rel.Tuple) {
		if pred(t) {
			out.Insert(t)
		}
	})
	return out
}

// Without subtracts remove.  Nothing removed preserves the receiver's
// identity so copy-on-write swaps keep sharing the segment; a real
// retraction layers a tombstone overlay over the segment instead of
// materializing it, which is what lets the manager publish the
// retraction as a delta chained onto the base segment.
func (l *Lazy) Without(remove []rel.Tuple) (rel.Store, int) {
	dels := rel.NewRelation(l.arity)
	for _, t := range remove {
		if l.Has(t) {
			dels.Insert(t.Clone())
		}
	}
	if dels.Len() == 0 {
		return l, 0
	}
	return rel.NewLayered(l, nil, dels), dels.Len()
}

// Packed exposes the packed column data for republication; segment
// reuse by identity normally makes this unnecessary.
func (l *Lazy) Packed() []rel.Value { return l.data() }

var _ rel.Store = (*Lazy)(nil)
