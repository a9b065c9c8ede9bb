package rel

import "sync"

// Layered is a Store presenting base − dels + adds without
// materializing the result: one immutable overlay layer over an
// arbitrary base store.  It is the one write path of every backend —
// a copy-on-write fact update wraps the previous store in one Layered
// carrying just the changed tuples, so a write costs its delta whether
// the base is an in-memory relation or a disk segment — and the
// in-memory shape of a persisted delta chain: the segment manager
// publishes exactly that overlay as a delta segment chained onto the
// base instead of rewriting the whole relation.  Chains deepen by one
// layer per snapshot swap and fold back by Fold's policy.
//
// Invariants (maintained by the write path and by Fold, not re-checked
// here): dels ⊆ the base's tuples, adds ∩ the base's effective tuples =
// ∅, and adds ∩ dels = ∅.  They are what make Len answerable from layer
// metadata alone — base.Len() − dels.Len() + adds.Len() — so a booted
// chain still reports its row count without touching segment data.
type Layered struct {
	base Store
	adds Store
	dels Store

	// surv caches, once built, the base row offsets that survive dels —
	// only needed for positional Row access under a non-empty dels.
	survOnce sync.Once
	surv     []int32
}

// NewLayered wraps base with one overlay layer.  nil adds or dels
// stand for empty.
func NewLayered(base, adds, dels Store) *Layered {
	if adds == nil {
		adds = NewRelation(base.Arity())
	}
	if dels == nil {
		dels = NewRelation(base.Arity())
	}
	return &Layered{base: base, adds: adds, dels: dels}
}

// Base returns the wrapped store — the previous snapshot's version of
// the relation.  The segment manager matches it by identity against
// the last published store to detect "one new layer to persist".
func (l *Layered) Base() Store { return l.base }

// Adds returns the overlay's added tuples.
func (l *Layered) Adds() Store { return l.adds }

// Dels returns the overlay's tombstoned tuples.
func (l *Layered) Dels() Store { return l.dels }

// Depth returns the number of overlay layers down to a non-Layered
// base: 1 for a single overlay, growing by one per chained swap.
func (l *Layered) Depth() int { return len(l.layers()) }

// Arity returns the column count.
func (l *Layered) Arity() int { return l.base.Arity() }

// Len returns the layered row count from layer metadata alone.
func (l *Layered) Len() int { return l.base.Len() - l.dels.Len() + l.adds.Len() }

// survivors returns the base row offsets not tombstoned by dels,
// building the list once.
func (l *Layered) survivors() []int32 {
	l.survOnce.Do(func() {
		l.surv = make([]int32, 0, l.base.Len()-l.dels.Len())
		for i := 0; i < l.base.Len(); i++ {
			if !l.dels.Has(l.base.Row(i)) {
				l.surv = append(l.surv, int32(i))
			}
		}
	})
	return l.surv
}

// Row returns the i-th tuple: surviving base rows in base storage
// order, then the overlay's added rows.
func (l *Layered) Row(i int) Tuple {
	if l.dels.Len() == 0 {
		if i < l.base.Len() {
			return l.base.Row(i)
		}
		return l.adds.Row(i - l.base.Len())
	}
	surv := l.survivors()
	if i < len(surv) {
		return l.base.Row(int(surv[i]))
	}
	return l.adds.Row(i - len(surv))
}

// Has reports membership: tombstones shadow the base, additions extend
// it.
func (l *Layered) Has(t Tuple) bool {
	if l.dels.Len() > 0 && l.dels.Has(t) {
		return false
	}
	return l.adds.Has(t) || l.base.Has(t)
}

// Each calls f on every effective tuple.
func (l *Layered) Each(f func(Tuple)) {
	if l.dels.Len() == 0 {
		l.base.Each(f)
	} else {
		l.base.Each(func(t Tuple) {
			if !l.dels.Has(t) {
				f(t)
			}
		})
	}
	l.adds.Each(f)
}

// Lookup returns the rows with t[col] == v, combining the base's index
// probe with the overlay's.  With an empty overlay it delegates to the
// base at zero extra allocation; otherwise it filters tombstones and
// appends additions into a fresh slice.
func (l *Layered) Lookup(col int, v Value) []Tuple {
	bs := l.base.Lookup(col, v)
	as := l.adds.Lookup(col, v)
	return l.combine(bs, as)
}

// combine merges a base bucket with an adds bucket under dels.
func (l *Layered) combine(bs, as []Tuple) []Tuple {
	if l.dels.Len() == 0 && len(as) == 0 {
		return bs
	}
	out := make([]Tuple, 0, len(bs)+len(as))
	if l.dels.Len() == 0 {
		out = append(out, bs...)
	} else {
		for _, t := range bs {
			if !l.dels.Has(t) {
				out = append(out, t)
			}
		}
	}
	return append(out, as...)
}

// Prober returns a per-goroutine probe closure over the layered index.
func (l *Layered) Prober(col int) func(Value) []Tuple {
	bp := l.base.Prober(col)
	ap := l.adds.Prober(col)
	return func(v Value) []Tuple {
		return l.combine(bp(v), ap(v))
	}
}

// Clone materializes the layered view as an independent relation.
func (l *Layered) Clone() *Relation {
	out := NewRelation(l.Arity())
	out.Reserve(l.Len())
	l.Each(func(t Tuple) { out.Insert(t) })
	return out
}

var _ Store = (*Layered)(nil)

// Chain bounds.  A chain grows one layer per write while it stays short
// and mostly alive.  A chain past its length bound merges its layers
// into one (net additions and net tombstones against the same base,
// cost proportional to the layers' rows) and keeps the base store — on
// disk, the base segment with its mapping and built indexes.  The base
// itself is rewritten only when the chain is mostly garbage or the
// merged layer has grown to a fixed fraction of it.  The background
// compactor applies the same rule at a lower length trigger, so chains
// left behind by a write burst shrink even when no further writes
// arrive.
const (
	// MaxChainLinks bounds a chain at write time: a layer that would make
	// the chain longer merges the chain instead.
	MaxChainLinks = 8
	// CompactChainLinks is the background compactor's length trigger: a
	// chain this long or longer merges.
	CompactChainLinks = 4
	// RebaseFraction rewrites the base once a merged layer would hold more
	// than 1/RebaseFraction of its rows: a base rewrite then amortises over
	// at least that many written rows (at most RebaseFraction base rows
	// re-copied per row written), and no merge re-copies more than that
	// fraction of the base.
	RebaseFraction = 8
)

// FoldKind is what Fold decides for a chain.
type FoldKind uint8

const (
	// FoldKeep leaves the chain as it is.
	FoldKeep FoldKind = iota
	// FoldMerge replaces the chain with at most one layer over its base.
	FoldMerge
	// FoldRebase replaces the chain with a fresh base holding its tuples.
	FoldRebase
)

// Fold decides how the chain topped by l folds, for a chain bound of
// maxDepth layers (MaxChainLinks on the write path, one below
// CompactChainLinks in the background).  A chain whose garbage outweighs
// its live rows rebases — each tombstone counts twice, for itself and
// the base row it shadows.  A chain deeper than maxDepth merges, unless
// its merged layer would hold more than 1/RebaseFraction of the base's
// rows, which rebases instead.  Anything else keeps.  merged is what to
// serve: l itself for FoldKeep; for FoldMerge one layer of net
// additions and net tombstones over l's bottom base, or that bare base
// when the chain nets out to nothing; nil for FoldRebase, which is the
// caller's to materialize (Clone in memory, a fresh segment on disk).
// Fold does no I/O and changes nothing.
func (l *Layered) Fold(maxDepth int) (kind FoldKind, merged Store) {
	garbage := 0
	layers := l.layers()
	for _, ly := range layers {
		garbage += 2 * ly.dels.Len()
	}
	if garbage > l.Len() {
		return FoldRebase, nil
	}
	if len(layers) <= maxDepth {
		return FoldKeep, l
	}
	base := layers[len(layers)-1].base
	adds, dels := l.net(layers)
	switch n := adds.Len() + dels.Len(); {
	case n*RebaseFraction > base.Len():
		return FoldRebase, nil
	case n == 0:
		return FoldMerge, base
	}
	return FoldMerge, NewLayered(base, adds, dels)
}

// layers returns the chain topped by l, newest layer first.
func (l *Layered) layers() []*Layered {
	out := []*Layered{l}
	for b, ok := l.base.(*Layered); ok; b, ok = b.base.(*Layered) {
		out = append(out, b)
	}
	return out
}

// net returns the chain's net additions and net tombstones against its
// bottom base.  The oldest layer is already net against the base, so it
// is copied and only the newer layers' rows are probed: the cost is a
// copy of the layers' rows, not a walk of the chain per row.
func (l *Layered) net(layers []*Layered) (adds, dels *Relation) {
	oldest := layers[len(layers)-1]
	adds, dels = oldest.adds.Clone(), oldest.dels.Clone()
	// What the newer layers change, relative to the oldest layer's view: a
	// tuple one of them added counts iff the chain still holds it and that
	// view did not, one they tombstoned iff the chain lacks it and that
	// view held it.  (Added then retracted, or tombstoned then re-added,
	// nets out to nothing.)
	unadd, undel := NewRelation(l.Arity()), NewRelation(l.Arity())
	for _, ly := range layers[:len(layers)-1] {
		ly.adds.Each(func(t Tuple) {
			switch {
			case !l.Has(t) || oldest.Has(t):
			case dels.Has(t): // a tombstoned base row came back
				undel.Insert(t)
			default:
				adds.Insert(t)
			}
		})
		ly.dels.Each(func(t Tuple) {
			switch {
			case l.Has(t) || !oldest.Has(t):
			case adds.Has(t): // a chained addition went away
				unadd.Insert(t)
			default:
				dels.Insert(t)
			}
		})
	}
	adds, _ = adds.Minus(unadd)
	dels, _ = dels.Minus(undel)
	return adds, dels
}
