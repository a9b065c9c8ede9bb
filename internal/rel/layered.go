package rel

import "sync"

// Layered is a Store presenting base − dels + adds without
// materializing the result: one immutable overlay layer over an
// arbitrary base store.  It is the in-memory shape of a persisted
// delta chain — a copy-on-write fact update that touches a slice of a
// disk-backed predicate wraps the previous store in one Layered
// carrying just the changed tuples, and the segment manager publishes
// exactly that overlay as a delta segment chained onto the base
// instead of rewriting the whole relation.  Chains deepen by one layer
// per snapshot swap and are folded back into a single segment by
// compaction.
//
// Invariants (maintained by the constructors in core and segment, not
// re-checked here): dels ⊆ the base's tuples, adds ∩ the base's
// effective tuples = ∅, and adds ∩ dels = ∅.  They are what make Len
// answerable from layer metadata alone — base.Len() − dels.Len() +
// adds.Len() — so a booted chain still reports its row count without
// touching segment data.
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
func (l *Layered) Depth() int {
	d := 1
	for b, ok := l.base.(*Layered); ok; b, ok = b.base.(*Layered) {
		d++
	}
	return d
}

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
