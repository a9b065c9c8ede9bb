package segment

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"linrec/internal/rel"
)

// budgetedLazy writes mem's rows as a segment file and returns a lazy
// store over it, budgeted by b (nil: unbudgeted).
func budgetedLazy(t *testing.T, dir, name string, mem *rel.Relation, b *Budget) *Lazy {
	t.Helper()
	path := filepath.Join(dir, name+".seg")
	sum, _, err := writeSegment(path, mem.Arity(), mem.Packed())
	if err != nil {
		t.Fatal(err)
	}
	l := NewLazy(name, path, mem.Arity(), mem.Len(), sum)
	l.budget = b
	return l
}

// evictAll drops every resident artifact of b, as pressure would.
func evictAll(b *Budget) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.evictOneLocked(nil) {
	}
}

// sameBucket compares two probe answers row by row, empty equal to absent.
func sameBucket(got, want []rel.Tuple) bool {
	return len(got)+len(want) == 0 || reflect.DeepEqual(got, want)
}

// checkLazyAgrees asserts the lazy store scans, probes and copies as
// the in-memory relation over the same rows does.
func checkLazyAgrees(t *testing.T, what string, l *Lazy, mem *rel.Relation) {
	t.Helper()
	for i := 0; i < mem.Len(); i++ {
		if got := l.Row(i); !got.Eq(mem.Row(i)) {
			t.Fatalf("%s: Row(%d) = %v, want %v", what, i, got, mem.Row(i))
		}
	}
	n := 0
	l.Each(func(tp rel.Tuple) {
		if !tp.Eq(mem.Row(n)) {
			t.Fatalf("%s: Each row %d = %v, want %v", what, n, tp, mem.Row(n))
		}
		n++
	})
	if n != mem.Len() {
		t.Fatalf("%s: Each yielded %d rows, want %d", what, n, mem.Len())
	}
	if got, want := l.Clone().Tuples(), mem.Tuples(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Clone diverges", what)
	}
	vals := map[rel.Value]bool{-1 << 31: true, 1<<31 - 1: true}
	mem.Each(func(tp rel.Tuple) {
		for _, v := range tp {
			vals[v], vals[v+1] = true, true
		}
	})
	for col := 0; col < mem.Arity(); col++ {
		probe, memProbe := l.Prober(col), mem.Prober(col)
		for v := range vals {
			want := mem.Lookup(col, v)
			if got := l.Lookup(col, v); !sameBucket(got, want) {
				t.Fatalf("%s: Lookup(%d, %d) = %v, want %v", what, col, v, got, want)
			}
			if got := probe(v); !sameBucket(got, memProbe(v)) {
				t.Fatalf("%s: Prober(%d)(%d) = %v, want %v", what, col, v, got, want)
			}
		}
	}
	mem.Each(func(tp rel.Tuple) {
		if !l.Has(tp) {
			t.Fatalf("%s: Has(%v) = false", what, tp)
		}
		miss := tp.Clone()
		miss[len(miss)-1]++
		if l.Has(miss) != mem.Has(miss) {
			t.Fatalf("%s: Has(%v) = %v, want %v", what, miss, l.Has(miss), mem.Has(miss))
		}
	})
}

// TestLazyIndexEquivalence: a budgeted Lazy — promoted for membership
// or not — answers Row, Each, Clone, Lookup, Prober and Has as an
// in-memory Relation over the same rows does — and so does an
// unbudgeted Lazy over the same file — over random data with
// negative values, values ≥ 1<<20 (the index's outlier map) and dense
// windows far from zero, both on first build and after an eviction
// forces every index and key table to rebuild.
func TestLazyIndexEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	dir := t.TempDir()
	gens := []func() rel.Value{
		func() rel.Value { return rel.Value(60000 + rng.Intn(40)) },
		func() rel.Value { return rel.Value(rng.Intn(30) - 15) },
		func() rel.Value { return rel.Value(1<<20 + rng.Intn(6)) },
		func() rel.Value { return rel.Value(rng.Int31()) },
	}
	for trial := 0; trial < 24; trial++ {
		arity := 1 + trial%3
		mem := rel.NewRelation(arity)
		for n := 1 + rng.Intn(300); mem.Len() < n; {
			tp := make(rel.Tuple, arity)
			for k := range tp {
				tp[k] = gens[rng.Intn(len(gens))]()
			}
			mem.Insert(tp)
		}
		// An ample cap promotes the key table for Has; one just under
		// four key tables leaves Has on the column-0 index.
		capBytes := int64(1 << 20)
		if trial%2 == 1 {
			capBytes = 4*rel.KeyTableBytes(mem.Len()) - 1
		}
		b := NewBudget(capBytes)
		l := budgetedLazy(t, dir, fmt.Sprintf("p%d", trial), mem, b)
		checkLazyAgrees(t, fmt.Sprintf("trial %d", trial), l, mem)
		checkLazyAgrees(t, fmt.Sprintf("trial %d unbudgeted", trial), budgetedLazy(t, dir, fmt.Sprintf("u%d", trial), mem, nil), mem)
		pinned := l.Prober(0)
		pinned(mem.Row(0)[0])
		evictAll(b)
		if l.Resident() {
			t.Fatalf("trial %d: artifacts resident after eviction", trial)
		}
		if got, want := pinned(mem.Row(0)[0]), mem.Lookup(0, mem.Row(0)[0]); !sameBucket(got, want) {
			t.Fatalf("trial %d: a Prober pinned across eviction = %v, want %v", trial, got, want)
		}
		checkLazyAgrees(t, fmt.Sprintf("trial %d after eviction", trial), l, mem)
	}
}

// TestBudgetChargesLayout: the budget charges an index at the bytes its
// layout holds — 4-byte offsets over the column's [min, max] window plus
// a 24-byte row view per row — and a promoted store at its key table's,
// and under pressure the peak stays within the cap.
func TestBudgetChargesLayout(t *testing.T) {
	dir := t.TempDir()
	const rows = 200
	mem := rel.NewRelation(2)
	for i := 0; i < rows; i++ {
		mem.Insert(rel.Tuple{rel.Value(5000 + i/2), rel.Value(i)})
	}
	b := NewBudget(1 << 20)
	l := budgetedLazy(t, dir, "e", mem, b)
	l.Lookup(0, 5000)
	index0 := int64(4*(rows/2+1) + 24*rows + 64)
	if got := b.Stats().UsedBytes; got != index0 {
		t.Fatalf("charge after one index = %d, want %d", got, index0)
	}
	l.Has(mem.Row(0))
	table := int64(256 * 12) // 200 + 200/7 + 1 slots, rounded up to a power of two
	if got := b.Stats().UsedBytes; got != index0+table || rel.KeyTableBytes(rows) != table {
		t.Fatalf("charge after promotion = %d, want %d", got, index0+table)
	}
	res := l.res.Load()
	if res.cost != res.idx[0].Bytes()+rel.KeyTableBytes(rows) {
		t.Fatalf("residency cost %d is not its layout's bytes", res.cost)
	}

	// Eight stores under a cap of about two indexes: probing them all
	// evicts, and the peak never passes the cap.
	small := NewBudget(2*index0 + index0/2)
	var stores []*Lazy
	for p := 0; p < 8; p++ {
		stores = append(stores, budgetedLazy(t, dir, fmt.Sprintf("s%d", p), mem, small))
	}
	for round := 0; round < 3; round++ {
		for _, s := range stores {
			if got := s.Lookup(0, 5001); len(got) != 2 {
				t.Fatalf("Lookup = %v", got)
			}
		}
	}
	st := small.Stats()
	if st.PeakBytes > st.CapBytes || st.Evictions == 0 {
		t.Fatalf("peak %d over cap %d, or no evictions (%d)", st.PeakBytes, st.CapBytes, st.Evictions)
	}
}

// TestUnbudgetedLazyScanBuildsNothing: with or without a budget a lazy
// store runs one residency path.  Row and Each scan the mapping and
// build nothing — no key table, no index — until a probe asks; one Has
// then promotes a key table, and the segment is mapped exactly once
// (the manager's segment.lazy_loads counter).
func TestUnbudgetedLazyScanBuildsNothing(t *testing.T) {
	dir := t.TempDir()
	mem := rel.NewRelation(2)
	for i := 0; i < 100; i++ {
		mem.Insert(rel.Tuple{rel.Value(i), rel.Value(i + 1)})
	}
	for _, b := range []*Budget{nil, NewBudget(1 << 20)} {
		what := fmt.Sprintf("budget %v", b != nil)
		l := budgetedLazy(t, dir, fmt.Sprintf("e%v", b != nil), mem, b)
		loads := 0
		l.onLoad = func(time.Duration, int64) { loads++ }
		n := 0
		l.Each(func(rel.Tuple) { n++ })
		for i := 0; i < l.Len(); i++ {
			if !l.Row(i).Eq(mem.Row(i)) {
				t.Fatalf("%s: Row(%d) = %v", what, i, l.Row(i))
			}
		}
		if n != mem.Len() || !l.Loaded() {
			t.Fatalf("%s: Each yielded %d rows, loaded %v", what, n, l.Loaded())
		}
		if l.Resident() || l.res.Load() != nil {
			t.Fatalf("%s: a scan built residency artifacts", what)
		}
		if !l.Has(mem.Row(7)) || l.Has(rel.Tuple{7, 7}) {
			t.Fatalf("%s: Has wrong", what)
		}
		if res := l.res.Load(); !l.Resident() || res == nil || res.rel == nil {
			t.Fatalf("%s: Has did not promote a key table", what)
		}
		if got := l.Lookup(1, 8); len(got) != 1 || !got[0].Eq(rel.Tuple{7, 8}) {
			t.Fatalf("%s: Lookup(1, 8) = %v", what, got)
		}
		if loads != 1 {
			t.Fatalf("%s: segment mapped %d times, want 1", what, loads)
		}
	}
}
