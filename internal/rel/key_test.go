package rel

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// TestKeyPackingRoundTrip: for the exact arities the packed key decodes
// back to the original columns, including negative and extreme values.
func TestKeyPackingRoundTrip(t *testing.T) {
	values := []Value{0, 1, -1, 2, -2, 127, -128, math.MaxInt32, math.MinInt32, 65535, -65536}
	for _, a := range values {
		k := Tuple{a}.Key()
		if got := Value(uint32(k)); got != a {
			t.Fatalf("arity-1 round trip: %d → key %#x → %d", a, k, got)
		}
		for _, b := range values {
			k := Tuple{a, b}.Key()
			ga := Value(uint32(k >> 32))
			gb := Value(uint32(k))
			if ga != a || gb != b {
				t.Fatalf("arity-2 round trip: (%d,%d) → key %#x → (%d,%d)", a, b, k, ga, gb)
			}
		}
	}
}

// TestKeyExactArities: the packed keys are injective across a dense grid of
// small (interned-style) values plus the negative sentinels.
func TestKeyExactArities(t *testing.T) {
	var values []Value
	for i := Value(0); i < 24; i++ {
		values = append(values, i)
	}
	values = append(values, -1, -2, math.MinInt32, math.MaxInt32)

	seen1 := map[uint64]Tuple{}
	seen2 := map[uint64]Tuple{}
	for _, a := range values {
		t1 := Tuple{a}
		if prev, ok := seen1[t1.Key()]; ok && !prev.Eq(t1) {
			t.Fatalf("arity-1 key collision: %v vs %v", prev, t1)
		}
		seen1[t1.Key()] = t1.Clone()
		for _, b := range values {
			t2 := Tuple{a, b}
			if prev, ok := seen2[t2.Key()]; ok && !prev.Eq(t2) {
				t.Fatalf("arity-2 key collision: %v vs %v", prev, t2)
			}
			seen2[t2.Key()] = t2.Clone()
		}
	}
}

// TestRelationWideArities: relations over hashed keys (arity 3 and 4)
// behave as sets across dense and negative values.
func TestRelationWideArities(t *testing.T) {
	for _, arity := range []int{3, 4} {
		r := NewRelation(arity)
		mk := func(i int) Tuple {
			tu := make(Tuple, arity)
			for c := range tu {
				tu[c] = Value(i*arity + c - 50) // spans negatives
			}
			return tu
		}
		const n = 500
		for i := 0; i < n; i++ {
			if !r.Insert(mk(i)) {
				t.Fatalf("arity %d: tuple %d not new", arity, i)
			}
		}
		for i := 0; i < n; i++ {
			if r.Insert(mk(i)) {
				t.Fatalf("arity %d: duplicate %d accepted", arity, i)
			}
			if !r.Has(mk(i)) {
				t.Fatalf("arity %d: tuple %d missing", arity, i)
			}
		}
		if r.Has(mk(n + 1)) {
			t.Fatalf("arity %d: phantom member", arity)
		}
		if r.Len() != n {
			t.Fatalf("arity %d: Len = %d, want %d", arity, r.Len(), n)
		}
	}
}

// TestCollisionBuckets forces every wide tuple onto a single hash key and
// checks that the overflow buckets still give exact set semantics.
func TestCollisionBuckets(t *testing.T) {
	orig := hashKey
	hashKey = func(Tuple) uint64 { return 42 }
	defer func() { hashKey = orig }()

	r := NewRelation(3)
	tuples := []Tuple{
		{1, 2, 3},
		{3, 2, 1},
		{1, 2, 4},
		{-1, -2, -3},
		{0, 0, 0},
	}
	for i, tu := range tuples {
		if !r.Insert(tu) {
			t.Fatalf("colliding tuple %d not inserted", i)
		}
	}
	for i, tu := range tuples {
		if !r.Has(tu) {
			t.Fatalf("colliding tuple %d missing", i)
		}
		if r.Insert(tu) {
			t.Fatalf("colliding duplicate %d accepted", i)
		}
	}
	if r.Has(Tuple{9, 9, 9}) {
		t.Fatalf("phantom member under collisions")
	}
	if r.Len() != len(tuples) {
		t.Fatalf("Len = %d, want %d", r.Len(), len(tuples))
	}

	// Clone preserves the buckets.
	c := r.Clone()
	if !c.Equal(r) {
		t.Fatalf("clone lost collision buckets")
	}
	c.Insert(Tuple{7, 7, 7})
	if r.Len() != len(tuples) {
		t.Fatalf("clone shares bucket storage")
	}
}

// TestProbePathZeroAllocs: Has (the join/dedup probe) allocates nothing,
// for both packed and hashed keys.
func TestProbePathZeroAllocs(t *testing.T) {
	r2 := NewRelation(2)
	r4 := NewRelation(4)
	for i := Value(0); i < 1000; i++ {
		r2.Insert(Tuple{i, i + 1})
		r4.Insert(Tuple{i, i + 1, i + 2, i + 3})
	}
	hit2, miss2 := Tuple{10, 11}, Tuple{10, 99}
	hit4, miss4 := Tuple{10, 11, 12, 13}, Tuple{10, 11, 12, 99}
	for name, probe := range map[string]func(){
		"arity2-hit":  func() { r2.Has(hit2) },
		"arity2-miss": func() { r2.Has(miss2) },
		"arity4-hit":  func() { r4.Has(hit4) },
		"arity4-miss": func() { r4.Has(miss4) },
	} {
		if n := testing.AllocsPerRun(100, probe); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}
	// Duplicate Insert is also a pure probe.
	if n := testing.AllocsPerRun(100, func() { r2.Insert(hit2) }); n != 0 {
		t.Errorf("duplicate insert: %v allocs/op, want 0", n)
	}
}

// TestReserve: pre-sizing leaves set semantics intact and spares later
// inserts the incremental rehashes.
func TestReserve(t *testing.T) {
	r := NewRelation(2)
	r.Insert(Tuple{-7, -8}) // outside the generated range below
	r.Reserve(5000)
	for i := Value(0); i < 5000; i++ {
		r.Insert(Tuple{i, i + 1})
	}
	if r.Len() != 5001 {
		t.Fatalf("Len = %d, want 5001", r.Len())
	}
	for i := Value(0); i < 5000; i++ {
		if !r.Has(Tuple{i, i + 1}) {
			t.Fatalf("missing tuple %d after Reserve", i)
		}
	}
	if !r.Has(Tuple{-7, -8}) {
		t.Fatalf("pre-Reserve tuple lost")
	}
}

// BenchmarkProbe measures the allocation-free membership probe.
func BenchmarkProbe(b *testing.B) {
	for _, arity := range []int{2, 4} {
		r := NewRelation(arity)
		tu := make(Tuple, arity)
		for i := 0; i < 100000; i++ {
			for c := range tu {
				tu[c] = Value(i + c)
			}
			r.Insert(tu)
		}
		b.Run(map[int]string{2: "packed", 4: "hashed"}[arity], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for c := range tu {
					tu[c] = Value(i%100000 + c)
				}
				if !r.Has(tu) {
					b.Fatal("missing tuple")
				}
			}
		})
	}
}

// BenchmarkInsert measures amortized insert cost with the arena-backed
// tuple copies.
func BenchmarkInsert(b *testing.B) {
	b.ReportAllocs()
	r := NewRelation(2)
	tu := Tuple{0, 0}
	for i := 0; i < b.N; i++ {
		tu[0], tu[1] = Value(i), Value(i>>1)
		r.Insert(tu)
	}
}

// BenchmarkInsertBatch times batches of binary rows entering a relation
// of 64k, 256k or 1M rows (2^17, 2^19 and 2^21 key-table slots), row by
// row through Insert against InsertBatch's slot-ordered path, in ns per
// batch row.  A new batch (a quarter of the table's rows) adds every
// row; a dup batch re-inserts rows already present; the new_Nth
// cases add 1/N of the table's rows.  New rows are drawn from a pool of
// absent rows and the table is pre-sized for the whole pool, so no
// grow lands in the timer; the relation is re-cloned, untimed, when the
// pool runs out.  The sorted path's two bounds come from here: at 2^17
// slots (under minBatchSlots) sorting does not pay, most of all for
// duplicates; at 2^19 slots a sixteenth of the rows (one row per 32
// slots) pays and a sixty-fourth (one per 128) breaks even, so
// batchSlotsPerRow is 64; at 2^21 slots every case pays.
func BenchmarkInsertBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	randomRow := func() Tuple { return Tuple{rng.Int31n(1 << 20), rng.Int31n(1 << 20)} }
	for _, size := range []int{1 << 16, 1 << 18, 1 << 20} {
		base := NewRelation(2)
		for base.Len() < size {
			base.Insert(randomRow())
		}
		base.Reserve(size + size/2)
		var pool []Value // size/2 absent rows
		for seen := NewRelation(2); seen.Len() < size/2; {
			if t := randomRow(); !base.Has(t) && seen.Insert(t) {
				pool = append(pool, t...)
			}
		}
		dup := base.Packed()[:size/2]
		for _, bc := range []struct {
			name string
			rows int
		}{{"new", size / 4}, {"dup", size / 4}, {"new_16th", size / 16}, {"new_64th", size / 64}, {"new_256th", size / 256}} {
			for _, mode := range []string{"row", "sorted"} {
				b.Run(fmt.Sprintf("table=%dk/%s/%s", size>>10, bc.name, mode), func(b *testing.B) {
					var scratch []uint64
					r, next := base, len(pool)
					for i := 0; i < b.N; i++ {
						buf := dup
						if bc.name != "dup" {
							if next+2*bc.rows > len(pool) {
								b.StopTimer()
								r, next = base.Clone(), 0
								runtime.GC()
								b.StartTimer()
							}
							buf, next = pool[next:next+2*bc.rows], next+2*bc.rows
						}
						if mode == "sorted" {
							r.insertSorted(&scratch, bc.rows, nil, [][]Value{buf})
							continue
						}
						for off := 0; off < len(buf); off += 2 {
							r.Insert(buf[off : off+2])
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bc.rows), "ns/row")
				})
			}
		}
	}
}

// TestSparseIndexValues: huge positive and negative column values take the
// sparse map path instead of sizing a dense array by the raw value.
func TestSparseIndexValues(t *testing.T) {
	r := NewRelation(2)
	r.Insert(Tuple{1 << 30, 1})
	r.Insert(Tuple{-5, 2})
	r.Insert(Tuple{3, 3})
	if got := r.Lookup(0, 1<<30); len(got) != 1 || got[0][1] != 1 {
		t.Fatalf("huge value lookup = %v", got)
	}
	if got := r.Lookup(0, -5); len(got) != 1 || got[0][1] != 2 {
		t.Fatalf("negative value lookup = %v", got)
	}
	if got := r.Lookup(0, 3); len(got) != 1 || got[0][1] != 3 {
		t.Fatalf("dense value lookup = %v", got)
	}
	if got := r.Lookup(0, 4); got != nil {
		t.Fatalf("absent value lookup = %v", got)
	}
	if n := len(r.index(0).rows); n != 3 {
		t.Fatalf("index holds %d rows, want 3", n)
	}
}
