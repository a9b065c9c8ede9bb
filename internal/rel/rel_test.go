package rel

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSymtabIntern(t *testing.T) {
	s := NewSymtab()
	a := s.Intern("a")
	b := s.Intern("b")
	if a == b {
		t.Fatalf("distinct names share a value")
	}
	if s.Intern("a") != a {
		t.Fatalf("re-interning changed the value")
	}
	if s.Name(a) != "a" || s.Name(b) != "b" {
		t.Fatalf("Name round-trip failed")
	}
	if _, ok := s.Lookup("c"); ok {
		t.Fatalf("Lookup invented a symbol")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Name(99) != "#99" {
		t.Fatalf("out-of-range Name = %q", s.Name(99))
	}
}

// TestSymtabCeiling: at its ceiling the table still resolves known
// names and panics instead of wrapping on a new one.
func TestSymtabCeiling(t *testing.T) {
	defer func(n int) { maxSymbols = n }(maxSymbols)
	maxSymbols = 3
	s := NewSymtab()
	for _, name := range []string{"a", "b", "c"} {
		s.Intern(name)
	}
	if v := s.Intern("b"); v != 1 {
		t.Fatalf("known name at the ceiling interned as %d, want 1", v)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("interning a new name past the ceiling did not panic")
			}
		}()
		s.Intern("d")
	}()
	if _, ok := s.Lookup("d"); ok || s.Len() != 3 {
		t.Fatalf("the refused name was interned: Len %d", s.Len())
	}
}

func TestRelationInsertHas(t *testing.T) {
	r := NewRelation(2)
	if !r.Insert(Tuple{1, 2}) {
		t.Fatalf("first insert not new")
	}
	if r.Insert(Tuple{1, 2}) {
		t.Fatalf("duplicate insert reported new")
	}
	if !r.Has(Tuple{1, 2}) || r.Has(Tuple{2, 1}) {
		t.Fatalf("membership wrong")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestInsertCopiesTuple(t *testing.T) {
	r := NewRelation(2)
	tu := Tuple{1, 2}
	r.Insert(tu)
	tu[0] = 9
	if !r.Has(Tuple{1, 2}) {
		t.Fatalf("relation shares storage with caller")
	}
}

func TestInsertWrongArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("no panic on arity mismatch")
		}
	}()
	NewRelation(2).Insert(Tuple{1})
}

func TestIndexAndSelect(t *testing.T) {
	r := NewRelation(2)
	r.Insert(Tuple{1, 10})
	r.Insert(Tuple{1, 11})
	r.Insert(Tuple{2, 12})
	if len(r.Lookup(0, 1)) != 2 || len(r.Lookup(0, 2)) != 1 || len(r.Lookup(0, 3)) != 0 {
		t.Fatalf("index contents wrong: %v %v", r.Lookup(0, 1), r.Lookup(0, 2))
	}
	// Index stays correct across later inserts.
	r.Insert(Tuple{1, 13})
	if len(r.Lookup(0, 1)) != 3 {
		t.Fatalf("index not maintained after insert")
	}
	sel := r.Filter(func(t Tuple) bool { return t[0] == 1 })
	if sel.Len() != 3 || !sel.Has(Tuple{1, 13}) {
		t.Fatalf("selection returned %v", sel.Tuples())
	}
}

func TestTuplesDeterministicOrder(t *testing.T) {
	r := NewRelation(2)
	r.Insert(Tuple{2, 1})
	r.Insert(Tuple{1, 2})
	r.Insert(Tuple{1, 1})
	ts := r.Tuples()
	if ts[0][0] != 1 || ts[0][1] != 1 || ts[2][0] != 2 {
		t.Fatalf("Tuples order = %v", ts)
	}
}

func TestUnionIntoAndEqual(t *testing.T) {
	a := NewRelation(1)
	a.Insert(Tuple{1})
	b := NewRelation(1)
	b.Insert(Tuple{1})
	b.Insert(Tuple{2})
	if a.Equal(b) {
		t.Fatalf("unequal relations reported equal")
	}
	added := a.UnionInto(b)
	if added != 1 || !a.Equal(b) {
		t.Fatalf("UnionInto added %d; equal=%v", added, a.Equal(b))
	}
}

func TestFilter(t *testing.T) {
	r := NewRelation(2)
	r.Insert(Tuple{1, 5})
	r.Insert(Tuple{2, 6})
	f := r.Filter(func(t Tuple) bool { return t[1] == 5 })
	if f.Len() != 1 || !f.Has(Tuple{1, 5}) {
		t.Fatalf("Filter = %v", f.Tuples())
	}
}

func TestCloneIndependence(t *testing.T) {
	r := NewRelation(1)
	r.Insert(Tuple{1})
	c := r.Clone()
	c.Insert(Tuple{2})
	if r.Len() != 1 {
		t.Fatalf("Clone shares storage")
	}
}

func TestDBRel(t *testing.T) {
	db := DB{}
	r := db.Rel("e", 2)
	if r.Arity() != 2 {
		t.Fatalf("arity = %d", r.Arity())
	}
	if db.Rel("e", 2) != r {
		t.Fatalf("Rel not idempotent")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("no panic on arity conflict")
		}
	}()
	db.Rel("e", 3)
}

// TestTupleKeyInjective: for arity ≤ 2 the packed key is exact — distinct
// same-arity tuples have distinct keys; for wider tuples the key is a hash,
// so only the soundness direction (equal tuples → equal keys) is guaranteed
// (property-based, testing/quick).
func TestTupleKeyInjective(t *testing.T) {
	f := func(a, b []int32) bool {
		ta := Tuple(a)
		tb := Tuple(b)
		if len(ta) != len(tb) {
			return true // keys only compared within a relation (fixed arity)
		}
		eq := ta.Eq(tb)
		if len(ta) <= 2 {
			return (ta.Key() == tb.Key()) == eq
		}
		if eq {
			return ta.Key() == tb.Key()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestInsertIdempotentProperty: inserting any tuple twice leaves Len
// unchanged the second time (testing/quick).
func TestInsertIdempotentProperty(t *testing.T) {
	f := func(vals []int32) bool {
		if len(vals) == 0 {
			return true
		}
		r := NewRelation(len(vals))
		first := r.Insert(Tuple(vals))
		second := r.Insert(Tuple(vals))
		return first && !second && r.Len() == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestMinusRandomized drives both Minus paths (the patch path for small
// deletions, the rebuild path for large ones) against a naive filter
// oracle, then checks the survivor is fully usable: membership, row
// iteration, further inserts, and probe chains after backshift deletion.
func TestMinusRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		arity := 1 + trial%3
		r := NewRelation(arity)
		n := 1 + rng.Intn(400)
		for i := 0; i < n; i++ {
			t0 := make(Tuple, arity)
			for k := range t0 {
				t0[k] = Value(rng.Intn(60))
			}
			r.Insert(t0)
		}
		remove := NewRelation(arity)
		// Mix present rows with absent tuples; vary the fraction so both
		// the ≤n/8 patch path and the rebuild path run.
		frac := []int{1, 3, 10, 200}[trial%4]
		for i := 0; i < r.Len(); i++ {
			if rng.Intn(200) < frac {
				remove.Insert(r.Row(i))
			}
		}
		for i := 0; i < 5; i++ {
			t0 := make(Tuple, arity)
			for k := range t0 {
				t0[k] = Value(60 + rng.Intn(10))
			}
			remove.Insert(t0)
		}

		got, dropped := r.Minus(remove)
		want := r.Filter(func(t0 Tuple) bool { return !remove.Has(t0) })
		if dropped != r.Len()-want.Len() {
			t.Fatalf("trial %d: dropped = %d, want %d", trial, dropped, r.Len()-want.Len())
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: Minus disagrees with filter oracle", trial)
		}
		if dropped == 0 && got != r {
			t.Fatalf("trial %d: no-op Minus did not return the receiver", trial)
		}
		// Survivor must remain a healthy set: every row findable, every
		// removed row gone, and inserts still deduplicate correctly.
		for i := 0; i < got.Len(); i++ {
			if !got.Has(got.Row(i)) {
				t.Fatalf("trial %d: survivor row %d not found by Has", trial, i)
			}
		}
		remove.Each(func(t0 Tuple) {
			if got.Has(t0) {
				t.Fatalf("trial %d: removed tuple still present", trial)
			}
		})
		if dropped > 0 {
			back := remove.Row(0)
			if !got.Insert(back.Clone()) {
				t.Fatalf("trial %d: re-inserting a removed tuple not new", trial)
			}
			if got.Insert(back.Clone()) {
				t.Fatalf("trial %d: duplicate re-insert reported new", trial)
			}
		}
	}
}
