package rel

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// scanLookup is the index oracle: the rows of data whose column col
// holds v, in row order.
func scanLookup(data []Value, arity, col int, v Value) []Tuple {
	var out []Tuple
	for off := 0; off < len(data); off += arity {
		if data[off+col] == v {
			out = append(out, Tuple(data[off:off+arity]))
		}
	}
	return out
}

// sameRows compares bucket contents and order, an empty bucket equal to
// an absent one.
func sameRows(got, want []Tuple) bool {
	return len(got)+len(want) == 0 || reflect.DeepEqual(got, want)
}

// TestIndexMatchesScan: NewIndex holds every row once and answers every
// value of every column (and its neighbours) as a scan would, in row order, over dense windows far from zero,
// negatives, values ≥ 1<<20 (the outliers' map), windows too wide for
// their row count (every value an outlier) and the empty relation.
func TestIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gens := []func() Value{
		func() Value { return Value(60000 + rng.Intn(8)) },
		func() Value { return Value(rng.Intn(50)) },
		func() Value { return Value(rng.Intn(40) - 20) },
		func() Value { return Value(1<<20 + rng.Intn(4)) },
		func() Value { return Value(rng.Intn(1 << 19)) },
		func() Value { return Value(rng.Int31()) - 1<<30 },
	}
	for trial := 0; trial < 300; trial++ {
		arity := 1 + rng.Intn(3)
		n := rng.Intn(64)
		if trial%10 == 0 {
			n = 0
		}
		data := make([]Value, n*arity)
		for i := range data {
			data[i] = gens[rng.Intn(len(gens))]()
			if trial%3 == 0 {
				data[i] = gens[trial%len(gens)]()
			}
		}
		for col := 0; col < arity; col++ {
			ix := NewIndex(data, arity, col)
			if len(ix.rows) != n {
				t.Fatalf("trial %d: %d rows, want %d", trial, len(ix.rows), n)
			}
			want := map[Value][]Tuple{}
			for off := 0; off < len(data); off += arity {
				v := data[off+col]
				want[v] = scanLookup(data, arity, col, v)
			}
			probes := []Value{-1 << 31, -1, 0, 1<<20 - 1, 1 << 20, 1<<31 - 1}
			for v := range want {
				probes = append(probes, v-1, v, v+1)
			}
			for _, v := range probes {
				if got := ix.Lookup(v); !sameRows(got, want[v]) {
					t.Fatalf("trial %d col %d: Lookup(%d) = %v, want %v", trial, col, v, got, want[v])
				}
			}
		}
	}
}

// TestSmallRelationIndexBytes: an 8-row relation over symbols near
// 60 000 — an overlay layer of a served database — indexes at its own
// size.  Sizing the dense buckets by the largest value instead of the
// value range cost 3.6 MB here.
func TestSmallRelationIndexBytes(t *testing.T) {
	r := NewRelation(2)
	for i := Value(0); i < 8; i++ {
		r.Insert(Tuple{60000 + i, 60010 + i})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := r.Lookup(0, 60003)
	runtime.ReadMemStats(&after)
	if len(got) != 1 || got[0][1] != 60013 {
		t.Fatalf("Lookup = %v", got)
	}
	if b := after.TotalAlloc - before.TotalAlloc; b > 64<<10 {
		t.Fatalf("first Lookup allocated %d bytes, want ≤ 64 KB", b)
	}
}

// TestProberSeesLaterInsert: a Prober resolved before an Insert probes
// the rebuilt index afterwards, as it did when indexes were maintained
// in place.
func TestProberSeesLaterInsert(t *testing.T) {
	r := NewRelation(2)
	r.Insert(Tuple{1, 10})
	probe := r.Prober(0)
	if got := probe(1); len(got) != 1 {
		t.Fatalf("probe(1) = %v", got)
	}
	r.Insert(Tuple{1, 11})
	r.Insert(Tuple{2, 12})
	if got := probe(1); len(got) != 2 {
		t.Fatalf("probe(1) after insert = %v, want 2 rows", got)
	}
	if got := probe(2); len(got) != 1 {
		t.Fatalf("probe(2) after insert = %v, want 1 row", got)
	}
}

// BenchmarkNewIndex times the bulk build a cold predicate's first probe
// pays, over 2000 rows of symbols in a dense window.
func BenchmarkNewIndex(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := make([]Value, 2*2000)
	for i := range data {
		data[i] = Value(rng.Intn(2000))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		indexSink = NewIndex(data, 2, 0)
	}
}

var indexSink *Index
