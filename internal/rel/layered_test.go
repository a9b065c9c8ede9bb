package rel

import (
	"math/rand"
	"reflect"
	"testing"
)

// layeredOracle builds a Layered store plus the flat Relation it must
// behave identically to: base minus dels plus adds.
func layeredOracle(t *testing.T, baseRows, delRows, addRows [][]Value) (*Layered, *Relation) {
	t.Helper()
	arity := len(baseRows[0])
	base, adds, dels := NewRelation(arity), NewRelation(arity), NewRelation(arity)
	oracle := NewRelation(arity)
	for _, r := range baseRows {
		base.Insert(Tuple(r))
		oracle.Insert(Tuple(r))
	}
	for _, r := range delRows {
		if !base.Has(Tuple(r)) {
			t.Fatalf("oracle: del %v not in base", r)
		}
		dels.Insert(Tuple(r))
	}
	oracle, _ = oracle.Minus(dels)
	for _, r := range addRows {
		if base.Has(Tuple(r)) && !dels.Has(Tuple(r)) {
			t.Fatalf("oracle: add %v already effective in base", r)
		}
		adds.Insert(Tuple(r))
		oracle.Insert(Tuple(r))
	}
	return NewLayered(base, adds, dels), oracle
}

// checkLayeredContract asserts every Store method on ly agrees with
// the flat oracle.
func checkLayeredContract(t *testing.T, ly *Layered, oracle *Relation) {
	t.Helper()
	if ly.Arity() != oracle.Arity() || ly.Len() != oracle.Len() {
		t.Fatalf("shape: layered %dx%d, oracle %dx%d", ly.Len(), ly.Arity(), oracle.Len(), oracle.Arity())
	}
	if got := ly.Clone().Tuples(); !reflect.DeepEqual(got, oracle.Tuples()) {
		t.Fatalf("Clone: %v != %v", got, oracle.Tuples())
	}
	// Row must enumerate exactly the tuple set, each exactly once.
	seen := NewRelation(ly.Arity())
	for i := 0; i < ly.Len(); i++ {
		tp := ly.Row(i)
		if !oracle.Has(tp) {
			t.Fatalf("Row(%d) = %v not in oracle", i, tp)
		}
		if !seen.Insert(tp.Clone()) {
			t.Fatalf("Row(%d) = %v repeated", i, tp)
		}
	}
	count := 0
	ly.Each(func(tp Tuple) {
		count++
		if !oracle.Has(tp) {
			t.Fatalf("Each yielded %v not in oracle", tp)
		}
	})
	if count != oracle.Len() {
		t.Fatalf("Each yielded %d tuples, want %d", count, oracle.Len())
	}
	// Membership and per-column probes across every value either side
	// mentions.
	vals := map[Value]bool{}
	for _, tp := range oracle.Tuples() {
		for _, v := range tp {
			vals[v] = true
		}
	}
	vals[Value(9999)] = true // absent value
	for col := 0; col < ly.Arity(); col++ {
		probe := ly.Prober(col)
		for v := range vals {
			want := oracle.Lookup(col, v)
			if got := ly.Lookup(col, v); !sameTupleSet(got, want) {
				t.Fatalf("Lookup(%d, %d): %v != %v", col, v, got, want)
			}
			if got := probe(v); !sameTupleSet(got, want) {
				t.Fatalf("Prober(%d)(%d): %v != %v", col, v, got, want)
			}
		}
	}
	for _, tp := range oracle.Tuples() {
		if !ly.Has(tp) {
			t.Fatalf("Has(%v) = false", tp)
		}
	}
	if ly.Has(Tuple{9999, 9999}) {
		t.Fatalf("Has(absent) = true")
	}
}

func sameTupleSet(a, b []Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for _, x := range a {
		found := false
		for _, y := range b {
			if x.Eq(y) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func TestLayeredStoreContract(t *testing.T) {
	cases := []struct {
		name             string
		base, dels, adds [][]Value
	}{
		{"adds only", [][]Value{{0, 1}, {1, 2}}, nil, [][]Value{{2, 3}, {3, 4}}},
		{"dels only", [][]Value{{0, 1}, {1, 2}, {2, 3}}, [][]Value{{1, 2}}, nil},
		{"both", [][]Value{{0, 1}, {1, 2}, {2, 3}}, [][]Value{{0, 1}, {2, 3}}, [][]Value{{5, 5}, {0, 2}}},
		{"all deleted", [][]Value{{0, 1}, {1, 2}}, [][]Value{{0, 1}, {1, 2}}, [][]Value{{7, 7}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ly, oracle := layeredOracle(t, tc.base, tc.dels, tc.adds)
			checkLayeredContract(t, ly, oracle)
		})
	}
}

// randomChain builds a chain of depth layers over a random base, the
// shape successive snapshot swaps produce, with the flat relation it
// must equal.  Each layer adds fresh tuples, re-adds tuples an earlier
// layer tombstoned, and tombstones live ones — base rows and chained
// additions alike.
func randomChain(rng *rand.Rand, depth int) (*Layered, *Relation) {
	base := NewRelation(2)
	oracle := NewRelation(2)
	for i := 0; i < 30; i++ {
		tp := Tuple{Value(rng.Intn(10)), Value(rng.Intn(10))}
		base.Insert(tp)
		oracle.Insert(tp.Clone())
	}
	var cur Store = base
	var gone []Tuple
	for d := 0; d < depth; d++ {
		adds, dels := NewRelation(2), NewRelation(2)
		for i := 0; i < 6; i++ {
			tp := Tuple{Value(rng.Intn(10) + 10*(d+1)), Value(rng.Intn(10))}
			if i%3 == 2 && len(gone) > 0 {
				tp = gone[rng.Intn(len(gone))]
			}
			if !cur.Has(tp) && adds.Insert(tp) {
				oracle.Insert(tp.Clone())
			}
		}
		live := cur.Clone().Tuples()
		for i := 0; i < 4 && len(live) > 0; i++ {
			tp := live[rng.Intn(len(live))]
			if dels.Insert(tp.Clone()) {
				gone = append(gone, tp)
				oracle, _ = oracle.Minus(dels)
			}
		}
		cur = NewLayered(cur, adds, dels)
	}
	return cur.(*Layered), oracle
}

// TestLayeredStoreContractRandom drives the contract over randomized
// chains two layers deep and one past MaxChainLinks, and holds the
// merge algebra to it: a chain's net layer over its bottom base serves
// exactly the chain's tuples.
func TestLayeredStoreContractRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		for _, depth := range []int{2, MaxChainLinks + 1} {
			ly, oracle := randomChain(rng, depth)
			if ly.Depth() != depth {
				t.Fatalf("depth = %d, want %d", ly.Depth(), depth)
			}
			checkLayeredContract(t, ly, oracle)
			layers := ly.layers()
			adds, dels := ly.net(layers)
			checkLayeredContract(t, NewLayered(layers[len(layers)-1].base, adds, dels), oracle)
		}
	}
}

// chainOver stacks one layer per step over base; a step adds its rows
// named by positive numbers n (as {n, 0}) and tombstones those named by
// negative ones.
func chainOver(base Store, steps ...[]int) *Layered {
	cur := base
	for _, step := range steps {
		adds, dels := NewRelation(2), NewRelation(2)
		for _, n := range step {
			if n > 0 {
				adds.Insert(Tuple{Value(n), 0})
			} else {
				dels.Insert(Tuple{Value(-n), 0})
			}
		}
		cur = NewLayered(cur, adds, dels)
	}
	return cur.(*Layered)
}

// TestFoldDecision: Fold's policy on hand-built chains over a base of
// rows {1..n, 0}.
func TestFoldDecision(t *testing.T) {
	ones := func(from, n int) [][]int { // n steps adding from, from+1, ...
		out := make([][]int, n)
		for i := range out {
			out[i] = []int{from + i}
		}
		return out
	}
	cases := []struct {
		name     string
		base     int
		steps    [][]int
		want     FoldKind
		netAdds  int // for a merge: rows of the merged layer, -1 for the bare base
		netDels  int
		maxDepth int
	}{
		{"short chain keeps", 100, ones(1000, MaxChainLinks), FoldKeep, 0, 0, MaxChainLinks},
		{"chain past the length bound merges", 100, ones(1000, MaxChainLinks+1), FoldMerge, MaxChainLinks + 1, 0, MaxChainLinks},
		{"background trigger merges sooner", 100, ones(1000, CompactChainLinks), FoldMerge, CompactChainLinks, 0, CompactChainLinks - 1},
		{"garbage past live rows rebases", 6, [][]int{{-1, -2}, {-3, -4}}, FoldRebase, 0, 0, MaxChainLinks},
		{"garbage equal to live rows keeps", 6, [][]int{{-1, -2}}, FoldKeep, 0, 0, MaxChainLinks},
		{"merged layer past base/RebaseFraction rebases", 8*(MaxChainLinks+1) - 1, ones(1000, MaxChainLinks+1), FoldRebase, 0, 0, MaxChainLinks},
		{"merged layer at base/RebaseFraction merges", 8 * (MaxChainLinks + 1), ones(1000, MaxChainLinks+1), FoldMerge, MaxChainLinks + 1, 0, MaxChainLinks},
		{"net tombstones and re-adds merge", 100, [][]int{{-1, 1000}, {1}, {-2}, {-1000, 1001}, {-3}, {3}, {1002}, {-1001}, {-4}}, FoldMerge, 1, 2, MaxChainLinks},
		{"changes netting out return the bare base", 100, [][]int{{1000}, {-1000}, {-1}, {1}, {1001, -2}, {-1001}, {2}, {1002}, {-1002}}, FoldMerge, -1, 0, MaxChainLinks},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := NewRelation(2)
			for i := 1; i <= tc.base; i++ {
				base.Insert(Tuple{Value(i), 0})
			}
			top := chainOver(base, tc.steps...)
			kind, merged := top.Fold(tc.maxDepth)
			if kind != tc.want {
				t.Fatalf("Fold = %v, want %v", kind, tc.want)
			}
			switch {
			case kind == FoldKeep && merged != top:
				t.Fatalf("a kept chain came back as %T", merged)
			case kind == FoldRebase && merged != nil:
				t.Fatalf("a rebase came back with a store %T", merged)
			case kind == FoldMerge && tc.netAdds < 0:
				if merged != base {
					t.Fatalf("a chain netting out to nothing merged to %T, want the bare base", merged)
				}
			case kind == FoldMerge:
				ly, ok := merged.(*Layered)
				if !ok || ly.Base() != base || ly.Adds().Len() != tc.netAdds || ly.Dels().Len() != tc.netDels {
					t.Fatalf("merged = %T, want one layer of %d adds and %d dels over the base", merged, tc.netAdds, tc.netDels)
				}
			}
			if kind == FoldMerge && !merged.Clone().Equal(top.Clone()) {
				t.Fatalf("merged chain holds %v, the chain %v", merged.Clone().Tuples(), top.Clone().Tuples())
			}
		})
	}
}

// TestSelectInColsOverStores: SelectInCols reads any Store — over a
// layered store and over the flat relation it keeps exactly the rows
// whose projection is allowed, on both the index-probe path (allowed
// much smaller than the store) and the scan path.
func TestSelectInColsOverStores(t *testing.T) {
	var base, dels, adds [][]Value
	for i := 0; i < 40; i++ {
		base = append(base, []Value{Value(i % 8), Value(i)})
	}
	dels = base[:10]
	for i := 0; i < 8; i++ {
		adds = append(adds, []Value{Value(i), Value(100 + i)})
	}
	ly, oracle := layeredOracle(t, base, dels, adds)
	for _, tc := range []struct {
		cols    []int
		allowed []Tuple
	}{
		{[]int{0}, []Tuple{{3}}},
		{[]int{0, 1}, []Tuple{{2, 18}, {2, 102}, {1, 1}}},
		{[]int{0}, []Tuple{{0}, {1}, {2}, {3}, {4}, {5}, {6}}},
		{[]int{1}, []Tuple{{5}, {15}, {25}, {35}, {103}, {7}, {17}}},
	} {
		allowed := NewRelation(len(tc.cols))
		for _, a := range tc.allowed {
			allowed.Insert(a)
		}
		want := oracle.Filter(func(t Tuple) bool {
			key := make(Tuple, len(tc.cols))
			for i, c := range tc.cols {
				key[i] = t[c]
			}
			return allowed.Has(key)
		})
		for _, s := range []Store{ly, oracle} {
			if got := SelectInCols(s, tc.cols, allowed); !got.Equal(want) || want.Len() == 0 {
				t.Errorf("%T cols %v allowed %v: %v, want %v", s, tc.cols, tc.allowed, got.Tuples(), want.Tuples())
			}
		}
	}
}
