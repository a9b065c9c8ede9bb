package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"linrec/internal/ast"
	"linrec/internal/eval"
	"linrec/internal/parser"
	"linrec/internal/planner"
	"linrec/internal/rel"
)

// copySeedProgram has two recursive predicates whose exit rules copy
// edge: path (a left and a right chain, which commute) and reach (one
// left chain).
const copySeedProgram = `
path(X,Y) :- edge(X,Y).
path(X,Y) :- path(X,U), edge(U,Y).
path(X,Y) :- edge(X,U), path(U,Y).
reach(X,Y) :- edge(X,Y).
reach(X,Y) :- edge(X,Z), reach(Z,Y).
`

// exitSeedEntries counts the cached exit-rule seeds.
func exitSeedEntries(sys *System) int {
	sys.store.mu.Lock()
	defer sys.store.mu.Unlock()
	n := 0
	for key := range sys.store.entries {
		if key.kind == seedView {
			n++
		}
	}
	return n
}

// TestCopySeedIsTheStore: a copy exit rule's seed is the snapshot's
// stored relation.  Open, separable-bound, magic-point, limited and
// streamed queries cache no exit-rule seed, and on a segment-backed
// system an 8-fact add to a 50k-edge predicate upgrades no seed and
// allocates less than one 50k-row relation — where cached seed copies
// would each be cloned and extended on every write.
func TestCopySeedIsTheStore(t *testing.T) {
	ctx := context.Background()
	var b strings.Builder
	b.WriteString(copySeedProgram)
	for i := 0; i < 6; i++ {
		fmt.Fprintf(&b, "edge(c%d,c%d).\n", i, i+1)
	}
	sys, err := load(b.String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		goal  string
		kind  planner.Kind
		limit int // > 0: a limited stream; < 0: an unbounded stream
	}{
		{"reach(X,Y)", planner.SemiNaive, 0},
		{"path(X,Y)", planner.Decomposed, 0},
		{"path(c0,Y)", planner.Separable, 0},
		{"path(c0,c4)", planner.MagicSeeded, 0},
		{"reach(c1,Y)", planner.MagicSeeded, 0},
		{"path(c2,Y)", planner.Separable, 2},
		{"reach(X,Y)", planner.SemiNaive, 3},
		{"path(X,c5)", planner.Separable, -1},
	} {
		req := QueryRequest{Goal: mustAtom(t, tc.goal), Limit: max(tc.limit, 0)}
		var kind planner.Kind
		if tc.limit == 0 {
			res, err := sys.Evaluate(ctx, req)
			if err != nil {
				t.Fatalf("%s: %v", tc.goal, err)
			}
			kind = res.Plan.Kind
		} else {
			st, err := sys.Stream(ctx, req)
			if err != nil {
				t.Fatalf("%s: %v", tc.goal, err)
			}
			for _, ok := st.Next(); ok; _, ok = st.Next() {
			}
			st.Close()
			if st.Err() != nil {
				t.Fatalf("%s: %v", tc.goal, st.Err())
			}
			kind = st.Plan().Kind
		}
		if kind != tc.kind {
			t.Fatalf("%s ran %v, want %v", tc.goal, kind, tc.kind)
		}
		if n := exitSeedEntries(sys); n != 0 {
			t.Fatalf("%s left %d exit-rule seed entries in the cache", tc.goal, n)
		}
	}

	// A segment-backed system over 50k disjoint edges: every query
	// answers in a row or two, while each predicate's seed is the whole
	// edge relation.
	const edges = 50000
	b.Reset()
	b.WriteString(copySeedProgram)
	for i := 0; i < edges; i++ {
		fmt.Fprintf(&b, "edge(a%d,b%d).\n", i, i)
	}
	dir := t.TempDir()
	if _, err := load(b.String(), Options{Persist: openManager(t, dir)}); err != nil {
		t.Fatal(err)
	}
	disk, err := load(b.String(), Options{Persist: openManager(t, dir), ResultCacheRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	queries := func() {
		t.Helper()
		for _, goal := range []string{"path(a0,Y)", "reach(a1,Y)", "path(X,Y)"} {
			st, err := disk.Stream(ctx, QueryRequest{Goal: mustAtom(t, goal), Limit: 1})
			if err != nil {
				t.Fatalf("%s: %v", goal, err)
			}
			if _, ok := st.Next(); !ok {
				t.Fatalf("%s: no row (err %v)", goal, st.Err())
			}
			st.Close()
		}
	}
	add := func(from int) (Maintenance, uint64) {
		t.Helper()
		facts := make([]ast.Atom, 8)
		for i := range facts {
			facts[i] = ast.NewAtom("edge", ast.C(fmt.Sprintf("x%d", from+i)), ast.C(fmt.Sprintf("y%d", from+i)))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, m, err := disk.Apply(context.Background(), facts, nil)
		runtime.ReadMemStats(&after)
		if err != nil || m.Added != len(facts) {
			t.Fatalf("add: %d facts, %v", m.Added, err)
		}
		return m, after.TotalAlloc - before.TotalAlloc
	}
	// The first add pays the one-time promotion of edge's key table for
	// its membership checks; the second is the steady-state write.
	queries()
	add(0)
	queries()
	m, alloc := add(8)
	if m.SeedsUpgraded != 0 {
		t.Fatalf("add upgraded %d seeds, want 0 (maintenance %+v)", m.SeedsUpgraded, m)
	}
	one := rel.NewRelation(2)
	for i := 0; i < edges; i++ {
		one.Insert(rel.Tuple{rel.Value(i), rel.Value(i + edges)})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	one.Clone()
	runtime.ReadMemStats(&after)
	limit := after.TotalAlloc - before.TotalAlloc
	t.Logf("8-fact add: %d bytes allocated; one %d-row relation: %d", alloc, edges, limit)
	if alloc >= limit {
		t.Fatalf("an 8-fact add allocated %d bytes, one %d-row relation is %d", alloc, edges, limit)
	}
	if n := exitSeedEntries(disk); n != 0 {
		t.Fatalf("segment-backed queries left %d exit-rule seed entries", n)
	}
}

// copySeedRules defines one predicate per plan shape, every exit rule a
// copy: tc (one left chain), cm (a left and a right chain, which
// commute), sg (same generation) and tri (three commuting rules over a
// ternary relation, one driving each column).
const copySeedRules = `
tc(X,Y) :- b(X,Y).
tc(X,Y) :- e(X,Z), tc(Z,Y).
cm(X,Y) :- b(X,Y).
cm(X,Y) :- cm(X,U), e(U,Y).
cm(X,Y) :- f(X,U), cm(U,Y).
sg(X,Y) :- b(X,Y).
sg(X,Y) :- e(Z,X), sg(Z,W), e(W,Y).
tri(X,Y,C) :- t(X,Y,C).
tri(X,Y,C) :- tri(Z,Y,C), e(X,Z).
tri(X,Y,C) :- tri(X,Z,C), f(Z,Y).
tri(X,Y,C) :- tri(X,Y,D), g(D,C).
g(k0,k1).
`

// copySeedFacts draws the distinct extensional facts of copySeedRules
// over a small node domain, one fact a line.
func copySeedFacts(rng *rand.Rand) []string {
	node := func() string { return fmt.Sprintf("n%d", rng.Intn(24)) }
	var facts []string
	seen := map[string]bool{}
	draw := func(n int, fact func() string) {
		for want := len(facts) + n; len(facts) < want; {
			if f := fact(); !seen[f] {
				seen[f] = true
				facts = append(facts, f)
			}
		}
	}
	draw(80, func() string { return fmt.Sprintf("b(%s,%s).", node(), node()) })
	draw(30, func() string { return fmt.Sprintf("e(%s,%s).", node(), node()) })
	draw(30, func() string { return fmt.Sprintf("f(%s,%s).", node(), node()) })
	draw(80, func() string { return fmt.Sprintf("t(%s,%s,k%d).", node(), node(), rng.Intn(2)) })
	return facts
}

// layeredTwin boots a disk-backed system whose every extensional store
// is a 3-link rel.Layered chain holding exactly facts: it starts from
// facts minus two held-back batches plus a junk batch, then adds one
// held-back batch, removes the junk and adds the other, each a
// copy-on-write swap that chains one delta onto the segment.
func layeredTwin(t *testing.T, facts []string) *System {
	t.Helper()
	held := map[int]int{} // fact index → 1 or 2: the add swap that restores it
	seen := map[string]int{}
	for i, f := range facts {
		pred := f[:strings.IndexByte(f, '(')]
		if seen[pred] < 2 {
			held[i] = 1 + seen[pred]
		}
		seen[pred]++
	}
	junk := []string{"b(z0,z1).", "e(z0,z1).", "f(z0,z1).", "t(z0,z1,k0)."}
	var initial []string
	batches := [3][]string{}
	for i, f := range facts {
		if held[i] == 0 {
			initial = append(initial, f)
		} else {
			batches[held[i]] = append(batches[held[i]], f)
		}
	}
	batches[0] = junk
	dir := t.TempDir()
	src := copySeedRules + strings.Join(append(initial, junk...), "\n")
	if _, err := load(src, Options{Persist: openManager(t, dir)}); err != nil {
		t.Fatal(err)
	}
	sys, err := load(src, Options{Persist: openManager(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	atoms := func(fs []string) []ast.Atom {
		out := make([]ast.Atom, len(fs))
		for i, f := range fs {
			out[i] = mustAtom(t, strings.TrimSuffix(f, "."))
		}
		return out
	}
	if _, _, err := sys.AddFacts(atoms(batches[1])); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.Apply(context.Background(), nil, atoms(batches[0])); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.AddFacts(atoms(batches[2])); err != nil {
		t.Fatal(err)
	}
	for _, pred := range []string{"b", "e", "f", "t"} {
		l, ok := sys.Snapshot().DB[pred].(*rel.Layered)
		if !ok || l.Depth() != 3 {
			t.Fatalf("%s is stored as %T, want a 3-link rel.Layered chain", pred, sys.Snapshot().DB[pred])
		}
	}
	return sys
}

// TestCopySeedMatchesMaterializedSeed: for every plan kind — semi-naive,
// decomposed, Theorem 4.1, n-ary separable and magic context/filter —
// opening the plan over a copy rule's stored relation, drained or
// streamed, yields the rows and statistics of ExecuteSeeded over the
// materialized Analysis.Seed.  It runs on in-memory relations, on
// segment.Lazy stores unbudgeted and under a 1 KiB budget, and on
// 3-link rel.Layered chains after adds and removes, with every case of a
// backend evaluated concurrently over the same shared stores.
func TestCopySeedMatchesMaterializedSeed(t *testing.T) {
	facts := copySeedFacts(rand.New(rand.NewSource(29)))
	src := copySeedRules + strings.Join(facts, "\n")
	mem, lazy := diskTwin(t, src, 0)
	_, tight := diskTwin(t, src, evictingBudget)
	backends := []struct {
		name string
		sys  *System
	}{{"memory", mem}, {"lazy", lazy}, {"lazy-1KiB", tight}, {"layered", layeredTwin(t, facts)}}
	cases := []struct {
		goal string
		kind planner.Kind
		why  string // a substring of the plan's Why
	}{
		{"tc(X,Y)", planner.SemiNaive, "no decomposition"},
		{"cm(X,Y)", planner.Decomposed, "commute"},
		{"cm(n1,Y)", planner.Separable, "Theorem 4.1"},
		{"tri(n1,n2,C)", planner.Separable, "n-ary"},
		{"tc(n1,Y)", planner.MagicSeeded, "context"},
		{"cm(n3,n4)", planner.MagicSeeded, "context"},
		{"sg(n1,Y)", planner.MagicSeeded, "filter"},
	}
	ctx := context.Background()
	want := map[string]string{} // memory answers, rendered sorted, by goal and workers
	for _, be := range backends {
		var wg sync.WaitGroup
		var mu sync.Mutex
		got := map[string]string{}
		for _, tc := range cases {
			for _, workers := range []int{1, 2} {
				wg.Add(1)
				go func(goal string, kind planner.Kind, why string, workers int) {
					defer wg.Done()
					ans, err := copySeedRun(ctx, be.sys, goal, kind, why, workers)
					if err != nil {
						t.Errorf("%s %s at %d workers: %v", be.name, goal, workers, err)
						return
					}
					rows := fmt.Sprint((&QueryResult{Answer: ans}).Rows(be.sys))
					mu.Lock()
					got[fmt.Sprintf("%s/%d", goal, workers)] = rows
					mu.Unlock()
				}(tc.goal, tc.kind, tc.why, workers)
			}
		}
		wg.Wait()
		for key, rows := range got {
			if w, ok := want[key]; !ok {
				want[key] = rows
			} else if rows != w {
				t.Errorf("%s %s: rows %s, memory %s", be.name, key, rows, w)
			}
		}
	}
	if evictions(tight) == 0 {
		t.Errorf("the 1 KiB budget evicted nothing")
	}
	for _, tc := range cases {
		if want[tc.goal+"/1"] == "" {
			t.Errorf("%s: empty answer, the case proves nothing", tc.goal)
		}
	}
}

// copySeedRun evaluates goal on sys's current snapshot three ways — the
// plan opened over the copy rule's stored relation and drained, the same
// opened and streamed row by row, and ExecuteSeeded over the
// materialized Analysis.Seed — checks the plan and that all three agree
// on rows and statistics, and returns the answer.
func copySeedRun(ctx context.Context, sys *System, goal string, kind planner.Kind, why string, workers int) (*rel.Relation, error) {
	q, err := parser.ParseAtom(goal)
	if err != nil {
		return nil, err
	}
	r, err := sys.resolve(q, Options{Workers: workers})
	if err != nil || r.empty {
		return nil, fmt.Errorf("resolve: %v (empty %v)", err, r.empty)
	}
	a, sels, plan := r.a, r.sels, r.plan
	pred, ok := a.CopySource()
	if !ok {
		return nil, fmt.Errorf("%s has no copy exit rule", a.Pred)
	}
	opts := planner.Options{Workers: workers}
	if plan.Kind != kind || !strings.Contains(plan.Why, why) {
		return nil, fmt.Errorf("plan %v %q, want %v mentioning %q", plan.Kind, plan.Why, kind, why)
	}
	filter := func(r *rel.Relation) *rel.Relation {
		for _, s := range sels {
			r = s.Apply(r)
		}
		return r
	}
	db := sys.Snapshot().DB
	seed, err := a.Seed(sys.Engine, db)
	if err != nil {
		return nil, err
	}
	ref, err := a.ExecuteSeeded(ctx, sys.Engine, db, plan, nil, opts, seed)
	if err != nil {
		return nil, err
	}
	want := filter(ref.Answer)
	for _, streamed := range []bool{false, true} {
		cl, stats, err := a.Open(ctx, sys.Engine, db, plan, opts, db.Probe(pred), nil)
		if err != nil {
			return nil, err
		}
		var ans *rel.Relation
		if streamed {
			ans = rel.NewRelation(want.Arity())
			for row, ok := cl.Next(); ok; row, ok = cl.Next() {
				ans.Insert(row)
			}
			cl.Close()
			stats.Add(cl.Stats())
		} else {
			var s eval.Stats
			ans, s, err = cl.Drain()
			stats.Add(s)
		}
		if err != nil || cl.Err() != nil {
			return nil, fmt.Errorf("streamed=%v: %v %v", streamed, err, cl.Err())
		}
		if ans = filter(ans); !ans.Equal(want) {
			return nil, fmt.Errorf("streamed=%v over the store: %d rows, over Seed %d", streamed, ans.Len(), want.Len())
		}
		if stats != ref.Stats {
			return nil, fmt.Errorf("streamed=%v over the store: stats %v, over Seed %v", streamed, stats, ref.Stats)
		}
	}
	return want, nil
}
