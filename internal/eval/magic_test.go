package eval

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"linrec/internal/ast"
	"linrec/internal/parser"
	"linrec/internal/rel"
)

// leftChainSpec is the magic program of p(X,Y) :- e(X,Z), p(Z,Y) bound on
// column 0: the frontier steps across e.
func leftChainSpec() MagicSpec {
	return MagicSpec{
		Cols: []int{0},
		Step: []*ast.Op{{
			Head:   ast.NewAtom(MagicSetPred, ast.V("Z")),
			Rec:    ast.NewAtom(MagicSetPred, ast.V("X")),
			NonRec: []ast.Atom{ast.NewAtom("e", ast.V("X"), ast.V("Z"))},
		}},
	}
}

// leftChainPairSpec is the same rule bound on both columns (the
// adornment "bb"): frontier tuples step across e on column 0 and carry
// column 1 through as an identity.
func leftChainPairSpec() MagicSpec {
	return MagicSpec{
		Cols: []int{0, 1},
		Step: []*ast.Op{{
			Head:   ast.NewAtom(MagicSetPred, ast.V("Z"), ast.V("Y")),
			Rec:    ast.NewAtom(MagicSetPred, ast.V("X"), ast.V("Y")),
			NonRec: []ast.Atom{ast.NewAtom("e", ast.V("X"), ast.V("Z"))},
		}},
	}
}

// TestMagicSetReachability: on a cycle the magic set from any node is the
// whole vertex set, with one frontier generation per hop.
func TestMagicSetReachability(t *testing.T) {
	e := NewEngine(nil)
	db, _ := cycleDB(e, 50)
	var stats Stats
	set, err := e.MagicSetCtx(context.Background(), db, leftChainSpec(), rel.Tuple{e.Syms.Intern("v0")}, &stats)
	if err != nil {
		t.Fatalf("MagicSetCtx: %v", err)
	}
	if set.Len() != 50 {
		t.Fatalf("magic set has %d values, want 50", set.Len())
	}
	if stats.Iterations != 50 {
		t.Fatalf("iterations = %d, want 50 (one per hop plus the empty-frontier round)", stats.Iterations)
	}
}

// TestMagicSetTupleFrontier: with both columns bound the frontier
// carries pairs — the identity column rides along unchanged while the
// step column walks the cycle, so the set holds one pair per vertex.
func TestMagicSetTupleFrontier(t *testing.T) {
	e := NewEngine(nil)
	db, _ := cycleDB(e, 30)
	goal := e.Syms.Intern("v7")
	var stats Stats
	set, err := e.MagicSetCtx(context.Background(), db, leftChainPairSpec(),
		rel.Tuple{e.Syms.Intern("v0"), goal}, &stats)
	if err != nil {
		t.Fatalf("MagicSetCtx: %v", err)
	}
	if set.Arity() != 2 || set.Len() != 30 {
		t.Fatalf("magic set = %d tuples at arity %d, want 30 pairs", set.Len(), set.Arity())
	}
	set.Each(func(m rel.Tuple) {
		if m[1] != goal {
			t.Fatalf("identity column drifted: %v", m)
		}
	})
}

// TestMagicSetInitRules: init rules contribute once, before the frontier.
func TestMagicSetInitRules(t *testing.T) {
	e := NewEngine(nil)
	db := rel.DB{}
	g := db.Rel("g", 1)
	g.Insert(rel.Tuple{e.Syms.Intern("x")})
	g.Insert(rel.Tuple{e.Syms.Intern("y")})
	spec := MagicSpec{
		Cols: []int{0},
		Init: []ast.Rule{{
			Head: ast.NewAtom(MagicSetPred, ast.V("V")),
			Body: []ast.Atom{ast.NewAtom("g", ast.V("V"))},
		}},
	}
	var stats Stats
	set, err := e.MagicSetCtx(context.Background(), db, spec, rel.Tuple{e.Syms.Intern("seed")}, &stats)
	if err != nil {
		t.Fatalf("MagicSetCtx: %v", err)
	}
	if set.Len() != 3 { // seed, x, y
		t.Fatalf("magic set has %d values, want 3", set.Len())
	}
}

// TestMagicCollect: collection rewrites the bound column and deduplicates.
func TestMagicCollect(t *testing.T) {
	e := NewEngine(nil)
	q := rel.NewRelation(2)
	a, b, c, v := e.Syms.Intern("a"), e.Syms.Intern("b"), e.Syms.Intern("c"), e.Syms.Intern("v")
	q.Insert(rel.Tuple{a, c})
	q.Insert(rel.Tuple{b, c}) // same payload under a different binding → duplicate after rewrite
	q.Insert(rel.Tuple{c, a}) // binding outside the magic set → not collected
	set := rel.NewRelation(1)
	set.Insert(rel.Tuple{a})
	set.Insert(rel.Tuple{b})
	var stats Stats
	out := MagicCollect(q, []int{0}, rel.Tuple{v}, set, &stats)
	if out.Len() != 1 || !out.Has(rel.Tuple{v, c}) {
		t.Fatalf("collected %d tuples (%v), want exactly {(v,c)}", out.Len(), out.Tuples())
	}
	if stats.Derivations != 2 || stats.Duplicates != 1 {
		t.Fatalf("stats = %v, want 2 derivations, 1 duplicate", stats)
	}
}

// TestMagicCollectMultiColumn: with a two-column adornment only tuples
// matching the magic pair on both columns are collected, and both bound
// columns are rewritten to the query's constants.
func TestMagicCollectMultiColumn(t *testing.T) {
	e := NewEngine(nil)
	q := rel.NewRelation(3)
	in := func(names ...string) rel.Tuple {
		t := make(rel.Tuple, len(names))
		for i, n := range names {
			t[i] = e.Syms.Intern(n)
		}
		return t
	}
	q.Insert(in("a", "m", "c"))  // matches magic pair (a, c)
	q.Insert(in("a", "m2", "d")) // column 2 misses the pair → not collected
	q.Insert(in("b", "m", "c"))  // column 0 outside the magic set → not collected
	set := rel.NewRelation(2)
	set.Insert(in("a", "c"))
	var stats Stats
	out := MagicCollect(q, []int{0, 2}, in("qa", "qc"), set, &stats)
	if out.Len() != 1 || !out.Has(in("qa", "m", "qc")) {
		t.Fatalf("collected %v, want exactly {(qa,m,qc)}", out.Tuples())
	}
	if stats.Derivations != 1 || stats.Duplicates != 0 {
		t.Fatalf("stats = %v, want 1 derivation, 0 duplicates", stats)
	}
}

// TestSemiNaiveRestrictedMatchesFilteredClosure: with a magic-closed
// allowed set, the restricted closure equals the full closure filtered to
// it — sequentially and sharded, with identical statistics across worker
// counts.
func TestSemiNaiveRestrictedMatchesFilteredClosure(t *testing.T) {
	e := NewEngine(nil)
	db := rel.DB{}
	// Two chains joined at v0 plus a disconnected component, so the magic
	// set from v0 is a strict subset of the vertices.
	r := db.Rel("e", 2)
	edge := func(a, b string) { r.Insert(rel.Tuple{e.Syms.Intern(a), e.Syms.Intern(b)}) }
	for i := 0; i < 8; i++ {
		edge(fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", i+1))
		edge(fmt.Sprintf("w%d", i), fmt.Sprintf("w%d", i+1))
		edge(fmt.Sprintf("u%d", i), fmt.Sprintf("u%d", i+1))
	}
	edge("v3", "w0")
	op := parser.MustParseOp("p(X,Y) :- e(X,Z), p(Z,Y).")
	q := r.Clone()

	var setStats Stats
	set, err := e.MagicSetCtx(context.Background(), db, leftChainSpec(), rel.Tuple{e.Syms.Intern("v0")}, &setStats)
	if err != nil {
		t.Fatalf("MagicSetCtx: %v", err)
	}
	full, _ := e.SemiNaive(db, []*ast.Op{op}, q)
	want := full.Filter(func(t rel.Tuple) bool { return set.Has(t[0:1]) })

	restrictedSeed := rel.SelectInCols(q, []int{0}, set)
	var seqStats Stats
	for i, workers := range []int{1, 4} {
		pe := Parallel(e, workers)
		got, stats, err := pe.SemiNaiveRestrictedCtx(context.Background(), db, []*ast.Op{op}, restrictedSeed, []int{0}, set)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !got.Equal(want) {
			t.Fatalf("workers=%d: restricted closure %d tuples, filtered full closure %d",
				workers, got.Len(), want.Len())
		}
		if got.Len() >= full.Len() {
			t.Fatalf("restriction did not prune anything: %d vs %d", got.Len(), full.Len())
		}
		if i == 0 {
			seqStats = stats
		} else if stats != seqStats {
			t.Fatalf("workers=%d: stats diverge from sequential: %v vs %v", workers, stats, seqStats)
		}
	}
}

// TestMagicSetCtxCancel: a dead context fails fast, and a deadline firing
// mid-frontier aborts promptly even on a very long frontier.
func TestMagicSetCtxCancel(t *testing.T) {
	e := NewEngine(nil)
	db, _ := cycleDB(e, 200000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stats Stats
	if _, err := e.MagicSetCtx(ctx, db, leftChainSpec(), rel.Tuple{e.Syms.Intern("v0")}, &stats); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}

	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel2()
	start := time.Now()
	_, err := e.MagicSetCtx(ctx2, db, leftChainSpec(), rel.Tuple{e.Syms.Intern("v0")}, &stats)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled magic frontier took %v to return", elapsed)
	}
}

// TestSemiNaiveRestrictedCancelPrompt: the restricted closure aborts
// promptly and leaks no goroutines, sequential and sharded.
func TestSemiNaiveRestrictedCancelPrompt(t *testing.T) {
	const n = 1200
	e := NewEngine(nil)
	db, q := cycleDB(e, n)
	op := parser.MustParseOp("p(X,Y) :- p(X,Z), e(Z,Y).")
	// Allow every vertex: the restricted closure is the full n² fixpoint,
	// so a prompt return proves cancellation, not completion.
	all := rel.NewRelation(1)
	for i := 0; i < n; i++ {
		all.Insert(rel.Tuple{e.Syms.Intern(fmt.Sprintf("v%d", i))})
	}
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, _, err := Parallel(e, workers).SemiNaiveRestrictedCtx(ctx, db, []*ast.Op{op}, q, []int{0}, all)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want DeadlineExceeded", err)
			}
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Fatalf("cancelled restricted closure took %v to return", elapsed)
			}
		})
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMagicSetParallelMatchesSequential: a frontier whose generations
// grow wider than parallelRoundRows fans out at 2 and 4 workers and
// still yields the sequential set and Stats.
func TestMagicSetParallelMatchesSequential(t *testing.T) {
	const nodes = 6000
	e := NewEngine(nil)
	db := rel.DB{}
	r := db.Rel("e", 2)
	rng := rand.New(rand.NewSource(3))
	node := func(i int) rel.Value { return e.Syms.Intern(fmt.Sprintf("v%d", i)) }
	for i := 0; i < nodes; i++ {
		for k := 0; k < 3; k++ {
			r.Insert(rel.Tuple{node(i), node(rng.Intn(nodes))})
		}
	}
	seed := rel.Tuple{node(0)}
	var want *rel.Relation
	var wantStats Stats
	for _, workers := range []int{1, 2, 4} {
		tr := &Tracer{}
		var stats Stats
		got, err := Parallel(e, workers).MagicSetCtx(WithTracer(context.Background(), tr), db, leftChainSpec(), seed, &stats)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		fanned := false
		for _, rd := range tr.Trace().Phases[0].Rounds {
			fanned = fanned || len(rd.ShardRows) > 0
		}
		if fanned != (workers > 1) {
			t.Fatalf("workers=%d: a frontier round fanned out: %v", workers, fanned)
		}
		if workers == 1 {
			want, wantStats = got, stats
			if got.Len() <= parallelRoundRows {
				t.Fatalf("magic set of %d tuples is too narrow to fan out", got.Len())
			}
			continue
		}
		if !got.Equal(want) || stats != wantStats {
			t.Fatalf("workers=%d: %d tuples, %v; sequential %d tuples, %v", workers, got.Len(), stats, want.Len(), wantStats)
		}
	}
}

// TestMagicSetLeavesOperatorCacheFlat: the planner builds one spec per
// adornment, and magic builds compile its step operators through the
// engine's pointer-keyed cache, so 100 builds over one spec grow the
// cache by the spec's step operators once and then leave it flat.
func TestMagicSetLeavesOperatorCacheFlat(t *testing.T) {
	e := NewEngine(nil)
	db, _ := cycleDB(e, 20)
	spec := leftChainSpec()
	before := e.CompiledOperators()
	for i := 0; i < 100; i++ {
		var stats Stats
		if _, err := e.MagicSetCtx(context.Background(), db, spec, rel.Tuple{e.Syms.Intern(fmt.Sprintf("v%d", i%20))}, &stats); err != nil {
			t.Fatal(err)
		}
	}
	if after := e.CompiledOperators(); after != before+len(spec.Step) {
		t.Fatalf("compiled-operator cache grew from %d to %d entries over 100 magic builds, want +%d", before, after, len(spec.Step))
	}
}
