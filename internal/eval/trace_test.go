package eval

import (
	"context"
	"fmt"
	"testing"

	"linrec/internal/ast"
	"linrec/internal/parser"
	"linrec/internal/rel"
)

// traceInvariant checks the phase row accounting:
// BaseRows + SeedRows + Σ rounds.NewRows == TotalRows.
func traceInvariant(t *testing.T, ph *PhaseTrace) {
	t.Helper()
	sum := ph.BaseRows + ph.SeedRows
	for _, rd := range ph.Rounds {
		sum += rd.NewRows
	}
	if sum != ph.TotalRows {
		t.Fatalf("phase %q: base %d + seed %d + Σnew = %d, total_rows = %d",
			ph.Name, ph.BaseRows, ph.SeedRows, sum, ph.TotalRows)
	}
}

// chainClosureTrace runs the left-linear chain closure at the given
// worker count under a fresh tracer and returns the single phase.
func chainClosureTrace(t *testing.T, workers, n int) (*PhaseTrace, int) {
	t.Helper()
	e := NewEngine(nil)
	db := rel.DB{}
	chainDB(e, db, "e", n)
	op := parser.MustParseOp("p(X,Y) :- p(X,Z), e(Z,Y).")
	q := edgesAsQ(db, "e")

	tr := &Tracer{}
	ctx := WithTracer(context.Background(), tr)
	out, _, err := Parallel(e, workers).SemiNaiveCtx(ctx, db, []*ast.Op{op}, q)
	if err != nil {
		t.Fatalf("SemiNaiveCtx: %v", err)
	}
	trace := tr.Trace()
	if len(trace.Phases) != 1 {
		t.Fatalf("phases = %d, want 1", len(trace.Phases))
	}
	ph := trace.Phases[0]
	if ph.Name != "semi-naive" {
		t.Fatalf("phase name = %q", ph.Name)
	}
	if ph.TotalRows != out.Len() {
		t.Fatalf("trace total_rows = %d, closure has %d", ph.TotalRows, out.Len())
	}
	return ph, out.Len()
}

// TestTraceGoldenChain pins the exact per-round record of the 6-edge
// chain closure: deltas shrink 6,5,...,1, each round derives one fewer
// path, duplicate-free.  The same golden rounds must come out of the
// sequential driver and the 4-worker engine (whose small rounds run
// inline below the fan-out threshold).
func TestTraceGoldenChain(t *testing.T) {
	golden := []RoundTrace{
		{Round: 1, DeltaRows: 6, NewRows: 5, Derivations: 5},
		{Round: 2, DeltaRows: 5, NewRows: 4, Derivations: 4},
		{Round: 3, DeltaRows: 4, NewRows: 3, Derivations: 3},
		{Round: 4, DeltaRows: 3, NewRows: 2, Derivations: 2},
		{Round: 5, DeltaRows: 2, NewRows: 1, Derivations: 1},
		{Round: 6, DeltaRows: 1, NewRows: 0, Derivations: 0},
	}
	for _, workers := range []int{1, 4} {
		ph, rows := chainClosureTrace(t, workers, 6)
		if rows != 21 { // 6·7/2 all-pairs paths
			t.Fatalf("workers=%d: closure = %d rows, want 21", workers, rows)
		}
		if ph.Workers != workers {
			t.Fatalf("workers=%d: phase recorded %d workers", workers, ph.Workers)
		}
		if ph.SeedRows != 6 || ph.BaseRows != 0 {
			t.Fatalf("workers=%d: seed=%d base=%d, want 6/0", workers, ph.SeedRows, ph.BaseRows)
		}
		traceInvariant(t, ph)
		if len(ph.Rounds) != len(golden) {
			t.Fatalf("workers=%d: %d rounds, want %d", workers, len(ph.Rounds), len(golden))
		}
		for i, rd := range ph.Rounds {
			g := golden[i]
			if rd.Round != g.Round || rd.DeltaRows != g.DeltaRows || rd.NewRows != g.NewRows ||
				rd.Derivations != g.Derivations || rd.Duplicates != 0 {
				t.Fatalf("workers=%d round %d = %+v, want %+v", workers, i+1, rd, g)
			}
			if len(rd.ShardRows) != 0 {
				t.Fatalf("workers=%d round %d: inline round recorded shards %v", workers, i+1, rd.ShardRows)
			}
		}
	}
}

// TestTraceShardRows drives a delta wide enough to fan out (a two-level
// 40×40 tree: 1640 seed edges ≥ the inline threshold) and checks the
// sharded round reports per-worker emission counts that sum to the
// round's derivations.
func TestTraceShardRows(t *testing.T) {
	const fanout = 40
	e := NewEngine(nil)
	db := rel.DB{}
	edges := db.Rel("e", 2)
	root := e.Syms.Intern("root")
	for i := 0; i < fanout; i++ {
		c := e.Syms.Intern(fmt.Sprintf("c%d", i))
		edges.Insert(rel.Tuple{root, c})
		for j := 0; j < fanout; j++ {
			g := e.Syms.Intern(fmt.Sprintf("g%d_%d", i, j))
			edges.Insert(rel.Tuple{c, g})
		}
	}
	op := parser.MustParseOp("p(X,Y) :- p(X,Z), e(Z,Y).")
	q := edges.Clone()

	tr := &Tracer{}
	ctx := WithTracer(context.Background(), tr)
	out, _, err := Parallel(e, 4).SemiNaiveCtx(ctx, db, []*ast.Op{op}, q)
	if err != nil {
		t.Fatalf("SemiNaiveCtx: %v", err)
	}
	// Closure: 1640 edges + 1600 root→grandchild paths.
	if out.Len() != fanout+fanout*fanout+fanout*fanout {
		t.Fatalf("closure = %d rows", out.Len())
	}
	ph := tr.Trace().Phases[0]
	traceInvariant(t, ph)
	if len(ph.Rounds) == 0 {
		t.Fatalf("no rounds recorded")
	}
	r1 := ph.Rounds[0]
	if r1.DeltaRows != fanout+fanout*fanout {
		t.Fatalf("round 1 delta = %d, want %d", r1.DeltaRows, fanout+fanout*fanout)
	}
	if len(r1.ShardRows) < 2 || len(r1.ShardRows) > 4 {
		t.Fatalf("round 1 shards = %v, want 2..4 workers", r1.ShardRows)
	}
	sum := int64(0)
	for _, n := range r1.ShardRows {
		sum += int64(n)
	}
	if sum != r1.Derivations {
		t.Fatalf("Σ shard rows = %d, derivations = %d", sum, r1.Derivations)
	}
	if len(r1.RuleUS) != 0 {
		t.Fatalf("sharded round attributed per-rule time %v", r1.RuleUS)
	}
}

// TestTraceNullaryWorkers: a nullary relation carries no payload to
// shard, so its rounds run inline whatever the pool width, and the phase
// must record the worker count the kernel actually used — 1 — for the
// materialized and the streamed closure alike.
func TestTraceNullaryWorkers(t *testing.T) {
	e := NewEngine(nil)
	db := rel.DB{}
	db.Rel("e", 1).Insert(rel.Tuple{e.Syms.Intern("a")})
	ops := []*ast.Op{parser.MustParseOp("p :- p, e(X).")}
	q := rel.NewRelation(0)
	q.Insert(rel.Tuple{})
	pe := Parallel(e, 4)

	for _, mode := range []string{"materialized", "streamed"} {
		tr := &Tracer{}
		ctx := WithTracer(context.Background(), tr)
		if mode == "materialized" {
			if _, _, err := pe.SemiNaiveCtx(ctx, db, ops, q); err != nil {
				t.Fatalf("%s: %v", mode, err)
			}
		} else {
			st := pe.StreamCtx(ctx, db, ops, q)
			if _, err := drain(st, 0); err != nil {
				t.Fatalf("%s: %v", mode, err)
			}
			st.Close()
		}
		ph := tr.Trace().Phases[0]
		if ph.Workers != 1 {
			t.Fatalf("%s: nullary phase recorded %d workers, want 1", mode, ph.Workers)
		}
		traceInvariant(t, ph)
		if len(ph.Rounds) != 1 || len(ph.Rounds[0].ShardRows) != 0 {
			t.Fatalf("%s: rounds = %+v, want one inline round", mode, ph.Rounds)
		}
	}
}

// TestTracerOffPathAllocFree is the disabled-path guarantee in
// miniature: looking a tracer up from an untraced context allocates
// nothing, and every collector method is a no-op on nil receivers.
func TestTracerOffPathAllocFree(t *testing.T) {
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(100, func() {
		if TracerFrom(ctx) != nil {
			t.Fatal("untraced context produced a tracer")
		}
	}); allocs != 0 {
		t.Fatalf("TracerFrom on an untraced context allocates %.1f/op", allocs)
	}
	if TracerFrom(nil) != nil {
		t.Fatal("nil context produced a tracer")
	}

	var tr *Tracer
	tr.SetRequestID("x")
	tr.Cache("result", "hit", "k", 0)
	if tr.Trace() != nil {
		t.Fatal("nil tracer returned a trace")
	}
	ph := tr.phase("semi-naive", 1, 0, 0)
	if ph != nil {
		t.Fatal("nil tracer opened a phase")
	}
	ph.round(RoundTrace{})
	ph.close(0)
}
