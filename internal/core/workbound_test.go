package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"linrec/internal/ast"
	"linrec/internal/eval"
	"linrec/internal/planner"
	"linrec/internal/workload"
)

// The plans and the maintenance passes exist to do less work than a
// full closure.  These tests hold that as bounds on the engine's exact
// derivation counters rather than as timing ratios, so they are
// deterministic and fail the moment a magic plan or a maintenance pass
// silently degrades into the closure it was meant to avoid.

// workBoundTreeNodes sizes the random recursive tree: 4 000 edges, whose
// closure is ~31k tuples, against bound goals reaching a few dozen nodes.
const workBoundTreeNodes = 4001

// magicWorkFactor bounds a magic plan's derivations by a small multiple
// of what it must touch: its answer plus its frontier (the magic set).
const magicWorkFactor = 4

// closureWorkRatio is how much more the closure-then-filter baseline
// must derive than the magic plan on the same goal.
const closureWorkRatio = 50

// Left- and right-recursive transitive closure over edge: the two rule
// forms the magic plan answers in context and in filter mode.  serveTC is
// the two commuting rules together, beside the one-rule reach.
const (
	leftTC  = "path(X,Y) :- edge(X,Y).\npath(X,Y) :- edge(X,Z), path(Z,Y)."
	rightTC = "path(X,Y) :- edge(X,Y).\npath(X,Y) :- path(X,Z), edge(Z,Y)."
	serveTC = "path(X,Y) :- edge(X,Y).\npath(X,Y) :- path(X,U), edge(U,Y).\npath(X,Y) :- edge(X,U), path(U,Y).\n" +
		"reach(X,Y) :- edge(X,Y).\nreach(X,Y) :- reach(X,U), edge(U,Y)."
)

// TestMagicPlanWorkBound: a magic-seeded bound goal derives at most a
// small constant times (answer + frontier) rows, while closure-then-filter
// on the same goal derives at least closureWorkRatio times as many.  Both
// rule forms are covered, with one bound column (path(c,Y)) and with a
// 2-column adornment (the point goal path(c,d)).  On the two commuting
// rules the point goal path(c,d) could take the n-ary separable
// assignment, which closes a whole operator; its full adornment binds in
// context mode, so it takes the frontier under reach(c,d)'s bound.
func TestMagicPlanWorkBound(t *testing.T) {
	type goal struct {
		pred  string
		point bool // bind the second column too
		mode  planner.MagicMode
	}
	for _, f := range []struct {
		name, src string
		goals     []goal
	}{
		{"left-recursive", leftTC, []goal{{"path", false, planner.MagicContext}, {"path", true, planner.MagicContext}}},
		{"right-recursive", rightTC, []goal{{"path", false, planner.MagicFilter}, {"path", true, planner.MagicContext}}},
		{"commuting", serveTC, []goal{{"reach", true, planner.MagicContext}, {"path", true, planner.MagicContext}}},
	} {
		sys, err := load(f.src, Options{})
		if err != nil {
			t.Fatal(err)
		}
		workload.RandomTree(sys.Engine, sys.DB(), "edge", workBoundTreeNodes, 47)
		const source = "t100"
		for _, g := range f.goals {
			goal, cols := ast.NewAtom(g.pred, ast.C(source), ast.V("Y")), []int{0}
			if g.point {
				goal, cols = ast.NewAtom(g.pred, ast.C(source), ast.C(deepestDescendant(t, sys, source))), []int{0, 1}
			}
			t.Run(fmt.Sprintf("%s/%s", f.name, goal), func(t *testing.T) {
				ctx := context.Background()
				magic, err := sys.Evaluate(ctx, QueryRequest{Goal: goal})
				if err != nil {
					t.Fatal(err)
				}
				plan := magic.Plan
				if plan.Kind != planner.MagicSeeded || plan.Magic.Mode != g.mode || !reflect.DeepEqual(plan.Magic.Spec.Cols, cols) {
					t.Fatalf("plan = %v (%s), want %v-mode magic over columns %v", plan.Kind, plan.Why, g.mode, cols)
				}
				base, err := sys.Evaluate(ctx, QueryRequest{Goal: goal, Opts: Options{Strategy: planner.ForceSemiNaive}})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(magic.Rows(sys), base.Rows(sys)) || magic.Answer.Len() == 0 {
					t.Fatalf("magic answer %d rows, closure-then-filter %d rows: want equal and non-empty",
						magic.Answer.Len(), base.Answer.Len())
				}
				var setStats eval.Stats
				set, err := sys.Engine.MagicSetCtx(ctx, sys.DB(), plan.Magic.Spec, plan.Magic.BoundTuple(), &setStats)
				if err != nil {
					t.Fatal(err)
				}
				touched := int64(magic.Answer.Len() + set.Len())
				got, closure := magic.Stats.Derivations, base.Stats.Derivations
				t.Logf("answer %d, frontier %d: magic %d derivations, closure %d",
					magic.Answer.Len(), set.Len(), got, closure)
				if got > magicWorkFactor*touched {
					t.Errorf("magic plan derived %d rows, want ≤ %d × (answer + frontier) = %d",
						got, magicWorkFactor, magicWorkFactor*touched)
				}
				if closure < closureWorkRatio*got {
					t.Errorf("closure-then-filter derived %d rows, want ≥ %d × the magic plan's %d",
						closure, closureWorkRatio, got)
				}
			})
		}
	}
}

// deepestDescendant follows first children from source down to a leaf,
// a deterministic non-trivial target for a point goal.
func deepestDescendant(t *testing.T, sys *System, source string) string {
	t.Helper()
	edge := sys.Snapshot().DB["edge"]
	v, ok := sys.Engine.Syms.Lookup(source)
	if !ok {
		t.Fatalf("unknown node %q", source)
	}
	for kids := edge.Lookup(0, v); len(kids) > 0; kids = edge.Lookup(0, v) {
		v = kids[0][1]
	}
	if name := sys.Engine.Syms.Name(v); name != source {
		return name
	}
	t.Fatalf("%s has no descendants", source)
	return ""
}

// TestMaintenanceWorkBound: on a layered DAG, where every closure tuple
// has several derivations, maintaining a warm full closure across an
// addition and then a retraction derives fewer rows than rebuilding the
// closure from scratch after each swap.  Maintenance work is read off
// the swap's trace — every phase's seed rows plus its rounds'
// derivations — and the upgrade must be a real one: counted as upgraded,
// and the next query a hit on the current version with the rebuilt
// answer.
func TestMaintenanceWorkBound(t *testing.T) {
	const layers, width, outDeg = 12, 24, 4
	sys, err := load(leftTC, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The rebuild runs on a twin with the result cache off, so every
	// query there is a from-scratch closure over the same facts.
	twin, err := load(leftTC, Options{ResultCacheRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*System{sys, twin} {
		workload.LayeredDAG(s.Engine, s.DB(), "edge", layers, width, outDeg, 47)
	}
	ctx := context.Background()
	goal := ast.NewAtom("path", ast.V("X"), ast.V("Y"))
	if _, err := sys.Evaluate(ctx, QueryRequest{Goal: goal}); err != nil {
		t.Fatal(err)
	}
	facts := []ast.Atom{ast.NewAtom("edge", ast.C(fmt.Sprintf("l%d_0", layers-1)), ast.C("graft"))}
	for _, add := range []bool{true, false} {
		tr := &eval.Tracer{}
		tctx := eval.WithTracer(ctx, tr)
		var m Maintenance
		if add {
			_, _, m, err = sys.AddFactsMaintCtx(tctx, facts)
			if err == nil {
				_, _, err = twin.AddFacts(facts)
			}
		} else {
			_, _, m, err = sys.RemoveFactsMaintCtx(tctx, facts)
			if err == nil {
				_, _, err = twin.Apply(context.Background(), nil, facts)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		if m.ResultsUpgraded != 1 || m.ResultsPurged != 0 {
			t.Fatalf("add=%v: maintenance %+v, want the warm closure upgraded, not purged", add, m)
		}
		var maintained int64
		for _, ph := range tr.Trace().Phases {
			maintained += int64(ph.SeedRows)
			for _, rd := range ph.Rounds {
				maintained += rd.Derivations
			}
		}
		got, err := sys.Evaluate(ctx, QueryRequest{Goal: goal})
		if err != nil {
			t.Fatal(err)
		}
		rebuild, err := twin.Evaluate(ctx, QueryRequest{Goal: goal})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Cached || got.Version != sys.Snapshot().Version || !reflect.DeepEqual(got.Rows(sys), rebuild.Rows(twin)) {
			t.Fatalf("add=%v: maintained answer cached=%v at version %d with %d rows, rebuild %d rows at %d",
				add, got.Cached, got.Version, got.Answer.Len(), rebuild.Answer.Len(), sys.Snapshot().Version)
		}
		t.Logf("add=%v: maintenance derived %d rows, rebuild %d", add, maintained, rebuild.Stats.Derivations)
		if maintained >= rebuild.Stats.Derivations {
			t.Errorf("add=%v: maintenance derived %d rows, not fewer than the rebuild's %d",
				add, maintained, rebuild.Stats.Derivations)
		}
	}
}
