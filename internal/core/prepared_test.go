package core

import (
	"context"
	"fmt"
	"testing"

	"linrec/internal/ast"
	"linrec/internal/planner"
	"linrec/internal/workload"
)

// planForCase is one goal shape of serveTC with the plan kind it takes
// and the allocations PlanFor makes for it once the plan is memoized.
type planForCase struct {
	name   string
	goal   ast.Atom
	kind   planner.Kind
	allocs float64
}

// planForCases covers every plan kind on serveTC: the two commuting path
// rules, and the one-rule reach.
func planForCases() []planForCase {
	x, y, c, d := ast.V("X"), ast.V("Y"), ast.C("t1"), ast.C("t2")
	return []planForCase{
		{"separable", ast.NewAtom("path", c, y), planner.Separable, 4},
		{"magic", ast.NewAtom("reach", c, y), planner.MagicSeeded, 3},
		{"magic-point", ast.NewAtom("reach", c, d), planner.MagicSeeded, 4},
		{"decomposed", ast.NewAtom("path", x, y), planner.Decomposed, 0},
		{"semi-naive", ast.NewAtom("reach", x, y), planner.SemiNaive, 0},
	}
}

// planForSystem loads serveTC over a small random tree.
func planForSystem(tb testing.TB) *System {
	tb.Helper()
	sys, err := load(serveTC, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	workload.RandomTree(sys.Engine, sys.DB(), "edge", 64, 7)
	return sys
}

// warmPlanFor resolves c once at w workers, checking the plan's kind.
func warmPlanFor(tb testing.TB, sys *System, c planForCase, w int) {
	tb.Helper()
	plan, err := sys.PlanFor(c.goal, Options{Workers: w})
	if err != nil {
		tb.Fatal(err)
	}
	if plan.Kind != c.kind {
		tb.Fatalf("%v: plan = %v (%s), want %v", c.goal, plan.Kind, plan.Why, c.kind)
	}
}

// BenchmarkPlanFor times PlanFor on a memoized plan: the goal's
// resolution and the binding of its constants, per plan kind and pool.
func BenchmarkPlanFor(b *testing.B) {
	sys := planForSystem(b)
	for _, c := range planForCases() {
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/w%d", c.name, w), func(b *testing.B) {
				warmPlanFor(b, sys, c, w)
				opts := Options{Workers: w}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sys.PlanFor(c.goal, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestPlanForAllocs pins the allocations of PlanFor on a memoized plan:
// the goal's selections, and for a plan that consumes them, the bound
// copy of the plan with its payload (one allocation) and the bound
// selections.  A plan that consumes none comes straight from the memo.
func TestPlanForAllocs(t *testing.T) {
	sys := planForSystem(t)
	for _, c := range planForCases() {
		for _, w := range []int{1, 2} {
			warmPlanFor(t, sys, c, w)
			opts := Options{Workers: w}
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := sys.PlanFor(c.goal, opts); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > c.allocs {
				t.Errorf("PlanFor(%v) at %d workers allocated %.0f times, want ≤ %.0f", c.goal, w, allocs, c.allocs)
			}
		}
	}
}

// TestPlanOperatorsCompileOnce: 100 Evaluates each of one magic
// adornment and one separable adornment, over distinct constants, grow
// the compiled-operator cache by at most one operator set per plan — the
// predicate's rules and the frontier's step operators — all at the first
// request of each.
func TestPlanOperatorsCompileOnce(t *testing.T) {
	sys := planForSystem(t)
	ctx := context.Background()
	before := sys.Engine.CompiledOperators()
	bound := 0
	for _, pred := range []string{"reach", "path"} {
		a, err := sys.Analyze(pred)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := sys.PlanFor(ast.NewAtom(pred, ast.C("t0"), ast.V("Y")), Options{})
		if err != nil {
			t.Fatal(err)
		}
		bound += len(a.Ops)
		if plan.Magic != nil {
			bound += len(plan.Magic.Spec.Step)
		}
		if plan.Sep != nil {
			for _, st := range plan.Sep.Steps {
				if st.Magic != nil {
					bound += len(st.Magic.Step)
				}
			}
		}
	}
	var first int
	for i := 0; i < 100; i++ {
		for _, pred := range []string{"reach", "path"} {
			goal := ast.NewAtom(pred, ast.C(fmt.Sprintf("t%d", i%64)), ast.V("Y"))
			if _, err := sys.Evaluate(ctx, QueryRequest{Goal: goal}); err != nil {
				t.Fatal(err)
			}
		}
		if i == 0 {
			first = sys.Engine.CompiledOperators()
		}
	}
	if grown := first - before; grown > bound {
		t.Fatalf("the first requests compiled %d operators, want ≤ %d (one set per plan)", grown, bound)
	}
	if after := sys.Engine.CompiledOperators(); after != first {
		t.Fatalf("compiled-operator cache grew from %d to %d entries over 99 more requests per adornment", first, after)
	}
}
