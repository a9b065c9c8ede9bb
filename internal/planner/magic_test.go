package planner

import (
	"context"
	"strings"
	"testing"

	"linrec/internal/eval"
	"linrec/internal/parser"
	"linrec/internal/rel"
	"linrec/internal/separable"
)

// analyzeSrc builds an Analysis straight from program text.
func analyzeSrc(t *testing.T, src string) *Analysis {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	a, err := Analyze(prog, "p")
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return a
}

func TestMagicAnalysisShapes(t *testing.T) {
	cases := []struct {
		name     string
		src      string
		cols     []int
		ok       bool
		mode     MagicMode
		steps    int
		inits    int
		identity int
	}{
		{
			name: "left-chain col0 is context",
			src: `p(X,Y) :- b(X,Y).
				p(X,Y) :- e(X,Z), p(Z,Y).`,
			cols: []int{0}, ok: true, mode: MagicContext, steps: 1,
		},
		{
			name: "left-chain col1 is filter via identity",
			src: `p(X,Y) :- b(X,Y).
				p(X,Y) :- e(X,Z), p(Z,Y).`,
			// Column 1 passes through (h(Y)=Y) but column 0 does not, so
			// the magic set is {v} and the closure is filtered.
			cols: []int{1}, ok: true, mode: MagicFilter, identity: 1,
		},
		{
			name: "right-chain col1 is context",
			src: `p(X,Y) :- b(X,Y).
				p(X,Y) :- p(X,Z), e(Z,Y).`,
			cols: []int{1}, ok: true, mode: MagicContext, steps: 1,
		},
		{
			name: "two non-commuting left chains stay context",
			src: `p(X,Y) :- b(X,Y).
				p(X,Y) :- e(X,Z), p(Z,Y).
				p(X,Y) :- f(X,Z), p(Z,Y).`,
			cols: []int{0}, ok: true, mode: MagicContext, steps: 2,
		},
		{
			name: "same-generation shape is filter",
			src: `p(X,Y) :- b(X,Y).
				p(X,Y) :- e(Z,X), p(Z,W), e(W,Y).`,
			cols: []int{0}, ok: true, mode: MagicFilter, steps: 1,
		},
		{
			name: "swap rule has no finite context",
			src: `p(X,Y) :- b(X,Y).
				p(X,Y) :- p(Y,X), e(X,X).`,
			// Column 0's antecedent variable Y occurs only in the
			// recursive atom: no nonrecursive join can enumerate it.
			cols: []int{0}, ok: false,
		},
		{
			name: "disconnected binding becomes an init rule",
			src: `p(X,Y) :- b(X,Y).
				p(X,Y) :- p(Z,X), e(Z,W), f(W,Y).`,
			// Column 0: in = X occurs only in the recursive atom (col 1),
			// out = Z is bound by e — frontier-independent contribution.
			cols: []int{0}, ok: true, mode: MagicFilter, inits: 1,
		},
		{
			name: "left-chain full adornment is context over pairs",
			src: `p(X,Y) :- b(X,Y).
				p(X,Y) :- e(X,Z), p(Z,Y).`,
			// Both columns bound: column 0 steps across e, column 1 rides
			// as an identity inside the frontier tuple — and no unbound
			// column remains, so the mode is context.
			cols: []int{0, 1}, ok: true, mode: MagicContext, steps: 1,
		},
		{
			name: "swap rule binds the full adornment by cross-copy",
			src: `p(X,Y) :- b(X,Y).
				p(X,Y) :- p(Y,X), e(X,X).`,
			// Unbindable on either single column, but with both bound the
			// frontier just permutes the pair: out₀ = Y = in₁, out₁ = X =
			// in₀.
			cols: []int{0, 1}, ok: true, mode: MagicContext, steps: 1,
		},
		{
			name: "same-generation full adornment is context",
			src: `p(X,Y) :- b(X,Y).
				p(X,Y) :- e(Z,X), p(Z,W), e(W,Y).`,
			cols: []int{0, 1}, ok: true, mode: MagicContext, steps: 1,
		},
		{
			name: "pure identity rule contributes no frontier rule",
			src: `p(X,Y) :- b(X,Y).
				p(X,Y) :- p(X,Y), e(X,X).`,
			cols: []int{0, 1}, ok: true, mode: MagicContext, identity: 1,
		},
		{
			name: "unsorted column list is rejected",
			src: `p(X,Y) :- b(X,Y).
				p(X,Y) :- e(X,Z), p(Z,Y).`,
			cols: []int{1, 0}, ok: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := analyzeSrc(t, tc.src)
			spec, mode, ok := MagicAnalysis(a.Ops, tc.cols)
			if ok != tc.ok {
				t.Fatalf("ok = %v, want %v", ok, tc.ok)
			}
			if !ok {
				return
			}
			if mode != tc.mode {
				t.Errorf("mode = %v, want %v", mode, tc.mode)
			}
			if len(spec.Step) != tc.steps || len(spec.Init) != tc.inits || spec.Identity != tc.identity {
				t.Errorf("spec = %d step / %d init / %d identity, want %d/%d/%d",
					len(spec.Step), len(spec.Init), spec.Identity, tc.steps, tc.inits, tc.identity)
			}
		})
	}
}

// TestMagicPlanSubsetFallback: a two-column binding where only one
// column is bindable falls back to that column, and the dropped column
// is reported for post-filtering; a fully unbindable binding yields no
// plan.
func TestMagicPlanSubsetFallback(t *testing.T) {
	e := eval.NewEngine(nil)
	a := analyzeSrc(t, `p(X,Y) :- b(X,Y).
		p(X,Y) :- e(X,Z), p(Z,W), f(W,Y).`)
	// Column 0 steps across e; column 1's antecedent W is bound by f, so
	// both columns bind jointly — the full adornment should win.
	sels := []separable.Selection{
		{Col: 0, Value: e.Syms.Intern("a")},
		{Col: 1, Value: e.Syms.Intern("b")},
	}
	plan := a.magicPlan(sels)
	if plan == nil || len(plan.Magic.Spec.Cols) != 2 {
		t.Fatalf("full adornment not chosen: %+v", plan)
	}

	// A rule whose column-1 antecedent variable W is reachable neither
	// from the bound head columns nor from the nonrecursive atoms forces
	// the subset fallback onto column 0 alone.
	b := analyzeSrc(t, `p(X,Y) :- b(X,Y).
		p(X,Y) :- e(X,Z), p(Z,Y).
		p(X,Y) :- p(X,W), e(X,Y).`)
	plan = b.magicPlan(sels)
	if plan == nil {
		t.Fatalf("no plan for partially bindable adornment")
	}
	if got := plan.Magic.Spec.Cols; len(got) != 1 || got[0] != 0 {
		t.Fatalf("fallback chose columns %v, want [0]", got)
	}
	if len(plan.Magic.Sels) != 1 || plan.Magic.Sels[0].Col != 0 {
		t.Fatalf("fallback selections = %+v, want column 0 only", plan.Magic.Sels)
	}
	if !strings.Contains(plan.Why, "post-filter") {
		t.Errorf("Why does not mention the dropped column: %q", plan.Why)
	}

	// Unbindable on every subset: no magic plan at all.
	c := analyzeSrc(t, `p(X,Y) :- b(X,Y).
		p(X,Y) :- p(Z,W), e(Z,W).`)
	if p := c.magicPlan(sels[:1]); p != nil {
		t.Fatalf("unbindable rule set produced a plan: %+v", p)
	}
}

// TestMagicPlanPriority: Theorem 4.1's separable plan still wins when it
// applies; magic seeding takes the bound queries separability cannot, and
// forced strategies bypass both.
func TestMagicPlanPriority(t *testing.T) {
	e := eval.NewEngine(nil)
	sel := &separable.Selection{Col: 0, Value: e.Syms.Intern("a")}

	sep := analyzeSrc(t, `p(X,Y) :- b(X,Y).
		p(X,Y) :- p(X,U), up(U,Y).
		p(X,Y) :- down(X,U), p(U,Y).`)
	if plan := sep.ChooseMulti([]separable.Selection{*sel}, Options{}); plan.Kind != Separable {
		t.Errorf("commuting pair with commuting σ: plan = %v, want Separable (%s)", plan.Kind, plan.Why)
	}

	single := analyzeSrc(t, `p(X,Y) :- b(X,Y).
		p(X,Y) :- e(X,Z), p(Z,Y).`)
	plan := single.ChooseMulti([]separable.Selection{*sel}, Options{})
	if plan.Kind != MagicSeeded || plan.Magic == nil || plan.Magic.Mode != MagicContext {
		t.Errorf("single left chain with binding: plan = %v (%s), want context-mode MagicSeeded", plan.Kind, plan.Why)
	}
	if !strings.Contains(plan.Why, "magic") {
		t.Errorf("Why does not explain the magic plan: %q", plan.Why)
	}
	if plan.Parallelizable() {
		t.Errorf("context-mode magic plan reports parallelizable")
	}
	if p := single.ChooseMulti([]separable.Selection{*sel}, Options{Strategy: ForceSemiNaive}); p.Kind != SemiNaive {
		t.Errorf("forced strategy overridden by magic: %v", p.Kind)
	}
	if p := single.ChooseMulti(nil, Options{}); p.Kind == MagicSeeded {
		t.Errorf("open query chose a magic plan")
	}

	filter := analyzeSrc(t, `p(X,Y) :- b(X,Y).
		p(X,Y) :- e(Z,X), p(Z,W), e(W,Y).`)
	fp := filter.ChooseMulti([]separable.Selection{*sel}, Options{Workers: 4})
	if fp.Kind != MagicSeeded || fp.Magic.Mode != MagicFilter {
		t.Fatalf("same-generation binding: plan = %v (%s), want filter-mode MagicSeeded", fp.Kind, fp.Why)
	}
	if !fp.Parallelizable() {
		t.Errorf("filter-mode magic plan reports sequential")
	}
	if !strings.Contains(fp.Why, "shards across 4 workers") {
		t.Errorf("Why does not mention the worker pool: %q", fp.Why)
	}
}

// TestMagicPlanWorkersIsThePool: a plan records the pool it runs on — the
// requested pool for a plan that shards its rounds, at most one worker
// for a context-mode magic plan, which collects its answer
// sequentially, and 0 when 0 was asked.
func TestMagicPlanWorkersIsThePool(t *testing.T) {
	e := eval.NewEngine(nil)
	sels := []separable.Selection{{Col: 0, Value: e.Syms.Intern("a")}}
	contextMode := analyzeSrc(t, `p(X,Y) :- b(X,Y).
		p(X,Y) :- e(X,Z), p(Z,Y).`)
	filter := analyzeSrc(t, `p(X,Y) :- b(X,Y).
		p(X,Y) :- e(Z,X), p(Z,W), e(W,Y).`)
	for _, tc := range []struct {
		name          string
		a             *Analysis
		sels          []separable.Selection
		asked, runsOn int
	}{
		{"context", contextMode, sels, 4, 1},
		{"context/1", contextMode, sels, 1, 1},
		{"context/0", contextMode, sels, 0, 0},
		{"filter", filter, sels, 4, 4},
		{"open", contextMode, nil, 4, 4},
	} {
		plan := tc.a.ChooseMulti(tc.sels, Options{Workers: tc.asked})
		if plan.Workers != tc.runsOn {
			t.Errorf("%s: %v plan asked for %d workers records %d, want %d", tc.name, plan.Kind, tc.asked, plan.Workers, tc.runsOn)
		}
	}
}

// TestMagicExecutionMatchesClosure: executing a MagicSeeded plan returns
// exactly the closure-then-filter answer, in both modes, sequentially and
// sharded, with and without a pre-computed (cached) magic set.
func TestMagicExecutionMatchesClosure(t *testing.T) {
	srcs := map[string]string{
		"context": `p(X,Y) :- b(X,Y).
			p(X,Y) :- e(X,Z), p(Z,Y).
			p(X,Y) :- f(X,Z), p(Z,Y).`,
		"filter": `p(X,Y) :- b(X,Y).
			p(X,Y) :- e(Z,X), p(Z,W), e(W,Y).`,
	}
	for name, src := range srcs {
		t.Run(name, func(t *testing.T) {
			a := analyzeSrc(t, src)
			e := eval.NewEngine(nil)
			db := rel.DB{}
			ins := func(pred string, pairs ...[2]int) {
				r := db.Rel(pred, 2)
				for _, pr := range pairs {
					r.Insert(rel.Tuple{
						e.Syms.Intern(string(rune('a' + pr[0]))),
						e.Syms.Intern(string(rune('a' + pr[1]))),
					})
				}
			}
			ins("b", [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{3, 0}, [2]int{4, 5})
			ins("e", [2]int{0, 2}, [2]int{2, 4}, [2]int{1, 3}, [2]int{5, 1})
			ins("f", [2]int{0, 1}, [2]int{3, 5}, [2]int{4, 0})

			sel := separable.Selection{Col: 0, Value: e.Syms.Intern("a")}
			flat, err := execute(a, e, db, &Plan{Kind: SemiNaive}, &sel)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			for _, workers := range []int{1, 4} {
				plan := a.ChooseMulti([]separable.Selection{sel}, Options{Workers: workers})
				if plan.Kind != MagicSeeded {
					t.Fatalf("plan = %v (%s), want MagicSeeded", plan.Kind, plan.Why)
				}
				got, err := execute(a, e, db, plan, nil)
				if err != nil {
					t.Fatalf("magic workers=%d: %v", workers, err)
				}
				if !got.Answer.Equal(flat.Answer) {
					t.Fatalf("workers=%d: magic answer %d tuples, closure+filter %d",
						workers, got.Answer.Len(), flat.Answer.Len())
				}

				// Same plan again with the magic set pre-computed and
				// handed to Open, as core's cache does, its build's
				// statistics added: identical answer and statistics.
				ctx := context.Background()
				var stats eval.Stats
				set, err := e.MagicSetCtx(ctx, db, plan.Magic.Spec, plan.Magic.BoundTuple(), &stats)
				if err != nil {
					t.Fatalf("MagicSetCtx: %v", err)
				}
				q, err := a.Seed(e, db)
				if err != nil {
					t.Fatal(err)
				}
				cached := a.ChooseMulti([]separable.Selection{sel}, Options{Workers: workers})
				cl, pre, err := a.Open(ctx, e, db, cached, Options{Workers: cached.Workers}, q, set)
				if err != nil {
					t.Fatalf("cached magic workers=%d: %v", workers, err)
				}
				ans, s, err := cl.Drain()
				if err != nil {
					t.Fatalf("cached magic workers=%d: %v", workers, err)
				}
				stats.Add(pre)
				stats.Add(s)
				if !ans.Equal(got.Answer) || stats != got.Stats {
					t.Fatalf("workers=%d: cached set diverges: %v vs %v (answers %d vs %d)",
						workers, stats, got.Stats, ans.Len(), got.Answer.Len())
				}
			}
		})
	}
}
