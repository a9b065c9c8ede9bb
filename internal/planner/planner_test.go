package planner

import (
	"context"
	"strings"
	"testing"

	"linrec/internal/commute"
	"linrec/internal/eval"
	"linrec/internal/parser"
	"linrec/internal/rel"
	"linrec/internal/separable"
	"linrec/internal/workload"
)

const tcProgram = `
path(X,Y) :- up(X,Y).
path(X,Y) :- path(X,Z), up(Z,Y).
path(X,Y) :- down(X,Z), path(Z,Y).
`

func analyze(t *testing.T, src, pred string) *Analysis {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	a, err := Analyze(prog, pred)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return a
}

// execute seeds plan from db and runs it on the plan's pool, filtering
// by sel when non-nil.
func execute(a *Analysis, e *eval.Engine, db rel.DB, plan *Plan, sel *separable.Selection) (*Result, error) {
	q, err := a.Seed(e, db)
	if err != nil {
		return nil, err
	}
	return a.ExecuteSeeded(context.Background(), e, db, plan, sel, Options{Workers: plan.Workers}, q)
}

func TestAnalyzeTC(t *testing.T) {
	a := analyze(t, tcProgram, "path")
	if len(a.Ops) != 2 || len(a.ExitRules) != 1 {
		t.Fatalf("ops=%d exits=%d", len(a.Ops), len(a.ExitRules))
	}
	if a.Commutes[[2]int{0, 1}] != commute.Commute {
		t.Fatalf("TC pair should commute")
	}
	if !a.AllCommute() {
		t.Fatalf("AllCommute should hold")
	}
	sep := a.Separable[[2]int{0, 1}]
	if !sep.Separable() {
		t.Fatalf("TC pair should be separable: %v", sep)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	prog, _ := parser.Parse("p(X,Y) :- p(X,Z), e(Z,Y).")
	if _, err := Analyze(prog, "p"); err == nil || !strings.Contains(err.Error(), "exit") {
		t.Fatalf("missing exit rules should error, got %v", err)
	}
	prog2, _ := parser.Parse("p(X,Y) :- e(X,Y).")
	if _, err := Analyze(prog2, "p"); err == nil || !strings.Contains(err.Error(), "no recursive rules") {
		t.Fatalf("missing recursive rules should error, got %v", err)
	}
}

func TestChooseDecomposed(t *testing.T) {
	a := analyze(t, tcProgram, "path")
	plan := a.ChooseMulti(nil, Options{})
	if plan.Kind != Decomposed {
		t.Fatalf("plan = %v, want decomposed", plan.Kind)
	}
}

func TestChooseSeparable(t *testing.T) {
	a := analyze(t, tcProgram, "path")
	sel := &separable.Selection{Col: 0, Value: 1}
	plan := a.ChooseMulti([]separable.Selection{*sel}, Options{})
	if plan.Kind != Separable {
		t.Fatalf("plan = %v, want separable (%s)", plan.Kind, plan.Why)
	}
	// A1 must be the operator σ commutes with: rule 1 (left-linear, X
	// free 1-persistent).  It runs last; σ filters the A2 step before it.
	steps := plan.Sep.Steps
	if len(plan.Sep.Sigma0) != 0 || len(steps) != 2 || steps[0].Op != 1 || *steps[0].Sel != *sel || steps[1].Op != 0 || steps[1].Sel != nil {
		t.Fatalf("payload = %+v, want σA2* then A1* = rule 1", plan.Sep)
	}
}

func TestChooseFallback(t *testing.T) {
	a := analyze(t, `
p(X,Y) :- e(X,Y).
p(X,Y) :- p(X,Z), e1(Z,Y).
p(X,Y) :- p(X,Z), e2(Z,Y).
`, "p")
	if a.AllCommute() {
		t.Fatalf("same-side rules should not commute")
	}
	plan := a.ChooseMulti(nil, Options{})
	if plan.Kind != SemiNaive {
		t.Fatalf("plan = %v, want semi-naive fallback", plan.Kind)
	}
}

func TestExecutePlansAgree(t *testing.T) {
	prog, err := parser.Parse(tcProgram)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	a, err := Analyze(prog, "path")
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	e := eval.NewEngine(nil)
	db := rel.DB{}
	workload.ChainShared(e, db, "up", 12)
	workload.Random(e, db, "down", 13, 20, 5)

	fallback, err := execute(a, e, db, &Plan{Kind: SemiNaive}, nil)
	if err != nil {
		t.Fatalf("Execute fallback: %v", err)
	}
	dec, err := execute(a, e, db, a.ChooseMulti(nil, Options{}), nil)
	if err != nil {
		t.Fatalf("Execute decomposed: %v", err)
	}
	if !fallback.Answer.Equal(dec.Answer) {
		t.Fatalf("plans disagree: %d vs %d tuples", fallback.Answer.Len(), dec.Answer.Len())
	}

	sel := separable.Selection{Col: 0, Value: e.Syms.Intern("v0")}
	sepRes, err := execute(a, e, db, a.ChooseMulti([]separable.Selection{sel}, Options{}), nil)
	if err != nil {
		t.Fatalf("Execute separable: %v", err)
	}
	filtered, err := execute(a, e, db, &Plan{Kind: SemiNaive}, &sel)
	if err != nil {
		t.Fatalf("Execute filtered: %v", err)
	}
	if !sepRes.Answer.Equal(filtered.Answer) {
		t.Fatalf("separable plan disagrees: %d vs %d tuples",
			sepRes.Answer.Len(), filtered.Answer.Len())
	}
}

func TestSummaryMentionsEverything(t *testing.T) {
	a := analyze(t, `
buys(X,Y) :- trust(X,Y).
buys(X,Y) :- knows(X,Z), buys(Z,Y), cheap(Y).
`, "buys")
	sum := a.Summary()
	for _, want := range []string{"buys", "link 1-persistent", "recursively redundant: cheap"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary missing %q:\n%s", want, sum)
		}
	}
}

// oneRuleTC is the shape of every restart_scan predicate: one exit rule,
// one left-linear recursive rule.
const oneRuleTC = `
path(X,Y) :- edge(X,Y).
path(X,Y) :- path(X,Z), edge(Z,Y).
`

// TestAnalyzeAllocs: Analyze runs only what plan choice reads.  On a
// one-rule program that is the a-graph and nothing pairwise — no
// operator-power search (it cost ~3200 allocations when Analyze ran
// redundancy eagerly) — and choosing a plan adds none either.
func TestAnalyzeAllocs(t *testing.T) {
	prog, err := parser.Parse(oneRuleTC)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		a, err := Analyze(prog, "path")
		if err != nil {
			t.Fatal(err)
		}
		a.ChooseMulti(nil, Options{})
	})
	if allocs > 64 {
		t.Fatalf("Analyze + ChooseMulti allocated %.0f times, want ≤ 64", allocs)
	}
}

// BenchmarkAnalyze times the analysis a cold predicate's first query
// pays (see TestAnalyzeAllocs).
func BenchmarkAnalyze(b *testing.B) {
	prog, err := parser.Parse(oneRuleTC)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if analysisSink, err = Analyze(prog, "path"); err != nil {
			b.Fatal(err)
		}
	}
}

var analysisSink *Analysis

// TestCopySource: only a lone exit rule copying one stored relation
// column for column over distinct variables makes that relation the
// seed; swaps, repeats, constants, projections, joins and unions keep a
// materialized seed.
func TestCopySource(t *testing.T) {
	const rec = "\np(X,Y) :- p(X,Z), e(Z,Y).\n"
	cases := []struct {
		exit string
		want string // "" when the rule is not a copy
	}{
		{"p(X,Y) :- b(X,Y).", "b"},
		{"p(A,B) :- e(A,B).", "e"},
		{"p(X,Y) :- b(Y,X).", ""},
		{"p(X,X) :- b(X,X).", ""},
		{"p(X,Y) :- b(X,Y,Y).", ""},
		{"p(X,a) :- b(X,a).", ""},
		{"p(X,Y) :- b(X,Y), c(Y).", ""},
		{"p(X,Y) :- b(X,Y).\np(X,Y) :- c(X,Y).", ""},
	}
	for _, tc := range cases {
		a := analyze(t, tc.exit+rec, "p")
		pred, ok := a.CopySource()
		if pred != tc.want || ok != (tc.want != "") {
			t.Errorf("%q: CopySource() = %q, %v; want %q", tc.exit, pred, ok, tc.want)
		}
	}
}
