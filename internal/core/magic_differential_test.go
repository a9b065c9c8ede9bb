package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"linrec/internal/ast"
	"linrec/internal/parser"
	"linrec/internal/planner"
)

// mustAtom parses a goal atom, failing the test on error.
func mustAtom(t *testing.T, src string) ast.Atom {
	t.Helper()
	a, err := parser.ParseAtom(src)
	if err != nil {
		t.Fatalf("parse atom %q: %v", src, err)
	}
	return a
}

// samePlan fails the test unless PlanFor, Explain and Stream report the
// plan kind and rationale that Evaluate ran for goal under opts, and,
// when sys caches results, Explain's cache key names the entry Evaluate
// filled.
func samePlan(t *testing.T, sys *System, goal ast.Atom, opts Options, ran *planner.Plan) {
	t.Helper()
	pf, err := sys.PlanFor(goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := sys.Explain(goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Before the stream, which may fill the entry itself.
	if ex.CacheKey != "" && sys.store.capRows > 0 && !storesResult(sys, ex.CacheKey) {
		t.Fatalf("%s: Explain names cache key %q, which no stored result has", goal, ex.CacheKey)
	}
	st, err := sys.Stream(context.Background(), QueryRequest{Goal: goal, Opts: opts, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	sp := st.Plan()
	st.Close()
	if pf.Kind != ran.Kind || pf.Why != ran.Why || ex.PlanKind != ran.Kind.Slug() || ex.Why != ran.Why || sp.Kind != ran.Kind || sp.Why != ran.Why {
		t.Fatalf("%s: PlanFor %v %q, Explain %s %q, Stream %v %q, Evaluate ran %v %q",
			goal, pf.Kind, pf.Why, ex.PlanKind, ex.Why, sp.Kind, sp.Why, ran.Kind, ran.Why)
	}
}

// storesResult reports whether sys's store holds a completed result
// under key, rendered as Explain renders a cache key.
func storesResult(sys *System, key string) bool {
	sys.store.mu.Lock()
	defer sys.store.mu.Unlock()
	for k, e := range sys.store.entries {
		if k.kind == resultView && e.admitted && fmt.Sprintf("%s|%s|%s|w%d", k.goal, k.plan.Slug(), k.strategy, k.workers) == key {
			return true
		}
	}
	return false
}

// genMagicProgram builds a random linear recursive program: 1–3 recursive
// rules drawn from shapes that exercise every magic classification
// (context steps, identities, init rules, and shapes with no finite
// context at all), 1–2 exit rules, and random facts over a small shared
// constant domain.
func genMagicProgram(rng *rand.Rand) string {
	var b strings.Builder
	nconst := 6 + rng.Intn(7)
	c := func() string { return fmt.Sprintf("c%d", rng.Intn(nconst)) }

	// Exit rules and their EDB relations.
	nexit := 1 + rng.Intn(2)
	for i := 0; i < nexit; i++ {
		fmt.Fprintf(&b, "p(X,Y) :- b%d(X,Y).\n", i)
	}

	shapes := []string{
		"p(X,Y) :- %s(X,Z), p(Z,Y).",          // frontier step on column 0
		"p(X,Y) :- p(X,Z), %s(Z,Y).",          // identity on column 0, step on 1
		"p(X,Y) :- %s(Z,X), p(Z,W), %s(W,Y).", // same-generation: filter mode
		"p(X,Y) :- p(X,Y), %s(X,X).",          // conditional identity
		"p(X,Y) :- %s(Y,Z), p(Z,X).",          // init on column 0, no context on 1
		"p(X,Y) :- p(Y,X), %s(X,Y).",          // cross-copy: bindable only with both columns bound
		"p(X,Y) :- p(X,W), %s(X,Y).",          // column 1's antecedent W is unreachable: forces subset fallback
	}
	nops := 1 + rng.Intn(3)
	edb := map[string]bool{}
	for i := 0; i < nops; i++ {
		shape := shapes[rng.Intn(len(shapes))]
		e1 := fmt.Sprintf("e%d", rng.Intn(4))
		e2 := fmt.Sprintf("e%d", rng.Intn(4))
		edb[e1], edb[e2] = true, true
		n := strings.Count(shape, "%s")
		if n == 1 {
			fmt.Fprintf(&b, shape+"\n", e1)
		} else {
			fmt.Fprintf(&b, shape+"\n", e1, e2)
		}
	}

	for i := 0; i < nexit; i++ {
		for k := 6 + rng.Intn(10); k > 0; k-- {
			fmt.Fprintf(&b, "b%d(%s,%s).\n", i, c(), c())
		}
	}
	for pred := range edb {
		for k := 6 + rng.Intn(15); k > 0; k-- {
			fmt.Fprintf(&b, "%s(%s,%s).\n", pred, c(), c())
		}
	}
	return b.String()
}

// TestMagicSeededDifferential is the PR's correctness harness: across
// hundreds of generated (program, binding) pairs, the automatic plan —
// magic-seeded wherever the analysis allows it — must return rows
// bit-for-bit equal to the forced closure-then-filter baseline, at one
// and at four workers.  The run is only accepted once at least 200
// magic-seeded cases, with both modes well represented, have been
// compared.
func TestMagicSeededDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(271828))
	const (
		wantMagic   = 200
		wantPerMode = 40
	)
	var magicContext, magicFilter, otherPlans, nonEmpty int
	ctx := context.Background()

	for attempt := 0; attempt < 3000; attempt++ {
		if magicContext+magicFilter >= wantMagic &&
			magicContext >= wantPerMode && magicFilter >= wantPerMode {
			break
		}
		src := genMagicProgram(rng)
		sys, err := load(src, Options{})
		if err != nil {
			t.Fatalf("attempt %d: load:\n%s\n%v", attempt, src, err)
		}
		snap := sys.Snapshot()
		col := rng.Intn(2)
		goalSrc := fmt.Sprintf("p(c%d, Y)", rng.Intn(8))
		if col == 1 {
			goalSrc = fmt.Sprintf("p(X, c%d)", rng.Intn(8))
		}
		goal := mustAtom(t, goalSrc)

		base, err := sys.Evaluate(ctx, QueryRequest{Goal: goal, Snap: snap, Opts: Options{Strategy: planner.ForceSemiNaive}})
		if err != nil {
			t.Fatalf("attempt %d: baseline %s:\n%s\n%v", attempt, goalSrc, src, err)
		}
		auto, err := sys.Evaluate(ctx, QueryRequest{Goal: goal, Snap: snap, Opts: Options{}})
		if err != nil {
			t.Fatalf("attempt %d: auto %s:\n%s\n%v", attempt, goalSrc, src, err)
		}
		auto4, err := sys.Evaluate(ctx, QueryRequest{Goal: goal, Snap: snap, Opts: Options{Workers: 4}})
		if err != nil {
			t.Fatalf("attempt %d: auto/4 %s:\n%s\n%v", attempt, goalSrc, src, err)
		}

		wantRows := base.Rows(sys)
		samePlan(t, sys, goal, Options{Strategy: planner.ForceSemiNaive}, base.Plan)
		samePlan(t, sys, goal, Options{}, auto.Plan)
		samePlan(t, sys, goal, Options{Workers: 4}, auto4.Plan)
		for which, got := range map[string]*QueryResult{"sequential": auto, "parallel": auto4} {
			if !reflect.DeepEqual(got.Rows(sys), wantRows) {
				t.Fatalf("attempt %d: %s %s answers diverge under plan %v (%s):\nprogram:\n%s\nwant %v\ngot  %v",
					attempt, which, goalSrc, got.Plan.Kind, got.Plan.Why, src, wantRows, got.Rows(sys))
			}
		}
		if len(wantRows) > 0 {
			nonEmpty++
		}
		if auto.Plan.Kind == planner.MagicSeeded {
			if auto.Plan.Magic.Mode == planner.MagicContext {
				magicContext++
			} else {
				magicFilter++
			}
		} else {
			otherPlans++
		}
	}
	t.Logf("magic-seeded cases: %d context + %d filter (other plans: %d, non-empty answers: %d)",
		magicContext, magicFilter, otherPlans, nonEmpty)
	if total := magicContext + magicFilter; total < wantMagic {
		t.Fatalf("only %d magic-seeded cases compared, want ≥ %d", total, wantMagic)
	}
	if magicContext < wantPerMode || magicFilter < wantPerMode {
		t.Fatalf("mode coverage too thin: %d context / %d filter, want ≥ %d each",
			magicContext, magicFilter, wantPerMode)
	}
	if nonEmpty < 50 {
		t.Fatalf("only %d cases had non-empty answers; the harness is not exercising evaluation", nonEmpty)
	}
}

// TestMagicMultiBoundDifferential extends the harness to adornments:
// across generated programs, goals bind a random column subset —
// including all-columns-bound point queries and columns no rule can
// bind — and the automatic plan must return rows bit-for-bit equal to
// the forced closure-then-filter baseline at one and at four workers.
// The run is only accepted once enough multi-bound cases, full-adornment
// plans and subset fallbacks (a bound column the analysis dropped to a
// post-filter) have been compared.
func TestMagicMultiBoundDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(314159))
	const (
		wantMultiBound = 150
		wantFullAdorn  = 40
		wantFallback   = 10
	)
	var multiBound, fullAdorn, fallback, otherPlans, nonEmpty int
	ctx := context.Background()

	for attempt := 0; attempt < 3000; attempt++ {
		if multiBound >= wantMultiBound && fullAdorn >= wantFullAdorn && fallback >= wantFallback {
			break
		}
		src := genMagicProgram(rng)
		sys, err := load(src, Options{})
		if err != nil {
			t.Fatalf("attempt %d: load:\n%s\n%v", attempt, src, err)
		}
		snap := sys.Snapshot()
		goalSrc := fmt.Sprintf("p(c%d, c%d)", rng.Intn(8), rng.Intn(8))
		if rng.Intn(4) == 0 { // keep some single-bound goals in the mix
			goalSrc = fmt.Sprintf("p(c%d, Y)", rng.Intn(8))
		}
		goal := mustAtom(t, goalSrc)

		base, err := sys.Evaluate(ctx, QueryRequest{Goal: goal, Snap: snap, Opts: Options{Strategy: planner.ForceSemiNaive}})
		if err != nil {
			t.Fatalf("attempt %d: baseline %s:\n%s\n%v", attempt, goalSrc, src, err)
		}
		auto, err := sys.Evaluate(ctx, QueryRequest{Goal: goal, Snap: snap, Opts: Options{}})
		if err != nil {
			t.Fatalf("attempt %d: auto %s:\n%s\n%v", attempt, goalSrc, src, err)
		}
		auto4, err := sys.Evaluate(ctx, QueryRequest{Goal: goal, Snap: snap, Opts: Options{Workers: 4}})
		if err != nil {
			t.Fatalf("attempt %d: auto/4 %s:\n%s\n%v", attempt, goalSrc, src, err)
		}

		wantRows := base.Rows(sys)
		samePlan(t, sys, goal, Options{Strategy: planner.ForceSemiNaive}, base.Plan)
		samePlan(t, sys, goal, Options{}, auto.Plan)
		samePlan(t, sys, goal, Options{Workers: 4}, auto4.Plan)
		for which, got := range map[string]*QueryResult{"sequential": auto, "parallel": auto4} {
			if !reflect.DeepEqual(got.Rows(sys), wantRows) {
				t.Fatalf("attempt %d: %s %s answers diverge under plan %v (%s):\nprogram:\n%s\nwant %v\ngot  %v",
					attempt, which, goalSrc, got.Plan.Kind, got.Plan.Why, src, wantRows, got.Rows(sys))
			}
		}
		if len(wantRows) > 0 {
			nonEmpty++
		}
		bound := 0
		for _, a := range goal.Args {
			if !a.IsVar() {
				bound++
			}
		}
		if bound >= 2 {
			multiBound++
		}
		if auto.Plan.Kind == planner.MagicSeeded {
			cols := len(auto.Plan.Magic.Spec.Cols)
			if cols >= 2 {
				fullAdorn++
			}
			if cols < bound {
				fallback++
			}
		} else {
			otherPlans++
		}
	}
	t.Logf("multi-bound cases: %d (full adornment: %d, subset fallback: %d, other plans: %d, non-empty answers: %d)",
		multiBound, fullAdorn, fallback, otherPlans, nonEmpty)
	if multiBound < wantMultiBound {
		t.Fatalf("only %d multi-bound cases compared, want ≥ %d", multiBound, wantMultiBound)
	}
	if fullAdorn < wantFullAdorn {
		t.Fatalf("only %d full-adornment magic plans seen, want ≥ %d", fullAdorn, wantFullAdorn)
	}
	if fallback < wantFallback {
		t.Fatalf("only %d subset-fallback plans seen, want ≥ %d", fallback, wantFallback)
	}
	if nonEmpty < 30 {
		t.Fatalf("only %d cases had non-empty answers; the harness is not exercising evaluation", nonEmpty)
	}
}

// TestMagicAfterFailedNArySeparableAssignment is the directed case for
// the ROADMAP gap: a bound query on commuting operators that is an
// n-ary separable candidate, whose assignment fails, used to surrender
// to closure-then-filter — it must now run the multi-column magic
// adornment, and agree with the forced baseline.
func TestMagicAfterFailedNArySeparableAssignment(t *testing.T) {
	// A and A² always commute, so the pair is an n-ary candidate for a
	// doubly bound goal — but σ[0] commutes with neither operator (both
	// step column 0), so no assignment slots it and the n-ary separable
	// formula is off the table.
	src := `p(X,Y) :- b(X,Y).
p(X,Y) :- e(X,Z), p(Z,Y).
p(X,Y) :- e(X,U), e(U,V), p(V,Y).
b(a1,a2). b(a2,a3). b(a3,a4). b(a2,a2).
e(a1,a2). e(a2,a3). e(a3,a1). e(a4,a2).
`
	sys, err := load(src, Options{})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	a, err := sys.Analyze("p")
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if len(a.Ops) != 2 || !a.AllCommute() {
		t.Fatalf("premise drifted: %d ops, all-commute=%v — the pair no longer forms an n-ary candidate", len(a.Ops), a.AllCommute())
	}
	ctx := context.Background()
	snap := sys.Snapshot()
	for _, goalSrc := range []string{"p(a2, a3)", "p(a1, a4)", "p(a3, a2)"} {
		goal := mustAtom(t, goalSrc)
		auto, err := sys.Evaluate(ctx, QueryRequest{Goal: goal, Snap: snap, Opts: Options{}})
		if err != nil {
			t.Fatalf("%s: %v", goalSrc, err)
		}
		if auto.Plan.Kind != planner.MagicSeeded || len(auto.Plan.Magic.Spec.Cols) != 2 {
			t.Fatalf("%s: plan = %v (%s), want a 2-column magic adornment", goalSrc, auto.Plan.Kind, auto.Plan.Why)
		}
		base, err := sys.Evaluate(ctx, QueryRequest{Goal: goal, Snap: snap, Opts: Options{Strategy: planner.ForceSemiNaive}})
		if err != nil {
			t.Fatalf("%s baseline: %v", goalSrc, err)
		}
		if !reflect.DeepEqual(auto.Rows(sys), base.Rows(sys)) {
			t.Fatalf("%s: magic answer %v diverges from baseline %v", goalSrc, auto.Rows(sys), base.Rows(sys))
		}
	}
}
