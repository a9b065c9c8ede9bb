package planner

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"linrec/internal/algebra"
	"linrec/internal/eval"
	"linrec/internal/rel"
	"linrec/internal/workload"
)

// partialProgram has three recursive rules: rules 1 and 2 (both
// left-linear over different predicates) do not commute with each other,
// but each commutes with rule 3 (right-linear).  Partial commutativity
// (Section 7) groups {1,2} against {3}.
const partialProgram = `
p(X,Y) :- seed(X,Y).
p(X,Y) :- p(X,Z), e1(Z,Y).
p(X,Y) :- p(X,Z), e2(Z,Y).
p(X,Y) :- e3(X,Z), p(Z,Y).
`

func TestCommutingGroupsPartition(t *testing.T) {
	a := analyze(t, partialProgram, "p")
	if a.AllCommute() {
		t.Fatalf("rules 1,2 should not commute")
	}
	groups := a.CommutingGroups()
	if len(groups) != 2 {
		t.Fatalf("groups = %v, want 2 groups", groups)
	}
	if len(groups[0]) != 2 || groups[0][0] != 0 || groups[0][1] != 1 {
		t.Fatalf("first group = %v, want [0 1]", groups[0])
	}
	if len(groups[1]) != 1 || groups[1][0] != 2 {
		t.Fatalf("second group = %v, want [2]", groups[1])
	}
}

func TestChoosePartialDecomposition(t *testing.T) {
	a := analyze(t, partialProgram, "p")
	plan := a.ChooseMulti(nil, Options{})
	if plan.Kind != Decomposed {
		t.Fatalf("plan = %v, want decomposed via partial commutativity (%s)", plan.Kind, plan.Why)
	}
	if len(plan.Groups) != 2 {
		t.Fatalf("plan groups = %v", plan.Groups)
	}
}

// TestPartialDecompositionCorrect: the grouped plan returns exactly the
// semi-naive closure of the whole sum.
func TestPartialDecompositionCorrect(t *testing.T) {
	a := analyze(t, partialProgram, "p")
	e := eval.NewEngine(nil)
	db := rel.DB{}
	workload.ChainShared(e, db, "seed", 1)
	workload.ChainShared(e, db, "e1", 10)
	workload.Random(e, db, "e2", 11, 15, 3)
	workload.Random(e, db, "e3", 11, 15, 4)

	grouped, err := execute(a, e, db, a.ChooseMulti(nil, Options{}), nil)
	if err != nil {
		t.Fatalf("Execute grouped: %v", err)
	}
	flat, err := execute(a, e, db, &Plan{Kind: SemiNaive}, nil)
	if err != nil {
		t.Fatalf("Execute flat: %v", err)
	}
	if !grouped.Answer.Equal(flat.Answer) {
		t.Fatalf("partial decomposition changed the answer: %d vs %d tuples",
			grouped.Answer.Len(), flat.Answer.Len())
	}
	if flat.Answer.Len() == 0 {
		t.Fatalf("degenerate workload")
	}
}

// TestSingleGroupFallsBack: three mutually non-commuting rules form one
// group, so no decomposition applies.
func TestSingleGroupFallsBack(t *testing.T) {
	a := analyze(t, `
p(X,Y) :- seed(X,Y).
p(X,Y) :- p(X,Z), e1(Z,Y).
p(X,Y) :- p(X,Z), e2(Z,Y).
p(X,Y) :- p(X,Z), e3(Z,Y).
`, "p")
	groups := a.CommutingGroups()
	if len(groups) != 1 {
		t.Fatalf("groups = %v, want a single group", groups)
	}
	if plan := a.ChooseMulti(nil, Options{}); plan.Kind != SemiNaive {
		t.Fatalf("plan = %v, want semi-naive fallback", plan.Kind)
	}
}

// TestThreeWayDecomposition: three pairwise-commuting rules decompose into
// three singleton groups and the result matches the flat closure.
func TestThreeWayDecomposition(t *testing.T) {
	a := analyze(t, `
p(X,Y,Z) :- seed(X,Y,Z).
p(X,Y,Z) :- p(U,Y,Z), q(X,U).
p(X,Y,Z) :- p(X,U,Z), r(Y,U).
p(X,Y,Z) :- p(X,Y,U), s(Z,U).
`, "p")
	if !a.AllCommute() {
		t.Fatalf("the three one-column rules should pairwise commute")
	}
	groups := a.CommutingGroups()
	if len(groups) != 3 {
		t.Fatalf("groups = %v, want 3 singletons", groups)
	}

	e := eval.NewEngine(nil)
	db := rel.DB{}
	workload.Pairs(e, db, "q", [][2]int{{1, 0}, {2, 1}})
	workload.Pairs(e, db, "r", [][2]int{{3, 0}, {4, 3}})
	workload.Pairs(e, db, "s", [][2]int{{5, 0}})
	seed := db.Rel("seed", 3)
	seed.Insert(rel.Tuple{e.Syms.Intern("v0"), e.Syms.Intern("v0"), e.Syms.Intern("v0")})

	grouped, err := execute(a, e, db, a.ChooseMulti(nil, Options{}), nil)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	flat, _ := execute(a, e, db, &Plan{Kind: SemiNaive}, nil)
	if !grouped.Answer.Equal(flat.Answer) {
		t.Fatalf("3-way decomposition diverged: %d vs %d", grouped.Answer.Len(), flat.Answer.Len())
	}
	// 3 q-steps × 3 r-steps × 2 s-steps of independent closure.
	if flat.Answer.Len() != 3*3*2 {
		t.Fatalf("closure = %d tuples, want 18", flat.Answer.Len())
	}
}

// genBoundedCandidate builds a random single linear rule over p/arity:
// the recursive atom permutes or projects the head's variables, and the
// nonrecursive atoms filter them, possibly through a fresh variable —
// shapes whose powers minimize quickly.  (A fresh variable in the
// recursive atom admits unbounded operators, on which the power search
// costs seconds — why plan choice no longer runs it.)  It returns ""
// when some head variable occurs nowhere in the body.
func genBoundedCandidate(rng *rand.Rand, arity int) string {
	vars := []string{"A", "B", "C"}[:arity]
	rec := make([]string, arity)
	for i := range rec {
		rec[i] = vars[rng.Intn(arity)]
	}
	body := []string{"p(" + strings.Join(rec, ",") + ")"}
	pool := append(append([]string(nil), vars...), "U")
	for k := 1 + rng.Intn(2); k > 0; k-- {
		i, j := rng.Intn(len(pool)), rng.Intn(len(pool)-1)
		if j >= i {
			j++
		}
		body = append(body, fmt.Sprintf("%s(%s,%s)", []string{"e", "f"}[rng.Intn(2)], pool[i], pool[j]))
	}
	rule := strings.Join(body, ", ")
	for _, v := range vars {
		if !strings.Contains(rule, v) {
			return ""
		}
	}
	head := "p(" + strings.Join(vars, ",") + ")"
	return fmt.Sprintf("%s :- seed(%s).\n%s :- %s.\n", head, strings.Join(vars, ","), head, rule)
}

// TestBoundedOperatorSemiNaive holds the paper's uniform-boundedness
// statement as a property of the one closure kernel: for a single operator
// with Aᴺ ≤ Aᴷ (K < N), the semi-naive closure the planner chooses equals
// the truncated series Σ_{m<N} Aᵐ Q built from repeated Engine.Apply, and
// reaches it within N−1 productive rounds — at 1 and 2 workers, over seeds
// wide enough (≥ 1024 rows) for the 2-worker rounds to fan out.
func TestBoundedOperatorSemiNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	checked := 0
	for attempt := 0; attempt < 400 && checked < 24; attempt++ {
		arity := 2 + rng.Intn(2)
		src := genBoundedCandidate(rng, arity)
		if src == "" {
			continue
		}
		a := analyze(t, src, "p")
		ub := algebra.UniformlyBounded(a.Ops[0], 8)
		if !ub.Found {
			continue
		}
		checked++
		plan := a.ChooseMulti(nil, Options{})
		if plan.Kind != SemiNaive {
			t.Fatalf("%s: plan = %v, want semi-naive", src, plan.Kind)
		}

		e := eval.NewEngine(nil)
		db := rel.DB{}
		// Every other operator gets a seed of ≥ 1024 rows, so its first
		// round fans out at 2 workers.
		dom, rows := 6+rng.Intn(10), 30
		if checked%2 == 0 {
			dom, rows = []int{0, 0, 60, 16}[arity], 1500
		}
		workload.Random(e, db, "e", dom, 3*dom, rng.Int63())
		workload.Random(e, db, "f", dom, 3*dom, rng.Int63())
		seed := db.Rel("seed", arity)
		for i := 0; i < rows; i++ {
			tu := make(rel.Tuple, arity)
			for k := range tu {
				tu[k] = e.Syms.Intern(fmt.Sprintf("v%d", rng.Intn(dom)))
			}
			seed.Insert(tu)
		}

		var stats eval.Stats
		want, cur := seed.Clone(), seed.Clone()
		for m := 1; m < ub.N; m++ {
			next := rel.NewRelation(arity)
			e.Apply(db, a.Ops[0], cur, next, &stats)
			want.UnionInto(next)
			cur = next
		}
		for _, workers := range []int{1, 2} {
			res, err := execute(a, e, db, a.ChooseMulti(nil, Options{Workers: workers}), nil)
			if err != nil {
				t.Fatalf("%s: Execute: %v", src, err)
			}
			if !res.Answer.Equal(want) {
				t.Fatalf("%s(A^%d ≤ A^%d, workers=%d): closure %d tuples, Σ_{m<%d} A^m Q %d",
					src, ub.N, ub.K, workers, res.Answer.Len(), ub.N, want.Len())
			}
			if res.Stats.MaxDepth > ub.N-1 {
				t.Fatalf("%s(A^%d ≤ A^%d, workers=%d): %d productive rounds, want ≤ %d",
					src, ub.N, ub.K, workers, res.Stats.MaxDepth, ub.N-1)
			}
		}
	}
	t.Logf("%d uniformly bounded operators checked", checked)
	if checked < 16 {
		t.Fatalf("only %d uniformly bounded operators generated; the property is not exercised", checked)
	}
}

// TestUnboundedSingleRuleFallsBack: plain TC is not uniformly bounded.
func TestUnboundedSingleRuleFallsBack(t *testing.T) {
	a := analyze(t, `
p(X,Y) :- seed(X,Y).
p(X,Y) :- p(X,Z), e(Z,Y).
`, "p")
	if plan := a.ChooseMulti(nil, Options{}); plan.Kind != SemiNaive {
		t.Fatalf("plan = %v, want semi-naive", plan.Kind)
	}
}
