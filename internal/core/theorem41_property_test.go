package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"linrec/internal/ast"
	"linrec/internal/eval"
	"linrec/internal/planner"
	"linrec/internal/separable"
)

// theoremNodes sizes the constant domain of genCommutingProgram.
const theoremNodes = 40

// genCommutingProgram builds a random program of linear rules that mostly
// commute: a left- and a right-linear transitive closure over p/2, or
// over p/3 one rule driving each of the first two columns while the third
// rides along as a passenger — read by the driving relation or not — and
// sometimes a third rule driving the passenger.  The exit relation b
// holds ≥ 1024 seed rows over a small domain, so closures are dense and a
// separable plan's final step starts from a delta wide enough to fan out.
func genCommutingProgram(rng *rand.Rand) (src string, arity int) {
	var b strings.Builder
	node := func() string { return fmt.Sprintf("n%d", rng.Intn(theoremNodes)) }
	class := func() string { return fmt.Sprintf("k%d", rng.Intn(2)) }
	var rules []string
	edb := map[string]bool{}
	arity = 2 + rng.Intn(2)
	if arity == 2 {
		b.WriteString("p(X,Y) :- b(X,Y).\n")
		e1, e2 := fmt.Sprintf("e%d", rng.Intn(2)), fmt.Sprintf("e%d", rng.Intn(2))
		edb[e1], edb[e2] = true, true
		rules = append(rules, "p(X,Y) :- p(X,Z), "+e1+"(Z,Y).\n", "p(X,Y) :- "+e2+"(X,Z), p(Z,Y).\n")
	} else {
		b.WriteString("p(X,Y,C) :- b(X,Y,C).\n")
		for col, vars := range []string{"X,Z", "Z,Y"} {
			pred, args := fmt.Sprintf("e%d", rng.Intn(2)), vars
			if rng.Intn(2) == 0 {
				pred, args = fmt.Sprintf("f%d", rng.Intn(2)), vars+",C"
			}
			edb[pred] = true
			rules = append(rules, fmt.Sprintf("p(X,Y,C) :- p(%s,C), %s(%s).\n", []string{"Z,Y", "X,Z"}[col], pred, args))
		}
		if rng.Intn(3) == 0 {
			edb["g"] = true
			rules = append(rules, "p(X,Y,C) :- p(X,Y,D), g(D,C).\n")
		}
	}
	rng.Shuffle(len(rules), func(i, j int) { rules[i], rules[j] = rules[j], rules[i] })
	for _, r := range rules {
		b.WriteString(r)
	}
	for i := 0; i < 1100; i++ {
		if arity == 3 {
			fmt.Fprintf(&b, "b(%s,%s,%s).\n", node(), node(), class())
		} else {
			fmt.Fprintf(&b, "b(%s,%s).\n", node(), node())
		}
	}
	preds := make([]string, 0, len(edb))
	for pred := range edb {
		preds = append(preds, pred)
	}
	sort.Strings(preds) // the facts, drawn in this order, must not depend on map order
	for _, pred := range preds {
		switch pred[0] {
		case 'e':
			for i := 0; i < 2*theoremNodes; i++ {
				fmt.Fprintf(&b, "%s(%s,%s).\n", pred, node(), node())
			}
		case 'f':
			for i := 0; i < 4*theoremNodes; i++ {
				fmt.Fprintf(&b, "%s(%s,%s,%s).\n", pred, node(), node(), class())
			}
		case 'g':
			b.WriteString("g(k0,k1).\n")
		}
	}
	return b.String(), arity
}

// TestTheorem41Property holds Theorem 4.1 and its n-ary form as a
// property of the served plan: over random commuting programs and goals
// binding 1–3 random columns, whenever the planner picks a Separable plan
// — at one and at two workers — the answer equals closure-then-filter
// (BaselineMulti), a limit-k stream yields a duplicate-free k-subset of
// it, and PlanFor and Explain report the Kind and Why that Evaluate ran.
// The run is only accepted once both forms are well represented and a
// final step has fanned out.
func TestTheorem41Property(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const wantBinary, wantNAry = 40, 20
	var binary, nary, fanned, other int
	ctx := context.Background()
	for attempt := 0; attempt < 400 && (binary < wantBinary || nary < wantNAry || fanned == 0); attempt++ {
		src, arity := genCommutingProgram(rng)
		sys, err := load(src, Options{ResultCacheRows: -1})
		if err != nil {
			t.Fatalf("attempt %d: load:\n%s\n%v", attempt, src, err)
		}
		a, err := sys.Analyze("p")
		if err != nil {
			t.Fatal(err)
		}
		snap := sys.Snapshot()
		seed, err := a.Seed(sys.Engine, snap.DB)
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < 3; g++ {
			args := make([]ast.Term, arity)
			var sels []separable.Selection
			mask := 1 + rng.Intn(1<<arity-1)
			for col := range args {
				args[col] = ast.V(fmt.Sprintf("V%d", col))
				if mask&(1<<col) == 0 {
					continue
				}
				c := fmt.Sprintf("n%d", rng.Intn(theoremNodes))
				if col == 2 {
					c = fmt.Sprintf("k%d", rng.Intn(2))
				}
				v, ok := sys.Engine.Syms.Lookup(c)
				if !ok {
					t.Fatalf("constant %s not interned", c)
				}
				args[col] = ast.C(c)
				sels = append(sels, separable.Selection{Col: col, Value: v})
			}
			goal := ast.NewAtom("p", args...)
			if a.ChooseMulti(sels, planner.Options{}).Kind != planner.Separable {
				other++
				continue
			}
			want, _ := separable.BaselineMulti(sys.Engine, snap.DB, a.Ops, sels, seed)
			var why string
			for _, workers := range []int{1, 2} {
				opts := Options{Workers: workers}
				tr := &eval.Tracer{}
				res, err := sys.Evaluate(eval.WithTracer(ctx, tr), QueryRequest{Goal: goal, Snap: snap, Opts: opts})
				if err != nil {
					t.Fatalf("attempt %d: %s: %v", attempt, goal, err)
				}
				if !res.Answer.Equal(want) {
					t.Fatalf("attempt %d: %s at %d workers under %q: %d rows, closure-then-filter %d\nprogram:\n%s",
						attempt, goal, workers, res.Plan.Why, res.Answer.Len(), want.Len(), src)
				}
				why = res.Plan.Why
				samePlan(t, sys, goal, opts, res.Plan)
				if phases := tr.Trace().Phases; workers > 1 && len(phases) > 0 {
					for _, rd := range phases[len(phases)-1].Rounds {
						if len(rd.ShardRows) > 0 {
							fanned++
							break
						}
					}
				}

				k := 1 + rng.Intn(8)
				st, err := sys.Stream(ctx, QueryRequest{Goal: goal, Snap: snap, Opts: opts, Limit: k})
				if err != nil {
					t.Fatal(err)
				}
				seen := map[string]bool{}
				for row, ok := st.Next(); ok; row, ok = st.Next() {
					key := fmt.Sprint(row)
					if seen[key] || !want.Has(row) {
						t.Fatalf("%s limit %d: row %v repeated or not in the answer", goal, k, st.RenderRow(row))
					}
					seen[key] = true
				}
				st.Close()
				if st.Err() != nil || len(seen) != min(k, want.Len()) {
					t.Fatalf("%s limit %d: %d rows (err %v), want %d", goal, k, len(seen), st.Err(), min(k, want.Len()))
				}
			}
			if strings.Contains(why, "n-ary") {
				nary++
			} else {
				binary++
			}
		}
	}
	t.Logf("separable goals: %d Theorem 4.1, %d n-ary (other plans: %d); final steps fanned out: %d",
		binary, nary, other, fanned)
	if binary < wantBinary || nary < wantNAry || fanned == 0 {
		t.Fatalf("coverage too thin: %d binary, %d n-ary, %d fanned-out final steps", binary, nary, fanned)
	}
}
