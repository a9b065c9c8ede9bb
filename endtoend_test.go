package linrec

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"linrec/internal/planner"
	"linrec/internal/rel"
)

// genProgram builds a random two-rule commuting program (left-linear +
// right-linear over separate edge relations) with random facts, plus a
// selection query on a random constant.
func genProgram(rng *rand.Rand) (src string, nodes int) {
	nodes = 8 + rng.Intn(8)
	var b strings.Builder
	b.WriteString("p(X,Y) :- base(X,Y).\n")
	b.WriteString("p(X,Y) :- p(X,Z), fwd(Z,Y).\n")
	b.WriteString("p(X,Y) :- bwd(X,Z), p(Z,Y).\n")
	edge := func(pred string, m int) {
		for i := 0; i < m; i++ {
			fmt.Fprintf(&b, "%s(n%d,n%d).\n", pred, rng.Intn(nodes), rng.Intn(nodes))
		}
	}
	edge("base", 4)
	edge("fwd", nodes)
	edge("bwd", nodes)
	return b.String(), nodes
}

// TestEndToEndPlansAgreeOnRandomPrograms: for random programs, the open
// query (decomposed plan), the selection query (separable plan) and the
// ground query (n-ary plan) are all consistent with the flat semi-naive
// closure.
func TestEndToEndPlansAgreeOnRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 15; trial++ {
		src, nodes := genProgram(rng)
		sys, err := Load(src, Options{})
		if err != nil {
			t.Fatalf("trial %d: Load: %v", trial, err)
		}
		a, err := sys.Analyze("p")
		if err != nil {
			t.Fatalf("trial %d: Analyze: %v", trial, err)
		}

		// Ground truth: flat semi-naive.
		flat, err := executePlan(sys, a, &planner.Plan{Kind: planner.SemiNaive})
		if err != nil {
			t.Fatalf("trial %d: flat: %v", trial, err)
		}

		// Open query uses the decomposed plan.
		open, err := sys.Evaluate(context.Background(), NewQueryRequest(Atom{Pred: "p", Args: []Term{V("X"), V("Y")}}))
		if err != nil {
			t.Fatalf("trial %d: open query: %v", trial, err)
		}
		if !open.Answer.Equal(flat.Answer) {
			t.Fatalf("trial %d: decomposed != flat (%d vs %d)", trial, open.Answer.Len(), flat.Answer.Len())
		}

		// Selection query per random constant.
		c := fmt.Sprintf("n%d", rng.Intn(nodes))
		sel, err := sys.Evaluate(context.Background(), NewQueryRequest(Atom{Pred: "p", Args: []Term{C(c), V("Y")}}))
		if err != nil {
			t.Fatalf("trial %d: selection query: %v", trial, err)
		}
		cv, ok := sys.Engine.Syms.Lookup(c)
		if !ok {
			if sel.Answer.Len() != 0 {
				t.Fatalf("trial %d: unknown constant with answers", trial)
			}
			continue
		}
		want := flat.Answer.Filter(func(t rel.Tuple) bool { return t[0] == cv })
		if !sel.Answer.Equal(want) {
			t.Fatalf("trial %d: separable plan wrong (%d vs %d rows)", trial, sel.Answer.Len(), want.Len())
		}

		// Ground query = membership.
		rows := want.Tuples()
		if len(rows) > 0 {
			d := sys.Engine.Syms.Name(rows[0][1])
			ground, err := sys.Evaluate(context.Background(), NewQueryRequest(Atom{Pred: "p", Args: []Term{C(c), C(d)}}))
			if err != nil {
				t.Fatalf("trial %d: ground query: %v", trial, err)
			}
			if ground.Answer.Len() != 1 {
				t.Fatalf("trial %d: ground query = %d rows, want 1", trial, ground.Answer.Len())
			}
		}
	}
}
