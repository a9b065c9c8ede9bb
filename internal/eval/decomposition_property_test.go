package eval

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"linrec/internal/ast"
	"linrec/internal/commute"
	"linrec/internal/rel"
)

// genCommutingPair builds two operators over p/arity that drive disjoint
// column sets (each driven column's head variable is free 1-persistent in
// the other rule), which guarantees commutativity by Theorem 5.1(a); the
// generator's output is re-checked with the syntactic test.
func genCommutingPair(rng *rand.Rand, arity int) (*ast.Op, *ast.Op) {
	mk := func(driven []int, salt string) *ast.Op {
		head := make([]ast.Term, arity)
		rec := make([]ast.Term, arity)
		for i := range head {
			head[i] = ast.V(fmt.Sprintf("X%d", i))
			rec[i] = head[i]
		}
		op := &ast.Op{}
		for k, c := range driven {
			v := ast.V(fmt.Sprintf("U%s%d", salt, k))
			rec[c] = v
			args := []ast.Term{head[c], v}
			if rng.Intn(2) == 0 {
				args[0], args[1] = args[1], args[0]
			}
			op.NonRec = append(op.NonRec, ast.Atom{Pred: fmt.Sprintf("e%s%d", salt, k), Args: args})
		}
		op.Head = ast.Atom{Pred: "p", Args: head}
		op.Rec = ast.Atom{Pred: "p", Args: rec}
		return op
	}
	perm := rng.Perm(arity)
	split := 1 + rng.Intn(arity-1)
	return mk(perm[:split], "a"), mk(perm[split:], "b")
}

// TestDecompositionPropertyOnData: for random commuting pairs and random
// databases, B*C*Q equals (B+C)*Q and never produces more duplicates
// (Theorem 3.1 over the whole generator family).
func TestDecompositionPropertyOnData(t *testing.T) {
	rng := rand.New(rand.NewSource(20260612))
	for trial := 0; trial < 25; trial++ {
		arity := 2 + rng.Intn(2)
		b, c := genCommutingPair(rng, arity)
		if rep, err := commute.Syntactic(b, c); err != nil || rep.Verdict != commute.Commute {
			t.Fatalf("trial %d: generator produced a non-commuting pair: %v / %v (%v, %v)", trial, b, c, rep, err)
		}

		e := NewEngine(nil)
		db := rel.DB{}
		nVals := 6 + rng.Intn(6)
		val := func() rel.Value { return e.Syms.Intern(fmt.Sprintf("v%d", rng.Intn(nVals))) }
		for _, op := range []*ast.Op{b, c} {
			for _, a := range op.NonRec {
				r := db.Rel(a.Pred, a.Arity())
				for k := 0; k < 8+rng.Intn(8); k++ {
					tu := make(rel.Tuple, a.Arity())
					for i := range tu {
						tu[i] = val()
					}
					r.Insert(tu)
				}
			}
		}
		q := rel.NewRelation(arity)
		for k := 0; k < 4; k++ {
			tu := make(rel.Tuple, arity)
			for i := range tu {
				tu[i] = val()
			}
			q.Insert(tu)
		}

		mono, monoStats := e.SemiNaive(db, []*ast.Op{b, c}, q)
		dec, decStats, _ := e.Decomposed(context.Background(), db, []*ast.Op{b}, []*ast.Op{c}, q)
		if !mono.Equal(dec) {
			t.Fatalf("trial %d: decomposition changed the answer (%d vs %d)\nB: %v\nC: %v",
				trial, mono.Len(), dec.Len(), b, c)
		}
		if decStats.Duplicates > monoStats.Duplicates {
			t.Fatalf("trial %d: Theorem 3.1 violated: %d > %d dups\nB: %v\nC: %v",
				trial, decStats.Duplicates, monoStats.Duplicates, b, c)
		}
		// The reverse composition order must agree too (B and C commute).
		dec2, _, _ := e.Decomposed(context.Background(), db, []*ast.Op{c}, []*ast.Op{b}, q)
		if !mono.Equal(dec2) {
			t.Fatalf("trial %d: C*B* differs from (B+C)*", trial)
		}
	}
}
