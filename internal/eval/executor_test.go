package eval

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"linrec/internal/ast"
	"linrec/internal/parser"
	"linrec/internal/rel"
)

// TestClosureAllocContract is the kernel's allocation contract: a closure
// allocates per growth step of its total relation (row storage and key
// table double) and a constant amount of scratch — nothing per delta row
// and nothing per derivation.  Each shape closes at two input sizes 4x
// apart at workers 1; the larger closure does many times the derivations
// of the smaller for a handful more allocations.
func TestClosureAllocContract(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		build func(*rand.Rand, int) kernelShape
		sizes [2]int
	}{
		{sgTree, [2]int{150, 600}},
		{tcTree, [2]int{1000, 4000}},
	} {
		var name string
		var allocs [2]float64
		var stats [2]Stats
		for i, n := range tc.sizes {
			e := NewEngine(nil)
			sh := tc.build(rng, n)
			name = sh.name
			// AllocsPerRun's warm-up run builds the EDB indexes.
			allocs[i] = testing.AllocsPerRun(3, func() {
				_, stats[i] = e.SemiNaive(sh.db, sh.b, sh.q)
			})
		}
		t.Logf("%s: %v allocs for %d derivations, %v for %d", name,
			allocs[0], stats[0].Derivations, allocs[1], stats[1].Derivations)
		if stats[1].Derivations < 4*stats[0].Derivations {
			t.Fatalf("%s: sizes too close: %d and %d derivations", name, stats[0].Derivations, stats[1].Derivations)
		}
		if per := allocs[1] / float64(stats[1].Derivations); per >= 0.01 {
			t.Errorf("%s: %.4f allocations per derivation, want < 0.01", name, per)
		}
		// 4x the rows is two doublings of the row storage and of each of
		// the key table's two arrays, and a few more (allocation-free)
		// rounds.
		if grew := allocs[1] - allocs[0]; grew > 12 {
			t.Errorf("%s: %v more allocations at 4x the input, want ≤ 12 (growth steps only)", name, grew)
		}
	}
}

// refJoin enumerates the bindings of body over db the slow, obvious way:
// every atom a full scan under a map binding.
func refJoin(syms *rel.Symtab, db rel.DB, body []ast.Atom, bind map[string]rel.Value, emit func()) {
	if len(body) == 0 {
		emit()
		return
	}
	db.Probe(body[0].Pred).Each(func(t rel.Tuple) {
		var fresh []string
		ok := true
		for k, arg := range body[0].Args {
			want, bound := bind[arg.Name]
			if !arg.IsVar() {
				want, bound = syms.Intern(arg.Name), true
			}
			if !bound {
				bind[arg.Name] = t[k]
				fresh = append(fresh, arg.Name)
			} else if want != t[k] {
				ok = false
				break
			}
		}
		if ok {
			refJoin(syms, db, body[1:], bind, emit)
		}
		for _, v := range fresh {
			delete(bind, v)
		}
	})
}

// refClosure is the closure of ops over q by naive iteration of refJoin:
// a referee that shares nothing with the executor.
func refClosure(syms *rel.Symtab, ops []*ast.Op, db rel.DB, q *rel.Relation) *rel.Relation {
	total := q.Clone()
	for grew := true; grew; {
		grew = false
		for _, op := range ops {
			scan := rel.DB{op.Rec.Pred: total.Clone()}
			for pred, r := range db {
				scan[pred] = r
			}
			bind := map[string]rel.Value{}
			refJoin(syms, scan, append([]ast.Atom{op.Rec}, op.NonRec...), bind, func() {
				out := make(rel.Tuple, len(op.Head.Args))
				for k, arg := range op.Head.Args {
					out[k] = bind[arg.Name]
				}
				if total.Insert(out) {
					grew = true
				}
			})
		}
	}
	return total
}

// TestExecutorShapes drives the join executor through the atom shapes the
// random-program harness rarely draws, each at workers 1 and 2 over a seed
// wide enough that the 2-worker closure fans out, against Engine.Naive and
// against refClosure.
func TestExecutorShapes(t *testing.T) {
	const nodes = 40
	cases := []struct {
		name, rule string
		derives    bool // the closure must grow past its seed
	}{
		{"repeated variable in one atom", "p(X,Y) :- p(X,Z), e(Z,Y), f(Y,Y).", true},
		{"repeated variable in the recursive atom", "p(X,Y) :- p(Z,Z), e(Z,X), f(Z,Y).", true},
		{"body constant", "p(X,Y) :- p(X,Z), e(Z,Y), f(Y,n3).", true},
		{"constant probe column", "p(X,Y) :- p(X,Z), e(n5,Y), f(Z,Y).", true},
		{"fully-bound atom", "p(X,Y) :- p(X,Z), e(Z,Y), f(X,Y).", true},
		{"full scan", "p(X,Y) :- p(X,Z), u(Y), f(Z,Z).", true},
		{"absent predicate", "p(X,Y) :- p(X,Z), missing(Z,Y).", false},
		{"absent predicate, fully bound", "p(X,Y) :- p(X,Z), e(Z,Y), missing(X,Y).", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := parser.Parse(tc.rule)
			if err != nil {
				t.Fatal(err)
			}
			// Built by hand: FromRule holds operators constant-free.
			rule := prog.Rules[0]
			op := &ast.Op{Head: rule.Head, Rec: rule.Body[0], NonRec: rule.Body[1:]}
			ops := []*ast.Op{op}

			rng := rand.New(rand.NewSource(int64(len(tc.name))))
			seq := NewEngine(nil)
			node := func(i int) rel.Value { return seq.Syms.Intern(fmt.Sprintf("n%d", i)) }
			db := rel.DB{}
			for _, pred := range []string{"e", "f"} {
				r := db.Rel(pred, 2)
				for i := 0; i < 3*nodes; i++ {
					r.Insert(rel.Tuple{node(rng.Intn(nodes)), node(rng.Intn(nodes))})
				}
				for i := 0; i < nodes; i += 4 {
					r.Insert(rel.Tuple{node(i), node(i)})
				}
			}
			u := db.Rel("u", 1)
			for i := 0; i < nodes; i += 3 {
				u.Insert(rel.Tuple{node(i)})
			}
			q := rel.NewRelation(2)
			for q.Len() < parallelRoundRows+100 {
				q.Insert(rel.Tuple{node(rng.Intn(nodes)), node(rng.Intn(nodes))})
			}

			want := refClosure(seq.Syms, ops, db, q)
			if naive, _ := seq.Naive(db, ops, q); !naive.Equal(want) {
				t.Fatalf("Naive: %d tuples, reference %d", naive.Len(), want.Len())
			}
			var wantStats Stats
			for _, workers := range []int{1, 2} {
				tr := &Tracer{}
				got, stats, err := Parallel(seq, workers).SemiNaiveCtx(WithTracer(context.Background(), tr), db, ops, q)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Errorf("workers %d: %d tuples, reference %d", workers, got.Len(), want.Len())
				}
				if workers == 1 {
					wantStats = stats
				} else if stats != wantStats {
					t.Errorf("workers %d: stats %v, sequential %v", workers, stats, wantStats)
				}
				if fanned := len(tr.Trace().Phases[0].Rounds[0].ShardRows) > 0; fanned != (workers > 1) {
					t.Errorf("workers %d: first round fanned out: %v", workers, fanned)
				}
			}
			if derived := want.Len() > q.Len(); derived != tc.derives {
				t.Errorf("closure grew past its seed: %v, want %v", derived, tc.derives)
			}
		})
	}
}
