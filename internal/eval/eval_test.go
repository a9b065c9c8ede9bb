package eval

import (
	"context"
	"fmt"
	"testing"

	"linrec/internal/ast"
	"linrec/internal/parser"
	"linrec/internal/rel"
)

// chainDB builds edge(i, i+1) for i in [0, n) under predicate pred.
func chainDB(e *Engine, db rel.DB, pred string, n int) {
	r := db.Rel(pred, 2)
	for i := 0; i < n; i++ {
		a := e.Syms.Intern(fmt.Sprintf("n%d", i))
		b := e.Syms.Intern(fmt.Sprintf("n%d", i+1))
		r.Insert(rel.Tuple{a, b})
	}
}

func edgesAsQ(db rel.DB, pred string) *rel.Relation {
	return db[pred].Clone()
}

// Naive computes the closure (Σᵢ opsᵢ)* q by re-deriving from the full
// relation every round, sequentially, inserting each emission as it is
// derived: the reference oracle the tests compare the stepper against,
// and the duplicate-cost baseline.  It shares no code with the round
// merge.
func (e *Engine) Naive(db rel.DB, ops []*ast.Op, q *rel.Relation) (*rel.Relation, Stats) {
	var stats Stats
	total := q.Clone()
	for {
		stats.Iterations++
		added := 0
		snapshot := total.Clone()
		for _, op := range ops {
			newExecutor(db, e.compiledFor(op), func(t rel.Tuple) {
				stats.Derivations++
				if total.Insert(t) {
					added++
				} else {
					stats.Duplicates++
				}
			}).run(snapshot.Packed(), 0, snapshot.Len(), nil)
		}
		if added == 0 {
			return total, stats
		}
		stats.MaxDepth++
	}
}

func TestApplySingleStep(t *testing.T) {
	e := NewEngine(nil)
	db := rel.DB{}
	chainDB(e, db, "e", 3) // n0→n1→n2→n3
	op := parser.MustParseOp("p(X,Y) :- p(X,Z), e(Z,Y).")
	q := edgesAsQ(db, "e")
	out := rel.NewRelation(2)
	var stats Stats
	added := e.Apply(db, op, q, out, &stats)
	// One application on edges yields length-2 paths: n0→n2, n1→n3.
	if added != 2 || out.Len() != 2 {
		t.Fatalf("added=%d len=%d, want 2/2", added, out.Len())
	}
	if stats.Derivations != 2 || stats.Duplicates != 0 {
		t.Fatalf("stats = %v", stats)
	}
}

// TestApplyNullary: a nullary application derives the one empty tuple,
// new to an empty destination and a duplicate once it holds it.
func TestApplyNullary(t *testing.T) {
	e := NewEngine(nil)
	db := rel.DB{}
	db.Rel("e", 1).Insert(rel.Tuple{e.Syms.Intern("a")})
	op := parser.MustParseOp("p :- p, e(X).")
	src := rel.NewRelation(0)
	src.Insert(rel.Tuple{})
	dst := rel.NewRelation(0)
	var stats Stats
	if added := e.Apply(db, op, src, dst, &stats); added != 1 || dst.Len() != 1 {
		t.Fatalf("first application added %d, destination holds %d; want 1 and 1", added, dst.Len())
	}
	if added := e.Apply(db, op, src, dst, &stats); added != 0 || stats != (Stats{Derivations: 2, Duplicates: 1}) {
		t.Fatalf("second application added %d with stats %v; want 0 and 2 derivations, 1 duplicate", added, stats)
	}
}

func TestSemiNaiveChainClosure(t *testing.T) {
	e := NewEngine(nil)
	db := rel.DB{}
	n := 30
	chainDB(e, db, "e", n)
	op := parser.MustParseOp("p(X,Y) :- p(X,Z), e(Z,Y).")
	q := edgesAsQ(db, "e")
	out, stats := e.SemiNaive(db, []*ast.Op{op}, q)
	want := n * (n + 1) / 2 // all-pairs paths in a chain of n edges
	if out.Len() != want {
		t.Fatalf("closure size = %d, want %d", out.Len(), want)
	}
	// Left-linear semi-naive on a chain is duplicate-free.
	if stats.Duplicates != 0 {
		t.Fatalf("chain closure produced %d duplicates", stats.Duplicates)
	}
}

func TestNaiveMatchesSemiNaive(t *testing.T) {
	e := NewEngine(nil)
	db := rel.DB{}
	chainDB(e, db, "e", 12)
	// Add a cycle edge to stress re-derivation.
	a := e.Syms.Intern("n12")
	b := e.Syms.Intern("n0")
	db.Rel("e", 2).Insert(rel.Tuple{a, b})
	op := parser.MustParseOp("p(X,Y) :- p(X,Z), e(Z,Y).")
	q := edgesAsQ(db, "e")
	sn, _ := e.SemiNaive(db, []*ast.Op{op}, q)
	nv, _ := e.Naive(db, []*ast.Op{op}, q)
	if !sn.Equal(nv) {
		t.Fatalf("naive and semi-naive disagree: %d vs %d tuples", sn.Len(), nv.Len())
	}
}

func TestSemiNaiveTwoOperators(t *testing.T) {
	e := NewEngine(nil)
	db := rel.DB{}
	chainDB(e, db, "up", 6)
	chainDB(e, db, "down", 6)
	b := parser.MustParseOp("p(X,Y) :- p(X,Z), up(Z,Y).")
	c := parser.MustParseOp("p(X,Y) :- down(X,Z), p(Z,Y).")
	q := edgesAsQ(db, "up")
	both, _ := e.SemiNaive(db, []*ast.Op{b, c}, q)
	dec, _, _ := e.Decomposed(context.Background(), db, []*ast.Op{b}, []*ast.Op{c}, q)
	if !both.Equal(dec) {
		t.Fatalf("decomposed result differs: %d vs %d tuples", both.Len(), dec.Len())
	}
}

// TestTheorem31DuplicateSuperiority: on commuting operators the decomposed
// evaluation B*C*Q produces no more duplicates than (B+C)*Q — the paper's
// Theorem 3.1 measured on real data.
func TestTheorem31DuplicateSuperiority(t *testing.T) {
	e := NewEngine(nil)
	db := rel.DB{}
	chainDB(e, db, "up", 14)
	chainDB(e, db, "down", 14)
	bOp := parser.MustParseOp("p(X,Y) :- p(X,Z), up(Z,Y).")
	cOp := parser.MustParseOp("p(X,Y) :- down(X,Z), p(Z,Y).")
	q := edgesAsQ(db, "up")
	_, monoStats := e.SemiNaive(db, []*ast.Op{bOp, cOp}, q)
	_, decStats, _ := e.Decomposed(context.Background(), db, []*ast.Op{bOp}, []*ast.Op{cOp}, q)
	if decStats.Duplicates > monoStats.Duplicates {
		t.Fatalf("Theorem 3.1 violated: decomposed dups %d > monolithic dups %d",
			decStats.Duplicates, monoStats.Duplicates)
	}
	if monoStats.Duplicates == 0 {
		t.Fatalf("workload too easy: monolithic evaluation had no duplicates")
	}
}

func TestEvalRuleExit(t *testing.T) {
	e := NewEngine(nil)
	db := rel.DB{}
	chainDB(e, db, "e", 3)
	r := parser.MustParseRule("p(X,Y) :- e(X,Y).")
	out, err := e.EvalRule(db, r)
	if err != nil {
		t.Fatalf("EvalRule: %v", err)
	}
	if out.Len() != 3 {
		t.Fatalf("exit rule produced %d tuples, want 3", out.Len())
	}
}

func TestEvalRuleWithConstant(t *testing.T) {
	e := NewEngine(nil)
	db := rel.DB{}
	chainDB(e, db, "e", 3)
	r := parser.MustParseRule("p(X) :- e(n0, X).")
	out, err := e.EvalRule(db, r)
	if err != nil {
		t.Fatalf("EvalRule: %v", err)
	}
	if out.Len() != 1 {
		t.Fatalf("got %d tuples, want 1", out.Len())
	}
	v, _ := e.Syms.Lookup("n1")
	if !out.Has(rel.Tuple{v}) {
		t.Fatalf("expected tuple (n1)")
	}
}

func TestEvalRuleUnboundHead(t *testing.T) {
	e := NewEngine(nil)
	r := parser.MustParseRule("p(X,Y) :- e(X,X).")
	if _, err := e.EvalRule(rel.DB{}, r); err == nil {
		t.Fatalf("unbound head variable should error")
	}
}

func TestLoadFacts(t *testing.T) {
	e := NewEngine(nil)
	db := rel.DB{}
	prog, err := parser.Parse("e(a,b). e(b,c).")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := e.LoadFacts(db, prog.Facts); err != nil {
		t.Fatalf("LoadFacts: %v", err)
	}
	if db["e"].Len() != 2 {
		t.Fatalf("e has %d tuples", db["e"].Len())
	}
	bad := []ast.Atom{ast.NewAtom("e", ast.V("X"), ast.C("b"))}
	if err := e.LoadFacts(db, bad); err == nil {
		t.Fatalf("non-ground fact should error")
	}
}

func TestCycleClosureTerminates(t *testing.T) {
	e := NewEngine(nil)
	db := rel.DB{}
	r := db.Rel("e", 2)
	ids := make([]rel.Value, 5)
	for i := range ids {
		ids[i] = e.Syms.Intern(fmt.Sprintf("c%d", i))
	}
	for i := range ids {
		r.Insert(rel.Tuple{ids[i], ids[(i+1)%len(ids)]})
	}
	op := parser.MustParseOp("p(X,Y) :- p(X,Z), e(Z,Y).")
	out, stats := e.SemiNaive(db, []*ast.Op{op}, r.Clone())
	if out.Len() != 25 {
		t.Fatalf("cycle closure = %d tuples, want 25", out.Len())
	}
	if stats.Iterations == 0 || stats.Duplicates == 0 {
		t.Fatalf("cycle closure should show duplicates: %v", stats)
	}
}

func TestTernaryOperator(t *testing.T) {
	// Example 5.3's r1 on data: p(X,Y,Z) :- p(U,Y,Z), q(X,Y).
	e := NewEngine(nil)
	db := rel.DB{}
	q := db.Rel("q", 2)
	x1 := e.Syms.Intern("x1")
	x2 := e.Syms.Intern("x2")
	y := e.Syms.Intern("y")
	z := e.Syms.Intern("z")
	q.Insert(rel.Tuple{x1, y})
	q.Insert(rel.Tuple{x2, y})
	op := parser.MustParseOp("p(X,Y,Z) :- p(U,Y,Z), q(X,Y).")
	seed := rel.NewRelation(3)
	seed.Insert(rel.Tuple{x1, y, z})
	out, _ := e.SemiNaive(db, []*ast.Op{op}, seed)
	// Derivable: (x1,y,z) seed, (x1,y,z) and (x2,y,z) by the rule.
	if out.Len() != 2 {
		t.Fatalf("got %d tuples, want 2: %v", out.Len(), out.Tuples())
	}
}
