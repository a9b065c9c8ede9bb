package workload

import (
	"testing"

	"linrec/internal/eval"
	"linrec/internal/rel"
)

func TestChainSharedNamespace(t *testing.T) {
	e := eval.NewEngine(nil)
	db := rel.DB{}
	ChainShared(e, db, "up", 4)
	ChainShared(e, db, "down", 4)
	// Same node ids in both relations.
	v0, ok := e.Syms.Lookup("v0")
	if !ok {
		t.Fatalf("shared node v0 missing")
	}
	if len(db["up"].Lookup(0, v0)) != 1 || len(db["down"].Lookup(0, v0)) != 1 {
		t.Fatalf("shared namespace broken")
	}
}

func TestCycle(t *testing.T) {
	e := eval.NewEngine(nil)
	db := rel.DB{}
	Cycle(e, db, "e", 7)
	if db["e"].Len() != 7 {
		t.Fatalf("cycle edges = %d", db["e"].Len())
	}
}

func TestRandomDeterminism(t *testing.T) {
	e1 := eval.NewEngine(nil)
	db1 := rel.DB{}
	Random(e1, db1, "e", 50, 200, 99)
	e2 := eval.NewEngine(nil)
	db2 := rel.DB{}
	Random(e2, db2, "e", 50, 200, 99)
	if db1["e"].Len() != db2["e"].Len() {
		t.Fatalf("same seed produced different sizes: %d vs %d", db1["e"].Len(), db2["e"].Len())
	}
	db3 := rel.DB{}
	Random(e2, db3, "e", 50, 200, 100)
	if db1["e"].Len() == db3["e"].Len() && db1.Rel("e", 2).Equal(db3.Rel("e", 2)) {
		t.Fatalf("different seeds produced identical relations")
	}
}

func TestTree(t *testing.T) {
	e := eval.NewEngine(nil)
	db := rel.DB{}
	Tree(e, db, "par", 2, 3)
	// Complete binary tree of depth 3: 2 + 4 + 8 = 14 edges.
	if db["par"].Len() != 14 {
		t.Fatalf("tree edges = %d, want 14", db["par"].Len())
	}
}

func TestLayeredDAG(t *testing.T) {
	e := eval.NewEngine(nil)
	db := rel.DB{}
	LayeredDAG(e, db, "e", 4, 3, 2, 1)
	// At most (layers-1)*width*outDeg edges; duplicates may collapse.
	if db["e"].Len() == 0 || db["e"].Len() > 18 {
		t.Fatalf("DAG edges = %d", db["e"].Len())
	}
}

func TestUnary(t *testing.T) {
	e := eval.NewEngine(nil)
	db := rel.DB{}
	Unary(e, db, "cheap", 10, func(i int) bool { return i%2 == 0 })
	if db["cheap"].Len() != 5 {
		t.Fatalf("unary = %d, want 5", db["cheap"].Len())
	}
}

func TestPairs(t *testing.T) {
	e := eval.NewEngine(nil)
	db := rel.DB{}
	Pairs(e, db, "q", [][2]int{{0, 1}, {1, 2}, {0, 1}})
	if db["q"].Len() != 2 {
		t.Fatalf("pairs = %d, want 2 (set semantics)", db["q"].Len())
	}
}
