// Package workload generates deterministic synthetic relations for the
// paper experiments, the examples and the tests: chains, cycles, random
// digraphs, layered DAGs and trees.  Every generator takes an explicit
// seed where randomness is involved, so experiment tables are
// reproducible run to run.
package workload

import (
	"fmt"
	"math/rand"

	"linrec/internal/eval"
	"linrec/internal/rel"
)

// node interns "prefix<i>".
func node(e *eval.Engine, prefix string, i int) rel.Value {
	return e.Syms.Intern(fmt.Sprintf("%s%d", prefix, i))
}

// ChainShared inserts edges i→i+1 for i in [0, n) into pred over the
// shared node namespace (prefix "v"), so that several predicates draw
// edges over the same vertex set.
func ChainShared(e *eval.Engine, db rel.DB, pred string, n int) {
	r := db.Rel(pred, 2)
	for i := 0; i < n; i++ {
		r.Insert(rel.Tuple{node(e, "v", i), node(e, "v", i+1)})
	}
}

// Cycle inserts a directed n-cycle over the shared namespace.
func Cycle(e *eval.Engine, db rel.DB, pred string, n int) {
	r := db.Rel(pred, 2)
	for i := 0; i < n; i++ {
		r.Insert(rel.Tuple{node(e, "v", i), node(e, "v", (i+1)%n)})
	}
}

// Random inserts m random edges over n shared-namespace nodes,
// deterministically from seed.  Self-loops are allowed; duplicates are
// absorbed by set semantics.
func Random(e *eval.Engine, db rel.DB, pred string, n, m int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	r := db.Rel(pred, 2)
	for i := 0; i < m; i++ {
		r.Insert(rel.Tuple{node(e, "v", rng.Intn(n)), node(e, "v", rng.Intn(n))})
	}
}

// Tree inserts parent→child edges of a complete tree with the given
// branching factor and depth (node 0 is the root).
func Tree(e *eval.Engine, db rel.DB, pred string, branching, depth int) {
	r := db.Rel(pred, 2)
	frontier := []int{0}
	next := 1
	for d := 0; d < depth; d++ {
		var newFrontier []int
		for _, p := range frontier {
			for b := 0; b < branching; b++ {
				r.Insert(rel.Tuple{node(e, "t", p), node(e, "t", next)})
				newFrontier = append(newFrontier, next)
				next++
			}
		}
		frontier = newFrontier
	}
}

// RandomTree inserts the n−1 parent→child edges of a uniform random
// recursive tree over n nodes: node i's parent is drawn uniformly from
// 0..i−1.  Expected depth is O(log n), so transitive closures stay near
// n·ln n tuples — a random graph whose closure doesn't explode, served
// by linrecd's -gen flag.
func RandomTree(e *eval.Engine, db rel.DB, pred string, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	r := db.Rel(pred, 2)
	for i := 1; i < n; i++ {
		r.Insert(rel.Tuple{node(e, "t", rng.Intn(i)), node(e, "t", i)})
	}
}

// LayeredDAG inserts a DAG of `layers` layers of `width` nodes; each node
// has outDeg random edges into the next layer.  Shape matches the
// "expanding frontier" workloads that stress duplicate elimination.
func LayeredDAG(e *eval.Engine, db rel.DB, pred string, layers, width, outDeg int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	r := db.Rel(pred, 2)
	name := func(l, i int) rel.Value { return e.Syms.Intern(fmt.Sprintf("l%d_%d", l, i)) }
	for l := 0; l < layers-1; l++ {
		for i := 0; i < width; i++ {
			for d := 0; d < outDeg; d++ {
				r.Insert(rel.Tuple{name(l, i), name(l+1, rng.Intn(width))})
			}
		}
	}
}

// Unary fills a unary predicate with nodes v0..v(n-1) for which keep
// returns true — used for selection predicates such as Example 6.1's
// "cheap".
func Unary(e *eval.Engine, db rel.DB, pred string, n int, keep func(int) bool) {
	r := db.Rel(pred, 1)
	for i := 0; i < n; i++ {
		if keep(i) {
			r.Insert(rel.Tuple{node(e, "v", i)})
		}
	}
}

// Pairs inserts explicit pairs (ai, bi) given as node indices in the shared
// namespace.
func Pairs(e *eval.Engine, db rel.DB, pred string, pairs [][2]int) {
	r := db.Rel(pred, 2)
	for _, p := range pairs {
		r.Insert(rel.Tuple{node(e, "v", p[0]), node(e, "v", p[1])})
	}
}
