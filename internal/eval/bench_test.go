package eval

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"linrec/internal/ast"
	"linrec/internal/parser"
	"linrec/internal/rel"
)

func benchDB(b *testing.B, n int) (*Engine, rel.DB, *rel.Relation) {
	b.Helper()
	e := NewEngine(nil)
	db := rel.DB{}
	r := db.Rel("e", 2)
	for i := 0; i < n; i++ {
		r.Insert(rel.Tuple{
			e.Syms.Intern(fmt.Sprintf("v%d", i)),
			e.Syms.Intern(fmt.Sprintf("v%d", i+1)),
		})
	}
	return e, db, r.Clone()
}

// BenchmarkApply: one operator application over a chain.
func BenchmarkApply(b *testing.B) {
	e, db, q := benchDB(b, 512)
	op := parser.MustParseOp("p(X,Y) :- p(X,Z), e(Z,Y).")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := rel.NewRelation(2)
		var stats Stats
		e.Apply(db, op, q, out, &stats)
	}
}

// BenchmarkSemiNaiveChain: full TC closure on chains of growing length.
func BenchmarkSemiNaiveChain(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			e, db, q := benchDB(b, n)
			op := parser.MustParseOp("p(X,Y) :- p(X,Z), e(Z,Y).")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, _ := e.SemiNaive(db, []*ast.Op{op}, q)
				if out.Len() == 0 {
					b.Fatal("empty closure")
				}
			}
		})
	}
}

// BenchmarkNaiveVsSemiNaive: the classical ablation — naive re-derivation
// vs delta iteration on the same workload.
func BenchmarkNaiveVsSemiNaive(b *testing.B) {
	e, db, q := benchDB(b, 96)
	op := parser.MustParseOp("p(X,Y) :- p(X,Z), e(Z,Y).")
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.Naive(db, []*ast.Op{op}, q)
		}
	})
	b.Run("seminaive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.SemiNaive(db, []*ast.Op{op}, q)
		}
	})
}

// kernelShape is one closure_batch program at reduced size (bench/gen.go
// has the full-size originals): the operators of its recursive rules and
// the closure's seed, over random structures drawn from a fixed seed.
type kernelShape struct {
	name string
	b, c []*ast.Op // c empty: (Σb)*q; else the decomposed b*c*q
	db   rel.DB
	q    *rel.Relation
}

// pairs builds the binary relation {f(0), …, f(n-1)}.
func pairs(n int, f func(i int) (int, int)) *rel.Relation {
	r := rel.NewRelation(2)
	for i := 0; i < n; i++ {
		x, y := f(i)
		r.Insert(rel.Tuple{rel.Value(x), rel.Value(y)})
	}
	return r
}

var tcOps = []*ast.Op{parser.MustParseOp("path(X,Y) :- path(X,Z), edge(Z,Y).")}

// tcTree is transitive closure over a random recursive tree of n nodes:
// no duplicate derivations.
func tcTree(rng *rand.Rand, n int) kernelShape {
	tree := pairs(n-1, func(i int) (int, int) { return rng.Intn(i + 1), i + 1 })
	return kernelShape{name: "tc_tree", b: tcOps, db: rel.DB{"edge": tree}, q: tree}
}

// sgTree is same generation over a random recursive tree of n nodes: a
// three-atom body.
func sgTree(rng *rand.Rand, n int) kernelShape {
	par := pairs(n-1, func(i int) (int, int) { return i + 1, rng.Intn(i + 1) })
	return kernelShape{
		name: "sg_tree",
		b:    []*ast.Op{parser.MustParseOp("sg(X,Y) :- par(X,XP), sg(XP,YP), par(Y,YP).")},
		db:   rel.DB{"par": par},
		q:    pairs(n, func(i int) (int, int) { return i, i }),
	}
}

func kernelShapes() []kernelShape {
	rng := rand.New(rand.NewSource(1))
	// tc_dag: layered DAG — most derivations are duplicates.
	const layers, width, deg = 16, 24, 4
	dag := pairs((layers-1)*width*deg, func(i int) (int, int) {
		l, v := i/(width*deg), i/deg%width
		return l*width + v, (l+1)*width + rng.Intn(width)
	})
	// comm_grid: a right-appending and a left-prepending rule commute, so
	// the closure decomposes; many narrow rounds.
	const side = 20
	right := pairs(side*(side-1), func(i int) (int, int) { v := i/(side-1)*side + i%(side-1); return v, v + 1 })
	down := pairs(side*(side-1), func(i int) (int, int) { return i, i + side })
	cell := pairs(side*side, func(i int) (int, int) { return i, i })

	shapes := []kernelShape{
		tcTree(rng, 8000),
		{name: "tc_dag", b: tcOps, db: rel.DB{"edge": dag}, q: dag},
		sgTree(rng, 700),
		{name: "comm_grid", b: []*ast.Op{parser.MustParseOp("p(X,Y) :- down(X,Z), p(Z,Y).")},
			c:  []*ast.Op{parser.MustParseOp("p(X,Y) :- p(X,Z), right(Z,Y).")},
			db: rel.DB{"right": right, "down": down}, q: cell},
	}
	// tc_tree_large: the one shape whose key table outgrows
	// minBatchSlots, so its wide rounds take rel's sorted merge (and, at
	// 2 workers, pipeline it with the next round's join).
	large := tcTree(rng, 30000)
	large.name = "tc_tree_large"
	return append(shapes, large)
}

// BenchmarkClosureKernel is the closure kernel's quick A/B: cold closures
// of the four closure_batch shapes at reduced size, and of one tree large
// enough for rel's sorted merge, at 1 and 2 workers, reporting what a
// derivation costs and what an answer tuple allocates.
// Compare two trees with benchstat in seconds before paying for a paired
// `go run -C bench . -compare`.
func BenchmarkClosureKernel(b *testing.B) {
	for _, sh := range kernelShapes() {
		for _, workers := range []int{1, 2} {
			sh := sh
			b.Run(fmt.Sprintf("%s/w=%d", sh.name, workers), func(b *testing.B) {
				e := Parallel(NewEngine(nil), workers)
				run := func() (*rel.Relation, Stats) {
					if len(sh.c) == 0 {
						return e.SemiNaive(sh.db, sh.b, sh.q)
					}
					out, stats, _ := e.Decomposed(context.Background(), sh.db, sh.b, sh.c, sh.q)
					return out, stats
				}
				run() // build the EDB indexes outside the timer
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				before := ms.TotalAlloc
				var derivations, tuples int64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out, stats := run()
					derivations += stats.Derivations
					tuples += int64(out.Len())
				}
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(derivations), "ns/derivation")
				b.ReportMetric(float64(ms.TotalAlloc-before)/float64(tuples), "B/tuple")
			})
		}
	}
}
