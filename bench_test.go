package linrec

// One benchmark per evaluation artifact of the paper.  Each benchmark wraps
// the corresponding experiment in internal/experiments, so `go test
// -bench=.` regenerates the paper's comparisons under the Go benchmark
// harness while `cmd/lrbench` prints them as tables.

import (
	"fmt"
	"testing"

	"linrec/internal/experiments"
)

// BenchmarkF3_TransitiveClosure: the Figure 3 / Example 5.2 workload —
// monolithic (B+C)* vs decomposed B*C* on a chain; reported per size.
func BenchmarkF3_TransitiveClosure(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("monolithic/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := experiments.T31Run("chain", n, 11)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(r.MonoDups), "dups")
			}
		})
		b.Run(fmt.Sprintf("decomposed/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := experiments.T31Run("chain", n, 11)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(r.DecDups), "dups")
			}
		})
	}
}

// BenchmarkT31_Duplicates: Theorem 3.1's duplicate accounting across graph
// shapes.
func BenchmarkT31_Duplicates(b *testing.B) {
	for _, kind := range []string{"chain", "cycle", "random", "dag"} {
		b.Run(kind, func(b *testing.B) {
			var mono, dec int64
			for i := 0; i < b.N; i++ {
				r, err := experiments.T31Run(kind, 96, 11)
				if err != nil {
					b.Fatal(err)
				}
				mono, dec = r.MonoDups, r.DecDups
			}
			b.ReportMetric(float64(mono), "mono-dups")
			b.ReportMetric(float64(dec), "dec-dups")
		})
	}
}

// BenchmarkA41_Separable: Algorithm 4.1 vs full-closure baseline for a
// selection query (Theorem 4.1).
func BenchmarkA41_Separable(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var base, sep int64
			for i := 0; i < b.N; i++ {
				r, err := experiments.A41Run(n, 23)
				if err != nil {
					b.Fatal(err)
				}
				if !r.ResultsAgree {
					b.Fatal("results diverged")
				}
				base, sep = r.BaseDerivs, r.SepDerivs
			}
			b.ReportMetric(float64(base), "base-derivs")
			b.ReportMetric(float64(sep), "sep-derivs")
		})
	}
}

// BenchmarkT53_TestScaling: the O(a log a) syntactic commutativity test vs
// the definition-based test as rules grow (Theorem 5.3).
func BenchmarkT53_TestScaling(b *testing.B) {
	for _, k := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("syntactic/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.T53RunSyntacticOnly(k); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("definition/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.T53RunDefinitionOnly(k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkT42_Redundancy: full closure vs the Theorem 4.2 schedule vs the
// commuting schedule on Example 6.1's rule.
func BenchmarkT42_Redundancy(b *testing.B) {
	for _, pct := range []int{100, 50} {
		b.Run(fmt.Sprintf("cheap=%d%%", pct), func(b *testing.B) {
			var full, t42, com int64
			for i := 0; i < b.N; i++ {
				r, err := experiments.T42Run(128, pct, 31)
				if err != nil {
					b.Fatal(err)
				}
				if !r.Agree {
					b.Fatal("results diverged")
				}
				full, t42, com = r.FullDerivs, r.OptDerivs, r.ComDerivs
			}
			b.ReportMetric(float64(full), "full-derivs")
			b.ReportMetric(float64(t42), "t42-derivs")
			b.ReportMetric(float64(com), "com-derivs")
		})
	}
}

// BenchmarkEndToEndQuery: the public API answering a selection query on a
// generated program (quickstart shape at size).
func BenchmarkEndToEndQuery(b *testing.B) {
	var src string
	{
		s := "path(X,Y) :- up(X,Y).\n" +
			"path(X,Y) :- path(X,Z), up(Z,Y).\n" +
			"path(X,Y) :- down(X,Z), path(Z,Y).\n"
		for i := 0; i < 200; i++ {
			s += fmt.Sprintf("up(n%d,n%d).\n", i, i+1)
			s += fmt.Sprintf("down(n%d,n%d).\n", i+1, i)
		}
		s += "?- path(n0, Y).\n"
		src = s
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := Load(src)
		if err != nil {
			b.Fatal(err)
		}
		rs, err := sys.Run()
		if err != nil {
			b.Fatal(err)
		}
		if rs[0].Answer.Len() == 0 {
			b.Fatal("empty answer")
		}
	}
}
