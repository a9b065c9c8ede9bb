// Package experiments regenerates every evaluation artifact of the paper —
// each figure (a-graph), worked example, algorithm and complexity claim —
// as printed tables and series, and only those: the engine's performance
// is measured by the separate bench module (go run -C bench .).
// cmd/lrbench prints the tables; the root bench_test.go wraps the
// parameterized paper experiments in testing.B benchmarks.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"linrec/internal/agraph"
	"linrec/internal/algebra"
	"linrec/internal/ast"
	"linrec/internal/commute"
	"linrec/internal/parser"
	"linrec/internal/redundant"
	"linrec/internal/separable"
)

// Experiment is one reproducible artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer) error
}

// All returns the registry in presentation order.
func All() []Experiment {
	return []Experiment{
		{"F1", "Figure 1 / Example 5.1: a-graph variable classification", F1},
		{"F2", "Figure 2 / Example 5.1: augmented bridges, narrow and wide rules", F2},
		{"F3", "Figure 3 / Example 5.2: transitive-closure rules commute", F3},
		{"F4", "Figure 4 / Example 5.3: commuting 3-ary rules (conditions a,b)", F4},
		{"F5", "Figure 5 / Example 5.4: commuting rules outside the condition", F5},
		{"F6", "Figure 6 / Example 6.1: recursively redundant predicate 'cheap'", F6},
		{"F7", "Figure 7 / Example 6.2: A² = B·C², B and C² commute", F7},
		{"F8", "Figure 8 / Example 6.2: a-graphs of B and C²", F8},
		{"F9", "Figure 9 / Example 6.3: B·C² ≠ C²·B yet Theorem 6.4 holds", F9},
		{"T31", "Theorem 3.1: duplicate derivations, (B+C)* vs B*C*", T31Table},
		{"A41", "Algorithm 4.1 / Theorem 4.1: separable evaluation with selection", A41Table},
		{"T53", "Theorem 5.3: O(a log a) syntactic test vs definition test", T53Table},
		{"T42", "Theorems 4.2/6.4: redundancy-optimized evaluation", T42Table},
		{"T62", "Theorem 6.2: separable ⊊ commutative", T62},
		{"S32", "Section 3.2: Lassez–Maher and Dong identities", S32},
		{"I31", "Formula (3.1): closure splits into CB-free and CB terms", I31},
		{"P7", "Section 7 extension: partial commutativity (grouped decomposition)", P7},
		{"R19", "Certification power: Theorem 5.1 vs the weaker [19]-style baseline", R19},
	}
}

// Lookup finds an experiment by ID (case-insensitive).
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

func mustOp(src string) *ast.Op {
	op, err := parser.ParseOp(src)
	if err != nil {
		panic(err)
	}
	return op
}

// Rules used across the experiments (the paper's examples).
var (
	ex51Fig1 = "p(U,V,W,X,Y,Z) :- p(V,U,W,A,Y,Z), q(X,Y), r(W)."
	ex51Fig2 = "p(U,W,X,Y,Z) :- p(U,U,U,Y,Y), q(U,X,Y), r(W), s(X), t(Z)."
	ex52R1   = "p(X,Y) :- p(X,U), q(U,Y)."
	ex52R2   = "p(X,Y) :- r(X,U), p(U,Y)."
	ex53R1   = "p(X,Y,Z) :- p(U,Y,Z), q(X,Y)."
	ex53R2   = "p(X,Y,Z) :- p(X,Y,U), r(Z,Y)."
	ex54R1   = "p(X,Y) :- p(Y,W), q(X)."
	ex54R2   = "p(X,Y) :- p(U,V), q(X), q(Y)."
	ex61Rule = "buys(X,Y) :- knows(X,Z), buys(Z,Y), cheap(Y)."
	ex62Rule = "p(W,X,Y,Z) :- p(X,W,X,U), q(X,U), r(X,Y), s(U,Z)."
	ex63Rule = "p(W,X,Y,Z) :- p(X,W,X,U), q(Y,U), r(X,Y), s(U,Z)."
)

// F1 prints the classification of Example 5.1's first rule (Figure 1).
func F1(w io.Writer) error {
	op := mustOp(ex51Fig1)
	g := agraph.New(op)
	fmt.Fprintf(w, "rule: %v\n", op)
	fmt.Fprintf(w, "paper: z free 1-persistent; w,y link 1-persistent; u,v free 2-persistent; x general\n\n")
	fmt.Fprint(w, g.Render())
	return nil
}

// F2 prints the augmented bridges of Example 5.1's second rule and their
// narrow and wide rules (Figure 2).
func F2(w io.Writer) error {
	op := mustOp(ex51Fig2)
	g := agraph.New(op)
	fmt.Fprintf(w, "rule: %v\n", op)
	fmt.Fprint(w, g.DescribeClasses())
	bridges := g.Bridges(agraph.CommutativitySeparator)
	fmt.Fprintf(w, "\n%d augmented bridges w.r.t. the link 1-persistent self-loops:\n", len(bridges))
	for i, b := range bridges {
		fmt.Fprintf(w, "\nbridge %d: vars %v (augmented: %v)\n", i+1,
			b.Vars.Sorted(), b.AugVars.Sorted())
		fmt.Fprintf(w, "  narrow rule: %v\n", g.NarrowRule(b))
		fmt.Fprintf(w, "  wide rule:   %v\n", g.WideRule(b))
	}
	return nil
}

func reportPair(w io.Writer, src1, src2 string) error {
	r1 := mustOp(src1)
	r2 := mustOp(src2)
	fmt.Fprintf(w, "r1: %v\nr2: %v\n\n", r1, r2)
	if rep, err := commute.Syntactic(r1, r2); err == nil {
		fmt.Fprintf(w, "Theorem 5.2 syntactic test (exact):\n%s", rep)
	} else {
		fmt.Fprintf(w, "restricted class: not applicable (%v)\n", err)
		rep, err := commute.Sufficient(r1, r2)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Theorem 5.1 sufficient test:\n%s", rep)
	}
	d, err := commute.Definition(r1, r2)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "definition-based test: %v\n", d)
	c12 := algebra.MustCompose(r1, r2)
	c21 := algebra.MustCompose(r2, r1)
	fmt.Fprintf(w, "\nr1r2 = %v\nr2r1 = %v\nequivalent: %v\n",
		algebra.Minimize(c12), algebra.Minimize(c21), algebra.Equal(c12, c21))
	return nil
}

// F3 reproduces Example 5.2 (Figure 3).
func F3(w io.Writer) error { return reportPair(w, ex52R1, ex52R2) }

// F4 reproduces Example 5.3 (Figure 4).
func F4(w io.Writer) error { return reportPair(w, ex53R1, ex53R2) }

// F5 reproduces Example 5.4 (Figure 5).
func F5(w io.Writer) error { return reportPair(w, ex54R1, ex54R2) }

// F6 reproduces Example 6.1 (Figure 6): redundancy of "cheap".
func F6(w io.Writer) error {
	op := mustOp(ex61Rule)
	g := agraph.New(op)
	fmt.Fprintf(w, "rule: %v\n", op)
	fmt.Fprint(w, g.DescribeClasses())
	fmt.Fprintf(w, "I (link-persistent ∪ ray): %v\n\n", g.LinkPersistentAndRays())
	for _, f := range redundant.Analyze(op, 0) {
		fmt.Fprintf(w, "uniformly bounded augmented bridge: %v (C^%d ≤ C^%d)\n",
			strings.Join(f.Preds, ", "), f.Bound.N, f.Bound.K)
		fmt.Fprintf(w, "  wide operator C: %v\n", f.Wide)
		dec, err := redundant.Decompose(op, f, 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  L=%d K=%d N=%d\n  B: %v\n  A^L = B·C^L verified\n",
			dec.L, dec.K, dec.N, dec.B)
	}
	fmt.Fprintf(w, "\nredundant predicates: %v (paper: cheap)\n", redundant.RedundantPredicates(op, 0))
	return nil
}

func decomposeReport(w io.Writer, src string) (*redundant.Decomposition, error) {
	op := mustOp(src)
	fmt.Fprintf(w, "rule A: %v\n", op)
	fs := redundant.Analyze(op, 0)
	var rf *redundant.Finding
	for i := range fs {
		for _, p := range fs[i].Preds {
			if p == "r" {
				rf = &fs[i]
			}
		}
	}
	if rf == nil {
		return nil, fmt.Errorf("no redundancy finding for r")
	}
	dec, err := redundant.Decompose(op, *rf, 0)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "L=%d, torsion witnesses K=%d N=%d\n", dec.L, dec.K, dec.N)
	fmt.Fprintf(w, "A^%d: %v\nB:   %v\nC^%d: %v\n", dec.L, dec.AL, dec.B, dec.L, dec.CL)
	fmt.Fprintf(w, "A^L = B·C^L: verified symbolically\n")
	return dec, nil
}

// F7 reproduces Example 6.2 (Figure 7): the decomposition and the
// commutation of B and C².
func F7(w io.Writer) error {
	dec, err := decomposeReport(w, ex62Rule)
	if err != nil {
		return err
	}
	ok, err := algebra.Commute(dec.B, dec.CL)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "B and C² commute: %v (paper: yes, via Theorem 5.1)\n", ok)
	return nil
}

// F8 prints the a-graphs of B and C² from Example 6.2 (Figure 8).
func F8(w io.Writer) error {
	dec, err := decomposeReport(w, ex62Rule)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\na-graph of B:\n%s", agraph.New(dec.B).DescribeClasses())
	fmt.Fprintf(w, "\na-graph of C²:\n%s", agraph.New(dec.CL).DescribeClasses())
	fmt.Fprintf(w, "\npaper: w,x link 1-persistent in both; y free 1-persistent in B; z free 1-persistent in C²\n")
	return nil
}

// F9 reproduces Example 6.3 (Figure 9): B·C² ≠ C²·B, yet
// C²(B·C²) = C²(C²·B), so Theorem 6.4 still applies.
func F9(w io.Writer) error {
	dec, err := decomposeReport(w, ex63Rule)
	if err != nil {
		return err
	}
	ok, err := algebra.Commute(dec.B, dec.CL)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "B·C² = C²·B: %v (paper: no)\n", ok)
	bcl := algebra.MustCompose(dec.B, dec.CL)
	clb := algebra.MustCompose(dec.CL, dec.B)
	lhs := algebra.MustCompose(dec.CL, bcl)
	rhs := algebra.MustCompose(dec.CL, clb)
	fmt.Fprintf(w, "C²(B·C²) = C²(C²·B): %v (paper: yes)\n", algebra.Equal(lhs, rhs))
	return nil
}

// T62 demonstrates Theorem 6.2: every separable pair commutes; Example 5.3
// commutes without being separable.
func T62(w io.Writer) error {
	pairs := [][2]string{
		{ex52R1, ex52R2},
		{"p(X,Y,Z) :- p(X,U,Z), a(U,Y).", "p(X,Y,Z) :- b(X,U), p(U,Y,Z)."},
		{ex53R1, ex53R2},
		{"p(X,Y) :- p(X,U), q(U,Y).", "p(X,Y) :- p(X,U), s(U,Y)."},
	}
	fmt.Fprintf(w, "%-44s %-20s %s\n", "pair", "separable(disjoint)", "commute")
	for _, pr := range pairs {
		r1 := mustOp(pr[0])
		r2 := mustOp(pr[1])
		sep, err := separable.IsSeparable(r1, r2)
		if err != nil {
			return err
		}
		d, err := commute.Definition(r1, r2)
		if err != nil {
			return err
		}
		// Lemma 6.1 and Theorem 6.2 are stated under the paper's
		// assumption that the condition-(3) sets are disjoint (the case
		// where the separable algorithm's efficient form applies).
		sepDisjoint := sep.Separable() && sep.Disjoint
		name := fmt.Sprintf("%s | %s", firstPred(r1), firstPred(r2))
		fmt.Fprintf(w, "%-44s %-20v %v\n", name, sepDisjoint, d)
		if sepDisjoint && d != commute.Commute {
			return fmt.Errorf("Theorem 6.2 violated on %v", pr)
		}
	}
	fmt.Fprintf(w, "\nevery separable (disjoint) pair commutes; row 3 (Example 5.3) commutes but is not separable\n")
	return nil
}

func firstPred(op *ast.Op) string {
	var names []string
	for _, a := range op.NonRec {
		names = append(names, a.Pred)
	}
	sort.Strings(names)
	return fmt.Sprintf("%s:-%s", op.Head.Pred, strings.Join(names, ","))
}

// S32 verifies the Section 3.2 identities symbolically on commuting pairs:
// Lassez–Maher's BC = CB = B+C ⇒ (B+C)* = B* + C*, and Dong's
// B*C* = C*B* ⇔ (B+C)* = B*C* (checked on closure prefixes).
func S32(w io.Writer) error {
	b := mustOp(ex52R1)
	c := mustOp(ex52R2)
	const depth = 4

	// Closure prefixes of B, C and B+C.
	bPre, err := algebra.ClosurePrefix(b, depth)
	if err != nil {
		return err
	}
	cPre, err := algebra.ClosurePrefix(c, depth)
	if err != nil {
		return err
	}

	// Terms of (B+C)* up to total power `depth` — all words over {B,C}.
	words := []*ast.Op{}
	frontier := []*ast.Op{nil}
	for d := 0; d < depth; d++ {
		var next []*ast.Op
		for _, wop := range frontier {
			for _, step := range []*ast.Op{b, c} {
				var nw *ast.Op
				if wop == nil {
					nw = step
				} else {
					nw, err = algebra.Compose(wop, step)
					if err != nil {
						return err
					}
				}
				next = append(next, nw)
				words = append(words, nw)
			}
		}
		frontier = next
	}

	// Products B^i C^j with 1 ≤ i+j ≤ depth (matching the words' powers).
	var prods []*ast.Op
	prods = append(prods, bPre...)
	prods = append(prods, cPre...)
	for i, bi := range bPre {
		for j, cj := range cPre {
			if (i + 1 + j + 1) > depth {
				continue
			}
			p, err := algebra.Compose(bi, cj)
			if err != nil {
				return err
			}
			prods = append(prods, p)
		}
	}

	eq := algebra.SumEqual(words, prods)
	fmt.Fprintf(w, "terms of (B+C)* up to power %d: %d words\n", depth, len(words))
	fmt.Fprintf(w, "terms of B*C* up to power %d: %d products\n", depth, len(prods))
	fmt.Fprintf(w, "(B+C)* = B*C* on the prefix: %v (Dong / Theorem in [13])\n\n", eq)
	if !eq {
		return fmt.Errorf("S32: decomposition identity failed")
	}

	// Lassez–Maher: B*C* = C*B* = B*+C* ⇒ (B+C)* = B*+C*.  Filter
	// operators (idempotent, commuting, with BC ≤ B) satisfy the premise:
	// exhibit the conclusion on their closure prefixes.
	lb := mustOp("p(X,Y) :- p(X,Y), f(X).")
	lc := mustOp("p(X,Y) :- p(X,Y), g(X).")
	bc := algebra.MustCompose(lb, lc)
	cb := algebra.MustCompose(lc, lb)
	fmt.Fprintf(w, "Lassez–Maher setting: B = %v, C = %v\n", lb, lc)
	fmt.Fprintf(w, "BC = CB: %v\n", algebra.Equal(bc, cb))
	lbPre, _ := algebra.ClosurePrefix(lb, 3)
	lcPre, _ := algebra.ClosurePrefix(lc, 3)
	sum := algebra.Sum{}
	sum = append(sum, lbPre...)
	sum = append(sum, lcPre...)
	var lWords algebra.Sum
	for _, w1 := range []*ast.Op{lb, lc} {
		lWords = append(lWords, w1)
		for _, w2 := range []*ast.Op{lb, lc} {
			lWords = append(lWords, algebra.MustCompose(w1, w2))
		}
	}
	lmHolds := algebra.SumEqual(lWords, sum)
	fmt.Fprintf(w, "(B+C)* = B* + C* on the prefix: %v (Lassez–Maher)\n", lmHolds)
	if !lmHolds {
		return fmt.Errorf("S32: Lassez–Maher identity failed")
	}
	return nil
}
