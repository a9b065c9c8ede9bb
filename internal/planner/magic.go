// Magic-seeded plans: the bindability analysis that decides when a bound
// selection query can be answered from the query's constants outward
// instead of by closing the whole predicate and filtering.
//
// Theorem 4.1 and its n-ary form cover commuting operators whose
// selections each commute with all but one of them; every other bound
// query used to fall through to the full closure.  The analysis here
// closes that gap for the common shape where each rule either passes the
// bound columns through (possibly permuted among themselves) or
// transports them across its nonrecursive atoms: the per-rule "context
// transformer" of Algorithm 4.1's operator loop, generalized from a
// single operator and a single bound column to any operator list and the
// full adornment, and compiled into an eval.MagicSpec whose step
// operators the engine closes, on its one closure kernel, over a
// frontier of bound tuples.  A separable plan's selection
// step runs the single-operator case.
// When the full adornment is not bindable, the analysis falls back to
// the largest bindable column subset (the single-column analysis of the
// original plan kind is the 1-element special case); the columns it
// leaves out are applied as post-filters.

package planner

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"linrec/internal/ast"
	"linrec/internal/eval"
	"linrec/internal/rel"
	"linrec/internal/separable"
)

// MagicMode selects how a MagicSeeded plan turns the magic set into the
// answer.
type MagicMode int

const (
	// MagicContext: every rule passes the unselected columns through
	// unchanged (free 1-persistent on the a-graph), so answers are
	// exit-rule tuples collected per magic tuple with the bound columns
	// rewritten — work proportional to the answer, never the closure.
	MagicContext MagicMode = iota
	// MagicFilter: rules transform other columns too, so a semi-naive
	// closure still runs — but restricted to tuples whose bound-column
	// projection lies in the magic set, sharded across the worker pool
	// like any other closure.
	MagicFilter
)

// String names the mode as it appears in Plan.Why.
func (m MagicMode) String() string {
	if m == MagicContext {
		return "context"
	}
	return "filter"
}

// MagicPlan is the magic-seeded payload of a Plan: the compiled frontier
// spec and the driving selections.  The magic set itself is not part of
// the plan: Open builds it, or takes it from the caller's cache.
type MagicPlan struct {
	// Mode picks context collection or the restricted closure.
	Mode MagicMode
	// Sels are the bound-column selections the plan consumes, ascending
	// by column and parallel to Spec.Cols.  Selections of the query not
	// listed here were rejected by the bindability analysis and must be
	// applied by the caller as post-filters.
	Sels []separable.Selection
	// Spec is the compiled frontier program (see eval.MagicSpec), shared
	// by every binding of the adornment.
	Spec eval.MagicSpec
}

// BoundTuple returns the plan's bound values in Spec.Cols order — the
// seed of the magic frontier.
func (m *MagicPlan) BoundTuple() rel.Tuple {
	vals := make(rel.Tuple, len(m.Sels))
	for i, s := range m.Sels {
		vals[i] = s.Value
	}
	return vals
}

// passesThroughOthers reports whether op leaves every head column outside
// cols untouched and unconstrained: the column's variable is free
// 1-persistent — h(x) = x with no occurrence in the nonrecursive atoms —
// so any derivation copies it verbatim from the recursive input.  This
// is the context-mode requirement: with it, a whole derivation chain
// changes nothing but the bound columns.
func passesThroughOthers(op *ast.Op, cols []int) bool {
	nro := op.NonRecOccurrences()
	bound := map[int]bool{}
	for _, c := range cols {
		bound[c] = true
	}
	for j, t := range op.Head.Args {
		if bound[j] {
			continue
		}
		hx, ok := op.H(t.Name)
		if !ok || hx != t.Name || nro[t.Name] > 0 {
			return false
		}
	}
	return true
}

// MagicAnalysis compiles the magic frontier program of the operators ops
// for the adornment binding cols (ascending column indexes): the whole
// rule set for a MagicSeeded plan, one operator for a separable plan's
// selection step.  Per rule, each bound column's antecedent variable
// must be determined by the bound context — copied from some bound head
// column (the identity h(x) = x and cross-column permutations alike) or
// bound by the nonrecursive atoms — or the rule gives the adornment no
// finite context transformer and ok is false (as it is for
// non-range-restricted rules); those rule sets keep the
// closure-then-filter path for this column subset (the caller falls back
// to a smaller one).  When ok, mode reports whether answers can be
// collected directly (MagicContext) or a restricted closure must run
// (MagicFilter).
func MagicAnalysis(ops []*ast.Op, cols []int) (spec eval.MagicSpec, mode MagicMode, ok bool) {
	arity := ops[0].Arity()
	if len(cols) == 0 {
		return eval.MagicSpec{}, 0, false
	}
	for i, c := range cols {
		if c < 0 || c >= arity || (i > 0 && c <= cols[i-1]) {
			return eval.MagicSpec{}, 0, false
		}
	}
	spec.Cols = append([]int(nil), cols...)
	mode = MagicContext
	for _, op := range ops {
		if !op.IsRangeRestricted() {
			return eval.MagicSpec{}, 0, false
		}
		nonrec := ast.AtomsVars(op.NonRec...)
		// The seed (in) variables are the bound head columns; a bound
		// antecedent (out) variable is determined either by being one of
		// them (copy) or by the nonrecursive join (step).
		inSet := ast.VarSet{}
		for _, c := range cols {
			inSet.Add(op.Head.Args[c].Name)
		}
		pureIdentity := true
		frontierDependent := false
		for _, c := range cols {
			in, out := op.Head.Args[c].Name, op.Rec.Args[c].Name
			if out != in {
				pureIdentity = false
			}
			switch {
			case inSet.Has(out):
				// Copied from the seed tuple: the rule's context depends
				// on the frontier through this column.
				frontierDependent = true
			case nonrec.Has(out):
				// Bound by the nonrecursive join.
			default:
				// Reachable neither from the bound head columns nor from
				// the nonrecursive atoms: no finite context transformer.
				return eval.MagicSpec{}, 0, false
			}
			if nonrec.Has(in) {
				// The seed value restricts the nonrecursive join.
				frontierDependent = true
			}
		}
		if !passesThroughOthers(op, cols) {
			mode = MagicFilter
		}
		outs := make([]ast.Term, len(cols))
		ins := make([]ast.Term, len(cols))
		for i, c := range cols {
			outs[i] = ast.V(op.Rec.Args[c].Name)
			ins[i] = ast.V(op.Head.Args[c].Name)
		}
		head := ast.NewAtom(eval.MagicSetPred, outs...)
		switch {
		case pureIdentity:
			spec.Identity++
		case frontierDependent:
			spec.Step = append(spec.Step, &ast.Op{Head: head, Rec: ast.NewAtom(eval.MagicSetPred, ins...), NonRec: op.NonRec})
		default:
			spec.Init = append(spec.Init, ast.Rule{Head: head, Body: slices.Clone(op.NonRec)})
		}
	}
	return spec, mode, true
}

// magicCols renders a column list for Plan.Why, e.g. "0,2".
func magicCols(cols []int) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = fmt.Sprintf("%d", c)
	}
	return strings.Join(parts, ",")
}

// magicSubsetCap bounds the bound-column count the subset fallback
// enumerates over (2^cap subsets); adornments beyond it — far past any
// realistic predicate arity — only attempt the full set and the single
// columns.
const magicSubsetCap = 10

// magicPlan builds the MagicSeeded plan for the query's selections, or
// nil when no bound-column subset is bindable.  It prefers the largest
// bindable subset (the full adornment when every rule admits it), and
// among subsets of equal size a context-mode plan over a filter-mode
// one, then the lexicographically smallest column set — a deterministic
// choice, which the result-cache keying relies on.  Selections left out
// of the chosen subset stay with the caller as post-filters.
func (a *Analysis) magicPlan(sels []separable.Selection) *Plan {
	byCol := slices.Clone(sels)
	sort.Slice(byCol, func(i, j int) bool { return byCol[i].Col < byCol[j].Col })
	for size := len(byCol); size >= 1; size-- {
		var best *Plan
		for _, subset := range subsets(len(byCol), size) {
			cols := make([]int, size)
			chosen := make([]separable.Selection, size)
			for i, idx := range subset {
				cols[i], chosen[i] = byCol[idx].Col, byCol[idx]
			}
			spec, mode, ok := MagicAnalysis(a.Ops, cols)
			if !ok {
				continue
			}
			plan := &Plan{
				Kind:  MagicSeeded,
				Magic: &MagicPlan{Mode: mode, Sels: chosen, Spec: spec},
				Why:   magicWhy(mode, cols, len(sels)-len(cols)),
			}
			if mode == MagicContext {
				return plan
			}
			if best == nil {
				best = plan
			}
		}
		if best != nil {
			return best
		}
	}
	return nil
}

// subsets lists the size-element subsets of {0, …, n−1} in lexicographic
// order; past magicSubsetCap, only the full set and the singletons.
func subsets(n, size int) [][]int {
	if n > magicSubsetCap && size != n && size != 1 {
		return nil
	}
	var out [][]int
	var walk func(from int, cur []int)
	walk = func(from int, cur []int) {
		if len(cur) == size {
			out = append(out, slices.Clone(cur))
			return
		}
		for i := from; i <= n-size+len(cur); i++ {
			walk(i+1, append(cur, i))
		}
	}
	walk(0, nil)
	return out
}

// magicWhy renders the plan explanation for an adornment over cols;
// dropped counts the query's bound columns the analysis could not bind
// (they post-filter).
func magicWhy(mode MagicMode, cols []int, dropped int) string {
	var why string
	if mode == MagicContext {
		why = fmt.Sprintf(
			"σ[%s] binds the query: every rule passes the other columns through, so answers are collected from a magic frontier of bound tuples seeded at the constants (context mode, generalizing Algorithm 4.1)",
			magicCols(cols))
	} else {
		why = fmt.Sprintf(
			"σ[%s] binds the query: the magic set of reachable column-(%s) tuples restricts the semi-naive closure to the region the selection can see (filter mode)",
			magicCols(cols), magicCols(cols))
	}
	if dropped > 0 {
		why += fmt.Sprintf("; %d bound column(s) were not bindable and post-filter", dropped)
	}
	return why
}

// Parallelizable reports whether executing the plan shards closure
// rounds across a worker pool — equivalently, whether Open returns a
// live closure rather than an already-complete answer.  Only a
// context-mode magic plan collects its answer whole and sequentially,
// so ChooseMulti records a pool of at most 1 for it (Plan.Workers), and
// the server's admission control grants that pool.
func (p *Plan) Parallelizable() bool {
	return p.Kind != MagicSeeded || (p.Magic != nil && p.Magic.Mode == MagicFilter)
}
