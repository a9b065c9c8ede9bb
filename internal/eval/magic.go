// Magic-seeded evaluation: the data-level machinery behind the planner's
// MagicSeeded plan kind.  A bound selection query σ[c₁]=v₁ … σ[cₖ]=vₖ over
// a linear recursive predicate does not need the predicate's full closure
// — only the tuples reachable from the bound constants matter.  The
// planner compiles, per recursive rule, a context transformer over the
// whole adornment (the generalization of Algorithm 4.1's "operator loop"
// from one bound column to the full bound-column set) into a MagicSpec —
// once per adornment, when it chooses the plan, so every request of that
// binding pattern shares the spec and its compiled step operators and
// brings only its constants; this file evaluates it:
//
//   - MagicSetCtx closes the seed bound-tuple under the transformers —
//     linear operators over len(Cols)-tuples — on the closure kernel,
//     like any other closure: the magic set, every binding of the
//     selected columns reachable in some derivation chain ending at the
//     query's constants.
//   - MagicCollect turns a magic set directly into the answer when every
//     rule passes the unselected columns through unchanged (the planner's
//     context mode): answers are exit-rule tuples looked up per magic
//     tuple with the bound columns rewritten — output-proportional work.
//   - SemiNaiveRestrictedCtx is the fallback (the planner's filter mode):
//     an ordinary semi-naive closure, on the same stepper as any other,
//     that discards every derived tuple whose bound-column projection
//     lies outside the magic set, so the fixpoint only ever grows the
//     reachable region instead of the whole predicate.

package eval

import (
	"context"

	"linrec/internal/ast"
	"linrec/internal/rel"
)

// MagicSetPred is the pseudo-predicate of the len(Cols)-ary relation of
// reachable bound-tuple values: the head of every MagicSpec rule and
// operator, and the recursive atom of every step operator.  The '$'
// prefix keeps it disjoint from anything the parser can produce.
const MagicSetPred = "$magic"

// MagicSpec is a compiled magic/adorned program for one adornment (set of
// bound columns) of one recursive predicate: the rules and operators
// whose fixpoint from the query's bound tuple is the magic set.  Specs
// are built by the planner's bindability analysis
// (planner.MagicAnalysis) and are immutable once built, so one spec may
// serve any number of concurrent evaluations.
type MagicSpec struct {
	// Cols are the bound answer columns driving the evaluation, in
	// ascending order.  Frontier tuples carry one value per entry, in the
	// same order.
	Cols []int
	// Step operators derive next-generation magic tuples from the
	// current frontier: MagicSetPred(outs…) :- MagicSetPred(ins…),
	// nonrec atoms.  One per recursive rule whose bound-tuple context
	// depends on the frontier — through a column the rule copies from
	// the seed (identity or cross-column copy) or through a seed variable
	// occurring in its nonrecursive atoms.
	Step []*ast.Op
	// Init rules derive frontier-independent magic tuples —
	// MagicSetPred(outs…) :- nonrec atoms — contributed by rules none of
	// whose bound head variables reach their nonrecursive atoms or their
	// recursive atom's bound columns.  They are evaluated once, into
	// the seed of the frontier closure.
	Init []ast.Rule
	// Identity counts the rules that pass every bound column through
	// unchanged; they contribute nothing to the frontier but are recorded
	// so Plan.Why can explain the spec.
	Identity int
}

// Arity returns the number of bound columns (the frontier tuple width).
func (s MagicSpec) Arity() int { return len(s.Cols) }

// MagicSetCtx computes the magic set: the least len(spec.Cols)-ary
// relation containing seed and the init rules' contributions that is
// closed under the spec's step operators.  seed carries the query's
// bound values in spec.Cols order and is copied, never retained.  The
// closure runs on the stepper like any other — one round per frontier
// generation, each joining only the previous generation's new tuples,
// fanned out on a wide frontier, polling ctx — and traces as one
// "magic-frontier" phase.  The step operators compile through the
// engine's operator cache, like any closure's: the planner builds one
// spec per adornment, so the cache grows once per spec, not per call.
// Only the rounds' Iterations are added to stats; derivation accounting
// belongs to the consumer (MagicCollect or the restricted closure).
// With no step operators no round runs.
func (e *Engine) MagicSetCtx(ctx context.Context, db rel.DB, spec MagicSpec, seed rel.Tuple, stats *Stats) (*rel.Relation, error) {
	set := rel.NewRelation(spec.Arity())
	set.Insert(seed)
	for _, r := range spec.Init {
		t, err := e.EvalRule(db, r)
		if err != nil {
			return nil, err
		}
		t.Each(func(v rel.Tuple) { set.Insert(v) })
	}
	c := e.open(ctx, db, e.compiledOps(spec.Step), set, 0, "magic-frontier", nil)
	if len(spec.Step) == 0 {
		c.Close()
		return set, nil
	}
	set, st, err := c.Drain()
	stats.Iterations += st.Iterations
	return set, err
}

// MagicCollect materializes the answer of a context-mode magic plan: for
// every magic tuple m, the seed tuples whose projection onto cols equals
// m are answers once their bound columns are rewritten to the query's
// constants vals (each rule passed every other column through unchanged,
// so the rest of the tuple survives the derivation chain verbatim).
// Work and output are proportional to the answer, never to the closure.
// Stats counts one derivation per collected tuple, duplicates included.
func MagicCollect(q rel.Store, cols []int, vals rel.Tuple, set *rel.Relation, stats *Stats) *rel.Relation {
	out := rel.NewRelation(q.Arity())
	set.Each(func(m rel.Tuple) {
	candidates:
		for _, t := range q.Lookup(cols[0], m[0]) {
			for i := 1; i < len(cols); i++ {
				if t[cols[i]] != m[i] {
					continue candidates
				}
			}
			nt := t.Clone()
			for i, c := range cols {
				nt[c] = vals[i]
			}
			stats.Derivations++
			if !out.Insert(nt) {
				stats.Duplicates++
			}
		}
	})
	return out
}

// SemiNaiveRestrictedCtx computes the part of (Σᵢ opsᵢ)* q whose
// projection onto cols lies in allowed: a semi-naive closure that
// discards every derived tuple outside the magic set — inside each
// worker when a round fans out, before the tuple reaches a round buffer
// — so reachable tuples are derived exactly as the unrestricted closure
// would while the rest of the predicate is never materialized.  q must
// already be restricted (see rel.SelectInCols); allowed is read
// concurrently and must not be mutated during the call.  Cancellation
// behaves as SemiNaiveCtx.
func (e *Engine) SemiNaiveRestrictedCtx(ctx context.Context, db rel.DB, ops []*ast.Op, q rel.Store, cols []int, allowed *rel.Relation) (*rel.Relation, Stats, error) {
	return e.StreamRestrictedCtx(ctx, db, ops, q, cols, allowed).Drain()
}

// magicKeep builds one magic-set membership filter.  The single-column
// probe reslices the candidate tuple; the multi-column probe gathers the
// bound-column projection into a buffer owned by the returned closure —
// both paths allocate nothing per probe, so the filter stays off the
// derivation hot path's allocation profile.  Because of that private
// buffer a filter instance must not be shared across goroutines: the
// stepper builds one per worker of a fanned-out round.  Relation.Has
// takes no locks either way.
func magicKeep(cols []int, allowed *rel.Relation) func(rel.Tuple) bool {
	if len(cols) == 1 {
		col := cols[0]
		return func(t rel.Tuple) bool {
			return allowed.Has(t[col : col+1 : col+1])
		}
	}
	cols = append([]int(nil), cols...)
	key := make(rel.Tuple, len(cols))
	return func(t rel.Tuple) bool {
		for i, c := range cols {
			key[i] = t[c]
		}
		return allowed.Has(key)
	}
}
