// Planner explanation: the decision tree behind a query's plan, exposed
// without executing anything.  Explain reports the plan PlanFor returns
// and Evaluate runs — one resolution (resolve): the unknown-constant
// short-circuit, else the analysis-driven ChooseMulti — and flattens
// the chosen plan plus the identifiers a client needs to correlate it
// with traces and metrics: the goal adornment, the result-cache key the
// execution path would use, and the magic-plan shape when one was
// chosen.  The server returns it for ?explain=1 queries, before (and
// instead of) admission.

package core

import (
	"fmt"

	"linrec/internal/ast"
)

// Explain describes the plan a query would run under, without running
// it.
type Explain struct {
	// Query is the resolved goal atom as parsed.
	Query string `json:"query"`
	// Pred is the queried recursive predicate.
	Pred string `json:"pred"`
	// Adornment is the goal's binding pattern, one letter per argument:
	// 'b' for a constant, 'f' for a variable (e.g. "bf").
	Adornment string `json:"adornment"`
	// PlanKind is the chosen plan kind's stable slug ("semi-naive",
	// "decomposed", "separable", "magic-seeded").
	PlanKind string `json:"plan_kind"`
	// Plan is the kind's human-readable name.
	Plan string `json:"plan"`
	// Why is the planner's decision rationale for this choice.
	Why string `json:"why"`
	// Strategy is the strategy override in force ("auto" when none).
	Strategy string `json:"strategy"`
	// Workers is the pool the plan runs on (planner.Plan.Workers): the
	// requested budget, 1 for a plan that evaluates sequentially
	// whatever its budget, 0 when nothing evaluates.
	Workers int `json:"workers"`
	// Parallelizable reports whether the plan shards its rounds across a
	// pool — context-mode magic plans evaluate sequentially regardless.
	Parallelizable bool `json:"parallelizable"`
	// CacheKey is the goal-level result-cache key the execution path
	// would address ("goal|kind|strategy|wN", N the pool above, so the
	// key is the same at the requested budget and at the server's
	// grant); empty when the query is never cached (unknown constant:
	// provably empty answer).
	CacheKey string `json:"cache_key,omitempty"`
	// Groups counts a decomposed plan's operator groups.
	Groups int `json:"groups,omitempty"`
	// MagicMode names a magic-seeded plan's collection mode ("context"
	// or "filter").
	MagicMode string `json:"magic_mode,omitempty"`
	// BoundCols are the answer columns a magic-seeded plan binds.
	BoundCols []int `json:"bound_cols,omitempty"`
}

// Explain returns the planner's decision tree for q under opts without
// executing anything: the plan PlanFor would choose, flattened with the
// adornment, the pool the plan runs on, the result-cache key and the
// plan-shape details.
func (s *System) Explain(q ast.Atom, opts Options) (*Explain, error) {
	r, err := s.resolve(q, opts)
	if err != nil {
		return nil, err
	}
	plan := r.plan
	ex := &Explain{
		Query:     q.String(),
		Pred:      q.Pred,
		Adornment: q.Adornment(),
		PlanKind:  plan.Kind.Slug(),
		Plan:      plan.Kind.String(),
		Why:       plan.Why,
		Strategy:  opts.Strategy.String(),
		Workers:   plan.Workers,
		Groups:    len(plan.Groups),
	}
	if r.empty {
		return ex, nil // nothing evaluates: no pool, never cached
	}
	ex.Parallelizable = plan.Parallelizable()
	k := resultKey(q, plan, opts.Strategy)
	ex.CacheKey = fmt.Sprintf("%s|%s|%s|w%d", k.goal, k.plan.Slug(), k.strategy, k.workers)
	if plan.Magic != nil {
		ex.MagicMode = plan.Magic.Mode.String()
		ex.BoundCols = append([]int(nil), plan.Magic.Spec.Cols...)
	}
	return ex, nil
}
