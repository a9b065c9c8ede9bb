// Differential maintenance of the derived-state store across snapshot
// swaps.  A swap N → N+1 advances the store once, and one decision
// carries, upgrades or purges each completed entry — a result, an
// exit-rule seed or a magic set — at the new version:
//
//   - When the changed predicates cannot reach the cached goal, the view
//     carries over untouched (free upgrade).
//   - Additions resume the semi-naive closure from the cached fixpoint:
//     the one-step consequences of the new tuples (occurrence-restricted
//     delta rules over the exit rules and operators) become the delta,
//     and eval.SemiNaiveResumeCtx propagates them — work proportional to
//     the new derivations, not the whole closure.
//   - Retractions run delete-and-rederive (DRed): over-delete the cone
//     of the removed tuples through the recursion, then re-derive the
//     survivors from alternative derivations that remain in the new
//     database, resuming the closure from whatever was re-derived.
//   - A mixed batch is one pass of both: DRed against the database
//     without the additions, then the resume from the retracted closure.
//
// Anything the analysis can't bound — bound goals, magic-seeded or
// separable plans, magic sets, derived predicates feeding the goal,
// retractions under a seed, panics during maintenance — is purged, and
// the next query rebuilds it; builds in flight are dropped.  Every purge
// is counted (result_cache.upgrade_fallbacks, seed_cache.purged), every
// carried view too (result_cache.upgrades, seed_cache.upgraded), so
// /v1/stats shows whether churn is being absorbed or merely survived.

package core

import (
	"context"
	"maps"
	"sync"

	"linrec/internal/ast"
	"linrec/internal/eval"
	"linrec/internal/planner"
	"linrec/internal/rel"
)

// deltaPred is the pseudo-predicate the occurrence-restricted delta
// rules bind to the changed tuples.  The '~' makes it unparseable as a
// program predicate, so it can never collide with a real relation.
const deltaPred = "delta~"

// Maintenance summarizes one Apply: how many tuples it added and
// removed, and how many goal-level results and exit-rule seeds were
// carried to the new version versus purged for the next query to
// rebuild.
type Maintenance struct {
	Added           int `json:"added"`
	Removed         int `json:"removed"`
	ResultsUpgraded int `json:"results_upgraded"`
	ResultsPurged   int `json:"results_purged"`
	SeedsUpgraded   int `json:"seeds_upgraded"`
	SeedsPurged     int `json:"seeds_purged"`
}

// Add sums the summaries of a sequence of swaps.
func (m Maintenance) Add(o Maintenance) Maintenance {
	m.Added += o.Added
	m.Removed += o.Removed
	m.ResultsUpgraded += o.ResultsUpgraded
	m.ResultsPurged += o.ResultsPurged
	m.SeedsUpgraded += o.SeedsUpgraded
	m.SeedsPurged += o.SeedsPurged
	return m
}

// opOcc keys the derived delta-operator cache: the operator identity
// (ops are pointer-canonical per Analysis) and the nonrecursive
// occurrence rewritten to the delta pseudo-predicate.  Caching the
// clones matters because the engine's compiled-operator cache is keyed
// by *ast.Op — a fresh clone per swap would grow it without bound.
type opOcc struct {
	op  *ast.Op
	idx int
}

// deltaOps lazily caches the occurrence-restricted variants of the
// analysis operators (one per nonrecursive occurrence).
type deltaOps struct {
	mu  sync.Mutex
	ops map[opOcc]*ast.Op
}

func (d *deltaOps) get(op *ast.Op, idx int) *ast.Op {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ops == nil {
		d.ops = map[opOcc]*ast.Op{}
	}
	k := opOcc{op, idx}
	if m, ok := d.ops[k]; ok {
		return m
	}
	m := op.Clone()
	m.NonRec[idx].Pred = deltaPred
	d.ops[k] = m
	return m
}

// overlayDB returns a shallow copy of db with the delta pseudo-predicate
// bound to delta.  Relations are shared; only the map is copied.
func overlayDB(db rel.DB, delta *rel.Relation) rel.DB {
	ov := make(rel.DB, len(db)+1)
	for k, v := range db {
		ov[k] = v
	}
	ov[deltaPred] = delta
	return ov
}

// maintainSwap runs cache maintenance for a swap from old to next, where
// added and removed hold the tuples actually inserted and removed per
// predicate (removals first: next = old − removed + added).  It must run
// under factMu, before next is published: the store moves to the new
// version first, so a query pinned at the old snapshot can no longer
// populate it with stale entries (it sees a superseded version and
// evaluates uncached), and the first query on the new snapshot finds the
// carried views already in place.
// A Tracer carried by ctx (Apply's) records one cache event per entry
// decided — "upgrade" or "purge", named by the entry's kind — and any
// resume phases the upgrades run.  ctx carries observability only;
// maintenance never aborts on cancellation (the snapshot swap must
// complete once started).
func (s *System) maintainSwap(ctx context.Context, old, next *Snapshot, added, removed map[string]*rel.Relation) Maintenance {
	tr := eval.TracerFrom(ctx)
	// A mixed batch retracts against the database without its additions,
	// then resumes the additions from there.
	mid := next.DB
	if len(added) > 0 && len(removed) > 0 {
		mid = maps.Clone(old.DB)
		for pred, d := range removed {
			mid[pred] = rel.NewLayered(old.DB[pred], nil, d)
		}
	}
	up, purged := s.store.advance(next.Version, func(key viewKey, res *QueryResult) (out *QueryResult) {
		defer func() {
			// A panic during maintenance (an engine invariant violation)
			// degrades to a purge rather than failing the write.
			if recover() != nil {
				out = nil
			}
			event := "upgrade"
			if out == nil {
				event = "purge"
			}
			traceView(tr, key, event, 0)
		}()
		switch key.kind {
		case resultView:
			return s.upgradeResult(ctx, old, mid, next, added, removed, key, res)
		case seedView:
			return s.upgradeSeed(next, added, removed, key, res)
		}
		return nil // a magic set's bound-tuple frontier is not superset-safe to reuse
	})
	return Maintenance{
		ResultsUpgraded: up[resultView],
		ResultsPurged:   purged[resultView],
		SeedsUpgraded:   up[seedView] + up[magicView],
		SeedsPurged:     purged[seedView] + purged[magicView],
	}
}

// upgradeResult attempts to carry one cached result across the swap,
// returning nil (fall back to purge) whenever the change can't be
// bounded.  Eligible entries are full-closure views: a fully open goal
// (distinct variables in every position) evaluated by a plain or
// decomposed closure, whose body predicates are all extensional — the
// cached answer is then exactly the closure of the exit-rule seed under
// the analysis operators, which the resume/DRed machinery maintains.
// mid is the database between the two halves of a mixed batch (next.DB
// for a pure one).
func (s *System) upgradeResult(ctx context.Context, old *Snapshot, mid rel.DB, next *Snapshot, added, removed map[string]*rel.Relation, key viewKey, res *QueryResult) *QueryResult {
	if res.Plan == nil {
		return nil
	}
	if res.Plan.Kind != planner.SemiNaive && res.Plan.Kind != planner.Decomposed {
		return nil
	}
	seen := map[string]bool{}
	for _, t := range res.Query.Args {
		if !t.IsVar() || seen[t.Name] {
			return nil
		}
		seen[t.Name] = true
	}
	a, err := s.Analyze(res.Query.Pred)
	if err != nil {
		return nil
	}
	var byAdd, byRemove bool // some changed predicate feeds the goal
	extensional := func(pred string) bool {
		if s.idb[pred] {
			return false
		}
		_, a := added[pred]
		_, r := removed[pred]
		byAdd, byRemove = byAdd || a, byRemove || r
		return true
	}
	for _, r := range a.ExitRules {
		for _, atom := range r.Body {
			if !extensional(atom.Pred) {
				return nil
			}
		}
	}
	for _, op := range a.Ops {
		for _, atom := range op.NonRec {
			if !extensional(atom.Pred) {
				return nil
			}
		}
	}
	up := *res
	up.Version = next.Version
	// When the changed predicates feed this goal nowhere, the answer
	// (and its sorted-order and rendering memo) carries over shared.
	ans, ok := res.Answer, true
	if byRemove {
		ans, ok = s.resumeRetraction(ctx, a, ans, old.DB, mid, removed, key.workers)
	}
	if ok && byAdd {
		ans, ok = s.resumeAddition(ctx, a, ans, next.DB, added, key.workers)
	}
	if !ok {
		return nil
	}
	if ans == res.Answer {
		return &up // proven unchanged: rows, order and rendering stay shared
	}
	up.Answer = ans
	up.memo = &answerMemo{syms: s.Engine.Syms}
	return &up
}

// resumeAddition maintains a cached full closure under added tuples: the
// one-step consequences of the delta (each exit rule and operator with
// one changed occurrence bound to the new tuples, everything else seeing
// the full new database) are appended to a copy of the cached fixpoint,
// and the semi-naive loop resumes from there.  Returns the cached
// relation itself when nothing new is derivable (sharing stays free).
func (s *System) resumeAddition(ctx context.Context, a *planner.Analysis, total *rel.Relation, db rel.DB, added map[string]*rel.Relation, workers int) (*rel.Relation, bool) {
	resume := total.Clone()
	lo := resume.Len()
	if !s.exitDeltas(a, db, added, func(t rel.Tuple) { resume.Insert(t) }) {
		return nil, false
	}
	p := eval.Parallel(s.Engine, workers)
	s.opDeltas(p, a, db, added, total, resume)
	if resume.Len() == lo {
		return total, true // no new one-step consequence: closure unchanged
	}
	if _, err := p.SemiNaiveResumeCtx(ctx, db, a.Ops, resume, lo); err != nil {
		return nil, false
	}
	return resume, true
}

// exitDeltas evaluates each exit rule once per body occurrence of a
// changed predicate, with that occurrence bound to the changed tuples
// and every other atom seeing db, and hands each derived tuple to emit.
// It reports false when a rule fails to evaluate.
func (s *System) exitDeltas(a *planner.Analysis, db rel.DB, changed map[string]*rel.Relation, emit func(rel.Tuple)) bool {
	for _, r := range a.ExitRules {
		for i := range r.Body {
			delta, ok := changed[r.Body[i].Pred]
			if !ok {
				continue
			}
			rr := r.Clone()
			rr.Body[i].Pred = deltaPred
			out, err := s.Engine.EvalRule(overlayDB(db, delta), rr)
			if err != nil {
				return false
			}
			out.Each(emit)
		}
	}
	return true
}

// opDeltas applies each operator once per nonrecursive occurrence of a
// changed predicate, with that occurrence bound to the changed tuples,
// every other atom seeing db and all of total as the recursive input,
// and adds the derived tuples to dst.  Each application is one round on
// p's pool: the scan of a whole cached fixpoint is the dominant cost of
// absorbing a small update, and it fans out.
func (s *System) opDeltas(p *eval.Engine, a *planner.Analysis, db rel.DB, changed map[string]*rel.Relation, total, dst *rel.Relation) {
	var st eval.Stats
	for _, op := range a.Ops {
		for i := range op.NonRec {
			if delta, ok := changed[op.NonRec[i].Pred]; ok {
				p.Apply(overlayDB(db, delta), s.deltas.get(op, i), total, dst, &st)
			}
		}
	}
}

// resumeRetraction maintains a cached full closure under removed tuples
// by delete-and-rederive.  Over-delete: every cached tuple with a
// one-step derivation through a removed tuple joins the deleted set D,
// and D's consequences cascade through the recursive position (the only
// intensional input — eligibility guaranteed every nonrecursive
// predicate is extensional) on the engine's closure kernel, so a wide
// cone fans out across the worker pool like any other round.
// Re-derive: surviving tuples of D are those the new database still
// derives, found by re-seeding D from the new exit rules and re-applying
// each operator with its recursive input restricted to survivors that
// can reach D at all; the closure then resumes from whatever came back.
// The resumed fixpoint can never leave the old closure (retraction
// shrinks the database, closure is monotone), so the resume needs no
// keep filter.
func (s *System) resumeRetraction(ctx context.Context, a *planner.Analysis, total *rel.Relation, oldDB, newDB rel.DB, removed map[string]*rel.Relation, workers int) (*rel.Relation, bool) {
	arity := total.Arity()
	deleted := rel.NewRelation(arity)
	collect := func(t rel.Tuple) {
		if total.Has(t) {
			deleted.Insert(t)
		}
	}
	if !s.exitDeltas(a, oldDB, removed, collect) {
		return nil, false
	}
	p := eval.Parallel(s.Engine, workers)
	oneStep := rel.NewRelation(arity)
	s.opDeltas(p, a, oldDB, removed, total, oneStep)
	oneStep.Each(collect)
	if deleted.Len() == 0 {
		return total, true // the removed tuples fed no cached derivation
	}
	// The cascade is a closure like any other: the one-step cone closed
	// under the operators over the old database, keeping only cached
	// tuples — the restricted closure with every column bound and the
	// cached fixpoint as the allowed set.
	cols := make([]int, arity)
	for i := range cols {
		cols[i] = i
	}
	deleted, _, err := p.SemiNaiveRestrictedCtx(ctx, oldDB, a.Ops, deleted, cols, total)
	if err != nil {
		return nil, false
	}
	pruned, _ := total.Minus(deleted)
	lo := pruned.Len()
	// Re-seed only inside the cone: evaluate each exit rule with its head
	// pre-bound to the deleted tuples (a delta~ atom carrying the head
	// arguments leads the body), so the cost scales with the cone, not
	// with a full materialization of every exit rule.
	for _, r := range a.ExitRules {
		rr := r.Clone()
		rr.Body = append([]ast.Atom{ast.NewAtom(deltaPred, rr.Head.Args...)}, rr.Body...)
		outRel, err := s.Engine.EvalRule(overlayDB(newDB, deleted), rr)
		if err != nil {
			return nil, false
		}
		outRel.Each(func(t rel.Tuple) { pruned.Insert(t) })
	}
	// Re-derive through the operators the same way, in reverse: the head
	// pre-bound to the deleted tuples, the recursive atom resolved against
	// the pruned fixpoint.  For each deleted tuple the engine probes the
	// nonrecursive inputs and then (for the usual operator shapes, where
	// the recursive atom ends up fully bound) makes one membership test
	// against pruned per candidate parent — no scan of, or index over, the
	// surviving fixpoint is needed.  Inserting each re-derived tuple into
	// pruned as it appears is sound: the insertion is derivable from the
	// survivors plus earlier (well-founded by induction) re-derivations,
	// and it lets one pass catch chains inside the cone.
	for _, op := range a.Ops {
		body := make([]ast.Atom, 0, len(op.NonRec)+2)
		body = append(body, ast.NewAtom(deltaPred, op.Head.Args...))
		body = append(body, op.NonRec...)
		body = append(body, op.Rec)
		ov := overlayDB(newDB, deleted)
		ov[op.Rec.Pred] = pruned
		outRel, err := s.Engine.EvalRule(ov, ast.Rule{Head: op.Head, Body: body})
		if err != nil {
			return nil, false
		}
		outRel.Each(func(t rel.Tuple) { pruned.Insert(t) })
	}
	if pruned.Len() == lo {
		return pruned, true // nothing re-derivable: the pruned set is closed
	}
	if _, err := p.SemiNaiveResumeCtx(ctx, newDB, a.Ops, pruned, lo); err != nil {
		return nil, false
	}
	return pruned, true
}

// upgradeSeed attempts to carry one exit-rule seed across the swap; nil
// means purge it.  Only seeds over purely extensional exit-rule bodies
// qualify, and a retraction may shrink the seed, so it purges too; of the
// rest, untouched seeds carry as-is and addition-touched seeds gain the
// delta-evaluated new exit-rule derivations.
func (s *System) upgradeSeed(next *Snapshot, added, removed map[string]*rel.Relation, key viewKey, res *QueryResult) *QueryResult {
	a, err := s.Analyze(key.pred)
	if err != nil {
		return nil
	}
	touched := false
	for _, r := range a.ExitRules {
		for _, atom := range r.Body {
			if _, ok := removed[atom.Pred]; ok || s.idb[atom.Pred] {
				return nil
			}
			if _, ok := added[atom.Pred]; ok {
				touched = true
			}
		}
	}
	if !touched {
		return res // no exit-rule input changed: the seed is the seed
	}
	q := res.Answer.Clone()
	if !s.exitDeltas(a, next.DB, added, func(t rel.Tuple) { q.Insert(t) }) {
		return nil
	}
	return &QueryResult{Answer: q}
}
