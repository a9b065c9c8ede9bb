// Package planner analyzes a linear recursive program with the paper's
// toolbox — pairwise commutativity (Section 5), separability (Section 6.1),
// recursive redundancy (Section 6.2) — and selects an evaluation plan:
//
//   - decomposed closure A* = B*C* when the operators commute (Section 3);
//   - the separable algorithm A1*(σ A2*) for selection queries (Thm 4.1)
//     and its n-ary form (σ1A1*)…(σnAn*)σ0 (Section 4.1);
//   - magic-seeded evaluation for bound selection queries no separable
//     plan covers, and for point goals whose full adornment binds: a
//     frontier from the query's constants either collects the answer
//     directly or restricts the closure (see magic.go);
//   - semi-naive closure of the sum as the fallback.
//
// Recursive redundancy is reported (Summary), not planned on: its power
// searches run on first use, never on a query's path.
package planner

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"linrec/internal/agraph"
	"linrec/internal/ast"
	"linrec/internal/commute"
	"linrec/internal/eval"
	"linrec/internal/redundant"
	"linrec/internal/rel"
	"linrec/internal/separable"
)

// Analysis is the symbolic analysis of one recursive predicate's rules.
type Analysis struct {
	Pred      string
	Ops       []*ast.Op
	ExitRules []ast.Rule
	Graphs    []*agraph.Graph

	// Commutes[i][j] for i<j: verdict for the pair (Ops[i], Ops[j]).
	Commutes map[[2]int]commute.Verdict
	// CommuteReports holds the syntactic reports where available.
	CommuteReports map[[2]int]*commute.Report
	// Separable holds Naughton separability per pair.
	Separable map[[2]int]separable.Report

	// copyOf is the predicate a copy exit rule reads (see CopySource),
	// or "".
	copyOf string

	// redOnce/red memoize the recursive-redundancy findings (Redundancies):
	// Theorem 6.3's power searches minimize successive operator powers, and
	// no plan reads them, so only the report pays for them.
	redOnce sync.Once
	red     map[int][]redundant.Finding

	// plans memoizes ChooseMulti's choices by adornment key, each chosen
	// once and never written afterwards.
	plansMu sync.Mutex
	plans   map[string]*Plan
}

// Redundancies returns the recursive-redundancy findings per operator
// index, computing them on first use.
func (a *Analysis) Redundancies() map[int][]redundant.Finding {
	a.redOnce.Do(func() {
		a.red = map[int][]redundant.Finding{}
		for i, op := range a.Ops {
			if fs := redundant.Analyze(op, 0); len(fs) > 0 {
				a.red[i] = fs
			}
		}
	})
	return a.red
}

// Analyze extracts the rules for pred from prog and runs the analysis plan
// choice reads: commutativity and separability per operator pair.
// Commutativity uses the exact syntactic test when the pair is in the
// restricted class and falls back to the definition otherwise.
func Analyze(prog *ast.Program, pred string) (*Analysis, error) {
	a := &Analysis{
		Pred:           pred,
		plans:          map[string]*Plan{},
		Commutes:       map[[2]int]commute.Verdict{},
		CommuteReports: map[[2]int]*commute.Report{},
		Separable:      map[[2]int]separable.Report{},
	}
	for _, r := range prog.RulesFor(pred) {
		if r.IsRecursiveWith(pred) {
			op, err := ast.FromRule(r)
			if err != nil {
				return nil, err
			}
			a.Ops = append(a.Ops, op)
			a.Graphs = append(a.Graphs, agraph.New(op))
		} else {
			a.ExitRules = append(a.ExitRules, r)
		}
	}
	if len(a.Ops) == 0 {
		return nil, fmt.Errorf("planner: no recursive rules for predicate %q", pred)
	}
	if len(a.ExitRules) == 0 {
		return nil, fmt.Errorf("planner: no exit (nonrecursive) rules for predicate %q", pred)
	}
	a.copyOf = copySource(a.ExitRules)

	for i := 0; i < len(a.Ops); i++ {
		for j := i + 1; j < len(a.Ops); j++ {
			key := [2]int{i, j}
			if rep, err := commute.Syntactic(a.Ops[i], a.Ops[j]); err == nil {
				a.Commutes[key] = rep.Verdict
				a.CommuteReports[key] = rep
			} else if v, err := commute.Definition(a.Ops[i], a.Ops[j]); err == nil {
				a.Commutes[key] = v
			} else {
				return nil, err
			}
			if sep, err := separable.IsSeparable(a.Ops[i], a.Ops[j]); err == nil {
				a.Separable[key] = sep
			}
		}
	}
	return a, nil
}

// CopySource reports whether the seed q is a stored relation as is: the
// one exit rule is p(X1,…,Xn) :- e(X1,…,Xn) over distinct variables, so
// q is exactly e and callers may pass e's store wherever a seed goes
// instead of materializing Seed.  pred names e.
func (a *Analysis) CopySource() (pred string, ok bool) {
	return a.copyOf, a.copyOf != ""
}

// copySource returns the predicate a lone copy exit rule reads (see
// CopySource), or "".  Swapped or repeated variables, constants and
// arity changes do not qualify.
func copySource(exits []ast.Rule) string {
	if len(exits) != 1 || len(exits[0].Body) != 1 {
		return ""
	}
	head, body := exits[0].Head, exits[0].Body[0]
	if body.Arity() != head.Arity() {
		return ""
	}
	for i, t := range head.Args {
		if !t.IsVar() || body.Args[i] != t || slices.Contains(head.Args[:i], t) {
			return ""
		}
	}
	return body.Pred
}

// AllCommute reports whether every pair of operators commutes.
func (a *Analysis) AllCommute() bool {
	for i := 0; i < len(a.Ops); i++ {
		for j := i + 1; j < len(a.Ops); j++ {
			if a.Commutes[[2]int{i, j}] != commute.Commute {
				return false
			}
		}
	}
	return len(a.Ops) >= 1
}

// CommutingGroups partitions the operators so that any two operators in
// different groups commute: operators of a non-commuting (or unknown) pair
// are forced into the same group (union-find).  With B = ΣG₁, C = ΣG₂ and
// every cross pair commuting, CB = BC, hence (B+C)* = B*C* — the paper's
// Section 7 "partial commutativity" decomposition.  Groups are returned
// with ascending smallest member; a single group means no decomposition.
func (a *Analysis) CommutingGroups() [][]int {
	parent := make([]int, len(a.Ops))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	for i := 0; i < len(a.Ops); i++ {
		for j := i + 1; j < len(a.Ops); j++ {
			if a.Commutes[[2]int{i, j}] != commute.Commute {
				parent[find(i)] = find(j)
			}
		}
	}
	byRoot := map[int][]int{}
	var order []int
	for i := range a.Ops {
		r := find(i)
		if _, ok := byRoot[r]; !ok {
			order = append(order, r)
		}
		byRoot[r] = append(byRoot[r], i)
	}
	groups := make([][]int, 0, len(order))
	for _, r := range order {
		groups = append(groups, byRoot[r])
	}
	sort.Slice(groups, func(x, y int) bool { return groups[x][0] < groups[y][0] })
	return groups
}

// Summary renders a human-readable analysis report.
func (a *Analysis) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "predicate %s: %d recursive rule(s), %d exit rule(s)\n",
		a.Pred, len(a.Ops), len(a.ExitRules))
	red := a.Redundancies()
	for i, op := range a.Ops {
		fmt.Fprintf(&b, "\nrule %d: %v\n", i+1, op)
		b.WriteString(indent(a.Graphs[i].DescribeClasses(), "  "))
		if fs, ok := red[i]; ok {
			for _, f := range fs {
				fmt.Fprintf(&b, "  recursively redundant: %s (C^%d ≤ C^%d)\n",
					strings.Join(f.Preds, ", "), f.Bound.N, f.Bound.K)
			}
		}
	}
	var keys [][2]int
	for k := range a.Commutes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(x, y int) bool {
		return keys[x][0] < keys[y][0] || (keys[x][0] == keys[y][0] && keys[x][1] < keys[y][1])
	})
	for _, k := range keys {
		fmt.Fprintf(&b, "\nrules %d,%d: %v", k[0]+1, k[1]+1, a.Commutes[k])
		if sep, ok := a.Separable[k]; ok {
			fmt.Fprintf(&b, "; %v", sep)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func indent(s, pre string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = pre + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}

// Kind enumerates evaluation strategies.
type Kind int

const (
	// SemiNaive: closure of the sum of all operators (fallback).
	SemiNaive Kind = iota
	// Decomposed: sequence of single-operator closures A1*…An* justified
	// by pairwise commutativity.
	Decomposed
	// Separable: A1*(σ A2*) per Theorem 4.1 (two operators, selection)
	// or its n-ary form (σ1A1*)…(σnAn*)σ0 (Section 4.1); see SeparablePlan.
	Separable
	// MagicSeeded: a bound selection query evaluated from the constant
	// outward — a magic frontier over the bound column plus either
	// direct answer collection (context mode) or a closure restricted
	// to the magic set (filter mode); see MagicPlan.
	MagicSeeded
)

// String names the strategy as reported by Plan and the server's
// /v1/query and /v1/stats responses.
func (k Kind) String() string {
	switch k {
	case Decomposed:
		return "decomposed closure (B*C*)"
	case Separable:
		return "separable algorithm (A1*(σA2*))"
	case MagicSeeded:
		return "magic-seeded evaluation (σ-bound frontier)"
	default:
		return "semi-naive closure ((ΣAᵢ)*)"
	}
}

// Slug names the strategy in compact form — the per-adornment plan
// counters of the server's /v1/stats key on it, where the full String
// form would drown the adornment.
func (k Kind) Slug() string {
	switch k {
	case Decomposed:
		return "decomposed"
	case Separable:
		return "separable"
	case MagicSeeded:
		return "magic-seeded"
	case SemiNaive:
		return "semi-naive"
	default:
		return "unknown"
	}
}

// Strategy lets callers force an evaluation strategy instead of the
// analysis-driven choice.
type Strategy int

const (
	// Auto picks by the paper's analysis (the default).
	Auto Strategy = iota
	// ForceSemiNaive always evaluates the flat closure of the sum.  With
	// Workers > 1 this is the fully parallel single-phase evaluation: every
	// round shards across the pool with no inter-group barriers.
	ForceSemiNaive
	// ForceDecomposed always uses the grouped decomposition when the
	// commutativity analysis yields ≥ 2 groups (flat closure otherwise).
	ForceDecomposed
)

// String names the override for reports.
func (s Strategy) String() string {
	switch s {
	case ForceSemiNaive:
		return "force-seminaive"
	case ForceDecomposed:
		return "force-decomposed"
	default:
		return "auto"
	}
}

// Options configure plan choice and execution.
type Options struct {
	// Workers is the closure worker-pool size: ≤ 1 evaluates sequentially,
	// > 1 shards every semi-naive round across that many goroutines.
	Workers int
	// Strategy optionally overrides the analysis-driven plan choice.
	Strategy Strategy
}

// Plan is an executable strategy for one query.
type Plan struct {
	Kind Kind
	// Groups is the group sequence for Decomposed plans: closures run
	// right-to-left (the last group's closure runs first), mirroring the
	// product (ΣG₀)*·(ΣG₁)*·….  Singleton groups are single-operator
	// closures; larger groups run semi-naive over their sum.
	Groups [][]int
	// Sep is the payload of Separable plans: σ0 and the σᵢAᵢ* steps.
	Sep *SeparablePlan
	// Magic is the payload of MagicSeeded plans: mode, compiled frontier
	// spec and driving selections.
	Magic *MagicPlan
	// Workers is the closure worker-pool size the plan runs on: the
	// requested pool, or at most 1 for a plan that is not
	// Parallelizable, which would leave the rest of the pool idle.
	Workers int
	// Why explains the choice.
	Why string
}

// SeparablePlan is the payload of Separable plans: Section 4.1's n-ary
// decomposition
//
//	σ0σ1…σn(ΣAᵢ)* q  =  (σ1A1*)…(σnAn*) σ0 q,
//
// where σ0 commutes with every operator and each σᵢ with every operator
// but Aᵢ.  Theorem 4.1's σ(A1+A2)* q = A1*(σA2* q) is the two-step case.
type SeparablePlan struct {
	// Sigma0 are the selections that commute with every operator; they
	// filter the seed.
	Sigma0 []separable.Selection
	// Steps are the factors σᵢAᵢ* in the order they run, innermost first.
	Steps []SepStep
}

// SepStep is one factor σAᵢ* of a separable plan: the closure of
// Ops[Op], then Sel when non-nil.  Sel commutes with every operator of a
// later step, so their closures keep every row it admits.  Magic, set at
// choice time on a step before the last whose operator binds Sel's
// column in context mode, is that operator's frontier program: the step
// then runs Algorithm 4.1's context iteration from Sel's constant
// instead of closing the operator.
type SepStep struct {
	Op    int
	Sel   *separable.Selection
	Magic *eval.MagicSpec
}

// ChooseMulti picks a plan under the given options for a query binding
// any number of answer columns.  The strategy override wins when set;
// otherwise the paper's analysis decides, weighing the worker pool: a
// grouped decomposition (Theorem 3.1's duplicate savings) composes with
// parallelism — each group closure shards its rounds — so it stays
// preferred over flat parallel semi-naive whenever commutativity
// licenses it, and the plan records the pool it will run on:
// opts.Workers, or at most 1 for a plan that is not Parallelizable.
// Plans consume selections as documented on their kind (Separable those
// in Plan.Sep, MagicSeeded the subset in Plan.Magic.Sels); Plan.Residual
// names the rest, which the caller applies as post-filters.
//
// The choice reads the selections' columns, never their values, so it is
// made once per (column sequence, strategy, pool) — the adornment — and
// memoized on the analysis; each call binds the request's constants into
// it (bind).  The returned plan is shared and must not be written.
func (a *Analysis) ChooseMulti(sels []separable.Selection, opts Options) *Plan {
	// The key — strategy, pool, then the columns in order, since Theorem
	// 4.1's branch takes the first selection — is built on the stack.
	var buf [32]byte
	key := binary.AppendVarint(buf[:0], int64(opts.Strategy))
	key = binary.AppendVarint(key, int64(opts.Workers))
	for _, sel := range sels {
		key = binary.AppendVarint(key, int64(sel.Col))
	}
	a.plansMu.Lock()
	p, ok := a.plans[string(key)]
	if !ok {
		// Chosen over parameters, not constants: selection i becomes
		// {Col: sels[i].Col, Value: i}, so every selection the plan
		// consumes names the request selection bind fills it from.
		params := make([]separable.Selection, len(sels))
		for i, sel := range sels {
			params[i] = separable.Selection{Col: sel.Col, Value: rel.Value(i)}
		}
		p = a.choose(params, opts)
		a.plans[string(key)] = p
	}
	a.plansMu.Unlock()
	return p.bind(sels)
}

// bind returns memoized plan p for the request selections sels: p itself
// when it consumes no selection, else a copy whose consumed selections
// carry the values of the request selections their parameters name.  The
// copy and its payload are one allocation, and share everything else
// (groups, specs, Why) with p.
func (p *Plan) bind(sels []separable.Selection) *Plan {
	if p.Kind != Separable && p.Kind != MagicSeeded {
		return p
	}
	b := &struct {
		Plan
		sep   SeparablePlan
		magic MagicPlan
	}{Plan: *p}
	if p.Kind == Separable {
		b.sep = SeparablePlan{Sigma0: bindSels(p.Sep.Sigma0, sels), Steps: slices.Clone(p.Sep.Steps)}
		for i, st := range b.sep.Steps {
			if st.Sel != nil {
				sel := sels[st.Sel.Value]
				b.sep.Steps[i].Sel = &sel
			}
		}
		b.Sep = &b.sep
	} else {
		b.magic = *p.Magic
		b.magic.Sels = bindSels(p.Magic.Sels, sels)
		b.Magic = &b.magic
	}
	return &b.Plan
}

// bindSels returns the request selections the parameters params name
// (see ChooseMulti), or nil for none.
func bindSels(params, sels []separable.Selection) []separable.Selection {
	if len(params) == 0 {
		return nil
	}
	out := make([]separable.Selection, len(params))
	for i, prm := range params {
		out[i] = sels[prm.Value]
	}
	return out
}

// choose is ChooseMulti's choice itself, made afresh.
func (a *Analysis) choose(sels []separable.Selection, opts Options) *Plan {
	plan := a.chooseKind(sels, opts)
	plan.Workers = opts.Workers
	if !plan.Parallelizable() {
		plan.Workers = min(plan.Workers, 1)
	} else if opts.Workers > 1 {
		plan.Why += fmt.Sprintf("; %s across %d workers", sharding[plan.Kind], opts.Workers)
	}
	return plan
}

// sharding names, per plan kind, the closures a worker pool shards.
var sharding = [...]string{
	SemiNaive:   "rounds shard",
	Decomposed:  "each group closure shards",
	Separable:   "each step closure shards",
	MagicSeeded: "the restricted closure shards",
}

func (a *Analysis) chooseKind(sels []separable.Selection, opts Options) *Plan {
	switch opts.Strategy {
	case ForceSemiNaive:
		return &Plan{Kind: SemiNaive, Why: "forced by Options.Strategy"}
	case ForceDecomposed:
		if groups := a.CommutingGroups(); len(groups) >= 2 {
			return &Plan{Kind: Decomposed, Groups: groups, Why: "forced by Options.Strategy"}
		}
		return &Plan{Kind: SemiNaive, Why: "decomposition forced but operators form a single group"}
	}
	if p := a.separablePlan(sels); p != nil {
		return p
	}
	// No separable plan applies to this bound query: try a magic-seeded
	// evaluation from the constants outward — the full adornment when
	// every rule binds it, the best column subset otherwise — before
	// conceding the full closure (decomposed or not) plus a post-filter.
	if p := a.magicPlan(sels); p != nil {
		return p
	}
	if groups := a.CommutingGroups(); len(groups) >= 2 {
		why := "all operator pairs commute, so (ΣAᵢ)* = A1*…An* (Sections 3, 5)"
		if !a.AllCommute() {
			why = fmt.Sprintf("operators split into %d mutually commuting groups (partial commutativity, Section 7)", len(groups))
		}
		return &Plan{Kind: Decomposed, Groups: groups, Why: why}
	}
	return &Plan{Kind: SemiNaive, Why: "no decomposition applies"}
}

// separablePlan builds the Separable plan for a bound query on mutually
// commuting operators, or nil.  Legality is syntactic (Section 4.1 and
// Theorem 4.1 only ask which selections commute with which operators),
// tried in this order:
//
//   - a point goal (≥ 2 bound columns) whose full adornment every rule
//     binds in context mode takes no separable plan: the magic frontier
//     answers it in work proportional to the answer, where a step would
//     close a whole operator;
//   - ≥ 2 selections take the n-ary form when each one commutes with
//     every operator (σ0) or fails against exactly one, no two against
//     the same;
//   - on two operators, the first selection takes Theorem 4.1's form: A1
//     is the first operator it commutes with, and it filters the A2 step;
//     further selections post-filter.
func (a *Analysis) separablePlan(sels []separable.Selection) *Plan {
	if len(sels) == 0 || len(a.Ops) < 2 || !a.AllCommute() {
		return nil
	}
	if len(sels) >= 2 {
		cols := make([]int, len(sels))
		for i, sel := range sels {
			cols[i] = sel.Col
		}
		slices.Sort(cols)
		if _, mode, ok := MagicAnalysis(a.Ops, cols); ok && mode == MagicContext {
			return nil
		}
		if sp := a.assign(sels); sp != nil {
			return a.sepPlan(sp, fmt.Sprintf("n-ary separable decomposition with %d selections (Section 4.1)", len(sels)))
		}
	}
	if len(a.Ops) != 2 {
		return nil
	}
	sel := sels[0]
	for i := 0; i < 2; i++ {
		if sel.CommutesWith(a.Ops[i]) {
			return a.sepPlan(&SeparablePlan{Steps: []SepStep{{Op: 1 - i, Sel: &sel}, {Op: i}}},
				fmt.Sprintf("operators commute and σ[%d] commutes with rule %d (Theorem 4.1)", sel.Col, i+1))
		}
	}
	return nil
}

// sepPlan returns the Separable plan of sp, recording on every step
// before the last the context-mode frontier of its operator and
// selection when there is one (SepStep.Magic).
func (a *Analysis) sepPlan(sp *SeparablePlan, why string) *Plan {
	for i := range sp.Steps[:len(sp.Steps)-1] {
		st := &sp.Steps[i]
		if st.Sel == nil {
			continue
		}
		if spec, mode, ok := MagicAnalysis([]*ast.Op{a.Ops[st.Op]}, []int{st.Sel.Col}); ok && mode == MagicContext {
			st.Magic = &spec
		}
	}
	return &Plan{Kind: Separable, Sep: sp, Why: why}
}

// assign slots every selection into the n-ary formula: σ0 when it
// commutes with every operator, else σᵢ of the one operator Aᵢ it fails
// against.  It returns nil when a selection fails against two operators
// or two fail against the same one.
func (a *Analysis) assign(sels []separable.Selection) *SeparablePlan {
	sp := &SeparablePlan{}
	owned := make([]*separable.Selection, len(a.Ops))
	for _, sel := range sels {
		owner := -1
		for i, op := range a.Ops {
			if !sel.CommutesWith(op) {
				if owner >= 0 {
					return nil
				}
				owner = i
			}
		}
		switch {
		case owner < 0:
			sp.Sigma0 = append(sp.Sigma0, sel)
		case owned[owner] == nil:
			owned[owner] = &separable.Selection{Col: sel.Col, Value: sel.Value}
		default:
			return nil
		}
	}
	// (σ1A1*)…(σnAn*): the rightmost factor runs first.
	for i := len(a.Ops) - 1; i >= 0; i-- {
		sp.Steps = append(sp.Steps, SepStep{Op: i, Sel: owned[i]})
	}
	return sp
}

// Result of executing a plan.
type Result struct {
	Answer *rel.Relation
	Stats  eval.Stats
	Plan   *Plan
}

// Seed materializes the evaluation seed: the union of the exit rules
// over db.  The result depends only on (analysis, db), so callers serving
// many queries over one immutable database snapshot may compute it once
// and share it — the seed is only ever read by ExecuteSeeded (closures
// clone it; lazy index builds on it are concurrency-safe).  For a copy
// exit rule (CopySource) the stored relation itself is the seed, and
// serving paths pass it without calling Seed.
//
// A single exit rule's relation is the seed itself, with no second key
// table and copy.
func (a *Analysis) Seed(e *eval.Engine, db rel.DB) (*rel.Relation, error) {
	if len(a.ExitRules) == 1 {
		return e.EvalRule(db, a.ExitRules[0])
	}
	q := rel.NewRelation(a.Ops[0].Arity())
	for _, r := range a.ExitRules {
		t, err := e.EvalRule(db, r)
		if err != nil {
			return nil, err
		}
		q.UnionInto(t)
	}
	return q, nil
}

// ExecuteSeeded opens the plan over the seed q (see Seed, CopySource
// and Open), drains it and applies what the opened closure leaves
// to filter: Plan.Residual of the plan's own selections and sel.  The
// seed is shared, not consumed: no plan kind mutates it.  Every closure
// phase polls ctx (at every round and inside each round's delta scan,
// on every worker) and returns ctx's error once it fires, with all
// worker goroutines joined.  With opts.Workers > 1 wide rounds fan out;
// results and statistics are identical to sequential execution.
func (a *Analysis) ExecuteSeeded(ctx context.Context, e *eval.Engine, db rel.DB, plan *Plan, sel *separable.Selection, opts Options, q rel.Store) (*Result, error) {
	cl, stats, err := a.Open(ctx, e, db, plan, opts, q, nil)
	if err != nil {
		return nil, err
	}
	ans, s, err := cl.Drain()
	stats.Add(s)
	if err != nil {
		return nil, err
	}
	sels := plan.selections()
	if sel != nil {
		sels = append(sels, *sel)
	}
	for _, s := range plan.Residual(sels) {
		ans = s.Apply(ans)
	}
	return &Result{Answer: ans, Stats: stats, Plan: plan}, nil
}

// Open is the one per-kind dispatch behind every execution of a plan: it
// runs everything but the plan's final closure over the shared seed q —
// any store, possibly one of db's own, which every kind only clones or
// probes — and returns that closure as an un-drained stream, along with
// the statistics of the work already done.  Materialized execution drains
// the stream (ExecuteSeeded); a streaming consumer pulls from it and may
// stop early.  What materializes up front: every group of a Decomposed
// plan and every step of a Separable plan but the last to run (each
// feeds the next closure's seed), and a MagicSeeded plan's magic set
// unless the caller supplies it as set — the set MagicSetCtx builds from
// Plan.Magic's spec and bound tuple, as core's per-snapshot cache keeps
// it; that caller adds the statistics of its build.  A context-mode
// magic plan — the
// kind Plan.Parallelizable excludes — collects its answer whole and
// returns it as an already-complete stream.  Rows are the raw closure:
// the consumer applies Plan.Residual.  With opts.Workers > 1 the
// closures fan wide rounds out across the pool; rows and statistics are
// identical either way.
func (a *Analysis) Open(ctx context.Context, e *eval.Engine, db rel.DB, plan *Plan, opts Options, q rel.Store, set *rel.Relation) (*eval.ClosureStream, eval.Stats, error) {
	pe := eval.Parallel(e, max(1, opts.Workers))
	var stats eval.Stats
	switch plan.Kind {
	case Separable:
		cur := q
		for _, sel := range plan.Sep.Sigma0 {
			cur = sel.Apply(cur)
		}
		steps := plan.Sep.Steps
		for _, st := range steps[:len(steps)-1] {
			next, err := a.sepStep(ctx, pe, db, st, cur, &stats)
			if err != nil {
				return nil, stats, err
			}
			cur = next
		}
		return pe.StreamCtx(ctx, db, []*ast.Op{a.Ops[steps[len(steps)-1].Op]}, cur), stats, nil
	case MagicSeeded:
		m := plan.Magic
		vals := m.BoundTuple()
		if set == nil {
			var err error
			if set, err = e.MagicSetCtx(ctx, db, m.Spec, vals, &stats); err != nil {
				return nil, stats, err
			}
		}
		if m.Mode == MagicContext {
			return eval.Completed(eval.MagicCollect(q, m.Spec.Cols, vals, set, &stats)), stats, nil
		}
		return pe.StreamRestrictedCtx(ctx, db, a.Ops, rel.SelectInCols(q, m.Spec.Cols, set), m.Spec.Cols, set), stats, nil
	case Decomposed:
		// Groups run right-to-left; only the final closure (Groups[0])
		// streams.
		cur := q
		for i := len(plan.Groups) - 1; i >= 1; i-- {
			next, s, err := pe.SemiNaiveCtx(ctx, db, a.groupOps(plan.Groups[i]), cur)
			stats.Add(s)
			if err != nil {
				return nil, stats, err
			}
			cur = next
		}
		return pe.StreamCtx(ctx, db, a.groupOps(plan.Groups[0]), cur), stats, nil
	default:
		return pe.StreamCtx(ctx, db, a.Ops, q), stats, nil
	}
}

// sepStep materializes σAᵢ* cur, one step of a separable plan before its
// last.  A step with a frontier (SepStep.Magic) runs Algorithm 4.1's
// context iteration: the operator's magic frontier from σ's constant,
// collecting the matching rows of cur — work proportional to the step's
// answer.  Otherwise the step closes the operator and filters.
func (a *Analysis) sepStep(ctx context.Context, pe *eval.Engine, db rel.DB, st SepStep, cur rel.Store, stats *eval.Stats) (*rel.Relation, error) {
	if st.Magic != nil {
		vals := rel.Tuple{st.Sel.Value}
		set, err := pe.MagicSetCtx(ctx, db, *st.Magic, vals, stats)
		if err != nil {
			return nil, err
		}
		return eval.MagicCollect(cur, st.Magic.Cols, vals, set, stats), nil
	}
	next, s, err := pe.SemiNaiveCtx(ctx, db, []*ast.Op{a.Ops[st.Op]}, cur)
	stats.Add(s)
	if err != nil || st.Sel == nil {
		return next, err
	}
	return st.Sel.Apply(next), nil
}

// selections returns, as a fresh slice, the query selections the plan
// acts on: a separable plan's σ0 and then its step selections in step
// order, a magic plan's bound columns.
func (p *Plan) selections() []separable.Selection {
	switch p.Kind {
	case Separable:
		out := slices.Clone(p.Sep.Sigma0)
		for _, st := range p.Sep.Steps {
			if st.Sel != nil {
				out = append(out, *st.Sel)
			}
		}
		return out
	case MagicSeeded:
		return slices.Clone(p.Magic.Sels)
	}
	return nil
}

// Residual returns the selections of sels that the rows of the plan's
// opened closure (Open) do not already satisfy — what a consumer must
// still apply, per row or to the drained total.  A Separable plan
// consumes σ0 and the selection of every step before its last (later
// closures commute with them); a context-mode magic plan rewrites its
// bound columns to the constants; every other stream is a raw closure.
func (p *Plan) Residual(sels []separable.Selection) []separable.Selection {
	var consumed []separable.Selection
	switch {
	case p.Kind == Separable:
		consumed = p.selections()
		if p.Sep.Steps[len(p.Sep.Steps)-1].Sel != nil {
			consumed = consumed[:len(consumed)-1]
		}
	case p.Kind == MagicSeeded && p.Magic.Mode == MagicContext:
		consumed = p.Magic.Sels
	}
	var out []separable.Selection
	for _, sel := range sels {
		if !slices.Contains(consumed, sel) {
			out = append(out, sel)
		}
	}
	return out
}

// groupOps resolves a decomposed plan group's operator indexes.
func (a *Analysis) groupOps(idxs []int) []*ast.Op {
	ops := make([]*ast.Op, 0, len(idxs))
	for _, i := range idxs {
		ops = append(ops, a.Ops[i])
	}
	return ops
}
