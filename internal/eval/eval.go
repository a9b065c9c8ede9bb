// Package eval is the bottom-up evaluation engine: conjunctive-query
// application, naive and semi-naive closure of sums of linear operators,
// decomposed closures (B*C*Q), and the duplicate-derivation accounting that
// realizes the cost model of Theorem 3.1.
//
// A "derivation" is one successful instantiation of a rule body producing a
// head tuple; a "duplicate" is a derivation whose tuple was already known.
// The number of derivations equals the in-degree sum of the paper's
// derivation graph, so Theorem 3.1's comparison is measured exactly.
package eval

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"linrec/internal/ast"
	"linrec/internal/rel"
)

// Stats accumulates evaluation effort.  The JSON tags are the wire form
// the linrecd server returns per query.
type Stats struct {
	Derivations int64 `json:"derivations"` // successful body instantiations (including duplicates)
	Duplicates  int64 `json:"duplicates"`  // derivations of already-known tuples
	Iterations  int   `json:"iterations"`  // semi-naive rounds across all phases
	MaxDepth    int   `json:"depth"`       // recursion depth reached (rounds with new tuples)
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Derivations += other.Derivations
	s.Duplicates += other.Duplicates
	s.Iterations += other.Iterations
	if other.MaxDepth > s.MaxDepth {
		s.MaxDepth = other.MaxDepth
	}
}

// String renders the counters in report form.
func (s Stats) String() string {
	return fmt.Sprintf("derivations=%d duplicates=%d iterations=%d depth=%d",
		s.Derivations, s.Duplicates, s.Iterations, s.MaxDepth)
}

// compiled is an operator lowered onto dense variable slots with a fixed
// greedy join order.
type compiled struct {
	op        *ast.Op
	nslots    int
	headSlots []int
	recSlots  []int
	atoms     []compiledAtom
}

type compiledAtom struct {
	pred  string
	arity int
	// slot[i] ≥ 0: variable slot for position i; -1: constant constVal[i].
	slot     []int
	constVal []rel.Value
	// idxCol is the column probed through the relation's hash index: the
	// first position that is a constant or a slot bound by the recursive
	// atom or an earlier body atom.  -1 means full scan.  Because the join
	// order is fixed at compile time, the bound-slot set at each atom is
	// static, so the choice the seed engine made per probe is precomputed.
	idxCol int
	// member marks a fully-bound atom (every position a constant or an
	// already-bound slot): the probe degenerates to one hash membership
	// test, needing no column index at all.
	member bool
	// binds[i] marks positions that assign a fresh slot during the match
	// (first occurrence of a slot not bound by earlier atoms); the other
	// variable positions are equality checks.  Precomputing this removes
	// the per-probe bookkeeping of which slots to unbind.
	binds []bool
}

// finishAtoms computes idxCol and binds for atoms joined in order, given
// the slots already bound before the first atom (mutates bound).
func finishAtoms(atoms []compiledAtom, bound map[int]bool) {
	for i := range atoms {
		a := &atoms[i]
		// idxCol considers only slots bound before this atom: a slot first
		// assigned by an earlier position of the same atom has no value yet
		// when the probe column is chosen.
		a.idxCol = -1
		a.member = true
		for k, s := range a.slot {
			if s == -1 || bound[s] {
				if a.idxCol < 0 {
					a.idxCol = k
				}
			} else {
				a.member = false
			}
		}
		a.binds = make([]bool, len(a.slot))
		for k, s := range a.slot {
			if s >= 0 && !bound[s] {
				a.binds[k] = true
				bound[s] = true
			}
		}
	}
}

// compileOp lowers an operator.  Atom order: greedy, preferring atoms with
// the most variables already bound (starting from the recursive atom's
// variables), which keeps intermediate results small.
func compileOp(op *ast.Op, syms *rel.Symtab) *compiled {
	slots := map[string]int{}
	slotOf := func(v string) int {
		if s, ok := slots[v]; ok {
			return s
		}
		s := len(slots)
		slots[v] = s
		return s
	}

	c := &compiled{op: op}
	for _, t := range op.Rec.Args {
		c.recSlots = append(c.recSlots, slotOf(t.Name))
	}

	// Greedy ordering of the nonrecursive atoms.
	remaining := make([]ast.Atom, len(op.NonRec))
	copy(remaining, op.NonRec)
	bound := map[string]bool{}
	for _, t := range op.Rec.Args {
		bound[t.Name] = true
	}
	var ordered []ast.Atom
	for len(remaining) > 0 {
		best, bestScore := 0, -1
		for i, a := range remaining {
			score := 0
			for _, t := range a.Args {
				if t.IsVar() && bound[t.Name] {
					score++
				}
			}
			// Prefer more bound vars; tie-break toward smaller atoms.
			score = score*16 - a.Arity()
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		a := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		ordered = append(ordered, a)
		for _, t := range a.Args {
			if t.IsVar() {
				bound[t.Name] = true
			}
		}
	}

	for _, a := range ordered {
		ca := compiledAtom{pred: a.Pred, arity: a.Arity()}
		for _, t := range a.Args {
			if t.IsVar() {
				ca.slot = append(ca.slot, slotOf(t.Name))
				ca.constVal = append(ca.constVal, 0)
			} else {
				ca.slot = append(ca.slot, -1)
				ca.constVal = append(ca.constVal, syms.Intern(t.Name))
			}
		}
		c.atoms = append(c.atoms, ca)
	}
	boundSlots := map[int]bool{}
	for _, s := range c.recSlots {
		boundSlots[s] = true
	}
	finishAtoms(c.atoms, boundSlots)
	for _, t := range op.Head.Args {
		c.headSlots = append(c.headSlots, slotOf(t.Name))
	}
	c.nslots = len(slots)
	return c
}

const unbound = rel.Value(-1)

// resolvedAtom is the per-evaluation resolution of one compiled atom
// against a DB snapshot: the relation itself plus, for indexed probes, a
// direct bucket prober.  Resolving once per apply call keeps the per-row
// join loop free of both the predicate-map lookup and Lookup's per-probe
// index-mutex acquisition (which turns into cross-core cache-line
// traffic when parallel shards hammer the same relation).  A resolved
// slice belongs to one goroutine.
type resolvedAtom struct {
	r     rel.Store
	probe func(rel.Value) []rel.Tuple
}

// resolveAtoms resolves every atom's relation (with the arity guard the
// per-row path used to make: an absent predicate probes as the shared
// arity-0 empty relation, which is not a mismatch; a declared relation —
// even an empty one — must agree).
func resolveAtoms(db rel.DB, atoms []compiledAtom) []resolvedAtom {
	res := make([]resolvedAtom, len(atoms))
	for i := range atoms {
		a := &atoms[i]
		r := db.Probe(a.pred)
		if r.Arity() != a.arity && (r.Len() > 0 || r.Arity() != 0) {
			panic(fmt.Sprintf("eval: predicate %q used with arity %d and %d", a.pred, r.Arity(), a.arity))
		}
		res[i].r = r
		if !a.member && a.idxCol >= 0 {
			res[i].probe = r.Prober(a.idxCol)
		}
	}
	return res
}

// joinFrom enumerates all bindings extending the current partial binding
// over atoms[i:], invoking emit for each complete one.  The probe column
// and the set of slots each position binds are precomputed (finishAtoms),
// and relations are pre-resolved (resolveAtoms), so the inner loop
// allocates nothing and takes no locks.
func joinFrom(res []resolvedAtom, atoms []compiledAtom, binding []rel.Value, i int, emit func()) {
	if i == len(atoms) {
		emit()
		return
	}
	a := &atoms[i]
	r := res[i].r

	match := func(t rel.Tuple) {
		ok := true
		for k, s := range a.slot {
			if s == -1 {
				if t[k] != a.constVal[k] {
					ok = false
					break
				}
				continue
			}
			if a.binds[k] {
				binding[s] = t[k]
				continue
			}
			if binding[s] != t[k] {
				ok = false
				break
			}
		}
		if ok {
			joinFrom(res, atoms, binding, i+1, emit)
		}
		for k, fresh := range a.binds {
			if fresh {
				binding[a.slot[k]] = unbound
			}
		}
	}

	if a.member {
		// Fully bound: one membership probe instead of an index lookup —
		// no column index is ever built for a ground check.
		key := make(rel.Tuple, len(a.slot))
		for k, s := range a.slot {
			if s == -1 {
				key[k] = a.constVal[k]
			} else {
				key[k] = binding[s]
			}
		}
		if r.Has(key) {
			joinFrom(res, atoms, binding, i+1, emit)
		}
		return
	}
	if a.idxCol >= 0 {
		var v rel.Value
		if s := a.slot[a.idxCol]; s == -1 {
			v = a.constVal[a.idxCol]
		} else {
			v = binding[s]
		}
		for _, t := range res[i].probe(v) {
			match(t)
		}
		return
	}
	r.Each(match)
}

// applyCompiledRange joins the operator body with rows [lo, hi) of src as
// the recursive-atom relation and emits every derived head tuple.  Taking
// a row range rather than a relation lets a round read its delta straight
// off the total relation and lets a fanned-out round feed each worker its
// shard of it.  The emitted tuple is reused across
// emissions; receivers must copy what they keep.  A non-nil stop flag is
// polled every cancelCheckRows rows; it reports false when the scan was
// abandoned (emissions so far may be partial).
func applyCompiledRange(db rel.DB, c *compiled, src *rel.Relation, lo, hi int, stop *atomic.Bool, emit func(rel.Tuple)) bool {
	res := resolveAtoms(db, c.atoms)
	binding := make([]rel.Value, c.nslots)
	out := make(rel.Tuple, len(c.headSlots))
	emitBinding := func() {
		for i, s := range c.headSlots {
			out[i] = binding[s]
		}
		emit(out)
	}
	// Probe-first fast path: when the body is a single indexed atom whose
	// probe value comes straight off the recursive tuple (or is a
	// constant), a row that probes an empty bucket can be skipped before
	// any binding work happens.  Misses then cost one array lookup, and
	// only hits pay for slot setup and the join.  This is exactly the
	// shape of the occurrence-delta maintenance ops (tiny delta joined
	// against a cached fixpoint), where hits are cone-sized but the scan
	// covers every cached row.  For single-atom ops finishAtoms only picks
	// an idxCol whose slot is recursive-bound or constant, so the search
	// below always resolves; the guard keeps the path safely disabled for
	// any other shape.
	probeFirst := -2 // -2 disabled, -1 constant probe, ≥ 0 recursive column
	if len(c.atoms) == 1 && !c.atoms[0].member && c.atoms[0].idxCol >= 0 {
		if s := c.atoms[0].slot[c.atoms[0].idxCol]; s == -1 {
			probeFirst = -1
		} else {
			for i, rs := range c.recSlots {
				if rs == s {
					probeFirst = i
					break
				}
			}
		}
	}
	check := cancelCheckRows
	for row := lo; row < hi; row++ {
		if stop != nil {
			if check--; check <= 0 {
				if stop.Load() {
					return false
				}
				check = cancelCheckRows
			}
		}
		t := src.Row(row)
		var bucket []rel.Tuple
		if probeFirst != -2 {
			var v rel.Value
			if probeFirst == -1 {
				v = c.atoms[0].constVal[c.atoms[0].idxCol]
			} else {
				v = t[probeFirst]
			}
			if bucket = res[0].probe(v); len(bucket) == 0 {
				continue
			}
		}
		for i := range binding {
			binding[i] = unbound
		}
		ok := true
		for i, s := range c.recSlots {
			if binding[s] != unbound && binding[s] != t[i] {
				ok = false
				break
			}
			binding[s] = t[i]
		}
		if !ok {
			continue
		}
		if probeFirst != -2 {
			// The probe already ran: match the bucket directly rather than
			// re-probing through joinFrom (the single atom is also the last,
			// so a candidate match emits immediately).
			a := &c.atoms[0]
			for _, cand := range bucket {
				ok := true
				for k, s := range a.slot {
					if s == -1 {
						if cand[k] != a.constVal[k] {
							ok = false
							break
						}
						continue
					}
					if a.binds[k] {
						binding[s] = cand[k]
						continue
					}
					if binding[s] != cand[k] {
						ok = false
						break
					}
				}
				if ok {
					emitBinding()
				}
				for k, fresh := range a.binds {
					if fresh {
						binding[a.slot[k]] = unbound
					}
				}
			}
			continue
		}
		joinFrom(res, c.atoms, binding, 0, emitBinding)
	}
	return true
}

// Engine caches compiled operators against a symbol table.  Compilation
// and the cache are safe for concurrent use; the closure methods
// (SemiNaive, Naive, …) build fresh result relations per call and only
// read the database, so one Engine may serve concurrent evaluations over
// a shared DB snapshot.
type Engine struct {
	Syms *rel.Symtab
	// Workers is the closure worker-pool width: ≤ 1 runs every round on
	// the caller's goroutine, > 1 lets rounds whose delta is wide enough
	// fan out across that many goroutines (see stepper.step).  Set it
	// through Parallel, before the engine is shared.
	Workers int

	cache *opCache
}

// opCache is the compiled-operator cache an engine and its Parallel
// views share.
type opCache struct {
	mu sync.Mutex
	m  map[*ast.Op]*compiled
}

// NewEngine returns a sequential engine over the given symbol table (a
// fresh one when nil).
func NewEngine(syms *rel.Symtab) *Engine {
	if syms == nil {
		syms = rel.NewSymtab()
	}
	return &Engine{Syms: syms, cache: &opCache{m: map[*ast.Op]*compiled{}}}
}

// Parallel returns a view of e that evaluates closures on a pool of the
// given width, sharing e's symbol table and compiled-operator cache.
// Worker counts follow the core.Options convention: 0 or 1 evaluates
// sequentially, negative selects runtime.GOMAXPROCS(0).
func Parallel(e *Engine, workers int) *Engine {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{Syms: e.Syms, Workers: workers, cache: e.cache}
}

func (e *Engine) compiledFor(op *ast.Op) *compiled {
	e.cache.mu.Lock()
	defer e.cache.mu.Unlock()
	c, ok := e.cache.m[op]
	if !ok {
		c = compileOp(op, e.Syms)
		e.cache.m[op] = c
	}
	return c
}

// Apply computes f(src) for one operator: the set of head tuples derivable
// with src as the recursive input relation, accumulated into dst.  Stats
// count one derivation per emitted tuple and one duplicate per emission of
// a tuple already in dst.
func (e *Engine) Apply(db rel.DB, op *ast.Op, src, dst *rel.Relation, stats *Stats) int {
	added := 0
	applyCompiledRange(db, e.compiledFor(op), src, 0, src.Len(), nil, func(t rel.Tuple) {
		stats.Derivations++
		if dst.Insert(t) {
			added++
		} else {
			stats.Duplicates++
		}
	})
	return added
}

// Naive computes the closure (Σᵢ opsᵢ)* q by re-deriving from the full
// relation every round, always sequentially; kept as the correctness
// oracle the tests compare the stepper against and as the
// duplicate-cost baseline.
func (e *Engine) Naive(db rel.DB, ops []*ast.Op, q *rel.Relation) (*rel.Relation, Stats) {
	var stats Stats
	total := q.Clone()
	for {
		stats.Iterations++
		added := 0
		snapshot := total.Clone()
		for _, op := range ops {
			added += e.Apply(db, op, snapshot, total, &stats)
		}
		if added == 0 {
			return total, stats
		}
		stats.MaxDepth++
	}
}

// EvalRule evaluates one nonrecursive rule (every body predicate resolved
// against db) and returns its head tuples; used for exit rules and ground
// query filters.  Constants are allowed.
func (e *Engine) EvalRule(db rel.DB, r ast.Rule) (*rel.Relation, error) {
	for _, t := range r.Head.Args {
		if t.IsVar() {
			found := false
			for _, a := range r.Body {
				for _, bt := range a.Args {
					if bt.IsVar() && bt.Name == t.Name {
						found = true
					}
				}
			}
			if !found {
				return nil, fmt.Errorf("eval: head variable %s of %v unbound in body", t.Name, r)
			}
		}
	}
	// Reuse the operator machinery with a pseudo-recursive unit atom.
	slots := map[string]int{}
	slotOf := func(v string) int {
		if s, ok := slots[v]; ok {
			return s
		}
		s := len(slots)
		slots[v] = s
		return s
	}
	var atoms []compiledAtom
	ordered := orderAtoms(r.Body)
	for _, a := range ordered {
		ca := compiledAtom{pred: a.Pred, arity: a.Arity()}
		for _, t := range a.Args {
			if t.IsVar() {
				ca.slot = append(ca.slot, slotOf(t.Name))
				ca.constVal = append(ca.constVal, 0)
			} else {
				ca.slot = append(ca.slot, -1)
				ca.constVal = append(ca.constVal, e.Syms.Intern(t.Name))
			}
		}
		atoms = append(atoms, ca)
	}
	finishAtoms(atoms, map[int]bool{})
	headSlot := make([]int, r.Head.Arity())
	headConst := make([]rel.Value, r.Head.Arity())
	for i, t := range r.Head.Args {
		if t.IsVar() {
			headSlot[i] = slotOf(t.Name)
		} else {
			headSlot[i] = -1
			headConst[i] = e.Syms.Intern(t.Name)
		}
	}

	out := rel.NewRelation(r.Head.Arity())
	binding := make([]rel.Value, len(slots))
	for i := range binding {
		binding[i] = unbound
	}
	row := make(rel.Tuple, r.Head.Arity())
	joinFrom(resolveAtoms(db, atoms), atoms, binding, 0, func() {
		for i, s := range headSlot {
			if s == -1 {
				row[i] = headConst[i]
			} else {
				row[i] = binding[s]
			}
		}
		out.Insert(row)
	})
	return out, nil
}

// orderAtoms orders body atoms greedily by connectivity, smallest-first.
func orderAtoms(body []ast.Atom) []ast.Atom {
	remaining := make([]ast.Atom, len(body))
	copy(remaining, body)
	sort.SliceStable(remaining, func(i, j int) bool {
		return remaining[i].Arity() < remaining[j].Arity()
	})
	bound := map[string]bool{}
	var out []ast.Atom
	for len(remaining) > 0 {
		best, bestScore := 0, -1
		for i, a := range remaining {
			score := 0
			for _, t := range a.Args {
				if !t.IsVar() || bound[t.Name] {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		a := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		out = append(out, a)
		for _, t := range a.Args {
			if t.IsVar() {
				bound[t.Name] = true
			}
		}
	}
	return out
}

// LoadFacts interns and inserts ground atoms into db.  Relations are
// pre-sized to their fact counts, so bulk loads avoid incremental key-table
// rehashes.
func (e *Engine) LoadFacts(db rel.DB, facts []ast.Atom) error {
	counts := map[string]int{}
	for _, f := range facts {
		counts[f.Pred]++
	}
	for _, f := range facts {
		if !f.IsGround() {
			return fmt.Errorf("eval: fact %v is not ground", f)
		}
		r := db.Rel(f.Pred, f.Arity())
		if n := counts[f.Pred]; n > 0 {
			r.Reserve(r.Len() + n)
			counts[f.Pred] = 0
		}
		t := make(rel.Tuple, f.Arity())
		for i, a := range f.Args {
			t[i] = e.Syms.Intern(a.Name)
		}
		r.Insert(t)
	}
	return nil
}
