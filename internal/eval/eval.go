// Package eval is the bottom-up evaluation engine: conjunctive-query
// application, semi-naive closure of sums of linear operators,
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
	"slices"
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

// compiled is a rule body lowered onto dense variable slots with a fixed
// join order: the recursive atom first (absent for a nonrecursive rule),
// then the other atoms.  Because the order is fixed, which slots are bound
// when each atom is reached is static, so everything the join needs to
// decide per atom is decided here, once.
type compiled struct {
	nslots int
	rec    compiledAtom // the recursive atom; matched against the delta rows
	head   compiledAtom // the emitted tuple's slots and constants
	atoms  []compiledAtom
	// keyLen is the arity of the widest fully-bound atom: the size of the
	// membership-key scratch an executor needs.
	keyLen int
	// probeFirst ≥ 0 selects the probe-first scan (see executor.run): the
	// body is a single indexed atom probed on that recursive column.
	probeFirst int
}

type compiledAtom struct {
	pred  string
	arity int
	// slot[i] ≥ 0: variable slot for position i; -1: constant constVal[i].
	slot     []int
	constVal []rel.Value
	// idxCol is the column probed through the relation's hash index: the
	// first position that is a constant or a slot bound by the recursive
	// atom or an earlier body atom.  -1 means full scan.
	idxCol int
	// member marks a fully-bound atom (every position a constant or an
	// already-bound slot): the probe degenerates to one hash membership
	// test, needing no column index at all.
	member bool
	// binds[i] marks positions that assign a slot during the match (first
	// occurrence of a slot not bound by earlier atoms); the other variable
	// positions are equality checks.
	binds []bool
}

// value returns position k's value under the binding: its constant, or
// the value of its (already bound) slot.
func (a *compiledAtom) value(binding []rel.Value, k int) rel.Value {
	if s := a.slot[k]; s >= 0 {
		return binding[s]
	}
	return a.constVal[k]
}

// match unifies t with the atom under the partial binding: constants and
// bound slots must agree, binding positions are assigned.  A failed match
// may leave some of its slots assigned; the fixed join order guarantees
// every such slot is assigned again before anything reads it.
func (a *compiledAtom) match(binding []rel.Value, t rel.Tuple) bool {
	for k, s := range a.slot {
		switch {
		case s == -1:
			if t[k] != a.constVal[k] {
				return false
			}
		case a.binds[k]:
			binding[s] = t[k]
		case binding[s] != t[k]:
			return false
		}
	}
	return true
}

// compileBody lowers a rule: rec is the recursive atom (the zero Atom for
// a nonrecursive rule), ordered the remaining body atoms in join order.
func compileBody(rec ast.Atom, ordered []ast.Atom, head ast.Atom, syms *rel.Symtab) *compiled {
	slots := map[string]int{}
	bound := map[int]bool{}
	// lower maps an atom's terms to slots and constants; a body atom (the
	// recursive one included, the head not) also gets its probe column and
	// binding positions from the slots bound so far.
	lower := func(a ast.Atom, body bool) compiledAtom {
		ca := compiledAtom{pred: a.Pred, arity: a.Arity(), idxCol: -1, member: body}
		ca.slot = make([]int, a.Arity())
		ca.constVal = make([]rel.Value, a.Arity())
		ca.binds = make([]bool, a.Arity())
		for k, t := range a.Args {
			if !t.IsVar() {
				ca.slot[k] = -1
				ca.constVal[k] = syms.Intern(t.Name)
			} else if s, ok := slots[t.Name]; ok {
				ca.slot[k] = s
			} else {
				ca.slot[k] = len(slots)
				slots[t.Name] = len(slots)
			}
		}
		if !body {
			return ca
		}
		// idxCol considers only slots bound before this atom: a slot first
		// assigned by an earlier position of the same atom has no value yet
		// when the probe column is chosen.
		for k, s := range ca.slot {
			if s == -1 || bound[s] {
				if ca.idxCol < 0 {
					ca.idxCol = k
				}
			} else {
				ca.member = false
			}
		}
		for k, s := range ca.slot {
			if s >= 0 && !bound[s] {
				ca.binds[k] = true
				bound[s] = true
			}
		}
		return ca
	}

	c := &compiled{probeFirst: -1}
	c.rec = lower(rec, true)
	for _, a := range ordered {
		ca := lower(a, true)
		if ca.member && ca.arity > c.keyLen {
			c.keyLen = ca.arity
		}
		c.atoms = append(c.atoms, ca)
	}
	c.head = lower(head, false)
	c.nslots = len(slots)
	if a := c.atoms; len(a) == 1 && !a[0].member && a[0].idxCol >= 0 && a[0].slot[a[0].idxCol] >= 0 {
		for k, s := range c.rec.slot {
			if s == a[0].slot[a[0].idxCol] {
				c.probeFirst = k
				break
			}
		}
	}
	return c
}

// compileOp lowers an operator.  Atom order: greedy, preferring atoms with
// the most variables already bound (starting from the recursive atom's
// variables), which keeps intermediate results small.
func compileOp(op *ast.Op, syms *rel.Symtab) *compiled {
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
	return compileBody(op.Rec, ordered, op.Head, syms)
}

// resolvedAtom is one compiled atom resolved against a DB snapshot: the
// relation itself plus, for indexed probes, a direct bucket prober, and
// for full scans the callback handed to the store's Each (a disk-backed
// store iterates far cheaper than it serves Row by Row).
// Resolving once per closure (per goroutine — a Prober is single-
// goroutine state) keeps the join free of both the predicate-map lookup
// and Lookup's per-probe index-mutex acquisition, which turns into
// cross-core cache-line traffic when parallel shards hammer the same
// relation.
type resolvedAtom struct {
	r     rel.Store
	probe func(rel.Value) []rel.Tuple
	scan  func(rel.Tuple)
}

// executor is the join executor: one compiled rule resolved against one
// DB snapshot, with all the scratch a join needs.  It belongs to one
// goroutine, and is built once per closure and operator (per worker, for
// rounds that fan out), so that run and join allocate nothing: not per
// round, not per delta row, not per derivation.  The tuple passed to emit
// is scratch, overwritten by the next emission; receivers copy what they
// keep (Relation.Insert and the round buffers both do).
type executor struct {
	c       *compiled
	res     []resolvedAtom
	binding []rel.Value
	out     rel.Tuple // the emitted head tuple
	key     rel.Tuple // membership key of a fully-bound atom
	emit    func(rel.Tuple)
}

// newExecutor resolves c's atoms against db — with the arity guard: an
// absent predicate probes as the shared arity-0 empty relation, which is
// not a mismatch; a declared relation, even an empty one, must agree —
// and allocates the scratch.
func newExecutor(db rel.DB, c *compiled, emit func(rel.Tuple)) *executor {
	vals := make([]rel.Value, c.nslots+c.head.arity+c.keyLen)
	x := &executor{
		c:       c,
		res:     make([]resolvedAtom, len(c.atoms)),
		binding: vals[:c.nslots:c.nslots],
		out:     vals[c.nslots : c.nslots+c.head.arity : c.nslots+c.head.arity],
		key:     vals[c.nslots+c.head.arity:],
		emit:    emit,
	}
	for i := range c.atoms {
		a := &c.atoms[i]
		r := db.Probe(a.pred)
		if r.Arity() != a.arity && (r.Len() > 0 || r.Arity() != 0) {
			panic(fmt.Sprintf("eval: predicate %q used with arity %d and %d", a.pred, r.Arity(), a.arity))
		}
		x.res[i].r = r
		switch next := i + 1; {
		case a.member:
		case a.idxCol >= 0:
			x.res[i].probe = r.Prober(a.idxCol)
		default:
			x.res[i].scan = func(t rel.Tuple) {
				if a.match(x.binding, t) {
					x.join(next)
				}
			}
		}
	}
	return x
}

// join enumerates all bindings extending the current partial binding over
// atoms[i:] and emits the head tuple of each complete one.  It builds no
// closure and allocates nothing: the probe column and binding positions
// are precompiled, relations pre-resolved, and the membership key and the
// head tuple are the executor's scratch.
func (x *executor) join(i int) {
	c := x.c
	if i == len(c.atoms) {
		for k := range x.out {
			x.out[k] = c.head.value(x.binding, k)
		}
		x.emit(x.out)
		return
	}
	a := &c.atoms[i]
	switch {
	case a.member:
		// Fully bound: one membership probe instead of an index lookup —
		// no column index is ever built for a ground check.
		key := x.key[:a.arity]
		for k := range key {
			key[k] = a.value(x.binding, k)
		}
		if x.res[i].r.Has(key) {
			x.join(i + 1)
		}
	case a.idxCol >= 0:
		x.matchAll(i, x.res[i].probe(a.value(x.binding, a.idxCol)))
	default:
		x.res[i].r.Each(x.res[i].scan)
	}
}

// matchAll continues the join through every candidate of atom i.
func (x *executor) matchAll(i int, candidates []rel.Tuple) {
	a := &x.c.atoms[i]
	for _, t := range candidates {
		if a.match(x.binding, t) {
			x.join(i + 1)
		}
	}
}

// run joins the rule body with rows [lo, hi) of the packed rows (the
// recursive atom's arity values each) as the recursive-atom relation,
// emitting every derived head tuple.  Taking a row range of a packed
// view rather than a relation lets a round read its delta straight off
// the total relation, and lets a fanned-out round's joiners read chunks
// of it while the merge is still appending to it.
// A non-nil stop flag is polled every cancelCheckRows rows; run reports
// false when the scan was abandoned (emissions so far may be partial).
//
// Probe-first scan: when the body is a single indexed atom whose probe
// value comes straight off the recursive tuple, a row that probes an
// empty bucket is skipped before any binding work happens, and a hit
// matches the bucket it already fetched.  Misses then cost one array
// lookup.  This is the shape of the occurrence-delta maintenance ops
// (tiny delta joined against a cached fixpoint), where hits are cone-
// sized but the scan covers every cached row.
func (x *executor) run(rows []rel.Value, lo, hi int, stop *atomic.Bool) bool {
	c, a := x.c, x.c.rec.arity
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
		t := rel.Tuple(rows[row*a : row*a+a : row*a+a])
		if c.probeFirst < 0 {
			if c.rec.match(x.binding, t) {
				x.join(0)
			}
		} else if bucket := x.res[0].probe(t[c.probeFirst]); len(bucket) > 0 && c.rec.match(x.binding, t) {
			x.matchAll(0, bucket)
		}
	}
	return true
}

// Engine caches compiled operators against a symbol table.  Compilation
// and the cache are safe for concurrent use; the closure methods
// (SemiNaive, StreamCtx, …) build fresh result relations per call and only
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

// CompiledOperators returns the number of operators compiled into the
// cache e shares with its Parallel views.
func (e *Engine) CompiledOperators() int {
	e.cache.mu.Lock()
	defer e.cache.mu.Unlock()
	return len(e.cache.m)
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
	// The operator machinery with no recursive atom: one join from the
	// empty binding.
	out := rel.NewRelation(r.Head.Arity())
	if b := r.Body; len(b) == 1 && b[0].Arity() == r.Head.Arity() && !slices.ContainsFunc(b[0].Args, func(t ast.Term) bool { return !t.IsVar() }) {
		// A copy of one stored relation (an exit rule p :- e): its rows,
		// so reserve them and skip the growth steps.  A projection or a
		// constant filter may keep far fewer, so it grows as it goes.
		out.Reserve(db.Probe(b[0].Pred).Len())
	}
	c := compileBody(ast.Atom{}, orderAtoms(r.Body), r.Head, e.Syms)
	newExecutor(db, c, func(t rel.Tuple) { out.Insert(t) }).join(0)
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
