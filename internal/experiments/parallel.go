package experiments

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"linrec/internal/ast"
	"linrec/internal/eval"
	"linrec/internal/rel"
	"linrec/internal/workload"
)

// This experiment measures the execution-substrate rework: transitive
// closure over a ≥200k-edge graph evaluated by (a) a faithful replica of
// the seed engine's storage — string-encoded tuple keys, one string and
// one tuple allocation per insert, map-iteration deltas — and (b) the
// current engine with packed uint64 keys on a sharded worker pool.

// --- faithful port of the seed substrate -------------------------------
//
// The types below reproduce the pre-rework engine verbatim (commit
// d0aed69: string-encoded tuple keys, map-backed relations, the
// interpretive joinFrom with its per-probe index-column scan and touched
// bookkeeping, and the seed's detached-delta discipline that inserts
// every new tuple into both the total and a separate delta relation —
// today's stepper reads the delta as a row range of the total instead).  Only the rule compiler is
// elided: the compiled form of the one transitive-closure operator is
// written out by hand, which if anything favors the seed.

// seedKey replicates the pre-rework Tuple.Key: a per-call string encoding.
func seedKey(t rel.Tuple) string {
	var b strings.Builder
	b.Grow(len(t) * 5)
	for _, v := range t {
		b.WriteByte(byte(v))
		b.WriteByte(byte(v >> 8))
		b.WriteByte(byte(v >> 16))
		b.WriteByte(byte(v >> 24))
	}
	return b.String()
}

// seedRel is the seed's Relation: string-keyed rows plus lazy per-column
// hash indexes maintained on insert.
type seedRel struct {
	arity   int
	rows    map[string]rel.Tuple
	indexes map[int]map[rel.Value][]rel.Tuple
}

func newSeedRel(arity int) *seedRel {
	return &seedRel{arity: arity, rows: map[string]rel.Tuple{}}
}

func (r *seedRel) insert(t rel.Tuple) bool {
	k := seedKey(t)
	if _, ok := r.rows[k]; ok {
		return false
	}
	c := t.Clone()
	r.rows[k] = c
	for col, idx := range r.indexes {
		idx[c[col]] = append(idx[c[col]], c)
	}
	return true
}

func (r *seedRel) index(col int) map[rel.Value][]rel.Tuple {
	if r.indexes == nil {
		r.indexes = map[int]map[rel.Value][]rel.Tuple{}
	}
	if idx, ok := r.indexes[col]; ok {
		return idx
	}
	idx := map[rel.Value][]rel.Tuple{}
	for _, t := range r.rows {
		idx[t[col]] = append(idx[t[col]], t)
	}
	r.indexes[col] = idx
	return idx
}

const seedUnbound = rel.Value(-1)

// seedJoinAtom is the seed's joinFrom specialized to a one-atom body: the
// runtime scan for a bound index column, the per-tuple match with its
// touched-slot slice, and the recursive emit are all preserved.
func seedJoinAtom(edges *seedRel, slot []int, binding []rel.Value, emit func()) {
	idxCol := -1
	for k, s := range slot {
		if binding[s] != seedUnbound {
			idxCol = k
			break
		}
	}
	match := func(t rel.Tuple) {
		var touched []int
		ok := true
		for k, s := range slot {
			if binding[s] != seedUnbound {
				if binding[s] != t[k] {
					ok = false
					break
				}
				continue
			}
			binding[s] = t[k]
			touched = append(touched, s)
		}
		if ok {
			emit()
		}
		for _, s := range touched {
			binding[s] = seedUnbound
		}
	}
	if idxCol >= 0 {
		var v rel.Value
		v = binding[slot[idxCol]]
		for _, t := range edges.index(idxCol)[v] {
			match(t)
		}
		return
	}
	for _, t := range edges.rows {
		match(t)
	}
}

// seedSemiNaiveTC is the seed Engine.SemiNaive for the right-linear
// operator p(X,Y) :- p(X,U), up(U,Y): slots X=0, U=1, Y=2; the recursive
// atom binds (X,U), the edge atom joins on U and binds Y.  The edge
// relation is pre-loaded by the caller (the seed did that in LoadFacts,
// outside the closure); the total/delta copies replicate SemiNaive's own
// q.Clone() calls and stay inside the timed region.
func seedSemiNaiveTC(edges *seedRel) *seedRel {
	total := newSeedRel(2)
	delta := newSeedRel(2)
	for _, t := range edges.rows {
		total.insert(t)
		delta.insert(t)
	}

	recSlots := []int{0, 1} // p(X,U)
	atomSlot := []int{1, 2} // up(U,Y)
	headSlot := []int{0, 2} // p(X,Y)
	binding := make([]rel.Value, 3)
	out := make(rel.Tuple, 2)
	for len(delta.rows) > 0 {
		next := newSeedRel(2)
		for _, t := range delta.rows {
			for i := range binding {
				binding[i] = seedUnbound
			}
			for i, s := range recSlots {
				binding[s] = t[i]
			}
			seedJoinAtom(edges, atomSlot, binding, func() {
				for i, s := range headSlot {
					out[i] = binding[s]
				}
				if total.insert(out) {
					next.insert(out)
				}
			})
		}
		delta = next
	}
	return total
}

// PTCResult is one row of the substrate comparison.
type PTCResult struct {
	Edges       int           `json:"edges"`
	Tuples      int           `json:"tuples"`
	Workers     int           `json:"workers"`
	SeedElapsed time.Duration `json:"seed_ns"`
	ParElapsed  time.Duration `json:"parallel_ns"`
	Speedup     float64       `json:"speedup"`
}

// ptcEdges builds the benchmark graph: a uniform random recursive tree
// (n−1 random edges; closure ≈ n·ln n tuples).
func ptcEdges(e *eval.Engine, db rel.DB, nodes int) *rel.Relation {
	workload.RandomTree(e, db, "up", nodes, 47)
	return db.Rel("up", 2)
}

// ptcBench measures the seed substrate once (it is worker-independent) and
// the parallel closure at each worker count, cross-checking every parallel
// result against the seed closure tuple for tuple.
func ptcBench(nodes int, workerCounts []int) ([]PTCResult, error) {
	e := eval.NewEngine(nil)
	db := rel.DB{}
	edges := ptcEdges(e, db, nodes)
	op := mustOp("p(X,Y) :- p(X,U), up(U,Y).")

	seedEdges := newSeedRel(2)
	edges.Each(func(t rel.Tuple) { seedEdges.insert(t) })
	// Pre-build both substrates' probe indexes outside the timed regions,
	// so neither side is charged the one-off O(edges) index construction.
	seedEdges.index(0)
	start := time.Now()
	seedTotal := seedSemiNaiveTC(seedEdges)
	seedTime := time.Since(start)
	seedEdges = nil
	// Collect the seed run's garbage so the next measurements don't
	// inherit its heap.
	runtime.GC()

	// Pre-build the probe index so every worker count pays the same
	// (near-zero) setup rather than only the first timed run.
	edges.BuildIndex(0)

	results := make([]PTCResult, 0, len(workerCounts))
	for _, workers := range workerCounts {
		pe := eval.Parallel(e, workers)
		q := edges.Clone()
		start = time.Now()
		out, _ := pe.SemiNaive(db, []*ast.Op{op}, q)
		parTime := time.Since(start)

		if out.Len() != len(seedTotal.rows) {
			return nil, fmt.Errorf("substrates disagree: seed %d tuples, parallel %d", len(seedTotal.rows), out.Len())
		}
		// Set equality: with equal cardinalities, every parallel tuple
		// present in the seed result means the closures are identical.
		missing := 0
		out.Each(func(t rel.Tuple) {
			if _, ok := seedTotal.rows[seedKey(t)]; !ok {
				missing++
			}
		})
		if missing != 0 {
			return nil, fmt.Errorf("substrates disagree: %d parallel tuples absent from the seed closure", missing)
		}
		results = append(results, PTCResult{
			Edges: edges.Len(), Tuples: out.Len(), Workers: workers,
			SeedElapsed: seedTime, ParElapsed: parTime,
			Speedup: float64(seedTime) / float64(parTime),
		})
		out = nil
		runtime.GC()
	}
	return results, nil
}

// PTCRun measures seed-substrate vs parallel closure at one worker count.
func PTCRun(nodes, workers int) (PTCResult, error) {
	rs, err := ptcBench(nodes, []int{workers})
	if err != nil {
		return PTCResult{}, err
	}
	return rs[0], nil
}

// PTCNodes is the default graph size: 240,001 nodes → 240,000 random
// edges (≥ the 200k-edge floor), closure ≈ 2.7M tuples.
const PTCNodes = 240001

// PTCReport is the machine-readable form of the substrate comparison
// (BENCH_eval.json), tracking the performance trajectory across PRs.
type PTCReport struct {
	Bench    string      `json:"bench"`
	Workload string      `json:"workload"`
	Results  []PTCResult `json:"results"`
	// SpeedupAt8 is the headline number: seed substrate vs the parallel
	// engine at 8 workers.
	SpeedupAt8 float64 `json:"speedup_at_8_workers"`
}

// PTCJSONReport runs the comparison at 1, 2 and 8 workers.
func PTCJSONReport() (PTCReport, error) {
	rep := PTCReport{
		Bench:    "parallel_tc",
		Workload: fmt.Sprintf("random recursive tree, %d edges", PTCNodes-1),
	}
	rs, err := ptcBench(PTCNodes, []int{1, 2, 8})
	if err != nil {
		return rep, err
	}
	rep.Results = rs
	for _, r := range rs {
		if r.Workers == 8 {
			rep.SpeedupAt8 = r.Speedup
		}
	}
	return rep, nil
}

// PTCTableNodes sizes the printed table (the -json benchmark uses the full
// PTCNodes); big enough to show the gap, small enough for the test suite.
const PTCTableNodes = 60001

// PTCTable prints the substrate comparison across worker counts.
func PTCTable(w io.Writer) error {
	fmt.Fprintf(w, "transitive closure, random recursive tree (%d edges): seed substrate\n", PTCTableNodes-1)
	fmt.Fprintf(w, "(string tuple keys, sequential) vs packed-key sharded engine\n\n")
	fmt.Fprintf(w, "%8s %9s %8s | %11s %11s | %s\n",
		"edges", "tuples", "workers", "seed", "parallel", "speedup")
	rs, err := ptcBench(PTCTableNodes, []int{1, 2, 8})
	if err != nil {
		return err
	}
	for _, r := range rs {
		fmt.Fprintf(w, "%8d %9d %8d | %11v %11v | %.2fx\n",
			r.Edges, r.Tuples, r.Workers,
			r.SeedElapsed.Round(time.Millisecond), r.ParElapsed.Round(time.Millisecond), r.Speedup)
	}
	fmt.Fprintf(w, "\nthe rework claim: the planner's strategy savings sit on top of a substrate\n")
	fmt.Fprintf(w, "that no longer pays one string allocation per derived tuple\n")
	return nil
}
