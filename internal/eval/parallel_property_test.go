package eval

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"linrec/internal/ast"
	"linrec/internal/parser"
	"linrec/internal/rel"
)

// The differential harness: generate a random linear-recursive program and
// database, evaluate its closure with the sequential Engine and with a
// Parallel view of it, and require bit-for-bit agreement — same answer
// set and same statistics (derivations, duplicates, iterations, depth).
// The kernel strategies (stream, resume, restricted) drive the one
// round-stepper every way its callers do, at 1, 2 and 4 workers, and
// additionally require the per-round trace counts to match the
// uninterrupted sequential closure.  Run under testing/quick for ≥ 200
// random cases per strategy.

func mustParseOp(t *testing.T, src string) *ast.Op {
	t.Helper()
	op, err := parser.ParseOp(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return op
}

// edgePreds names the EDB predicates random operators draw from.
var edgePreds = []string{"e0", "e1", "e2"}

// randBinaryOps builds 1–3 random left- or right-linear binary operators
// over the shared edge predicates.
func randBinaryOps(t *testing.T, rng *rand.Rand) []*ast.Op {
	return randLinearOps(t, rng, -1)
}

// randLinearOps is randBinaryOps with the linearity pinned: 0 left-linear
// (column 0 passes through every operator), 1 right-linear (column 1
// does), negative a random mix.
func randLinearOps(t *testing.T, rng *rand.Rand, side int) []*ast.Op {
	n := 1 + rng.Intn(3)
	ops := make([]*ast.Op, 0, n)
	for i := 0; i < n; i++ {
		pred := edgePreds[rng.Intn(len(edgePreds))]
		var src string
		if side == 0 || (side < 0 && rng.Intn(2) == 0) {
			src = fmt.Sprintf("p(X,Y) :- p(X,U), %s(U,Y).", pred)
		} else {
			src = fmt.Sprintf("p(X,Y) :- %s(X,U), p(U,Y).", pred)
		}
		ops = append(ops, mustParseOp(t, src))
	}
	return ops
}

// randBinaryDB fills the edge predicates with random digraphs over a small
// shared node space and returns a random nonempty seed relation.
func randBinaryDB(rng *rand.Rand) (rel.DB, *rel.Relation) {
	return randBinaryDBSized(rng, 3+rng.Intn(18))
}

// randBinaryDBSized is randBinaryDB over a given node count; from about
// 70 nodes up the closures grow deltas past parallelRoundRows, so rounds
// actually fan out.
func randBinaryDBSized(rng *rand.Rand, nodes int) (rel.DB, *rel.Relation) {
	db := rel.DB{}
	for _, pred := range edgePreds {
		r := db.Rel(pred, 2)
		m := rng.Intn(3 * nodes)
		for i := 0; i < m; i++ {
			r.Insert(rel.Tuple{rel.Value(rng.Intn(nodes)), rel.Value(rng.Intn(nodes))})
		}
	}
	q := rel.NewRelation(2)
	for i := 0; i < 1+rng.Intn(2*nodes); i++ {
		q.Insert(rel.Tuple{rel.Value(rng.Intn(nodes)), rel.Value(rng.Intn(nodes))})
	}
	return db, q
}

// checkAgreement runs one random case for one strategy and reports any
// divergence between the sequential and the parallel evaluation.
func checkAgreement(t *testing.T, strategy string, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	ops := randBinaryOps(t, rng)
	db, q := randBinaryDB(rng)
	workers := 2 + rng.Intn(7) // 2..8

	seq := NewEngine(nil)
	par := Parallel(seq, workers) // shared symtab and compiled cache

	var (
		wantRel, gotRel     *rel.Relation
		wantStats, gotStats Stats
	)
	switch strategy {
	case "seminaive":
		wantRel, wantStats = seq.SemiNaive(db, ops, q)
		gotRel, gotStats = par.SemiNaive(db, ops, q)
	case "decomposed":
		// Split the operators into the B and C factors at a random point.
		cut := rng.Intn(len(ops) + 1)
		b, c := ops[:cut], ops[cut:]
		wantRel, wantStats, _ = seq.Decomposed(context.Background(), db, b, c, q)
		gotRel, gotStats, _ = par.Decomposed(context.Background(), db, b, c, q)
	default:
		return checkKernel(t, strategy, seed)
	}

	if !wantRel.Equal(gotRel) {
		return fmt.Errorf("seed %d workers %d: answers differ: sequential %d tuples, parallel %d",
			seed, workers, wantRel.Len(), gotRel.Len())
	}
	if wantStats != gotStats {
		return fmt.Errorf("seed %d workers %d: stats differ: sequential %v, parallel %v",
			seed, workers, wantStats, gotStats)
	}
	return nil
}

// roundCounts reduces traced phases to the per-round counts that must not
// depend on who runs a round: delta, new rows, derivations, duplicates.
// Rounds of consecutive phases concatenate (a resumed closure continues
// the interrupted one's sequence).
func roundCounts(phases []*PhaseTrace) [][4]int64 {
	var out [][4]int64
	for _, ph := range phases {
		for _, r := range ph.Rounds {
			out = append(out, [4]int64{int64(r.DeltaRows), int64(r.NewRows), r.Derivations, r.Duplicates})
		}
	}
	return out
}

// fannedOut counts the kernel-strategy rounds that ran sharded, and
// pipelined those whose join ran during the previous round's merge, by
// worker count, so the harness can prove its wide cases reach both.
var (
	fannedOut int
	pipelined = map[int]int{}
)

// checkKernel runs one random case of one kernel strategy at 1, 2 and 4
// workers against the uninterrupted sequential SemiNaiveCtx: rows, Stats
// and per-round counts must all be identical.
//
//   - stream: a StreamCtx drained row by row.
//   - resume: a closure stopped after k rounds, then continued by
//     SemiNaiveResumeCtx from its watermark.
//   - restricted: SemiNaiveRestrictedCtx on a column every operator
//     passes through, where the filter rejects nothing derivable from the
//     restricted seed — so it must equal the plain closure of that seed,
//     and the full closure filtered afterwards.
func checkKernel(t *testing.T, strategy string, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	nodes := 3 + rng.Intn(18)
	if rng.Intn(4) == 0 {
		nodes = 70 + rng.Intn(50)
	}
	side := -1
	if strategy == "restricted" {
		side = rng.Intn(2)
	}
	ops := randLinearOps(t, rng, side)
	db, q := randBinaryDBSized(rng, nodes)
	seq := NewEngine(nil)

	var full *rel.Relation
	cols := []int{side}
	allowed := rel.NewRelation(1)
	if strategy == "restricted" {
		for v := 0; v < nodes; v++ {
			if rng.Intn(2) == 0 {
				allowed.Insert(rel.Tuple{rel.Value(v)})
			}
		}
		full, _ = seq.SemiNaive(db, ops, q)
		q = rel.SelectInCols(q, cols, allowed)
	}

	wantTr := &Tracer{}
	want, wantStats, err := seq.SemiNaiveCtx(WithTracer(context.Background(), wantTr), db, ops, q)
	if err != nil {
		return err
	}
	wantRounds := roundCounts(wantTr.Trace().Phases)
	k := rng.Intn(wantStats.Iterations + 1)

	for _, workers := range []int{1, 2, 4} {
		par := Parallel(seq, workers)
		tr := &Tracer{}
		ctx := WithTracer(context.Background(), tr)
		var got *rel.Relation
		var gotStats Stats
		switch strategy {
		case "stream":
			st := par.StreamCtx(ctx, db, ops, q)
			if got, err = drain(st, 2); err != nil {
				return err
			}
			if !st.Exhausted() {
				return fmt.Errorf("seed %d workers %d: drained stream not exhausted", seed, workers)
			}
			gotStats = st.Stats()
		case "resume":
			st := par.StreamCtx(ctx, db, ops, q)
			for i := 0; i < k; i++ {
				st.step()
			}
			st.Close()
			got, gotStats = st.Total(), st.Stats()
			rest, err := par.SemiNaiveResumeCtx(ctx, db, ops, got, st.lo)
			if err != nil {
				return err
			}
			gotStats.Derivations += rest.Derivations
			gotStats.Duplicates += rest.Duplicates
			gotStats.Iterations += rest.Iterations
			gotStats.MaxDepth += rest.MaxDepth
		case "restricted":
			if got, gotStats, err = par.SemiNaiveRestrictedCtx(ctx, db, ops, q, cols, allowed); err != nil {
				return err
			}
			if !got.Equal(rel.SelectInCols(full, cols, allowed)) {
				return fmt.Errorf("seed %d workers %d: restricted closure differs from closure-then-filter", seed, workers)
			}
		default:
			t.Fatalf("unknown strategy %q", strategy)
		}
		if !got.Equal(want) {
			return fmt.Errorf("seed %d workers %d: %s answers differ: want %d tuples, got %d",
				seed, workers, strategy, want.Len(), got.Len())
		}
		if gotStats != wantStats {
			return fmt.Errorf("seed %d workers %d: %s stats differ: want %v, got %v",
				seed, workers, strategy, wantStats, gotStats)
		}
		phases := tr.Trace().Phases
		if gotRounds := roundCounts(phases); !reflect.DeepEqual(gotRounds, wantRounds) {
			return fmt.Errorf("seed %d workers %d: %s rounds differ:\nwant %v\ngot  %v",
				seed, workers, strategy, wantRounds, gotRounds)
		}
		for _, ph := range phases {
			traceInvariant(t, ph)
			for _, r := range ph.Rounds {
				if len(r.ShardRows) > 0 {
					fannedOut++
				}
				if r.Pipelined {
					pipelined[workers]++
				}
			}
		}
	}
	return nil
}

// TestParallelMatchesSequentialProperty is the differential property test:
// ≥ 200 random (program, database, workers) cases per strategy.
func TestParallelMatchesSequentialProperty(t *testing.T) {
	for _, strategy := range []string{"seminaive", "decomposed", "stream", "resume", "restricted"} {
		strategy := strategy
		t.Run(strategy, func(t *testing.T) {
			f := func(seed int64) bool {
				if err := checkAgreement(t, strategy, seed); err != nil {
					t.Log(err)
					return false
				}
				return true
			}
			cfg := &quick.Config{
				MaxCount: 220,
				Rand:     rand.New(rand.NewSource(7 + int64(len(strategy)))),
			}
			if err := quick.Check(f, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	if fannedOut == 0 {
		t.Fatal("no kernel-strategy round fanned out: the wide cases no longer cross parallelRoundRows")
	}
	if pipelined[2] == 0 || pipelined[4] == 0 {
		t.Fatalf("pipelined rounds by workers = %v: the drained wide cases no longer pipeline at 2 and 4 workers", pipelined)
	}
}

// TestParallelMatchesSequentialWideArity covers the hashed-key storage
// path: ternary recursion p(X,Y,Z) with a passenger column, so every
// relation in the closure uses collision-bucket membership.
func TestParallelMatchesSequentialWideArity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := []*ast.Op{
			mustParseOp(t, "p(X,Y,Z) :- p(X,U,Z), e0(U,Y)."),
			mustParseOp(t, "p(X,Y,Z) :- e1(X,U), p(U,Y,Z)."),
		}
		db := rel.DB{}
		nodes := 3 + rng.Intn(10)
		for _, pred := range []string{"e0", "e1"} {
			r := db.Rel(pred, 2)
			for i := 0; i < rng.Intn(2*nodes); i++ {
				r.Insert(rel.Tuple{rel.Value(rng.Intn(nodes)), rel.Value(rng.Intn(nodes))})
			}
		}
		q := rel.NewRelation(3)
		for i := 0; i < 1+rng.Intn(nodes); i++ {
			q.Insert(rel.Tuple{
				rel.Value(rng.Intn(nodes)), rel.Value(rng.Intn(nodes)), rel.Value(rng.Intn(3)),
			})
		}
		seq := NewEngine(nil)
		par := Parallel(seq, 2+rng.Intn(7))
		want, ws := seq.SemiNaive(db, ops, q)
		got, gs := par.SemiNaive(db, ops, q)
		return want.Equal(got) && ws == gs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelConcurrentClosures: one Parallel engine view serving many
// concurrent closure calls over a shared database (run under -race).
func TestParallelConcurrentClosures(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ops := randBinaryOps(t, rng)
	db, q := randBinaryDB(rng)
	seq := NewEngine(nil)
	want, _ := seq.SemiNaive(db, ops, q)

	par := Parallel(NewEngine(nil), 4)
	const callers = 8
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			got, _ := par.SemiNaive(db, ops, q)
			if !got.Equal(want) {
				errs <- fmt.Errorf("concurrent closure diverged: %d vs %d tuples", got.Len(), want.Len())
				return
			}
			errs <- nil
		}()
	}
	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
