package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"linrec/internal/ast"
	"linrec/internal/planner"
)

// TestRemoveFactsSwapIsolation: a retraction publishes a new version that
// new queries see, while a query pinned to the pre-retraction snapshot
// still answers from the old world, and relations the retraction didn't
// touch stay shared between versions.
func TestRemoveFactsSwapIsolation(t *testing.T) {
	sys, err := Load(chainProgram(3) + "other(x,y).\n")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	goal := ast.NewAtom("path", ast.C("c0"), ast.V("Y"))
	old := sys.Snapshot()
	r1, err := sys.Query(goal)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if r1.Answer.Len() != 3 {
		t.Fatalf("initial answer = %d rows, want 3", r1.Answer.Len())
	}

	next, removed, err := sys.RemoveFacts([]ast.Atom{edgeFact(2, 3)})
	if err != nil {
		t.Fatalf("RemoveFacts: %v", err)
	}
	if next.Version != old.Version+1 || removed != 1 {
		t.Fatalf("post-retract version = %d (removed %d), want %d (removed 1)",
			next.Version, removed, old.Version+1)
	}
	r2, err := sys.Query(goal)
	if err != nil {
		t.Fatalf("Query after retract: %v", err)
	}
	if r2.Answer.Len() != 2 || r2.Version != next.Version {
		t.Fatalf("post-retract answer = %d rows at version %d, want 2 at %d",
			r2.Answer.Len(), r2.Version, next.Version)
	}

	// The pinned pre-retraction snapshot still sees the full chain.
	rOld, err := sys.Evaluate(context.Background(), QueryRequest{Goal: goal, Snap: old, Opts: sys.Opts})
	if err != nil {
		t.Fatalf("Evaluate(old): %v", err)
	}
	if rOld.Answer.Len() != 3 {
		t.Fatalf("pinned snapshot answer = %d rows, want 3", rOld.Answer.Len())
	}
	// Untouched relations are shared; the shrunk one is rebuilt.
	if old.DB.Probe("other") != next.DB.Probe("other") {
		t.Fatalf("untouched relation must be shared across the retraction swap")
	}
	if old.DB.Probe("edge") == next.DB.Probe("edge") {
		t.Fatalf("the shrunk relation must be rebuilt, not shared")
	}
}

// TestRemoveFactsValidation: non-ground facts, derived predicates and
// arity mismatches are rejected without publishing; retracting absent
// facts or unknown constants is an idempotent no-op that keeps the
// version (and therefore every version-keyed cache) stable.
func TestRemoveFactsValidation(t *testing.T) {
	sys, err := Load(chainProgram(2))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	v := sys.Snapshot().Version
	if _, _, err := sys.RemoveFacts([]ast.Atom{ast.NewAtom("edge", ast.C("c0"), ast.V("Y"))}); err == nil {
		t.Fatalf("non-ground retraction accepted")
	}
	if _, _, err := sys.RemoveFacts([]ast.Atom{ast.NewAtom("path", ast.C("c0"), ast.C("c1"))}); err == nil {
		t.Fatalf("derived-predicate retraction accepted")
	}
	if _, _, err := sys.RemoveFacts([]ast.Atom{ast.NewAtom("edge", ast.C("c0"))}); err == nil {
		t.Fatalf("arity-mismatched retraction accepted")
	}
	snap, removed, err := sys.RemoveFacts([]ast.Atom{
		ast.NewAtom("edge", ast.C("c7"), ast.C("c9")),        // known constants, absent tuple
		ast.NewAtom("edge", ast.C("ghost"), ast.C("wraith")), // unknown constants
		ast.NewAtom("nosuchpred", ast.C("c0"), ast.C("c1")),  // unknown predicate
	})
	if err != nil {
		t.Fatalf("idempotent retraction errored: %v", err)
	}
	if removed != 0 || snap.Version != v {
		t.Fatalf("no-op retraction: removed %d at version %d, want 0 at %d", removed, snap.Version, v)
	}
	// Lookup-only resolution: retracting unknown constants must not
	// intern them.
	if _, ok := sys.Engine.Syms.Lookup("ghost"); ok {
		t.Fatalf("retraction interned an unknown constant")
	}
}

// TestRemoveFactsEmptiesRelation: retracting every fact of a predicate
// leaves queries consistent (empty seeds, empty answers).
func TestRemoveFactsEmptiesRelation(t *testing.T) {
	sys, err := Load(chainProgram(2))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if _, removed, err := sys.RemoveFacts([]ast.Atom{edgeFact(0, 1), edgeFact(1, 2)}); err != nil || removed != 2 {
		t.Fatalf("RemoveFacts: removed %d, err %v", removed, err)
	}
	r, err := sys.Query(ast.NewAtom("path", ast.C("c0"), ast.V("Y")))
	if err != nil {
		t.Fatalf("Query over emptied relation: %v", err)
	}
	if r.Answer.Len() != 0 {
		t.Fatalf("answer = %d rows over an emptied relation, want 0", r.Answer.Len())
	}
}

// genRetractProgram builds a random linear-recursive rule set and a
// deduplicated ground fact list — separated so the differential harness
// can rebuild a from-scratch database from any fact subset.
func genRetractProgram(rng *rand.Rand) (rules string, facts []ast.Atom) {
	var b strings.Builder
	nconst := 6 + rng.Intn(7)
	c := func() ast.Term { return ast.C(fmt.Sprintf("c%d", rng.Intn(nconst))) }

	nexit := 1 + rng.Intn(2)
	for i := 0; i < nexit; i++ {
		fmt.Fprintf(&b, "p(X,Y) :- b%d(X,Y).\n", i)
	}
	shapes := []string{
		"p(X,Y) :- %s(X,Z), p(Z,Y).",
		"p(X,Y) :- p(X,Z), %s(Z,Y).",
		"p(X,Y) :- %s(Z,X), p(Z,W), %s(W,Y).",
		"p(X,Y) :- p(X,Y), %s(X,X).",
		"p(X,Y) :- %s(Y,Z), p(Z,X).",
	}
	nops := 1 + rng.Intn(3)
	edb := map[string]bool{}
	for i := 0; i < nops; i++ {
		shape := shapes[rng.Intn(len(shapes))]
		e1 := fmt.Sprintf("e%d", rng.Intn(4))
		e2 := fmt.Sprintf("e%d", rng.Intn(4))
		edb[e1], edb[e2] = true, true
		if strings.Count(shape, "%s") == 1 {
			fmt.Fprintf(&b, shape+"\n", e1)
		} else {
			fmt.Fprintf(&b, shape+"\n", e1, e2)
		}
	}

	seen := map[string]bool{}
	add := func(pred string) {
		f := ast.NewAtom(pred, c(), c())
		if !seen[f.String()] {
			seen[f.String()] = true
			facts = append(facts, f)
		}
	}
	for i := 0; i < nexit; i++ {
		for k := 6 + rng.Intn(10); k > 0; k-- {
			add(fmt.Sprintf("b%d", i))
		}
	}
	for pred := range edb {
		for k := 6 + rng.Intn(15); k > 0; k-- {
			add(pred)
		}
	}
	return b.String(), facts
}

// TestRetractDifferential is the retraction correctness harness: across
// ≥ 100 random (program, retraction, goal) cases, querying after
// RemoveFacts — through the full plan/cache stack, at 1 and 4 workers —
// must return rows bit-for-bit equal to evaluating a database built from
// scratch with only the surviving facts (forced semi-naive baseline).
func TestRetractDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(8675309))
	const cases = 120
	ctx := context.Background()
	nonEmpty, actuallyRemoved := 0, 0

	for i := 0; i < cases; i++ {
		rules, facts := genRetractProgram(rng)
		sys, err := Load(rules)
		if err != nil {
			t.Fatalf("case %d: load rules:\n%s\n%v", i, rules, err)
		}
		if _, _, err := sys.AddFacts(facts); err != nil {
			t.Fatalf("case %d: AddFacts: %v", i, err)
		}

		// Retract a random non-empty subset of the fact set.
		k := 1 + rng.Intn((len(facts)+2)/3)
		perm := rng.Perm(len(facts))
		retract := make([]ast.Atom, 0, k)
		gone := map[string]bool{}
		for _, idx := range perm[:k] {
			retract = append(retract, facts[idx])
			gone[facts[idx].String()] = true
		}
		_, removed, err := sys.RemoveFacts(retract)
		if err != nil {
			t.Fatalf("case %d: RemoveFacts: %v", i, err)
		}
		if removed != len(retract) {
			t.Fatalf("case %d: removed %d of %d distinct present facts", i, removed, len(retract))
		}
		actuallyRemoved += removed

		// From-scratch reference: rules + surviving facts only.
		fresh, err := Load(rules)
		if err != nil {
			t.Fatalf("case %d: load fresh: %v", i, err)
		}
		var survivors []ast.Atom
		for _, f := range facts {
			if !gone[f.String()] {
				survivors = append(survivors, f)
			}
		}
		if _, _, err := fresh.AddFacts(survivors); err != nil {
			t.Fatalf("case %d: AddFacts(survivors): %v", i, err)
		}

		goalSrc := fmt.Sprintf("p(c%d, Y)", rng.Intn(8))
		switch rng.Intn(3) {
		case 1:
			goalSrc = fmt.Sprintf("p(X, c%d)", rng.Intn(8))
		case 2:
			goalSrc = "p(X, Y)"
		}
		goal := mustAtom(t, goalSrc)

		want, err := fresh.Evaluate(ctx, QueryRequest{Goal: goal, Snap: fresh.Snapshot(), Opts: Options{Strategy: planner.ForceSemiNaive}})
		if err != nil {
			t.Fatalf("case %d: from-scratch baseline %s: %v", i, goalSrc, err)
		}
		wantRows := want.Rows(fresh)
		for _, workers := range []int{1, 4} {
			got, err := sys.Evaluate(ctx, QueryRequest{Goal: goal, Snap: sys.Snapshot(), Opts: Options{Workers: workers}})
			if err != nil {
				t.Fatalf("case %d: post-retract %s (workers=%d): %v", i, goalSrc, workers, err)
			}
			if !reflect.DeepEqual(got.Rows(sys), wantRows) {
				t.Fatalf("case %d: post-retract answers diverge from from-scratch (workers=%d, plan %v)\nrules:\n%s\nretracted: %v\nwant %v\ngot  %v",
					i, workers, got.Plan.Kind, rules, retract, wantRows, got.Rows(sys))
			}
		}
		if len(wantRows) > 0 {
			nonEmpty++
		}
	}
	t.Logf("%d cases, %d facts retracted, %d non-empty answers", cases, actuallyRemoved, nonEmpty)
	if nonEmpty < 30 {
		t.Fatalf("only %d cases had non-empty answers; the harness is not exercising evaluation", nonEmpty)
	}
}

// TestInterleavedWarmCacheDifferential is the incremental-maintenance
// correctness harness: random programs under random interleavings of
// add and retract batches on one System, with the caches kept warm by
// querying (bound and full-closure goals, 1 and 4 workers) between every
// step.  After each swap, every answer must be bit-for-bit equal to a
// from-scratch evaluation over the facts currently present — whether the
// serving entry was maintained across the swap, rebuilt, or never
// cached.  Across the run, upgrades must actually happen, or the
// maintained path was never exercised.
func TestInterleavedWarmCacheDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	const cases = 60
	ctx := context.Background()
	var totalUpgrades int64
	maintainedServed := 0

	for i := 0; i < cases; i++ {
		rules, facts := genRetractProgram(rng)
		sys, err := Load(rules)
		if err != nil {
			t.Fatalf("case %d: load rules:\n%s\n%v", i, rules, err)
		}
		if _, _, err := sys.AddFacts(facts); err != nil {
			t.Fatalf("case %d: AddFacts: %v", i, err)
		}
		// present tracks the current fact multiset (deduplicated — the
		// generator already deduplicates) by rendered form.
		present := map[string]ast.Atom{}
		for _, f := range facts {
			present[f.String()] = f
		}
		goals := []ast.Atom{
			mustAtom(t, "p(X, Y)"),
			mustAtom(t, fmt.Sprintf("p(c%d, Y)", rng.Intn(6))),
		}
		checkAll := func(step string) {
			t.Helper()
			fresh, err := Load(rules)
			if err != nil {
				t.Fatalf("case %d %s: fresh load: %v", i, step, err)
			}
			var current []ast.Atom
			for _, f := range present {
				current = append(current, f)
			}
			if _, _, err := fresh.AddFacts(current); err != nil {
				t.Fatalf("case %d %s: fresh AddFacts: %v", i, step, err)
			}
			for _, goal := range goals {
				want, err := fresh.Evaluate(ctx, QueryRequest{Goal: goal, Snap: fresh.Snapshot(), Opts: Options{Strategy: planner.ForceSemiNaive}})
				if err != nil {
					t.Fatalf("case %d %s: baseline %v: %v", i, step, goal, err)
				}
				wantRows := want.Rows(fresh)
				for _, workers := range []int{1, 4} {
					got, err := sys.Evaluate(ctx, QueryRequest{Goal: goal, Snap: sys.Snapshot(), Opts: Options{Workers: workers}})
					if err != nil {
						t.Fatalf("case %d %s: %v (workers=%d): %v", i, step, goal, workers, err)
					}
					if got.Cached && got.Version == sys.Snapshot().Version && len(goal.Vars(nil)) == 2 {
						maintainedServed++
					}
					if !reflect.DeepEqual(got.Rows(sys), wantRows) {
						t.Fatalf("case %d %s: diverges from from-scratch (goal %v, workers=%d, plan %v, cached=%v)\nrules:\n%s\nwant %v\ngot  %v",
							i, step, goal, workers, got.Plan.Kind, got.Cached, rules, wantRows, got.Rows(sys))
					}
				}
			}
		}
		checkAll("warm")

		steps := 3 + rng.Intn(3)
		for s := 0; s < steps; s++ {
			if rng.Intn(2) == 0 && len(present) > 2 {
				// Retract a random present subset.
				var pool []ast.Atom
				for _, f := range present {
					pool = append(pool, f)
				}
				sort.Slice(pool, func(a, b int) bool { return pool[a].String() < pool[b].String() })
				k := 1 + rng.Intn(3)
				var batch []ast.Atom
				for _, idx := range rng.Perm(len(pool))[:k] {
					batch = append(batch, pool[idx])
				}
				if _, removed, err := sys.RemoveFacts(batch); err != nil || removed != len(batch) {
					t.Fatalf("case %d step %d: removed %d of %d, err %v", i, s, removed, len(batch), err)
				}
				for _, f := range batch {
					delete(present, f.String())
				}
				checkAll(fmt.Sprintf("step %d retract", s))
			} else {
				// Add a small batch of fresh random facts over the same
				// predicates (duplicates tolerated — AddFacts dedups).
				var batch []ast.Atom
				for k := 1 + rng.Intn(4); k > 0; k-- {
					src := facts[rng.Intn(len(facts))]
					f := ast.NewAtom(src.Pred,
						ast.C(fmt.Sprintf("c%d", rng.Intn(14))),
						ast.C(fmt.Sprintf("c%d", rng.Intn(14))))
					batch = append(batch, f)
				}
				if _, _, err := sys.AddFacts(batch); err != nil {
					t.Fatalf("case %d step %d: AddFacts: %v", i, s, err)
				}
				for _, f := range batch {
					present[f.String()] = f
				}
				checkAll(fmt.Sprintf("step %d add", s))
			}
		}
		totalUpgrades += sys.ResultCacheStats().Upgrades
	}
	t.Logf("%d cases: %d upgrades, %d maintained full-closure hits served", cases, totalUpgrades, maintainedServed)
	if totalUpgrades == 0 || maintainedServed == 0 {
		t.Fatalf("interleaved harness never exercised the maintained path (upgrades=%d, served=%d)", totalUpgrades, maintainedServed)
	}
}
