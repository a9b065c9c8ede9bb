package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"linrec/internal/ast"
	"linrec/internal/eval"
)

// TestIncrementalUpgradeOnAdd: a warm full-closure entry survives an
// additive swap as a maintained view — the post-add query is served
// Cached with rows equal to a from-scratch evaluation, and the upgrade
// counters advance instead of the invalidation counter purging the
// entry.
func TestIncrementalUpgradeOnAdd(t *testing.T) {
	sys, err := load(chainProgram(4), Options{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	open := ast.NewAtom("path", ast.V("X"), ast.V("Y"))
	r1, err := query(sys, open)
	if err != nil {
		t.Fatalf("warm query: %v", err)
	}
	if r1.Answer.Len() != 4*5/2 {
		t.Fatalf("warm rows = %d, want %d", r1.Answer.Len(), 4*5/2)
	}
	snap, m, err := sys.Apply(context.Background(), []ast.Atom{edgeFact(4, 5)}, nil)
	if err != nil || m.Added != 1 {
		t.Fatalf("Apply: added=%d err=%v", m.Added, err)
	}
	if m.ResultsUpgraded != 1 || m.ResultsPurged != 0 {
		t.Fatalf("maintenance = %+v, want 1 result upgraded, 0 purged", m)
	}
	r2, err := query(sys, open)
	if err != nil {
		t.Fatalf("post-add query: %v", err)
	}
	if !r2.Cached {
		t.Fatalf("post-add full-closure query was not served from the maintained cache")
	}
	if r2.Version != snap.Version {
		t.Fatalf("maintained result at version %d, want %d", r2.Version, snap.Version)
	}
	if want := 5 * 6 / 2; r2.Answer.Len() != want {
		t.Fatalf("maintained rows = %d, want %d", r2.Answer.Len(), want)
	}
	st := sys.ResultCacheStats()
	if st.Upgrades != 1 || st.UpgradeFallbacks != 0 {
		t.Fatalf("stats upgrades=%d fallbacks=%d, want 1/0", st.Upgrades, st.UpgradeFallbacks)
	}
}

// bowtieProgram is a transitive closure shaped to give one retraction a
// wide over-delete cone: n sources feed a hub c0, the bridge c0→c1 feeds
// n targets, each with a one-edge tail.  Retracting the bridge
// over-deletes every source→target and source→tail path, a cascade whose
// rounds carry n·(n+1) delta rows; the bypass c0→c200 keeps one target
// (and its tail) re-derivable.
func bowtieProgram(n int) string {
	var b strings.Builder
	b.WriteString("path(X,Y) :- edge(X,Y).\npath(X,Y) :- path(X,U), edge(U,Y).\n")
	b.WriteString("edge(c0,c1).\nedge(c0,c200).\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "edge(c%d,c0).\nedge(c1,c%d).\nedge(c%d,c%d).\n", 100+i, 200+i, 200+i, 300+i)
	}
	return b.String()
}

// TestIncrementalUpgradeOnRetract: delete-and-rederive carries a warm
// full-closure entry across a retraction, bit-for-bit equal to a
// from-scratch rebuild — for a mid-chain edge whose cone has surviving
// re-derivations elsewhere, and for a cone wide enough (≥ the kernel's
// fan-out threshold) that the over-delete cascade shards across two
// workers.
func TestIncrementalUpgradeOnRetract(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		retract ast.Atom
		workers int
		sharded bool // the cascade must fan out
	}{
		// Chain c0→…→c5 plus a shortcut c1→c3: retracting edge c2→c3
		// deletes the cone through c2 but paths through the shortcut must
		// re-derive.
		{"shortcut", chainProgram(5) + "edge(c1,c3).\n", edgeFact(2, 3), 1, false},
		{"wide-cone", bowtieProgram(40), edgeFact(0, 1), 2, true},
	}
	open := ast.NewAtom("path", ast.V("X"), ast.V("Y"))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := load(tc.src, Options{Workers: tc.workers})
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			if _, err := query(sys, open); err != nil {
				t.Fatalf("warm query: %v", err)
			}
			tr := &eval.Tracer{}
			_, removed, m, err := sys.RemoveFactsMaintCtx(eval.WithTracer(context.Background(), tr), []ast.Atom{tc.retract})
			if err != nil || removed != 1 {
				t.Fatalf("RemoveFactsMaintCtx: removed=%d err=%v", removed, err)
			}
			if m.ResultsUpgraded != 1 {
				t.Fatalf("maintenance = %+v, want the full-closure entry upgraded", m)
			}
			// The over-delete cascade traces as a restricted closure (keep =
			// membership in the cached fixpoint).
			sharded := false
			for _, ph := range tr.Trace().Phases {
				for _, rd := range ph.Rounds {
					sharded = sharded || (ph.Name == "restricted-closure" && len(rd.ShardRows) > 0)
				}
			}
			if sharded != tc.sharded {
				t.Fatalf("over-delete cascade sharded = %v, want %v", sharded, tc.sharded)
			}
			r, err := query(sys, open)
			if err != nil {
				t.Fatalf("post-retract query: %v", err)
			}
			if !r.Cached {
				t.Fatalf("post-retract full-closure query was not served from the maintained cache")
			}
			fresh, err := load(tc.src, Options{})
			if err != nil {
				t.Fatalf("fresh load: %v", err)
			}
			if _, _, err := fresh.Apply(context.Background(), nil, []ast.Atom{tc.retract}); err != nil {
				t.Fatalf("fresh retract: %v", err)
			}
			want, err := query(fresh, open)
			if err != nil {
				t.Fatalf("fresh query: %v", err)
			}
			if got, exp := fmt.Sprint(r.Rows(sys)), fmt.Sprint(want.Rows(fresh)); got != exp {
				t.Fatalf("maintained answer diverges from from-scratch:\ngot  %s\nwant %s", got, exp)
			}
		})
	}
}

// TestIncrementalNoOpUpgradeIsFree: a swap touching a predicate that
// cannot reach the cached goal carries the entry without recomputation —
// the answer relation stays pointer-shared with the pre-swap result.
func TestIncrementalNoOpUpgradeIsFree(t *testing.T) {
	sys, err := load(chainProgram(3)+"other(X,Y) :- unrelated(X,Y).\nunrelated(u1,u2).\n", Options{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	open := ast.NewAtom("path", ast.V("X"), ast.V("Y"))
	r1, err := query(sys, open)
	if err != nil {
		t.Fatalf("warm query: %v", err)
	}
	_, m, err := sys.Apply(context.Background(), []ast.Atom{ast.NewAtom("unrelated", ast.C("u3"), ast.C("u4"))}, nil)
	if err != nil || m.Added != 1 {
		t.Fatalf("Apply: added=%d err=%v", m.Added, err)
	}
	if m.ResultsUpgraded != 1 {
		t.Fatalf("maintenance = %+v, want a free upgrade", m)
	}
	r2, err := query(sys, open)
	if err != nil {
		t.Fatalf("post-swap query: %v", err)
	}
	if !r2.Cached || r2.Answer != r1.Answer {
		t.Fatalf("untouched goal should share the pre-swap answer (cached=%v, shared=%v)",
			r2.Cached, r2.Answer == r1.Answer)
	}
}

// TestIncrementalBoundGoalFallsBack: bound goals stay on the purge path —
// their magic/separable plans are not maintainable views — and the
// fallback counters say so.
func TestIncrementalBoundGoalFallsBack(t *testing.T) {
	sys, err := load(chainProgram(3), Options{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	bound := ast.NewAtom("path", ast.C("c0"), ast.V("Y"))
	if _, err := query(sys, bound); err != nil {
		t.Fatalf("warm query: %v", err)
	}
	_, m, err := sys.Apply(context.Background(), []ast.Atom{edgeFact(3, 4)}, nil)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if m.ResultsUpgraded != 0 || m.ResultsPurged != 1 {
		t.Fatalf("maintenance = %+v, want the bound entry purged", m)
	}
	r, err := query(sys, bound)
	if err != nil {
		t.Fatalf("post-add query: %v", err)
	}
	if r.Cached {
		t.Fatalf("purged bound entry served a stale hit")
	}
	if want := 4; r.Answer.Len() != want {
		t.Fatalf("post-add rows = %d, want %d", r.Answer.Len(), want)
	}
	if st := sys.ResultCacheStats(); st.UpgradeFallbacks < 1 {
		t.Fatalf("upgrade_fallbacks = %d, want ≥ 1", st.UpgradeFallbacks)
	}
}

// TestSeedSweepOnSwap: a swap retires the seed/magic cache eagerly —
// magic sets are dropped on the spot (not parked until the next query's
// lazy sweep), while a cached exit-rule seed is delta-upgraded in place
// and already contains the new tuples on an otherwise idle System.  The
// exit rule is a join: a copy rule's seed is the stored relation and
// never enters the cache.
func TestSeedSweepOnSwap(t *testing.T) {
	src := strings.Replace(chainProgram(3), "path(X,Y) :- edge(X,Y).", "path(X,Y) :- edge(X,Y), node(X).", 1) +
		"node(c0). node(c1). node(c2). node(c3).\n"
	sys, err := load(src, Options{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	// Populate both cache dimensions: a bound goal builds a magic set, an
	// open goal builds the exit-rule seed.
	if _, err := query(sys, ast.NewAtom("path", ast.C("c0"), ast.V("Y"))); err != nil {
		t.Fatalf("bound query: %v", err)
	}
	if _, err := query(sys, ast.NewAtom("path", ast.V("X"), ast.V("Y"))); err != nil {
		t.Fatalf("open query: %v", err)
	}
	next, m, err := sys.Apply(context.Background(), []ast.Atom{edgeFact(3, 4)}, nil)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if m.SeedsUpgraded < 1 || m.SeedsPurged < 1 {
		t.Fatalf("maintenance = %+v, want the exit seed upgraded and the magic set purged", m)
	}
	sys.store.mu.Lock()
	defer sys.store.mu.Unlock()
	if sys.store.version != next.Version {
		t.Fatalf("seed cache at version %d after swap to %d", sys.store.version, next.Version)
	}
	for key, e := range sys.store.entries {
		if key.kind == resultView {
			continue
		}
		if key.kind == magicView {
			t.Fatalf("stale magic set %v survived the eager sweep", key)
		}
		select {
		case <-e.done:
		default:
			t.Fatalf("carried seed %v is not completed", key)
		}
		// The upgraded seed must already include the new exit-rule
		// derivation (edge(c3,c4) is a path seed tuple).
		a, ok1 := sys.Engine.Syms.Lookup("c3")
		b, ok2 := sys.Engine.Syms.Lookup("c4")
		if !ok1 || !ok2 {
			t.Fatalf("new constants missing from the symbol table")
		}
		if !e.res.Answer.Has([]int32{a, b}) {
			t.Fatalf("upgraded seed for %v is missing the new exit derivation", key)
		}
	}
}

// TestAddFactsRejectedBatchKeepsSymtab: a batch rejected for any
// validation reason — including inconsistencies only visible against the
// current snapshot or within the batch itself — must leave the shared
// symbol table byte-identical, or repeatedly rejected remote batches
// would grow it without bound.
func TestAddFactsRejectedBatchKeepsSymtab(t *testing.T) {
	sys, err := load(chainProgram(2), Options{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	before := sys.Engine.Syms.Len()
	cases := [][]ast.Atom{
		// Intra-batch arity inconsistency on a predicate the program has
		// never seen: each fact is fine in isolation.
		{
			ast.NewAtom("freshpred", ast.C("leak1"), ast.C("leak2")),
			ast.NewAtom("freshpred", ast.C("leak3")),
		},
		// Later fact conflicts with the snapshot relation's arity after
		// earlier valid facts of the same batch.
		{
			edgeFact(7, 8),
			ast.NewAtom("edge", ast.C("leak4"), ast.C("leak5"), ast.C("leak6")),
		},
		// Derived-predicate fact after a valid fact.
		{
			edgeFact(9, 10),
			ast.NewAtom("path", ast.C("leak7"), ast.C("leak8")),
		},
	}
	for i, batch := range cases {
		if _, _, err := sys.AddFacts(batch); err == nil {
			t.Fatalf("case %d: invalid batch accepted", i)
		}
		if got := sys.Engine.Syms.Len(); got != before {
			t.Fatalf("case %d: symbol table grew from %d to %d on a rejected batch", i, before, got)
		}
	}
	for _, name := range []string{"leak1", "leak4", "leak7", "c7", "c9"} {
		if _, ok := sys.Engine.Syms.Lookup(name); ok {
			t.Fatalf("rejected batch interned %q", name)
		}
	}
	// Apply validates both halves under one contract: the same batches
	// are rejected as retractions, and split across the two halves.
	for i, batch := range cases {
		if _, _, err := sys.Apply(context.Background(), nil, batch); err == nil {
			t.Fatalf("case %d: Apply accepted as retractions what AddFacts rejects", i)
		}
		if _, _, err := sys.Apply(context.Background(), batch[1:], batch[:1]); err == nil {
			t.Fatalf("case %d: Apply accepted a batch split across its halves", i)
		}
		if got := sys.Engine.Syms.Len(); got != before {
			t.Fatalf("case %d: symbol table grew from %d to %d on a rejected Apply", i, before, got)
		}
	}
	if v := sys.Snapshot().Version; v != 1 {
		t.Fatalf("rejected batches advanced the version to %d", v)
	}
}

// TestIncrementalMaintenanceRace: readers hammer the full-closure goal
// while a writer alternates adds and retracts of the chain's tail edge.
// Every answer must match the version it reports, whether it was
// maintained, rebuilt or served mid-swap.  Run under -race in CI.
func TestIncrementalMaintenanceRace(t *testing.T) {
	const (
		initial = 6
		cycles  = 25
		readers = 4
	)
	sys, err := load(chainProgram(initial), Options{Workers: 2})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	open := ast.NewAtom("path", ast.V("X"), ast.V("Y"))
	rowsAt := func(version uint64) int {
		n := initial
		if version%2 == 0 {
			n = initial + 1
		}
		return n * (n + 1) / 2
	}
	if r, err := query(sys, open); err != nil || r.Answer.Len() != rowsAt(1) {
		t.Fatalf("warm query: rows=%v err=%v", r, err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	done := make(chan struct{})
	extra := []ast.Atom{edgeFact(initial, initial+1)}

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < cycles; i++ {
			if _, added, err := sys.AddFacts(extra); err != nil || added != 1 {
				errs <- fmt.Errorf("cycle %d: add=%d err=%v", i, added, err)
				return
			}
			if _, m, err := sys.Apply(context.Background(), nil, extra); err != nil || m.Removed != 1 {
				errs <- fmt.Errorf("cycle %d: removed=%d err=%v", i, m.Removed, err)
				return
			}
		}
	}()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				r, err := query(sys, open)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %v", g, err)
					return
				}
				if want := rowsAt(r.Version); r.Answer.Len() != want {
					errs <- fmt.Errorf("reader %d: %d rows at version %d, want %d",
						g, r.Answer.Len(), r.Version, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := sys.ResultCacheStats(); st.Upgrades == 0 {
		t.Fatalf("maintenance race never upgraded an entry: %+v", st)
	}
	final, err := query(sys, open)
	if err != nil || final.Answer.Len() != rowsAt(final.Version) {
		t.Fatalf("settled query: rows=%d err=%v", final.Answer.Len(), err)
	}
}
