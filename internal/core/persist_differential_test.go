package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"linrec/internal/ast"
	"linrec/internal/planner"
	"linrec/internal/rel"
	"linrec/internal/segment"
)

// evictingBudget is the memory budget of the harness's budgeted arm: a
// few column indexes of a generated program's relations, so a query
// touching several predicates evicts and rebuilds artifacts mid-plan.
const evictingBudget = 1 << 10

// budgetedManager opens a segment manager over dir with the given memory
// budget (0: unbudgeted).
func budgetedManager(t *testing.T, dir string, budget int64) *segment.Manager {
	t.Helper()
	m := openManager(t, dir)
	m.SetMemBudget(budget)
	return m
}

// evictions returns how many residency artifacts the disk-backed sys's
// memory budget has evicted.
func evictions(sys *System) int64 {
	return sys.Opts.Persist.(*segment.Manager).Stats().Evictions
}

// diskTwin publishes sys-equivalent state to a fresh data directory and
// boots a second system from it under the given memory budget (0:
// unbudgeted), so every relation the twin serves is a lazy disk-backed
// store.
func diskTwin(t *testing.T, src string, budget int64) (*System, *System) {
	t.Helper()
	mem, err := load(src, Options{})
	if err != nil {
		t.Fatalf("load:\n%s\n%v", src, err)
	}
	dir := t.TempDir()
	if _, err := load(src, Options{Persist: openManager(t, dir)}); err != nil {
		t.Fatalf("persistent load:\n%s\n%v", src, err)
	}
	disk, err := load(src, Options{Persist: budgetedManager(t, dir, budget)})
	if err != nil {
		t.Fatalf("boot from disk:\n%s\n%v", src, err)
	}
	return mem, disk
}

// comparePlans runs goal against both backends across plan-forcing and
// worker configurations and requires bit-for-bit identical rows
// everywhere; it returns the auto plan kind the disk backend chose.
func comparePlans(t *testing.T, mem, disk *System, goalSrc, src string) planner.Kind {
	t.Helper()
	ctx := context.Background()
	goal := mustAtom(t, goalSrc)
	memSnap, diskSnap := mem.Snapshot(), disk.Snapshot()

	base, err := mem.Evaluate(ctx, QueryRequest{Goal: goal, Snap: memSnap, Opts: Options{Strategy: planner.ForceSemiNaive}})
	if err != nil {
		t.Fatalf("memory baseline %s:\n%s\n%v", goalSrc, src, err)
	}
	wantRows := base.Rows(mem)

	kind := planner.SemiNaive
	configs := []struct {
		name string
		opts Options
	}{
		{"auto/1", Options{}},
		{"auto/4", Options{Workers: 4}},
		{"seminaive/1", Options{Strategy: planner.ForceSemiNaive}},
		{"decomposed/4", Options{Strategy: planner.ForceDecomposed, Workers: 4}},
	}
	for _, cfg := range configs {
		memRes, err := mem.Evaluate(ctx, QueryRequest{Goal: goal, Snap: memSnap, Opts: cfg.opts})
		if err != nil {
			t.Fatalf("memory %s %s:\n%s\n%v", cfg.name, goalSrc, src, err)
		}
		diskRes, err := disk.Evaluate(ctx, QueryRequest{Goal: goal, Snap: diskSnap, Opts: cfg.opts})
		if err != nil {
			t.Fatalf("disk %s %s:\n%s\n%v", cfg.name, goalSrc, src, err)
		}
		if memRes.Plan.Kind != diskRes.Plan.Kind {
			t.Fatalf("%s %s: plan diverges across backends: memory %v, disk %v\nprogram:\n%s",
				cfg.name, goalSrc, memRes.Plan.Kind, diskRes.Plan.Kind, src)
		}
		if got := memRes.Rows(mem); !reflect.DeepEqual(got, wantRows) {
			t.Fatalf("memory %s %s diverges from baseline under plan %v:\nprogram:\n%s\nwant %v\ngot  %v",
				cfg.name, goalSrc, memRes.Plan.Kind, src, wantRows, got)
		}
		if got := diskRes.Rows(disk); !reflect.DeepEqual(got, wantRows) {
			t.Fatalf("disk %s %s diverges from baseline under plan %v:\nprogram:\n%s\nwant %v\ngot  %v",
				cfg.name, goalSrc, diskRes.Plan.Kind, src, wantRows, got)
		}
		if cfg.name == "auto/1" {
			kind = diskRes.Plan.Kind
		}
	}
	return kind
}

// TestPersistDifferential is the storage backends' proof harness:
// across ≥150 generated programs, every query — auto-planned and
// plan-forced, at one and at four workers — must return rows
// bit-for-bit identical whether the system computes over in-memory
// relations or over a snapshot booted from disk segments, unbudgeted
// or under a budget small enough to evict.
func TestPersistDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(161803))
	const wantPrograms = 150
	plans := map[planner.Kind]int{}
	nonEmpty := 0
	var evicted int64

	for attempt := 0; attempt < wantPrograms; attempt++ {
		src := genMagicProgram(rng)
		mem, disk := diskTwin(t, src, 0)
		_, tight := diskTwin(t, src, evictingBudget)

		goals := []string{
			"p(X, Y)",
			fmt.Sprintf("p(c%d, Y)", rng.Intn(8)),
			fmt.Sprintf("p(X, c%d)", rng.Intn(8)),
			fmt.Sprintf("p(c%d, c%d)", rng.Intn(8), rng.Intn(8)),
		}
		for _, goalSrc := range goals {
			plans[comparePlans(t, mem, disk, goalSrc, src)]++
			comparePlans(t, mem, tight, goalSrc, src)
		}
		evicted += evictions(tight)
		if res, err := query(mem, mustAtom(t, "p(X, Y)")); err == nil && res.Answer.Len() > 0 {
			nonEmpty++
		}
	}
	t.Logf("plan kinds compared: %v (non-empty closures: %d, budgeted evictions: %d)", plans, nonEmpty, evicted)
	if evicted == 0 {
		t.Fatalf("the budgeted arm never evicted: the budget does not exercise eviction")
	}
	if plans[planner.SemiNaive] == 0 || plans[planner.MagicSeeded] == 0 {
		t.Fatalf("generator did not exercise both semi-naive and magic-seeded plans: %v", plans)
	}
	if nonEmpty < wantPrograms/3 {
		t.Fatalf("only %d/%d programs had non-empty closures; the harness is not exercising evaluation", nonEmpty, wantPrograms)
	}
}

// TestPersistDifferentialDirected covers the plan kinds the random
// generator reaches rarely — decomposed, separable, and semi-naive over a
// uniformly bounded rule — with programs whose auto plans are pinned,
// again comparing both backends.
func TestPersistDifferentialDirected(t *testing.T) {
	cases := []struct {
		name string
		src  string
		goal string
		kind planner.Kind
	}{
		{
			name: "decomposed",
			src: `path(X,Y) :- up(X,Y).
path(X,Y) :- path(X,Z), up(Z,Y).
path(X,Y) :- down(X,Z), path(Z,Y).
up(a,b). up(b,c). up(c,d).
down(b,a). down(c,b).
`,
			goal: "path(X, Y)",
			kind: planner.Decomposed,
		},
		{
			name: "separable",
			src: `path(X,Y) :- up(X,Y).
path(X,Y) :- path(X,Z), up(Z,Y).
path(X,Y) :- down(X,Z), path(Z,Y).
up(a,b). up(b,c). up(c,d).
down(b,a). down(c,b).
`,
			goal: "path(a, Y)",
			kind: planner.Separable,
		},
		{
			name: "bounded",
			src: `p(X,Y) :- seed(X,Y).
p(X,Y) :- p(Y,X), e(X,Y).
seed(a,b). seed(b,c). seed(c,a).
e(a,b). e(b,a). e(b,c). e(c,b).
`,
			goal: "p(X, Y)",
			kind: planner.SemiNaive,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mem, disk := diskTwin(t, tc.src, 0)
			if got := comparePlans(t, mem, disk, tc.goal, tc.src); got != tc.kind {
				t.Fatalf("auto plan = %v, want %v — the directed case no longer pins its plan kind", got, tc.kind)
			}
		})
	}
}

// TestPersistDifferentialStreaming repeats the comparison through the
// streaming path: rows drained from a disk-booted system's stream must
// match the in-memory system's materialized answer.
func TestPersistDifferentialStreaming(t *testing.T) {
	rng := rand.New(rand.NewSource(577215))
	ctx := context.Background()
	for attempt := 0; attempt < 30; attempt++ {
		src := genMagicProgram(rng)
		mem, disk := diskTwin(t, src, 0)
		goalSrc := "p(X, Y)"
		if attempt%2 == 1 {
			goalSrc = fmt.Sprintf("p(c%d, Y)", rng.Intn(8))
		}
		goal := mustAtom(t, goalSrc)

		base, err := mem.Evaluate(ctx, QueryRequest{Goal: goal, Snap: mem.Snapshot(), Opts: Options{}})
		if err != nil {
			t.Fatalf("memory %s:\n%s\n%v", goalSrc, src, err)
		}
		st, err := disk.Stream(ctx, QueryRequest{Goal: goal, Snap: disk.Snapshot(), Opts: Options{}})
		if err != nil {
			t.Fatalf("disk stream %s:\n%s\n%v", goalSrc, src, err)
		}
		got := drainStream(t, st)
		if !reflect.DeepEqual(got, base.Rows(mem)) {
			t.Fatalf("streamed disk rows diverge for %s:\nprogram:\n%s\nwant %v\ngot  %v",
				goalSrc, src, base.Rows(mem), got)
		}
	}
}

// TestPersistDifferentialAfterSwaps checks the comparison holds across
// mutation history: every backend — in memory, on disk unbudgeted, on
// disk under an evicting budget — applies the same adds, retractions and
// a history of mixed, toggling and retraction-heavy batches
// (writeHistory), agreeing on every goal and serving no chain
// past rel.MaxChainLinks after each batch.  Over the attempts every arm
// must merge a chain and rebase one for its garbage, by the one fold
// policy in rel.  Then a restart of each disk side must still agree on
// every goal.  The restarted sides take one more mixed batch over their
// disk-backed stores with warm caches, and a second restart.  The
// in-memory side keeps no result cache, so it evaluates every goal from
// scratch.
func TestPersistDifferentialAfterSwaps(t *testing.T) {
	rng := rand.New(rand.NewSource(141421))
	budgets := []int64{0, evictingBudget}
	var evicted int64
	mixedUpgrades := 0
	seen := make([]folds, 1+len(budgets))
	for attempt := 0; attempt < 20; attempt++ {
		src := genMagicProgram(rng)
		mem, err := load(src, Options{ResultCacheRows: -1})
		if err != nil {
			t.Fatalf("load:\n%s\n%v", src, err)
		}
		systems := []*System{mem}
		dirs := make([]string, len(budgets))
		for i, budget := range budgets {
			dirs[i] = t.TempDir()
			s, err := load(src, Options{Persist: budgetedManager(t, dirs[i], budget)})
			if err != nil {
				t.Fatalf("persistent load:\n%s\n%v", src, err)
			}
			systems = append(systems, s)
		}

		// Apply the identical batch to both systems.
		batchAdd := []string{
			fmt.Sprintf("e0(c%d,c%d)", rng.Intn(8), rng.Intn(8)),
			fmt.Sprintf("b0(c%d,c%d)", rng.Intn(8), rng.Intn(8)),
		}
		batchDel := []string{fmt.Sprintf("e0(c%d,c%d)", rng.Intn(8), rng.Intn(8))}
		for _, s := range systems {
			for _, fs := range batchAdd {
				if _, _, err := s.AddFacts([]ast.Atom{mustAtom(t, fs)}); err != nil {
					t.Fatalf("add %s:\n%s\n%v", fs, src, err)
				}
			}
			for _, fs := range batchDel {
				if _, _, err := s.Apply(context.Background(), nil, []ast.Atom{mustAtom(t, fs)}); err != nil {
					t.Fatalf("remove %s:\n%s\n%v", fs, src, err)
				}
			}
		}
		goals := []string{"p(X, Y)", fmt.Sprintf("p(c%d, Y)", rng.Intn(8))}
		writeHistory(t, rng, src, systems, goals[0], seen)

		// Restart each disk side from its manifest and compare everything.
		reboot := func(i int, served *System) *System {
			t.Helper()
			rebooted, err := load(src, Options{Persist: budgetedManager(t, dirs[i], budgets[i])})
			if err != nil {
				t.Fatalf("reboot:\n%s\n%v", src, err)
			}
			if got, want := rebooted.Snapshot().Version, served.Snapshot().Version; got != want {
				t.Fatalf("rebooted at version %d, pre-restart served %d", got, want)
			}
			for _, goalSrc := range goals {
				comparePlans(t, mem, rebooted, goalSrc, src)
			}
			return rebooted
		}
		rebooted := []*System{mem}
		for i := range budgets {
			rebooted = append(rebooted, reboot(i, systems[1+i]))
		}
		// The warm, disk-backed sides maintain their caches across one
		// more mixed batch, then restart from the chained link it wrote.
		mixedUpgrades += applyMixedEverywhere(t, rng, src, rebooted)
		for i, budget := range budgets {
			for _, goalSrc := range goals {
				comparePlans(t, mem, rebooted[1+i], goalSrc, src)
			}
			again := reboot(i, rebooted[1+i])
			if budget > 0 {
				evicted += evictions(systems[1+i]) + evictions(rebooted[1+i]) + evictions(again)
			}
		}
	}
	if evicted == 0 {
		t.Fatalf("the budgeted arm never evicted: the budget does not exercise eviction")
	}
	if mixedUpgrades == 0 {
		t.Fatalf("no mixed batch upgraded a cached result on a disk-backed side")
	}
	for i, f := range seen {
		t.Logf("arm %d: %d merges, %d garbage rebases", i, f.merges, f.garbageRebases)
		if f.merges == 0 || f.garbageRebases == 0 {
			t.Fatalf("arm %d (0: memory) folded %d merges and %d garbage rebases, want both", i, f.merges, f.garbageRebases)
		}
	}
}

// History phases, in batches.  The toggling run spans two chain bounds:
// whatever the predicate's chain held when it began folds within the
// first, and the second builds a chain of toggles alone, which nets out
// to at most one row and so merges rather than rebases.
const (
	mixedBatches   = 2
	toggleBatches  = 2 * (rel.MaxChainLinks + 1)
	retractBatches = 4
	historyBatches = mixedBatches + toggleBatches + retractBatches
)

// writeHistory applies historyBatches batches to every system: mixed
// batches, then one fact toggled in and out of the largest relation (a
// long chain whose layers cancel, which merges; the largest, so its
// garbage stays below its rows), then retraction-heavy batches (garbage,
// which rebases).  After each batch every system must agree with the
// first on goal and serve no chain past the bound; seen counts the folds
// each system took.
func writeHistory(t *testing.T, rng *rand.Rand, src string, systems []*System, goal string, seen []folds) {
	t.Helper()
	var toggle ast.Atom
	for i := 0; i < historyBatches; i++ {
		present := storedFacts(systems[0])
		var adds, removes []ast.Atom
		switch {
		case i < mixedBatches:
			adds, removes = mixedBatch(rng, present)
		case i < mixedBatches+toggleBatches:
			if i == mixedBatches {
				toggle = absentFact(rng, present, largestPred(present))
			}
			if _, ok := present[toggle.String()]; ok {
				removes = []ast.Atom{toggle}
			} else {
				adds = []ast.Atom{toggle}
			}
		default:
			adds, removes = retractionBatch(rng, present)
		}
		prev := make([]rel.DB, len(systems))
		for j, s := range systems {
			prev[j] = s.Snapshot().DB
		}
		applyEverywhere(t, src, systems, present, adds, removes)
		for j, s := range systems {
			seen[j].observe(prev[j], s.Snapshot().DB)
			wantChainsBounded(t, s)
			if j > 0 {
				comparePlans(t, systems[0], s, goal, src)
			}
		}
	}
}

// folds counts the chain folds one backend was seen to take.
type folds struct{ merges, garbageRebases int }

// observe classifies what one write did to every predicate's chain.  A
// store over the same bottom base that is no deeper than before merged;
// one over a new base below the length bound was rebased for its
// garbage (at the bound, a rebase may be the merge's size rule).
func (f *folds) observe(prev, next rel.DB) {
	for pred, st := range next {
		old, ok := prev[pred]
		if !ok || st == old {
			continue
		}
		pd, pb := chainOf(old)
		nd, nb := chainOf(st)
		switch {
		case nb == pb && nd <= pd:
			f.merges++
		case nb != pb && pd < rel.MaxChainLinks:
			f.garbageRebases++
		}
	}
}

// chainOf returns how many rel.Layered layers st stacks over its bottom
// base, and that base.
func chainOf(st rel.Store) (depth int, base rel.Store) {
	for ly, ok := st.(*rel.Layered); ok; ly, ok = st.(*rel.Layered) {
		depth++
		st = ly.Base()
	}
	return depth, st
}

// wantChainsBounded fails when sys serves a chain past rel.MaxChainLinks.
func wantChainsBounded(t *testing.T, sys *System) {
	t.Helper()
	for pred, st := range sys.Snapshot().DB {
		if d, _ := chainOf(st); d > rel.MaxChainLinks {
			t.Fatalf("%s is served %d layers deep, bound is %d", pred, d, rel.MaxChainLinks)
		}
	}
}

// absentFact draws a fact over the generator's constants that present
// does not hold, of pred or, when pred is "", of a stored predicate.
func absentFact(rng *rand.Rand, present map[string]ast.Atom, pred string) ast.Atom {
	preds := []string{pred}
	if pred == "" {
		preds = preds[:0]
		for _, f := range present {
			preds = append(preds, f.Pred)
		}
		sort.Strings(preds)
	}
	for {
		f := ast.NewAtom(preds[rng.Intn(len(preds))], ast.C(fmt.Sprintf("c%d", rng.Intn(14))), ast.C(fmt.Sprintf("c%d", rng.Intn(14))))
		if _, ok := present[f.String()]; !ok {
			return f
		}
	}
}

// largestPred returns the predicate present holds the most facts of
// (the first by name among ties).
func largestPred(present map[string]ast.Atom) string {
	n := map[string]int{}
	best := ""
	for _, f := range present {
		n[f.Pred]++
	}
	for pred, c := range n {
		if c > n[best] || (c == n[best] && pred < best) {
			best = pred
		}
	}
	return best
}

// retractionBatch draws a batch that retracts two present facts and adds
// one absent fact.
func retractionBatch(rng *rand.Rand, present map[string]ast.Atom) (adds, removes []ast.Atom) {
	keys := make([]string, 0, len(present))
	for k := range present {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i := 0; i < 2 && len(keys) > 0; i++ {
		removes = append(removes, present[keys[rng.Intn(len(keys))]])
	}
	return []ast.Atom{absentFact(rng, present, "")}, removes
}

// applyMixedEverywhere applies one mixedBatch, drawn against the first
// system's facts, to every system.  It returns how many cached results
// the systems upgraded on batches that both added and removed.
func applyMixedEverywhere(t *testing.T, rng *rand.Rand, src string, systems []*System) (upgraded int) {
	t.Helper()
	present := storedFacts(systems[0])
	adds, removes := mixedBatch(rng, present)
	return applyEverywhere(t, src, systems, present, adds, removes)
}

// applyEverywhere applies one batch to every system, and requires each
// to report the counts the batch resolves to against present, the first
// system's facts (which it updates).  It returns how many cached results
// the systems upgraded on batches that both added and removed.
func applyEverywhere(t *testing.T, src string, systems []*System, present map[string]ast.Atom, adds, removes []ast.Atom) (upgraded int) {
	t.Helper()
	added, removed := applyMixed(present, adds, removes)
	for _, s := range systems {
		v := s.Snapshot().Version
		_, m, err := s.Apply(context.Background(), adds, removes)
		if err != nil || m.Added != added || m.Removed != removed {
			t.Fatalf("batch +%v -%v: added %d removed %d, want %d and %d, err %v\n%s",
				adds, removes, m.Added, m.Removed, added, removed, err, src)
		}
		if got := s.Snapshot().Version; added+removed > 0 && got != v+1 {
			t.Fatalf("batch moved the version %d -> %d, want one step", v, got)
		}
		if added > 0 && removed > 0 {
			upgraded += m.ResultsUpgraded
		}
	}
	return upgraded
}

// storedFacts renders every fact sys's current snapshot stores, keyed by
// rendered form.
func storedFacts(sys *System) map[string]ast.Atom {
	out := map[string]ast.Atom{}
	for pred, st := range sys.Snapshot().DB {
		st.Each(func(t rel.Tuple) {
			args := make([]ast.Term, len(t))
			for i, v := range t {
				args[i] = ast.C(sys.Engine.Syms.Name(v))
			}
			f := ast.NewAtom(pred, args...)
			out[f.String()] = f
		})
	}
	return out
}
