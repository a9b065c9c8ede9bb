package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"linrec/internal/ast"
	"linrec/internal/eval"
	"linrec/internal/parser"
	"linrec/internal/planner"
	"linrec/internal/rel"
)

func cacheTotals(s ResultCacheStats) (hits, misses, evictions int64) {
	for _, n := range s.Hits {
		hits += n
	}
	for _, n := range s.Misses {
		misses += n
	}
	for _, n := range s.Evictions {
		evictions += n
	}
	return
}

// TestResultCacheHitIsIdentical: the second identical query is served
// from the cache — Cached set, rows/stats/plan bit-for-bit equal to the
// miss that populated the entry — and the counters record one miss and
// one hit under the serving plan kind.
func TestResultCacheHitIsIdentical(t *testing.T) {
	sys, err := load(chainProgram(4), Options{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	goal := ast.NewAtom("path", ast.C("c0"), ast.V("Y"))
	r1, err := query(sys, goal)
	if err != nil {
		t.Fatalf("Query 1: %v", err)
	}
	if r1.Cached {
		t.Fatalf("first query reported Cached")
	}
	r2, err := query(sys, goal)
	if err != nil {
		t.Fatalf("Query 2: %v", err)
	}
	if !r2.Cached {
		t.Fatalf("second identical query was not served from the cache")
	}
	if !reflect.DeepEqual(r1.Rows(sys), r2.Rows(sys)) {
		t.Fatalf("cached rows diverge")
	}
	if r1.Stats != r2.Stats {
		t.Fatalf("cached stats diverge: %v vs %v", r1.Stats, r2.Stats)
	}
	if r1.Plan != r2.Plan || r1.Version != r2.Version {
		t.Fatalf("cached plan/version diverge")
	}
	// A goal differing only in variable naming shares the entry.
	r3, err := query(sys, ast.NewAtom("path", ast.C("c0"), ast.V("Z")))
	if err != nil {
		t.Fatalf("Query 3: %v", err)
	}
	if !r3.Cached {
		t.Fatalf("alpha-equivalent goal missed the cache")
	}
	hits, misses, _ := cacheTotals(sys.ResultCacheStats())
	if hits != 2 || misses != 1 {
		t.Fatalf("counters: %d hits / %d misses, want 2 / 1", hits, misses)
	}
}

// TestResultCacheKeyDiscriminates: repeated variables, different bound
// constants and different strategies address different entries.
func TestResultCacheKeyDiscriminates(t *testing.T) {
	if normalizeGoal(mustAtomT("p(X, Y)")) == normalizeGoal(mustAtomT("p(X, X)")) {
		t.Fatalf("p(X,Y) and p(X,X) must not share a cache key")
	}
	if normalizeGoal(mustAtomT("p(a, Y)")) == normalizeGoal(mustAtomT("p(b, Y)")) {
		t.Fatalf("different constants must not share a cache key")
	}
	if normalizeGoal(mustAtomT("p(X, Y)")) != normalizeGoal(mustAtomT("p(A, B)")) {
		t.Fatalf("alpha-equivalent goals must share a cache key")
	}
	if normalizeGoal(mustAtomT(`p(X, X)`)) != normalizeGoal(mustAtomT("p(W, W)")) {
		t.Fatalf("repeated-variable goals must normalize consistently")
	}
}

func mustAtomT(src string) ast.Atom {
	a, err := parser.ParseAtom(src)
	if err != nil {
		panic(err)
	}
	return a
}

// TestResultCacheInvalidationOnSwap: additions and retractions both bump
// the snapshot version, so cached results for the old version are swept
// and the next query re-evaluates against the new world.
func TestResultCacheInvalidationOnSwap(t *testing.T) {
	sys, err := load(chainProgram(2), Options{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	goal := ast.NewAtom("path", ast.C("c0"), ast.V("Y"))
	r1, _ := query(sys, goal)
	if r1.Answer.Len() != 2 {
		t.Fatalf("initial rows = %d, want 2", r1.Answer.Len())
	}
	if _, _, err := sys.AddFacts([]ast.Atom{edgeFact(2, 3)}); err != nil {
		t.Fatalf("AddFacts: %v", err)
	}
	r2, err := query(sys, goal)
	if err != nil {
		t.Fatalf("Query after add: %v", err)
	}
	if r2.Cached || r2.Answer.Len() != 3 {
		t.Fatalf("post-add query: cached=%v rows=%d, want fresh 3", r2.Cached, r2.Answer.Len())
	}
	if _, _, err := sys.Apply(context.Background(), nil, []ast.Atom{edgeFact(2, 3)}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	r3, err := query(sys, goal)
	if err != nil {
		t.Fatalf("Query after retract: %v", err)
	}
	if r3.Cached || r3.Answer.Len() != 2 {
		t.Fatalf("post-retract query: cached=%v rows=%d, want fresh 2", r3.Cached, r3.Answer.Len())
	}
	if st := sys.ResultCacheStats(); st.Invalidated < 2 {
		t.Fatalf("invalidated = %d, want ≥ 2 (one entry per superseded version)", st.Invalidated)
	}
	r4, _ := query(sys, goal)
	if !r4.Cached {
		t.Fatalf("repeat on the settled version should hit")
	}
}

// TestResultCacheEviction: total cached rows stay under the cap, cold
// entries are evicted LRU-first, and evicted goals re-miss correctly.
func TestResultCacheEviction(t *testing.T) {
	sys, err := load(chainProgram(5), Options{ResultCacheRows: 3})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	q := func(src string) *QueryResult {
		r, err := query(sys, mustAtom(t, src))
		if err != nil {
			t.Fatalf("Query %s: %v", src, err)
		}
		return r
	}
	q("path(c4, Y)") // 1 row
	q("path(c3, Y)") // 2 rows → cache at 3/3
	q("path(c2, Y)") // 3 rows → must evict both older entries
	st := sys.ResultCacheStats()
	if st.Rows > st.CapRows {
		t.Fatalf("cached rows %d exceed cap %d", st.Rows, st.CapRows)
	}
	if _, _, ev := cacheTotals(st); ev != 2 {
		t.Fatalf("evictions = %d, want 2", ev)
	}
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1 survivor", st.Entries)
	}
	if r := q("path(c4, Y)"); r.Cached {
		t.Fatalf("evicted entry served a hit")
	}
	if r := q("path(c4, Y)"); !r.Cached || r.Answer.Len() != 1 {
		t.Fatalf("re-cached entry wrong: cached=%v rows=%d", r.Cached, r.Answer.Len())
	}
}

// TestResultCacheOversizeAnswer: an answer larger than the whole capacity
// is returned but never admitted, so it cannot wipe the cache.
func TestResultCacheOversizeAnswer(t *testing.T) {
	sys, err := load(chainProgram(6), Options{ResultCacheRows: 2})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	goal := ast.NewAtom("path", ast.C("c0"), ast.V("Y")) // 6 rows > cap 2
	for i := 0; i < 2; i++ {
		r, err := query(sys, goal)
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		if r.Cached {
			t.Fatalf("oversize answer was served from the cache")
		}
		if r.Answer.Len() != 6 {
			t.Fatalf("rows = %d, want 6", r.Answer.Len())
		}
	}
	if st := sys.ResultCacheStats(); st.Entries != 0 || st.Rows != 0 {
		t.Fatalf("oversize answer was admitted: %d entries, %d rows", st.Entries, st.Rows)
	}
}

// TestResultCacheDisabled: a negative cap turns the cache off entirely.
func TestResultCacheDisabled(t *testing.T) {
	sys, err := load(chainProgram(3), Options{ResultCacheRows: -1})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	goal := ast.NewAtom("path", ast.C("c0"), ast.V("Y"))
	for i := 0; i < 3; i++ {
		r, err := query(sys, goal)
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		if r.Cached {
			t.Fatalf("disabled cache served a hit")
		}
	}
	if st := sys.ResultCacheStats(); st.CapRows != 0 || st.Entries != 0 {
		t.Fatalf("disabled cache reports contents: %+v", st)
	}
}

// singleFlightCounts reads the single-flight counters of one kind:
// results through ResultCacheStats, magic sets off the store's slot
// (SeedCacheStats folds joins into hits).
func singleFlightCounts(sys *System, kind viewKind) (hits, misses, joins int64) {
	if kind == resultView {
		st := sys.ResultCacheStats()
		hits, misses, _ = cacheTotals(st)
		return hits, misses, st.Joins
	}
	sys.store.mu.Lock()
	defer sys.store.mu.Unlock()
	return sys.store.hits[magicSlot], sys.store.misses[magicSlot], sys.store.joins[magicSlot]
}

// TestResultCacheSingleFlight: N concurrent identical queries share one
// build — exactly one miss, with every other client either joining the
// in-flight build (joins) or hitting the completed entry (hits), and all
// answers identical.  Hits alone don't account for all N−1: only clients
// actually served a completed entry count there.  Results and magic sets
// share the one protocol; the magic row turns results off, so every
// query builds its own answer over the one shared magic set.
func TestResultCacheSingleFlight(t *testing.T) {
	var b strings.Builder
	b.WriteString("p(X,Y) :- e(X,Y).\np(X,Y) :- p(X,U), e(U,Y).\n")
	const n = 120
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "e(v%d,v%d).\n", i, i+1)
	}
	for _, tc := range []struct {
		name string
		kind viewKind
		opts Options
		goal ast.Atom
		rows int
		key  viewKey // an unused key for the deterministic join
	}{
		{"result", resultView, Options{}, ast.NewAtom("p", ast.C("v0"), ast.V("Y")), n,
			resultKey(ast.NewAtom("p", ast.C("v0"), ast.V("Y")), &planner.Plan{Kind: planner.MagicSeeded}, planner.Auto)},
		{"magic", magicView, Options{ResultCacheRows: -1}, ast.NewAtom("p", ast.C("v0"), ast.C(fmt.Sprintf("v%d", n))), 1,
			viewKey{kind: magicView, pred: "p", goal: "0=1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := load(b.String(), tc.opts)
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			if plan, _ := sys.PlanFor(tc.goal, tc.opts); tc.kind == magicView && plan.Kind != planner.MagicSeeded {
				t.Fatalf("%v plans %v, want a magic set", tc.goal, plan.Kind)
			}
			const clients = 8
			var wg sync.WaitGroup
			start := make(chan struct{})
			rows := make([]int, clients)
			errs := make([]error, clients)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					<-start
					r, err := query(sys, tc.goal)
					if err != nil {
						errs[c] = err
						return
					}
					rows[c] = r.Answer.Len()
				}(c)
			}
			close(start)
			wg.Wait()
			for c, err := range errs {
				if err != nil {
					t.Fatalf("client %d: %v", c, err)
				}
				if rows[c] != tc.rows {
					t.Fatalf("client %d: %d rows, want %d", c, rows[c], tc.rows)
				}
			}
			hits, misses, joins := singleFlightCounts(sys, tc.kind)
			if misses != 1 {
				t.Fatalf("single-flight misses = %d, want 1", misses)
			}
			if hits+joins != clients-1 {
				t.Fatalf("single-flight counters: %d hits + %d joins, want %d total", hits, joins, clients-1)
			}
			// A deterministic in-flight join: acquire the key while a build
			// is open and verify it lands in joins, not hits.
			c := sys.store
			e, build := c.acquire(tc.key, 99)
			if !build {
				t.Fatalf("fresh key on a new version should be a miss")
			}
			hits0, _, joins0 := singleFlightCounts(sys, tc.kind)
			if _, again := c.acquire(tc.key, 99); again {
				t.Fatalf("second acquire of an in-flight key must not build")
			}
			hits1, _, joins1 := singleFlightCounts(sys, tc.kind)
			if hits1 != hits0 {
				t.Fatalf("in-flight join counted as a hit")
			}
			if joins1 != joins0+1 {
				t.Fatalf("in-flight join not counted: %d, want %d", joins1, joins0+1)
			}
			c.complete(e, nil, errors.New("abandon"))
		})
	}
}

// TestResultCacheAbandonedBuild: a builder whose deadline fires mid-build
// must not poison the key — a query with a live context that joined the
// build re-builds and succeeds.  The live query starts only once the
// short-deadline build is in flight, so it is a waiter on that build.
// The magic row builds a long magic frontier (one generation per chain
// edge) with results off.
func TestResultCacheAbandonedBuild(t *testing.T) {
	var cycle, chain strings.Builder
	cycle.WriteString("p(X,Y) :- e(X,Y).\np(X,Y) :- p(X,U), e(U,Y).\n")
	const n = 600 // cycle: closure is n² tuples, far beyond a 1ms deadline
	for i := 0; i < n; i++ {
		fmt.Fprintf(&cycle, "e(v%d,v%d).\n", i, (i+1)%n)
	}
	chain.WriteString("p(X,Y) :- e(X,Y).\np(X,Y) :- e(X,Z), p(Z,Y).\n")
	const m = 5000 // chain: m frontier generations, far beyond a 1ms deadline
	for i := 0; i < m; i++ {
		fmt.Fprintf(&chain, "e(c%d,c%d).\n", i, i+1)
	}
	for _, tc := range []struct {
		name string
		kind viewKind
		src  string
		opts Options
		goal ast.Atom
		rows int
	}{
		// Unbound goal: the full n² closure, which a 1ms deadline cannot
		// finish (a bound goal would take the output-proportional magic
		// path and complete before the deadline fires).
		{"result", resultView, cycle.String(), Options{}, ast.NewAtom("p", ast.V("X"), ast.V("Y")), n * n},
		{"magic", magicView, chain.String(), Options{ResultCacheRows: -1}, ast.NewAtom("p", ast.C("c0"), ast.V("Y")), m},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := load(tc.src, tc.opts)
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			if plan, _ := sys.PlanFor(tc.goal, tc.opts); tc.kind == magicView && plan.Kind != planner.MagicSeeded {
				t.Fatalf("%v plans %v, want a magic set", tc.goal, plan.Kind)
			}
			short, cancel := context.WithTimeout(context.Background(), time.Millisecond)
			defer cancel()
			shortDone := make(chan error, 1)
			go func() {
				_, err := sys.Evaluate(short, QueryRequest{Goal: tc.goal, Opts: sys.Opts})
				shortDone <- err
			}()
			inFlight := func() bool {
				sys.store.mu.Lock()
				defer sys.store.mu.Unlock()
				return sys.store.n[tc.kind] > 0
			}
			for !inFlight() && len(shortDone) == 0 {
				runtime.Gosched()
			}
			r, slowErr := sys.Evaluate(context.Background(), QueryRequest{Goal: tc.goal, Opts: sys.Opts})
			if err := <-shortDone; err != nil && !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("short-deadline query: %v", err)
			}
			if slowErr != nil {
				t.Fatalf("live-context query failed after builder abandonment: %v", slowErr)
			}
			if slowRows := r.Answer.Len(); slowRows != tc.rows {
				t.Fatalf("live-context query rows = %d, want %d", slowRows, tc.rows)
			}
		})
	}
}

// TestSwapDuringCachedQueryRace: readers hammer one cached goal while a
// writer alternates adding and retracting the same edge.  Every
// answer must be consistent with the version the query pinned — the
// result cache must never serve rows across a version boundary.  Run
// under -race in the CI race lane.
func TestSwapDuringCachedQueryRace(t *testing.T) {
	const (
		initial = 6
		cycles  = 30 // each cycle: one add swap + one remove swap
		readers = 6
	)
	sys, err := load(chainProgram(initial), Options{Workers: 2})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	goal := ast.NewAtom("path", ast.C("c0"), ast.V("Y"))
	// Version v = 1 is the initial chain; each swap bumps by one, adds on
	// even versions, removals back on odd: rows(v) = initial + (v+1)%2.
	rowsAt := func(version uint64) int {
		if version%2 == 0 {
			return initial + 1
		}
		return initial
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
				r, err := query(sys, goal)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %v", g, err)
					return
				}
				if want := rowsAt(r.Version); r.Answer.Len() != want {
					errs <- fmt.Errorf("reader %d: torn/stale read: %d rows at version %d, want %d",
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

	// Settled state: back to the initial chain, and repeat queries hit.
	final, err := query(sys, goal)
	if err != nil {
		t.Fatalf("final query: %v", err)
	}
	if final.Answer.Len() != initial {
		t.Fatalf("final rows = %d, want %d", final.Answer.Len(), initial)
	}
	again, _ := query(sys, goal)
	if !again.Cached {
		t.Fatalf("settled repeat query should be a cache hit")
	}
}

// TestRenderedOnceAndShared: the miss that builds an entry renders
// nothing; concurrent first hits run the render function once and share
// one buffer; the cache reports the bytes it holds; a swap that changes
// the answer gives the new entry its own unrendered memo while a holder
// of the old result keeps the old bytes; an uncached result keeps no
// rendering.
func TestRenderedOnceAndShared(t *testing.T) {
	sys, err := load(chainProgram(40), Options{})
	if err != nil {
		t.Fatal(err)
	}
	goal := ast.NewAtom("path", ast.V("X"), ast.V("Y"))
	res, err := query(sys, goal)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.ResultCacheStats().RenderedBytes; got != 0 {
		t.Fatalf("an unrendered entry holds %d rendered bytes", got)
	}
	var calls atomic.Int64
	render := func(ans *rel.Relation) (buf []byte, ends []uint32) {
		calls.Add(1)
		ends = []uint32{0}
		for i := 0; i < ans.Len(); i++ {
			buf = fmt.Appendf(buf, "%d-%d;", ans.Row(i)[0], ans.Row(i)[1])
			ends = append(ends, uint32(len(buf)))
		}
		return buf, ends
	}
	if _, _, ok := res.Rendered(sys, render); ok || calls.Load() != 0 {
		t.Fatal("the miss rendered its answer")
	}
	const readers = 8
	bufs, ends := make([][]byte, readers), make([][]uint32, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			hit, err := query(sys, goal)
			if err != nil || !hit.Cached {
				t.Errorf("hit: cached=%v, %v", hit != nil && hit.Cached, err)
				return
			}
			bufs[g], ends[g], _ = hit.Rendered(sys, render)
		}(g)
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("%d renderings of one cached answer, want 1", n)
	}
	for g := 1; g < readers; g++ {
		if &ends[g][0] != &ends[0][0] || !bytes.Equal(bufs[g], bufs[0]) {
			t.Fatalf("reader %d got another rendering", g)
		}
	}
	for i := 0; i < res.Answer.Len(); i++ {
		row := res.Answer.Row(i)
		if got, want := string(bufs[0][ends[0][i]:ends[0][i+1]]), fmt.Sprintf("%d-%d;", row[0], row[1]); got != want {
			t.Fatalf("row %d rendered %q, want %q", i, got, want)
		}
	}
	if got, want := sys.ResultCacheStats().RenderedBytes, int64(cap(bufs[0])+4*cap(ends[0])); got != want {
		t.Fatalf("RenderedBytes = %d, want %d", got, want)
	}

	old := bytes.Clone(bufs[0])
	held, err := query(sys, goal)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.Apply(context.Background(), []ast.Atom{ast.NewAtom("edge", ast.C("c40"), ast.C("c41"))}, nil); err != nil {
		t.Fatal(err)
	}
	if got := sys.ResultCacheStats().RenderedBytes; got != 0 {
		t.Fatalf("the changed answer's entry holds %d rendered bytes before any rendering", got)
	}
	up, err := query(sys, goal)
	if err != nil || !up.Cached || up.Answer.Len() != res.Answer.Len()+41 {
		t.Fatalf("upgraded hit: %v", err)
	}
	if buf, e, _ := up.Rendered(sys, render); &e[0] == &ends[0][0] || len(buf) <= len(old) {
		t.Fatalf("the changed answer shares the old rendering")
	}
	if buf, _, _ := held.Rendered(sys, nil); !bytes.Equal(buf, old) {
		t.Fatalf("the old result's rendering changed under a swap")
	}

	cold, err := load(chainProgram(4), Options{ResultCacheRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	unc, err := query(cold, goal)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := unc.Rendered(cold, render); ok {
		t.Fatal("an uncached result kept a rendering")
	}
}

// fmtGoalKey and fmtAdornKey are the keys' original fmt forms, which
// Explain output and trace events show: the appending builders must
// reproduce them byte for byte.
func fmtGoalKey(q ast.Atom) string {
	var b strings.Builder
	b.WriteString(q.Pred)
	b.WriteByte('(')
	vars := map[string]int{}
	for i, t := range q.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		if t.IsVar() {
			idx, ok := vars[t.Name]
			if !ok {
				idx = len(vars)
				vars[t.Name] = idx
			}
			fmt.Fprintf(&b, "$%d", idx)
		} else {
			fmt.Fprintf(&b, "%q", t.Name)
		}
	}
	b.WriteByte(')')
	return b.String()
}

func fmtAdornKey(cols []int, vals rel.Tuple) string {
	var b strings.Builder
	for i, c := range cols {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d=%d", c, vals[i])
	}
	return b.String()
}

// TestCacheKeyBytes: the goal and magic-binding keys are built without
// fmt, in the same bytes — escaped and non-UTF-8 constants, repeated and
// multi-digit variables, multi-digit columns and values.
func TestCacheKeyBytes(t *testing.T) {
	many := make([]ast.Term, 0, 14)
	for i := 0; i < 12; i++ {
		many = append(many, ast.V(fmt.Sprintf("V%d", i)))
	}
	many = append(many, ast.V("V3"), ast.V("V11"))
	for _, tc := range []struct {
		goal ast.Atom
		want string // pinned where given
	}{
		{ast.NewAtom("p", ast.C("a"), ast.V("Y")), `p("a",$0)`},
		{ast.NewAtom("p", ast.V("X"), ast.V("Y"), ast.V("X")), `p($0,$1,$0)`},
		{ast.NewAtom("p", ast.C(`a"b`), ast.C(`back\slash`), ast.C("tab\tnl\n")), `p("a\"b","back\\slash","tab\tnl\n")`},
		{ast.NewAtom("q", ast.C("日本"), ast.C("ünï"), ast.C("\x00\x7f"), ast.C("\xff\xfe"), ast.C("")), ""},
		{ast.NewAtom("wide", many...), ""},
		{ast.NewAtom("z"), "z()"},
	} {
		got, want := normalizeGoal(tc.goal), fmtGoalKey(tc.goal)
		if got != want {
			t.Errorf("normalizeGoal(%v) = %q, fmt form %q", tc.goal, got, want)
		}
		if tc.want != "" && got != tc.want {
			t.Errorf("normalizeGoal(%v) = %q, want %q", tc.goal, got, tc.want)
		}
	}
	if got := normalizeGoal(ast.NewAtom("wide", many...)); !strings.HasSuffix(got, ",$10,$11,$3,$11)") {
		t.Errorf("multi-digit variables: %q", got)
	}
	for _, tc := range []struct {
		cols []int
		vals rel.Tuple
		want string
	}{
		{[]int{0}, rel.Tuple{0}, "0=0"},
		{[]int{1, 12}, rel.Tuple{7, 123456}, "1=7,12=123456"},
		{[]int{0, 1, 2}, rel.Tuple{2147483647, 10, 0}, "0=2147483647,1=10,2=0"},
		{nil, nil, ""},
	} {
		got := magicAdornKey(tc.cols, tc.vals)
		if want := fmtAdornKey(tc.cols, tc.vals); got != want || got != tc.want {
			t.Errorf("magicAdornKey(%v, %v) = %q, fmt form %q, want %q", tc.cols, tc.vals, got, want, tc.want)
		}
	}
}

// TestCachePanickingBuildCompletes: whatever the kind, a build that
// panics completes its entry with ErrInternal and leaves the store, so
// the next caller builds afresh instead of waiting on a build that will
// never finish.
func TestCachePanickingBuildCompletes(t *testing.T) {
	sys, err := load(chainProgram(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	version := sys.Snapshot().Version
	for _, key := range []viewKey{
		resultKey(ast.NewAtom("path", ast.V("X"), ast.V("Y")), &planner.Plan{Kind: planner.SemiNaive}, planner.Auto),
		{kind: seedView, pred: "path"},
		{kind: magicView, pred: "path", goal: "0=1"},
	} {
		t.Run(viewNames[key.kind], func(t *testing.T) {
			func() {
				defer func() { _ = recover() }() // a panic the build did not recover
				_, _, err = sys.view(context.Background(), key, version, func() (*QueryResult, error) { panic("invariant") })
			}()
			if !errors.Is(err, ErrInternal) {
				t.Errorf("panicking build returned %v, want ErrInternal", err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			want := &QueryResult{Answer: rel.NewRelation(2)}
			got, cached, err := sys.view(ctx, key, version, func() (*QueryResult, error) { return want, nil })
			if err != nil || cached || got != want {
				t.Fatalf("next caller: cached=%v err=%v, want its own build", cached, err)
			}
		})
	}
}

// TestSeedCacheSurvivesDisabledResults: a negative ResultCacheRows turns
// off result entries only; repeated queries still share one exit-rule
// seed and one magic set per binding.
func TestSeedCacheSurvivesDisabledResults(t *testing.T) {
	src := strings.Replace(chainProgram(4), "path(X,Y) :- edge(X,Y).", "path(X,Y) :- edge(X,Y), node(X).", 1) +
		"node(c0). node(c1). node(c2). node(c3).\n"
	sys, err := load(src, Options{ResultCacheRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	open, bound := ast.NewAtom("path", ast.V("X"), ast.V("Y")), ast.NewAtom("path", ast.C("c0"), ast.V("Y"))
	if plan, _ := sys.PlanFor(bound, sys.Opts); plan.Kind != planner.MagicSeeded {
		t.Fatalf("%v plans %v, want a magic set", bound, plan.Kind)
	}
	for i := 0; i < 2; i++ {
		for _, goal := range []ast.Atom{open, bound} {
			if r, err := query(sys, goal); err != nil || r.Cached {
				t.Fatalf("%v: cached=%v, %v", goal, r != nil && r.Cached, err)
			}
		}
	}
	st := sys.SeedCacheStatsNow()
	if st.SeedEntries != 1 || st.SeedHits < 1 || st.MagicEntries != 1 || st.MagicHits < 1 {
		t.Fatalf("seed cache with results off: %+v, want one hit seed and one hit magic set", st)
	}
	if rs := sys.ResultCacheStats(); rs.Entries != 0 {
		t.Fatalf("results off but %d entries", rs.Entries)
	}
}

// TestCachedAnswerTakesThePlan: the probe uses the plan PlanFor chose at
// the request's worker count to find the entry built at its grant, and a
// goal naming an unknown constant misses.
func TestCachedAnswerTakesThePlan(t *testing.T) {
	sys, err := load(chainProgram(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	wide := Options{Workers: 4}
	for _, src := range []string{"path(c0, Y)", "path(X, Y)", "path(c0, c3)", "path(X, c2)"} {
		goal := mustAtom(t, src)
		plan, err := sys.PlanFor(goal, wide)
		if err != nil {
			t.Fatal(err)
		}
		grant := wide
		grant.Workers = max(plan.Workers, 1)
		if at, _ := sys.PlanFor(goal, grant); at.Kind != plan.Kind {
			t.Fatalf("%s: kind %v at %d workers, %v at %d", src, plan.Kind, wide.Workers, at.Kind, grant.Workers)
		}
		if _, ok := sys.CachedAnswer(sys.Snapshot(), goal, plan, grant); ok {
			t.Fatalf("%s: cold probe hit", src)
		}
		res, err := sys.Evaluate(context.Background(), QueryRequest{Goal: goal, Opts: grant})
		if err != nil {
			t.Fatal(err)
		}
		hit, ok := sys.CachedAnswer(sys.Snapshot(), goal, plan, grant)
		if !ok || !hit.Cached || hit.Answer != res.Answer || hit.Plan != res.Plan {
			t.Fatalf("%s: probe after the build: ok=%v", src, ok)
		}
	}
	unknown := mustAtom(t, "path(nowhere, Y)")
	if r, err := query(sys, unknown); err != nil || r.Answer.Len() != 0 {
		t.Fatalf("unknown constant: %v", err)
	}
	plan, err := sys.PlanFor(unknown, wide)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sys.CachedAnswer(sys.Snapshot(), unknown, plan, wide); ok {
		t.Fatal("a goal naming an unknown constant hit")
	}
}

// TestResultCacheOneEntryPerSequentialAnswer: a context-mode magic goal
// runs on one worker whatever the budget, so asking it at four workers
// and then at one fills one entry and hits it.  A parallelizable goal
// still gets one entry per pool, because its Why names the pool, but a
// pool of 0 and a pool of 1 are one sequential pool.
func TestResultCacheOneEntryPerSequentialAnswer(t *testing.T) {
	// Right-recursive, so a bound first column is collected in context
	// mode.
	sys, err := load(strings.Replace(chainProgram(4), "path(X,U), edge(U,Y)", "edge(X,U), path(U,Y)", 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bound := mustAtom(t, "path(c0, Y)")
	if plan, err := sys.PlanFor(bound, Options{Workers: 4}); err != nil || plan.Magic == nil || plan.Magic.Mode != planner.MagicContext || plan.Workers != 1 {
		t.Fatalf("%v plans %+v (%v), want a context-mode magic plan on one worker", bound, plan, err)
	}
	wide, err := sys.Evaluate(ctx, QueryRequest{Goal: bound, Opts: Options{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	one, err := sys.Evaluate(ctx, QueryRequest{Goal: bound, Opts: Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if wide.Cached || !one.Cached || one.Answer != wide.Answer {
		t.Fatalf("at 4 workers cached=%v, then at 1 cached=%v: want a miss, then a hit on its entry", wide.Cached, one.Cached)
	}
	if n := sys.ResultCacheStats().Entries; n != 1 {
		t.Fatalf("%d result entries after one sequential answer, want 1", n)
	}
	full := mustAtom(t, "path(X, Y)")
	whys := map[string]bool{}
	for _, w := range []int{4, 1} {
		res, err := sys.Evaluate(ctx, QueryRequest{Goal: full, Opts: Options{Workers: w}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached {
			t.Fatalf("%v at %d workers hit another pool's entry", full, w)
		}
		whys[res.Plan.Why] = true
	}
	if n := sys.ResultCacheStats().Entries; n != 3 || len(whys) != 2 {
		t.Fatalf("%d result entries, %d distinct rationales, want 3 and 2", n, len(whys))
	}
	// A pool of 0 (the library default) runs the same sequential plan as
	// a pool of 1 (the server's smallest grant): it hits that entry, and
	// its explanation names it.
	zero, err := sys.Evaluate(ctx, QueryRequest{Goal: full})
	if err != nil {
		t.Fatal(err)
	}
	if !zero.Cached {
		t.Fatalf("%v at 0 workers missed the entry filled at 1", full)
	}
	if n := sys.ResultCacheStats().Entries; n != 3 {
		t.Fatalf("%d result entries after the 0-worker hit, want 3", n)
	}
	ex0, err := sys.Explain(full, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ex1, err := sys.Explain(full, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ex0.CacheKey != ex1.CacheKey {
		t.Fatalf("cache keys at 0 and 1 workers differ: %q vs %q", ex0.CacheKey, ex1.CacheKey)
	}
}

// TestResultCacheBuildPipelines: Evaluate's single-flight build drains
// the opened plan, so at two workers a wide closure pipelines each wide
// round's merge with the next round's join, as eval's own drain does.
func TestResultCacheBuildPipelines(t *testing.T) {
	var b strings.Builder
	b.WriteString("path(X,Y) :- edge(X,Y).\npath(X,Y) :- path(X,U), edge(U,Y).\n")
	const chains, length = 1200, 4
	for j := 0; j < chains; j++ {
		for i := 0; i < length; i++ {
			fmt.Fprintf(&b, "edge(n%d_%d,n%d_%d).\n", i, j, i+1, j)
		}
	}
	sys, err := load(b.String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := &eval.Tracer{}
	res, err := sys.Evaluate(eval.WithTracer(context.Background(), tr), QueryRequest{Goal: mustAtom(t, "path(X, Y)"), Opts: Options{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if want := chains * length * (length + 1) / 2; res.Answer.Len() != want {
		t.Fatalf("%d rows, want %d", res.Answer.Len(), want)
	}
	for _, ph := range tr.Trace().Phases {
		for _, rd := range ph.Rounds {
			if rd.Pipelined {
				return
			}
		}
	}
	t.Fatalf("no pipelined round in %+v", tr.Trace().Phases)
}
