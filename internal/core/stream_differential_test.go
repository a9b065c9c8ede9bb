package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"linrec/internal/planner"
)

// drainStream pulls every row from st, rendered and sorted with the same
// comparator QueryResult.Rows uses, so streamed output is directly
// comparable to a materialized answer.
func drainStream(t *testing.T, st *QueryStream) [][]string {
	t.Helper()
	var rows [][]string
	for {
		tup, ok := st.Next()
		if !ok {
			break
		}
		rows = append(rows, st.RenderRow(tup))
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return rows
}

// TestStreamDifferential is the streaming correctness harness: across
// hundreds of generated (program, goal) pairs spanning the plan kinds,
// the streamed row multiset must be bit-for-bit the materialized
// Evaluate answer at one and at four workers, and every limit-k stream
// must yield exactly min(k, |answer|) distinct rows of the full answer.
func TestStreamDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(662607))
	const wantCases = 200
	var cases, semiNaive, magicFilter, magicContext, otherPlans, nonEmpty, limitedEval int
	ctx := context.Background()

	for attempt := 0; attempt < 3000; attempt++ {
		if cases >= wantCases && semiNaive >= 40 && magicFilter >= 25 && magicContext >= 25 && nonEmpty >= 50 {
			break
		}
		src := genMagicProgram(rng)
		sys, err := load(src, Options{})
		if err != nil {
			t.Fatalf("attempt %d: load:\n%s\n%v", attempt, src, err)
		}
		snap := sys.Snapshot()
		var goalSrc string
		switch rng.Intn(3) {
		case 0:
			goalSrc = "p(X, Y)"
		case 1:
			if rng.Intn(2) == 0 {
				goalSrc = fmt.Sprintf("p(c%d, Y)", rng.Intn(8))
			} else {
				goalSrc = fmt.Sprintf("p(X, c%d)", rng.Intn(8))
			}
		default:
			goalSrc = fmt.Sprintf("p(c%d, c%d)", rng.Intn(8), rng.Intn(8))
		}
		goal := mustAtom(t, goalSrc)

		base, err := sys.Evaluate(ctx, QueryRequest{Goal: goal, Snap: snap, Opts: Options{Strategy: planner.ForceSemiNaive}})
		if err != nil {
			t.Fatalf("attempt %d: baseline %s:\n%s\n%v", attempt, goalSrc, src, err)
		}
		wantRows := base.Rows(sys)
		wantSet := make(map[string]bool, len(wantRows))
		for _, r := range wantRows {
			wantSet[strings.Join(r, "\x00")] = true
		}
		k := 1 + rng.Intn(3)

		for _, workers := range []int{1, 4} {
			opts := Options{Workers: workers}

			// Limited stream first: its key has seen no populate yet, so a
			// closure-shaped plan genuinely evaluates under the limit.
			lst, err := sys.Stream(ctx, QueryRequest{Goal: goal, Snap: snap, Opts: opts, Limit: k})
			if err != nil {
				t.Fatalf("attempt %d: limit stream %s workers=%d:\n%s\n%v", attempt, goalSrc, workers, src, err)
			}
			limited := drainStream(t, lst)
			if lst.Err() != nil {
				t.Fatalf("attempt %d: limit stream %s workers=%d errored: %v", attempt, goalSrc, workers, lst.Err())
			}
			wantN := k
			if len(wantRows) < k {
				wantN = len(wantRows)
			}
			if len(limited) != wantN {
				t.Fatalf("attempt %d: limit=%d stream %s workers=%d yielded %d rows, want %d\nprogram:\n%s",
					attempt, k, goalSrc, workers, len(limited), wantN, src)
			}
			seen := map[string]bool{}
			for _, r := range limited {
				key := strings.Join(r, "\x00")
				if !wantSet[key] {
					t.Fatalf("attempt %d: limit stream %s workers=%d yielded %v, not in the full answer\nprogram:\n%s",
						attempt, goalSrc, workers, r, src)
				}
				if seen[key] {
					t.Fatalf("attempt %d: limit stream %s workers=%d yielded duplicate %v", attempt, goalSrc, workers, r)
				}
				seen[key] = true
			}
			if early := lst.EarlyTerminated(); early != (len(wantRows) >= k) {
				t.Fatalf("attempt %d: limit stream %s workers=%d EarlyTerminated=%v with %d/%d answer rows",
					attempt, goalSrc, workers, early, len(wantRows), k)
			}
			lst.Close()
			liveClosure := lst.Plan().Kind == planner.SemiNaive || lst.Plan().Kind == planner.Decomposed ||
				(lst.Plan().Kind == planner.MagicSeeded && lst.Plan().Magic != nil && lst.Plan().Magic.Mode == planner.MagicFilter)
			if !lst.Cached() && liveClosure {
				limitedEval++
			}

			// Unbounded stream: the full multiset, bit for bit.
			st, err := sys.Stream(ctx, QueryRequest{Goal: goal, Snap: snap, Opts: opts})
			if err != nil {
				t.Fatalf("attempt %d: stream %s workers=%d:\n%s\n%v", attempt, goalSrc, workers, src, err)
			}
			got := drainStream(t, st)
			if st.Err() != nil {
				t.Fatalf("attempt %d: stream %s workers=%d errored: %v", attempt, goalSrc, workers, st.Err())
			}
			if len(got) == 0 {
				got = nil
			}
			if len(wantRows) == 0 {
				if got != nil {
					t.Fatalf("attempt %d: stream %s workers=%d yielded %d rows for an empty answer", attempt, goalSrc, workers, len(got))
				}
			} else if !reflect.DeepEqual(got, wantRows) {
				t.Fatalf("attempt %d: stream %s workers=%d diverges under plan %v (%s)\nprogram:\n%s\nwant %v\ngot  %v",
					attempt, goalSrc, workers, st.Plan().Kind, st.Plan().Why, src, wantRows, got)
			}
			st.Close()

			if workers == 1 {
				cases++
				switch {
				case st.Plan().Kind == planner.SemiNaive:
					semiNaive++
				case st.Plan().Kind == planner.MagicSeeded && st.Plan().Magic != nil && st.Plan().Magic.Mode == planner.MagicFilter:
					magicFilter++
				case st.Plan().Kind == planner.MagicSeeded:
					magicContext++
				default:
					otherPlans++
				}
			}
		}

		// The unbounded stream populated the result cache at exhaustion (or
		// the materialized path did at construction); a repeat stream must
		// serve the identical rows from the completed entry.  Goals with an
		// unknown constant short-circuit without a cache entry, so the
		// cached assertion only applies to goals with actual rows.
		if len(wantRows) > 0 {
			cst, err := sys.Stream(ctx, QueryRequest{Goal: goal, Snap: snap, Opts: Options{Workers: 1}})
			if err != nil {
				t.Fatalf("attempt %d: cached stream %s:\n%s\n%v", attempt, goalSrc, src, err)
			}
			cgot := drainStream(t, cst)
			if !reflect.DeepEqual(cgot, wantRows) {
				t.Fatalf("attempt %d: cached stream %s diverges (cached=%v)\nwant %v\ngot  %v",
					attempt, goalSrc, cst.Cached(), wantRows, cgot)
			}
			if !cst.Cached() {
				t.Fatalf("attempt %d: repeat stream for %s not served from the result cache (plan %v)", attempt, goalSrc, cst.Plan().Kind)
			}
			cst.Close()
			nonEmpty++
		}
	}
	t.Logf("stream cases: %d (semi-naive: %d, magic-filter: %d, magic-context: %d, other plans: %d, non-empty: %d, limited closure evals: %d)",
		cases, semiNaive, magicFilter, magicContext, otherPlans, nonEmpty, limitedEval)
	if cases < wantCases {
		t.Fatalf("only %d stream cases compared, want ≥ %d", cases, wantCases)
	}
	if semiNaive < 40 || magicFilter < 25 || magicContext < 25 {
		t.Fatalf("plan coverage too thin: %d semi-naive / %d magic-filter / %d magic-context", semiNaive, magicFilter, magicContext)
	}
	if nonEmpty < 50 {
		t.Fatalf("only %d cases had non-empty answers; the harness is not exercising evaluation", nonEmpty)
	}
	if limitedEval < 40 {
		t.Fatalf("only %d limited streams evaluated a live closure; the limit path is under-exercised", limitedEval)
	}
}

// TestStreamDecomposedDirected pins the decomposed streaming path: on a
// decomposable pair the forced plan must stream the final group's
// closure and agree with the flat baseline at one and four workers,
// bounded and unbounded.
func TestStreamDecomposedDirected(t *testing.T) {
	src := `p(X,Y) :- b(X,Y).
p(X,Y) :- e1(X,Z), p(Z,Y).
p(X,Y) :- p(X,Z), e2(Z,Y).
b(a1,a2). b(a3,a4).
e1(a1,a2). e1(a2,a3). e1(a4,a1).
e2(a2,a3). e2(a3,a4). e2(a4,a2).
`
	sys, err := load(src, Options{})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	ctx := context.Background()
	snap := sys.Snapshot()
	goal := mustAtom(t, "p(X, Y)")

	base, err := sys.Evaluate(ctx, QueryRequest{Goal: goal, Snap: snap, Opts: Options{Strategy: planner.ForceSemiNaive}})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	wantRows := base.Rows(sys)
	if len(wantRows) == 0 {
		t.Fatal("premise drifted: empty baseline answer")
	}

	for _, workers := range []int{1, 4} {
		opts := Options{Workers: workers, Strategy: planner.ForceDecomposed}
		st, err := sys.Stream(ctx, QueryRequest{Goal: goal, Snap: snap, Opts: opts})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if st.Plan().Kind != planner.Decomposed {
			t.Fatalf("workers=%d: plan = %v (%s), want Decomposed", workers, st.Plan().Kind, st.Plan().Why)
		}
		got := drainStream(t, st)
		if st.Err() != nil {
			t.Fatalf("workers=%d: stream errored: %v", workers, st.Err())
		}
		if !reflect.DeepEqual(got, wantRows) {
			t.Fatalf("workers=%d: decomposed stream diverges\nwant %v\ngot  %v", workers, got, wantRows)
		}
		st.Close()
	}

	// limit=1 on a fresh system (no cache entry): one row, in the answer.
	sys2, err := load(src, Options{})
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	snap2 := sys2.Snapshot()
	lst, err := sys2.Stream(ctx, QueryRequest{Goal: goal, Snap: snap2, Opts: Options{Strategy: planner.ForceDecomposed}, Limit: 1})
	if err != nil {
		t.Fatalf("limit stream: %v", err)
	}
	rows := drainStream(t, lst)
	if len(rows) != 1 || !lst.EarlyTerminated() {
		t.Fatalf("limit=1 decomposed stream: %d rows, early=%v", len(rows), lst.EarlyTerminated())
	}
	lst.Close()
}
