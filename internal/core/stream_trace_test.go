package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"linrec/internal/eval"
	"linrec/internal/planner"
)

// chainSystem loads a linear chain v0→v1→…→v(n-1): the closure of
// p(v0, Y) gains exactly one answer per semi-naive round, so the round
// that produced the k-th answer is round k-1 — the golden number the
// early-termination trace must stop at.
func chainSystem(t *testing.T, n int) *System {
	t.Helper()
	var b strings.Builder
	b.WriteString("p(X,Y) :- e(X,Y).\np(X,Y) :- p(X,Z), e(Z,Y).\n")
	for i := 0; i < n-1; i++ {
		fmt.Fprintf(&b, "e(v%d,v%d).\n", i, i+1)
	}
	sys, err := load(b.String(), Options{})
	if err != nil {
		t.Fatalf("load chain: %v", err)
	}
	return sys
}

// TestStreamGoldenTraceEarlyTermination: a limit-k stream's trace shows
// one closure phase that stops at the round that produced the k-th
// answer — no later rounds, no further phases — at one and four
// workers.  The unbounded stream on the same goal proves the fixpoint
// genuinely had more rounds to run.
func TestStreamGoldenTraceEarlyTermination(t *testing.T) {
	const (
		n = 60 // full fixpoint: n-2 rounds past the seed
		k = 5  // k-th answer arrives in round k-1
	)
	sys := chainSystem(t, n)
	snap := sys.Snapshot()
	goal := mustAtom(t, "p(v0, Y)")
	// ForceSemiNaive keeps the goal's constant a per-row post-filter on a
	// plain closure, the shape whose round count is exactly predictable.
	opts := Options{Strategy: planner.ForceSemiNaive}

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			o := opts
			o.Workers = workers

			tr := &eval.Tracer{}
			ctx := eval.WithTracer(context.Background(), tr)
			st, err := sys.Stream(ctx, QueryRequest{Goal: goal, Snap: snap, Opts: o, Limit: k})
			if err != nil {
				t.Fatalf("open stream: %v", err)
			}
			got := 0
			for {
				if _, ok := st.Next(); !ok {
					break
				}
				got++
			}
			if st.Err() != nil {
				t.Fatalf("stream errored: %v", st.Err())
			}
			st.Close()
			if got != k {
				t.Fatalf("yielded %d rows, want %d", got, k)
			}
			if !st.EarlyTerminated() {
				t.Fatal("stream did not report early termination")
			}

			trace := tr.Trace()
			if len(trace.Phases) != 1 {
				names := make([]string, len(trace.Phases))
				for i, p := range trace.Phases {
					names[i] = p.Name
				}
				t.Fatalf("trace has %d phases %v, want exactly one closure phase", len(trace.Phases), names)
			}
			ph := trace.Phases[0]
			if ph.Name != "semi-naive" {
				t.Fatalf("phase name %q, want semi-naive", ph.Name)
			}
			if len(ph.Rounds) != k-1 {
				t.Fatalf("closure ran %d rounds, want %d (the round producing the k-th answer)", len(ph.Rounds), k-1)
			}
			// The phase closed at the rows materialized when the stream
			// stopped: seed + one chain suffix per round, nowhere near the
			// full fixpoint.
			if ph.TotalRows == 0 || ph.TotalRows >= (n-1)*(n-2)/2 {
				t.Fatalf("phase TotalRows = %d; expected a small early-terminated prefix", ph.TotalRows)
			}

			// Baseline on the same goal, unbounded, fresh tracer: the full
			// fixpoint runs many more rounds, proving the limit cut real work.
			tr2 := &eval.Tracer{}
			ctx2 := eval.WithTracer(context.Background(), tr2)
			st2, err := sys.Stream(ctx2, QueryRequest{Goal: goal, Snap: snap, Opts: o})
			if err != nil {
				t.Fatalf("open unbounded stream: %v", err)
			}
			full := 0
			for {
				if _, ok := st2.Next(); !ok {
					break
				}
				full++
			}
			st2.Close()
			if st2.Cached() {
				t.Fatal("unbounded stream unexpectedly served from cache; the limited run must not have populated it")
			}
			if full != n-1 {
				t.Fatalf("unbounded stream yielded %d rows, want %d", full, n-1)
			}
			ph2 := tr2.Trace().Phases[0]
			if len(ph2.Rounds) <= len(ph.Rounds)+10 {
				t.Fatalf("full fixpoint ran %d rounds vs %d limited; the early exit saved too little to be meaningful",
					len(ph2.Rounds), len(ph.Rounds))
			}
		})
	}
}
