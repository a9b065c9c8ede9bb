package core

import (
	"context"
	"testing"

	"linrec/internal/ast"
	"linrec/internal/eval"
)

// hasCacheEvent reports whether the trace recorded the given cache
// decision.
func hasCacheEvent(tr *eval.Trace, cache, event string) bool {
	for _, ev := range tr.CacheEvents {
		if ev.Cache == cache && ev.Event == event {
			return true
		}
	}
	return false
}

// phaseSumsMatch checks BaseRows + SeedRows + Σ NewRows == TotalRows on
// every phase.
func phaseSumsMatch(t *testing.T, tr *eval.Trace) {
	t.Helper()
	for _, ph := range tr.Phases {
		sum := ph.BaseRows + ph.SeedRows
		for _, rd := range ph.Rounds {
			sum += rd.NewRows
		}
		if sum != ph.TotalRows {
			t.Fatalf("phase %q: accounted %d rows, total %d", ph.Name, sum, ph.TotalRows)
		}
	}
}

func TestQueryTraceCacheEvents(t *testing.T) {
	sys, err := load(tcProgram, Options{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	goal := ast.NewAtom("path", ast.V("X"), ast.V("Y"))

	// Cold query: a result-cache miss plus at least one evaluation phase
	// whose row accounting closes.
	tr1 := &eval.Tracer{}
	res1, err := sys.Evaluate(eval.WithTracer(context.Background(), tr1), QueryRequest{Goal: goal, Snap: sys.Snapshot(), Opts: sys.Opts})
	if err != nil {
		t.Fatalf("cold query: %v", err)
	}
	trace1 := tr1.Trace()
	if !hasCacheEvent(trace1, "result", "miss") {
		t.Fatalf("cold query events = %+v, want a result miss", trace1.CacheEvents)
	}
	if len(trace1.Phases) == 0 {
		t.Fatalf("cold query recorded no phases")
	}
	phaseSumsMatch(t, trace1)
	last := trace1.Phases[len(trace1.Phases)-1]
	if last.TotalRows != res1.Answer.Len() {
		t.Fatalf("final phase total %d rows, answer has %d", last.TotalRows, res1.Answer.Len())
	}

	// Warm repeat: a result-cache hit, no evaluation phases.
	tr2 := &eval.Tracer{}
	res2, err := sys.Evaluate(eval.WithTracer(context.Background(), tr2), QueryRequest{Goal: goal, Snap: sys.Snapshot(), Opts: sys.Opts})
	if err != nil {
		t.Fatalf("warm query: %v", err)
	}
	if !res2.Cached {
		t.Fatalf("repeat query not served from the result cache")
	}
	trace2 := tr2.Trace()
	if !hasCacheEvent(trace2, "result", "hit") {
		t.Fatalf("warm query events = %+v, want a result hit", trace2.CacheEvents)
	}
	if len(trace2.Phases) != 0 {
		t.Fatalf("warm query recorded %d phases, want 0", len(trace2.Phases))
	}
}

func TestMaintenanceTraceEvents(t *testing.T) {
	sys, err := load(tcProgram, Options{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	goal := ast.NewAtom("path", ast.V("X"), ast.V("Y"))
	if _, err := query(sys, goal); err != nil {
		t.Fatalf("warm query: %v", err)
	}

	// The swap must touch the cached closure: either an in-place upgrade
	// (with a resume phase on the trace) or a purge.
	tr := &eval.Tracer{}
	ctx := eval.WithTracer(context.Background(), tr)
	_, added, m, err := sys.AddFactsMaintCtx(ctx, []ast.Atom{ast.NewAtom("up", ast.C("d"), ast.C("e"))})
	if err != nil {
		t.Fatalf("AddFactsMaintCtx: %v", err)
	}
	if added != 1 {
		t.Fatalf("added = %d, want 1", added)
	}
	trace := tr.Trace()
	upgraded := hasCacheEvent(trace, "result", "upgrade")
	purged := hasCacheEvent(trace, "result", "purge")
	if !upgraded && !purged {
		t.Fatalf("maintenance events = %+v, want a result upgrade or purge", trace.CacheEvents)
	}
	if upgraded != (m.ResultsUpgraded > 0) || purged != (m.ResultsPurged > 0) {
		t.Fatalf("events %+v disagree with maintenance summary %+v", trace.CacheEvents, m)
	}
	if m.ResultsUpgraded > 0 {
		found := false
		for _, ph := range trace.Phases {
			if ph.Name == "resume" {
				found = true
				if ph.BaseRows == 0 {
					t.Fatalf("resume phase started from zero base rows")
				}
			}
		}
		if !found {
			t.Fatalf("upgrade reported but no resume phase traced: %+v", trace.Phases)
		}
		phaseSumsMatch(t, trace)
	}

	// The maintained answer must be correct: e is now reachable.
	res, err := query(sys, ast.NewAtom("path", ast.C("a"), ast.C("e")))
	if err != nil {
		t.Fatalf("post-swap query: %v", err)
	}
	if res.Answer.Len() != 1 {
		t.Fatalf("path(a,e) after swap = %d rows, want 1", res.Answer.Len())
	}
}
