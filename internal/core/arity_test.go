package core

import (
	"errors"
	"testing"

	"linrec/internal/ast"
	"linrec/internal/rel"
)

// factlessProgram references link/2 in rules but ships no link facts, so
// no snapshot holds a link relation to check fact arity against.
const factlessProgram = `
path(X,Y) :- link(X,Y).
path(X,Y) :- link(X,Z), path(Z,Y).
`

// TestAddFactsRejectsWrongArityForFactlessPredicate: the arity of a
// rule-referenced EDB predicate is fixed by the program even when no
// snapshot has a relation for it yet; a wrong-arity fact must be
// rejected up front, not accepted and left to panic the next query's
// join (which would run inside a bare goroutine and kill the process).
func TestAddFactsRejectsWrongArityForFactlessPredicate(t *testing.T) {
	sys, err := Load(factlessProgram)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	v := sys.Snapshot().Version
	bad := ast.NewAtom("link", ast.C("a"), ast.C("b"), ast.C("c"))
	if _, _, err := sys.AddFacts([]ast.Atom{bad}); err == nil {
		t.Fatalf("arity-3 fact for rule-declared link/2 accepted")
	}
	if got := sys.Snapshot().Version; got != v {
		t.Fatalf("rejected update bumped the version: %d -> %d", v, got)
	}

	// The query that would have crashed the engine now runs clean.
	goal := ast.NewAtom("path", ast.C("a"), ast.V("Y"))
	r, err := sys.Query(goal)
	if err != nil {
		t.Fatalf("Query on factless predicate: %v", err)
	}
	if r.Answer.Len() != 0 {
		t.Fatalf("query over empty link answered %d rows", r.Answer.Len())
	}

	// Correct-arity facts for the same predicate are still accepted.
	good := []ast.Atom{
		ast.NewAtom("link", ast.C("a"), ast.C("b")),
		ast.NewAtom("link", ast.C("b"), ast.C("c")),
	}
	if _, _, err := sys.AddFacts(good); err != nil {
		t.Fatalf("AddFacts: %v", err)
	}
	r, err = sys.Query(goal)
	if err != nil {
		t.Fatalf("Query after swap: %v", err)
	}
	if r.Answer.Len() != 2 {
		t.Fatalf("answer = %d rows, want 2", r.Answer.Len())
	}
}

// TestLoadRejectsInconsistentArity: a program using one predicate at two
// arities fails at load with a diagnostic instead of panicking mid-query.
func TestLoadRejectsInconsistentArity(t *testing.T) {
	for _, src := range []string{
		"p(X) :- e(X), e(X,Y).",          // conflict between body atoms
		"p(X) :- e(X).\nq(Y) :- e(Y,Y).", // conflict across rules
		"p(X) :- e(X).\ne(a,b).",         // conflict between rule and fact
	} {
		if _, err := Load(src); err == nil {
			t.Errorf("program %q loaded despite inconsistent arity", src)
		}
	}
}

// corruptedSystem loads a two-EDB transitive closure and then replaces
// one EDB relation with an empty arity-3 one, bypassing AddFacts — the
// documented pre-share mutation window — to simulate an engine invariant
// violation that validation cannot reach.
func corruptedSystem(t *testing.T, pred string, opts Options) *System {
	t.Helper()
	sys, err := LoadOptions(`
path(X,Y) :- base(X,Y).
path(X,Y) :- edge(X,Z), path(Z,Y).
base(a,b). edge(b,c). edge(c,d).
`, opts)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	sys.DB()[pred] = rel.NewRelation(3)
	return sys
}

// TestEvaluationPanicRecoveredToError: an arity panic raised inside the
// detached seed-build goroutine, a parallel closure worker, or the
// sequential path comes back from Evaluate as an error wrapping
// ErrInternal — never as a process-killing panic in a bare goroutine.
func TestEvaluationPanicRecoveredToError(t *testing.T) {
	open := ast.NewAtom("path", ast.V("X"), ast.V("Y"))
	cases := []struct {
		name    string
		corrupt string
		opts    Options
	}{
		{"seed goroutine", "base", Options{}},
		{"parallel workers", "edge", Options{Workers: 4}},
		{"sequential", "edge", Options{Workers: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := corruptedSystem(t, tc.corrupt, tc.opts)
			_, err := sys.Query(open)
			if err == nil {
				t.Fatalf("query over corrupted %q relation succeeded", tc.corrupt)
			}
			if !errors.Is(err, ErrInternal) {
				t.Fatalf("error does not wrap ErrInternal: %v", err)
			}
		})
	}
}
