package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"linrec/internal/ast"
	"linrec/internal/parser"
	"linrec/internal/planner"
)

// load parses src and builds a System over it.
func load(src string, opts Options) (*System, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return NewSystem(prog, opts)
}

// query answers q on the current snapshot under the system's options.
func query(sys *System, q ast.Atom) (*QueryResult, error) {
	return sys.Evaluate(context.Background(), QueryRequest{Goal: q, Opts: sys.Opts})
}

const tcProgram = `
path(X,Y) :- up(X,Y).
path(X,Y) :- path(X,Z), up(Z,Y).
path(X,Y) :- down(X,Z), path(Z,Y).
up(a,b). up(b,c). up(c,d).
down(b,a). down(c,b).
?- path(a, Y).
?- path(X, d).
?- path(a, d).
`

func TestLoadAndRun(t *testing.T) {
	sys, err := load(tcProgram, Options{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	results, err := sys.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	// Query 1: path(a, Y) — separable plan expected (selection on col 0).
	if results[0].Plan.Kind != planner.Separable {
		t.Fatalf("query 1 plan = %v, want separable", results[0].Plan.Kind)
	}
	rows := results[0].Rows(sys)
	if len(rows) == 0 {
		t.Fatalf("path(a, Y) returned nothing")
	}
	for _, r := range rows {
		if r[0] != "a" {
			t.Fatalf("selection violated: %v", r)
		}
	}
	// Query 3: fully ground — answer must be exactly path(a,d).
	rows3 := results[2].Rows(sys)
	if len(rows3) != 1 || rows3[0][0] != "a" || rows3[0][1] != "d" {
		t.Fatalf("path(a,d) = %v", rows3)
	}
}

func TestGroundQueriesAgreeWithOpenOnes(t *testing.T) {
	sys, err := load(tcProgram, Options{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	open, err := query(sys, ast.NewAtom("path", ast.V("X"), ast.V("Y")))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if open.Plan.Kind != planner.Decomposed {
		t.Fatalf("open query plan = %v, want decomposed", open.Plan.Kind)
	}
	sel, err := query(sys, ast.NewAtom("path", ast.C("a"), ast.V("Y")))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	// Every selected answer appears in the full closure.
	for _, row := range sel.Answer.Tuples() {
		if !open.Answer.Has(row) {
			t.Fatalf("selected tuple %v missing from full closure", row)
		}
	}
	// Counting check: full closure restricted to a = selection answer.
	count := 0
	a, _ := sys.Engine.Syms.Lookup("a")
	for _, row := range open.Answer.Tuples() {
		if row[0] == a {
			count++
		}
	}
	if count != sel.Answer.Len() {
		t.Fatalf("selection lost tuples: %d vs %d", sel.Answer.Len(), count)
	}
}

func TestQueryArityMismatch(t *testing.T) {
	sys, _ := load(tcProgram, Options{})
	if _, err := query(sys, ast.NewAtom("path", ast.V("X"))); err == nil {
		t.Fatalf("arity mismatch should error")
	}
}

func TestReport(t *testing.T) {
	sys, _ := load(tcProgram, Options{})
	rep, err := sys.Report()
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	for _, want := range []string{"path", "commute", "separable: true", "decomposed"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestAnalyzeCached(t *testing.T) {
	sys, _ := load(tcProgram, Options{})
	a1, err := sys.Analyze("path")
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	a2, _ := sys.Analyze("path")
	if a1 != a2 {
		t.Fatalf("analysis not cached")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := load("p(X,Y) :-", Options{}); err == nil {
		t.Fatalf("syntax error should propagate")
	}
}

// TestMultiConstantQueryUsesNArySeparable: a query with two constants on
// commuting operators runs the Section 4.1 n-ary decomposition and returns
// the same answer as the filtered full closure.  The third rule rewrites
// the unbound column, so no context-mode frontier covers the goal and the
// n-ary assignment is the plan.
func TestMultiConstantQueryUsesNArySeparable(t *testing.T) {
	sys, err := load(`
p(X,Y,Z) :- s0(X,Y,Z).
p(X,Y,Z) :- p(U,Y,Z), q(X,U).
p(X,Y,Z) :- p(X,U,Z), r(Y,U).
p(X,Y,Z) :- p(X,Y,U), s(Z,U).
s0(v0,v0,v0). q(v1,v0). q(v2,v1). q(v3,v1). r(v4,v0). r(v5,v4). s(v6,v0). s(v7,v6).
`, Options{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	bound, err := query(sys, ast.NewAtom("p", ast.C("v1"), ast.C("v4"), ast.V("Z")))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if bound.Plan.Kind != planner.Separable || !strings.Contains(bound.Plan.Why, "n-ary") {
		t.Fatalf("plan = %v (%s), want the n-ary separable decomposition", bound.Plan.Kind, bound.Plan.Why)
	}
	open, err := query(sys, ast.NewAtom("p", ast.V("X"), ast.V("Y"), ast.V("Z")))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	count := 0
	v1, _ := sys.Engine.Syms.Lookup("v1")
	v4, _ := sys.Engine.Syms.Lookup("v4")
	for _, row := range open.Answer.Tuples() {
		if row[0] == v1 && row[1] == v4 {
			count++
		}
	}
	if bound.Answer.Len() != count || count == 0 {
		t.Fatalf("n-ary answer = %d rows, full closure has %d matching", bound.Answer.Len(), count)
	}
}

// TestRepeatedVariableGoal: a variable repeated in a goal is a column
// equality.  path(X,X) over a 3-cycle with a tail answers the cycle's
// nodes only — materialized, streamed, limited and from the result
// cache — on the one-rule closure and on the two commuting rules.
func TestRepeatedVariableGoal(t *testing.T) {
	const facts = "edge(a,b). edge(b,c). edge(c,a). edge(c,d).\n"
	want := [][]string{{"a", "a"}, {"b", "b"}, {"c", "c"}}
	for name, rules := range map[string]string{
		"one rule":  "path(X,Y) :- edge(X,Y).\npath(X,Y) :- path(X,Z), edge(Z,Y).\n",
		"two rules": "path(X,Y) :- edge(X,Y).\npath(X,Y) :- path(X,Z), edge(Z,Y).\npath(X,Y) :- edge(X,Z), path(Z,Y).\n",
	} {
		t.Run(name, func(t *testing.T) {
			sys, err := load(rules+facts, Options{})
			if err != nil {
				t.Fatal(err)
			}
			goal := ast.NewAtom("path", ast.V("X"), ast.V("X"))
			for _, pass := range []string{"evaluated", "cached"} {
				res, err := sys.Evaluate(context.Background(), QueryRequest{Goal: goal})
				if err != nil {
					t.Fatal(err)
				}
				if got := res.Rows(sys); !reflect.DeepEqual(got, want) || res.Cached != (pass == "cached") {
					t.Fatalf("%s: rows %v (cached %v), want %v", pass, got, res.Cached, want)
				}
			}
			for _, limit := range []int{0, 2} {
				st, err := sys.Stream(context.Background(), QueryRequest{Goal: ast.NewAtom("path", ast.V("Y"), ast.V("Y")), Limit: limit})
				if err != nil {
					t.Fatal(err)
				}
				n := 0
				for row, ok := st.Next(); ok; row, ok = st.Next() {
					if row[0] != row[1] {
						t.Fatalf("limit %d: streamed row %v", limit, st.RenderRow(row))
					}
					n++
				}
				st.Close()
				if wantN := len(want); (limit == 0 && n != wantN) || (limit > 0 && n != limit) {
					t.Fatalf("limit %d: streamed %d rows", limit, n)
				}
			}
		})
	}
}
