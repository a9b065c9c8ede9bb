package linrec

import (
	"context"
	"reflect"
	"testing"
)

// TestPublicAPIQuickstart exercises the README's quick-start path through
// the re-exported facade.
func TestPublicAPIQuickstart(t *testing.T) {
	sys, err := Load(`
path(X,Y) :- edge(X,Y).
path(X,Y) :- path(X,Z), edge(Z,Y).
edge(a,b). edge(b,c).
?- path(a, Y).
`, Options{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	results, err := sys.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(results) != 1 {
		t.Fatalf("results = %d", len(results))
	}
	rows := results[0].Rows(sys)
	if len(rows) != 2 {
		t.Fatalf("path(a, Y) = %v, want 2 rows", rows)
	}
}

// TestPublicAPIAnalysis: the analysis types round-trip through the facade.
func TestPublicAPIAnalysis(t *testing.T) {
	sys, err := Load(`
p(X,Y) :- base(X,Y).
p(X,Y) :- p(X,Z), up(Z,Y).
p(X,Y) :- down(X,Z), p(Z,Y).
base(a,b).
`, Options{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	a, err := sys.Analyze("p")
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if v := a.Commutes[[2]int{0, 1}]; v != Commute {
		t.Fatalf("verdict = %v, want Commute", v)
	}
	var _ CommuteVerdict = v(a)
}

func v(a *Analysis) CommuteVerdict { return a.Commutes[[2]int{0, 1}] }

// TestPublicAPIQueryRequest: the redesigned query entry points —
// Evaluate and Stream over a QueryRequest — work through the facade.
func TestPublicAPIQueryRequest(t *testing.T) {
	sys, err := Load(`
path(X,Y) :- edge(X,Y).
path(X,Y) :- path(X,Z), edge(Z,Y).
edge(a,b). edge(b,c). edge(c,d).
`, Options{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	ctx := context.Background()
	goal := NewAtom("path", C("a"), V("Y"))
	res, err := sys.Evaluate(ctx, NewQueryRequest(goal, WithWorkers(2)))
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if len(res.Rows(sys)) != 3 {
		t.Fatalf("path(a, Y) = %v, want 3 rows", res.Rows(sys))
	}
	st, err := sys.Stream(ctx, NewQueryRequest(goal, WithLimit(1)))
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	defer st.Close()
	if _, ok := st.Next(); !ok {
		t.Fatalf("limited stream yielded no row: %v", st.Err())
	}
}

// TestPublicAPIPersistence: snapshots published through OpenStorage
// survive a reconstruction, and the recovered system answers
// identically.
func TestPublicAPIPersistence(t *testing.T) {
	const src = `
path(X,Y) :- edge(X,Y).
path(X,Y) :- path(X,Z), edge(Z,Y).
edge(a,b). edge(b,c).
`
	dir := t.TempDir()
	store, err := OpenStorage(dir)
	if err != nil {
		t.Fatalf("OpenStorage: %v", err)
	}
	sys, err := Load(src, Options{Persist: store})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if _, _, err := sys.Apply(context.Background(), []Atom{NewAtom("edge", C("c"), C("d"))}, nil); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	goal := NewAtom("path", C("a"), V("Y"))
	want, err := sys.Evaluate(context.Background(), NewQueryRequest(goal))
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}

	store2, err := OpenStorage(dir)
	if err != nil {
		t.Fatalf("OpenStorage (reopen): %v", err)
	}
	var _ Persister = store2
	recovered, err := Load(src, Options{Persist: store2})
	if err != nil {
		t.Fatalf("Load (recovered): %v", err)
	}
	if recovered.Snapshot().Version != sys.Snapshot().Version {
		t.Fatalf("recovered version %d, want %d", recovered.Snapshot().Version, sys.Snapshot().Version)
	}
	var _ Store = recovered.Snapshot().DB["edge"]
	got, err := recovered.Evaluate(context.Background(), NewQueryRequest(goal))
	if err != nil {
		t.Fatalf("Evaluate (recovered): %v", err)
	}
	if !reflect.DeepEqual(got.Rows(recovered), want.Rows(sys)) {
		t.Fatalf("recovered answers diverge:\ngot  %v\nwant %v", got.Rows(recovered), want.Rows(sys))
	}
}
