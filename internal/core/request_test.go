package core

import (
	"reflect"
	"testing"

	"linrec/internal/ast"
	"linrec/internal/planner"
)

// TestQueryRequestOptions checks the functional-option constructor
// builds exactly the struct a literal would.
func TestQueryRequestOptions(t *testing.T) {
	sys, err := Load(tcProgram)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	snap := sys.Snapshot()
	goal := ast.NewAtom("path", ast.V("X"), ast.V("Y"))

	req := NewQueryRequest(goal,
		WithSnapshot(snap),
		WithWorkers(4),
		WithStrategy(planner.ForceSemiNaive),
		WithLimit(7),
	)
	want := QueryRequest{
		Goal:  goal,
		Snap:  snap,
		Opts:  Options{Workers: 4, Strategy: planner.ForceSemiNaive},
		Limit: 7,
	}
	if !reflect.DeepEqual(req, want) {
		t.Fatalf("NewQueryRequest = %+v, want %+v", req, want)
	}

	// WithOptions replaces wholesale; later per-field options modify it.
	req2 := NewQueryRequest(goal, WithOptions(Options{Workers: 2}), WithWorkers(8))
	if req2.Opts.Workers != 8 {
		t.Fatalf("WithWorkers after WithOptions = %d, want 8", req2.Opts.Workers)
	}
}
