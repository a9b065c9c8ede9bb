package core

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"linrec/internal/ast"
	"linrec/internal/rel"
)

// treeSystem loads the transitive closure of a binary tree with rows
// edges t⌊(i−1)/2⌋→ti, bulk-loaded as one in-memory relation, with no
// result cache.
func treeSystem(tb testing.TB, rows int) *System {
	tb.Helper()
	sys, err := load("path(X,Y) :- edge(X,Y).\npath(X,Y) :- path(X,Z), edge(Z,Y).\n", Options{ResultCacheRows: -1})
	if err != nil {
		tb.Fatal(err)
	}
	syms := sys.Engine.Syms
	r := sys.DB().Rel("edge", 2)
	r.Reserve(rows)
	for i := 1; i <= rows; i++ {
		r.Insert(rel.Tuple{syms.Intern(fmt.Sprintf("t%d", (i-1)/2)), syms.Intern(fmt.Sprintf("t%d", i))})
	}
	return sys
}

// writeCostWrites is how many 1-fact writes writeBytes averages over:
// enough for the chain to cross rel.MaxChainLinks, so merges fall
// inside the window.
const writeCostWrites = 64

// writeBytes returns the bytes allocated per 1-fact in-memory Apply on
// a binary-tree edge relation of rows rows.
func writeBytes(t *testing.T, rows int) float64 {
	t.Helper()
	sys := treeSystem(t, rows)
	facts := make([][]ast.Atom, writeCostWrites)
	for i := range facts { // edge(t<i+1>, t0): never a tree edge
		facts[i] = []ast.Atom{ast.NewAtom("edge", ast.C(fmt.Sprintf("t%d", i+1)), ast.C("t0"))}
	}
	ctx := context.Background()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, f := range facts {
		if _, m, err := sys.Apply(ctx, f, nil); err != nil || m.Added != 1 {
			t.Fatalf("write %v: added %d, err %v", f, m.Added, err)
		}
	}
	runtime.ReadMemStats(&after)
	if d, _ := chainOf(sys.DB()["edge"]); d == 0 || d > rel.MaxChainLinks {
		t.Fatalf("after %d writes edge is served %d layers deep, want 1..%d", writeCostWrites, d, rel.MaxChainLinks)
	}
	if got, want := sys.DB()["edge"].Len(), rows+writeCostWrites; got != want {
		t.Fatalf("edge holds %d rows, want %d", got, want)
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / writeCostWrites
}

// TestApplyCostFlatInRows: an in-memory write costs its delta, not the
// relation.  A 1-fact Apply allocates no more than twice as much on a
// 240k-row relation as on a 10k-row one (rebuilding the relation per
// write made it ~30x).
func TestApplyCostFlatInRows(t *testing.T) {
	small, large := writeBytes(t, 10_000), writeBytes(t, 240_000)
	t.Logf("bytes per 1-fact Apply: %.0f at 10k rows, %.0f at 240k rows (x%.2f)", small, large, large/small)
	if large > 2*small {
		t.Fatalf("a 1-fact Apply allocates %.0f B at 240k rows, %.0f B at 10k: x%.1f, want ≤ x2", large, small, large/small)
	}
}

// TestApplyOneFsyncOnKeptChain: on the segment backend a write the
// chain policy keeps is one log record — exactly one fsync, no file
// created — whatever it interns, and a reboot serves it.
func TestApplyOneFsyncOnKeptChain(t *testing.T) {
	dir := t.TempDir()
	var src strings.Builder
	src.WriteString("path(X,Y) :- edge(X,Y).\npath(X,Y) :- path(X,Z), edge(Z,Y).\n")
	for i := 1; i <= 200; i++ {
		fmt.Fprintf(&src, "edge(t%d,t%d).\n", (i-1)/2, i)
	}
	loadPersistent(t, src.String(), dir)
	mgr := openManager(t, dir)
	sys, err := load(src.String(), Options{Persist: mgr})
	if err != nil {
		t.Fatal(err)
	}
	files := func() []string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return names
	}
	before := files()
	for i := 0; i < rel.MaxChainLinks; i++ {
		st := mgr.Stats()
		add := []ast.Atom{ast.NewAtom("edge", ast.C(fmt.Sprintf("new%d", i)), ast.C("t0"))}
		remove := []ast.Atom{ast.NewAtom("edge", ast.C(fmt.Sprintf("t%d", i/2)), ast.C(fmt.Sprintf("t%d", i+1)))}
		if _, m, err := sys.Apply(context.Background(), add, remove); err != nil || m.Added != 1 || m.Removed != 1 {
			t.Fatalf("write %d: added %d removed %d, err %v", i, m.Added, m.Removed, err)
		}
		if got := mgr.Stats(); got.Fsyncs != st.Fsyncs+1 || got.LogRecords != st.LogRecords+1 || got.Generation != st.Generation {
			t.Fatalf("write %d: %d fsyncs, %d log records, generation %d -> %d; want one fsync, one record, no swap",
				i, got.Fsyncs-st.Fsyncs, got.LogRecords-st.LogRecords, st.Generation, got.Generation)
		}
	}
	if after := files(); !reflect.DeepEqual(before, after) {
		t.Fatalf("kept-chain writes changed the directory: %v -> %v", before, after)
	}
	if want, got := pathRows(t, sys), pathRows(t, loadPersistent(t, src.String(), dir)); !rowsEqual(want, got) {
		t.Fatalf("rebooted answers diverge: %d rows vs %d", len(got), len(want))
	}
}

// TestApplySymtabCeiling: a batch naming more new constants than the
// symbol table has room for is rejected whole, before anything is
// interned; known constants still write at the ceiling, and retractions
// never intern.
func TestApplySymtabCeiling(t *testing.T) {
	ctx := context.Background()
	sys, err := load("p(X,Y) :- e(X,Y).\ne(a,b).\n", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func(n int) { maxSymbols = n }(maxSymbols)
	syms := sys.Engine.Syms
	maxSymbols = syms.Len() + 2
	atoms := func(srcs ...string) []ast.Atom {
		out := make([]ast.Atom, len(srcs))
		for i, src := range srcs {
			out[i] = mustAtom(t, src)
		}
		return out
	}

	before, v := syms.Len(), sys.Snapshot().Version
	if _, _, err := sys.Apply(ctx, atoms("e(c,d)", "e(d,x)"), nil); err == nil {
		t.Fatal("a batch of 3 new constants was admitted with room for 2")
	}
	if syms.Len() != before || sys.Snapshot().Version != v {
		t.Fatalf("the rejected batch interned %d names and moved the version %d -> %d", syms.Len()-before, v, sys.Snapshot().Version)
	}
	if _, m, err := sys.Apply(ctx, atoms("e(c,d)", "e(d,c)"), nil); err != nil || m.Added != 2 {
		t.Fatalf("2 new constants with room for 2: added %d, err %v", m.Added, err)
	}
	if _, m, err := sys.Apply(ctx, atoms("e(d,a)"), atoms("e(q,r)")); err != nil || m.Added != 1 {
		t.Fatalf("known constants at the ceiling: added %d, err %v", m.Added, err)
	}
	if _, _, err := sys.Apply(ctx, atoms("e(z,a)"), nil); err == nil {
		t.Fatal("a new constant was admitted into a full symbol table")
	}
	if syms.Len() != maxSymbols {
		t.Fatalf("symbol table holds %d names, ceiling %d", syms.Len(), maxSymbols)
	}
}

// BenchmarkLayeredClosure prices the read side of the write path: the
// path closure over a 4k-row in-memory edge relation served flat, one
// layer deep, and rel.MaxChainLinks layers deep.  Every depth holds the
// same tuples: the system loads all but the last depth edges and writes
// those one Apply each, so the chain is the one writes build.
func BenchmarkLayeredClosure(b *testing.B) {
	const rows = 4000
	for _, depth := range []int{0, 1, rel.MaxChainLinks} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			sys := treeSystem(b, rows-depth)
			for i := rows - depth + 1; i <= rows; i++ {
				f := ast.NewAtom("edge", ast.C(fmt.Sprintf("t%d", (i-1)/2)), ast.C(fmt.Sprintf("t%d", i)))
				if _, _, err := sys.Apply(context.Background(), []ast.Atom{f}, nil); err != nil {
					b.Fatal(err)
				}
			}
			if d, _ := chainOf(sys.DB()["edge"]); d != depth {
				b.Fatalf("edge is served %d layers deep, want %d", d, depth)
			}
			goal := ast.NewAtom("path", ast.V("X"), ast.V("Y"))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := query(sys, goal); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
