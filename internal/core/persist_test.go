package core

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"linrec/internal/ast"
	"linrec/internal/rel"
	"linrec/internal/segment"
)

const persistProgram = `
path(X,Y) :- up(X,Y).
path(X,Y) :- path(X,Z), up(Z,Y).
up(a,b). up(b,c). up(c,d).
`

// openManager attaches a segment manager to dir, failing the test on error.
func openManager(t *testing.T, dir string) *segment.Manager {
	t.Helper()
	m, err := segment.Open(dir)
	if err != nil {
		t.Fatalf("segment.Open(%s): %v", dir, err)
	}
	return m
}

// loadPersistent loads src with a disk-backed persister over dir.
func loadPersistent(t *testing.T, src, dir string) *System {
	t.Helper()
	sys, err := load(src, Options{Persist: openManager(t, dir)})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return sys
}

// pathRows answers path(X,Y) as rendered rows.
func pathRows(t *testing.T, sys *System) [][]string {
	t.Helper()
	res, err := query(sys, ast.NewAtom("path", ast.V("X"), ast.V("Y")))
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	return res.Rows(sys)
}

func rowsEqual(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if strings.Join(a[i], ",") != strings.Join(b[i], ",") {
			return false
		}
	}
	return true
}

// TestPersistRoundTrip drives the full lifecycle: fresh boot publishes
// the program's facts; add and remove swaps publish durable successors;
// a restart serves exactly the last published snapshot at its version —
// with answers identical to the pre-restart system's.
func TestPersistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sys := loadPersistent(t, persistProgram, dir)
	if v := sys.Snapshot().Version; v != 1 {
		t.Fatalf("initial version = %d, want 1", v)
	}

	if _, _, err := sys.AddFacts([]ast.Atom{
		ast.NewAtom("up", ast.C("d"), ast.C("e")),
		ast.NewAtom("up", ast.C("e"), ast.C("f")),
	}); err != nil {
		t.Fatalf("AddFacts: %v", err)
	}
	if _, _, err := sys.Apply(context.Background(), nil, []ast.Atom{
		ast.NewAtom("up", ast.C("a"), ast.C("b")),
	}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	want := pathRows(t, sys)
	wantVersion := sys.Snapshot().Version
	if wantVersion != 3 {
		t.Fatalf("version after swaps = %d, want 3", wantVersion)
	}

	sys2 := loadPersistent(t, persistProgram, dir)
	if v := sys2.Snapshot().Version; v != wantVersion {
		t.Fatalf("recovered version = %d, want %d", v, wantVersion)
	}
	got := pathRows(t, sys2)
	if !rowsEqual(want, got) {
		t.Fatalf("recovered answers diverge:\nwant %v\ngot  %v", want, got)
	}
	// The retraction must have survived: a→b is gone, so no path from a.
	for _, row := range got {
		if row[0] == "a" {
			t.Fatalf("retracted fact resurrected after restart: %v", row)
		}
	}
}

// TestPersistBootIsLazy pins the recovery-cost claim: booting restores
// metadata only — no segment is read until the first query touches it,
// and no closure is recomputed (closure work would force every load).
func TestPersistBootIsLazy(t *testing.T) {
	dir := t.TempDir()
	sys := loadPersistent(t, persistProgram, dir)
	if _, _, err := sys.AddFacts([]ast.Atom{ast.NewAtom("up", ast.C("d"), ast.C("e"))}); err != nil {
		t.Fatalf("AddFacts: %v", err)
	}

	mgr := openManager(t, dir)
	sys2, err := load(persistProgram, Options{Persist: mgr})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	st := mgr.Stats()
	if !st.Recovered {
		t.Fatal("manager did not report recovery")
	}
	if st.LazyLoads != 0 {
		t.Fatalf("boot loaded %d segments eagerly, want 0", st.LazyLoads)
	}
	if len(pathRows(t, sys2)) == 0 {
		t.Fatal("no answers after recovery")
	}
	if got := mgr.Stats().LazyLoads; got == 0 {
		t.Fatal("query answered without loading any segment")
	}
}

// TestPersistVersionContinuity: updates after a restart continue the
// persisted version sequence instead of restarting from 1, so clients
// comparing versions across a server restart never see time move
// backwards.
func TestPersistVersionContinuity(t *testing.T) {
	dir := t.TempDir()
	sys := loadPersistent(t, persistProgram, dir)
	if _, _, err := sys.AddFacts([]ast.Atom{ast.NewAtom("up", ast.C("d"), ast.C("e"))}); err != nil {
		t.Fatalf("AddFacts: %v", err)
	}

	sys2 := loadPersistent(t, persistProgram, dir)
	snap, _, err := sys2.AddFacts([]ast.Atom{ast.NewAtom("up", ast.C("e"), ast.C("f"))})
	if err != nil {
		t.Fatalf("AddFacts after restart: %v", err)
	}
	if snap.Version != 3 {
		t.Fatalf("version after restart+add = %d, want 3", snap.Version)
	}

	sys3 := loadPersistent(t, persistProgram, dir)
	if v := sys3.Snapshot().Version; v != 3 {
		t.Fatalf("second restart recovered version %d, want 3", v)
	}
}

// failingPersister boots fresh and fails every publish after the first n.
type failingPersister struct {
	allow int
	calls int
}

func (f *failingPersister) Boot(*rel.Symtab) (rel.DB, uint64, bool, error) {
	return nil, 0, false, nil
}

func (f *failingPersister) Publish(uint64, rel.DB, *rel.Symtab) error {
	f.calls++
	if f.calls > f.allow {
		return fmt.Errorf("disk full")
	}
	return nil
}

// TestPersistPublishFailureAbortsSwap: when the backend cannot make a
// snapshot durable, the swap must not happen — queries keep serving the
// old version and the failed batch leaves no trace.
func TestPersistPublishFailureAbortsSwap(t *testing.T) {
	p := &failingPersister{allow: 1} // initial publish succeeds
	sys, err := load(persistProgram, Options{Persist: p})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	before := pathRows(t, sys)
	if _, _, err := sys.AddFacts([]ast.Atom{ast.NewAtom("up", ast.C("d"), ast.C("e"))}); err == nil {
		t.Fatal("AddFacts succeeded despite publish failure")
	} else if !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("error does not carry the backend cause: %v", err)
	}
	if v := sys.Snapshot().Version; v != 1 {
		t.Fatalf("failed publish advanced the snapshot to version %d", v)
	}
	if got := pathRows(t, sys); !rowsEqual(before, got) {
		t.Fatalf("failed publish changed served answers:\nwant %v\ngot  %v", before, got)
	}

	if _, _, err := sys.Apply(context.Background(), nil, []ast.Atom{ast.NewAtom("up", ast.C("a"), ast.C("b"))}); err == nil {
		t.Fatal("retraction succeeded despite publish failure")
	}
	if v := sys.Snapshot().Version; v != 1 {
		t.Fatalf("failed retraction advanced the snapshot to version %d", v)
	}

	if _, _, err := sys.Apply(context.Background(),
		[]ast.Atom{ast.NewAtom("up", ast.C("d"), ast.C("e"))},
		[]ast.Atom{ast.NewAtom("up", ast.C("a"), ast.C("b"))}); err == nil {
		t.Fatal("mixed batch succeeded despite publish failure")
	}
	if v := sys.Snapshot().Version; v != 1 {
		t.Fatalf("failed mixed batch advanced the snapshot to version %d", v)
	}
	if got := pathRows(t, sys); !rowsEqual(before, got) {
		t.Fatalf("failed mixed batch changed served answers:\nwant %v\ngot  %v", before, got)
	}
}

// TestMixedBatchIsOneDeltaLink: on a booted segment store, a batch that
// adds and retracts on one predicate is one version: it chains one
// overlay layer and one link — one log record — not one per half, and a
// restart recovers its rows.
func TestMixedBatchIsOneDeltaLink(t *testing.T) {
	var src strings.Builder
	src.WriteString("path(X,Y) :- up(X,Y).\npath(X,Y) :- path(X,Z), up(Z,Y).\n")
	for i := 0; i < 200; i++ { // a base large enough that a link appends rather than rebases
		fmt.Fprintf(&src, "up(n%d,n%d).\n", i, i+1)
	}
	dir := t.TempDir()
	loadPersistent(t, src.String(), dir)
	mgr := openManager(t, dir)
	sys, err := load(src.String(), Options{Persist: mgr})
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}
	depth := func() int {
		if ly, ok := sys.Snapshot().DB["up"].(*rel.Layered); ok {
			return ly.Depth()
		}
		return 0
	}
	for i := 0; i < 2; i++ {
		d, before, v := depth(), mgr.Stats(), sys.Snapshot().Version
		_, m, err := sys.Apply(context.Background(),
			[]ast.Atom{ast.NewAtom("up", ast.C(fmt.Sprintf("m%d", i)), ast.C("n0"))},
			[]ast.Atom{ast.NewAtom("up", ast.C(fmt.Sprintf("n%d", i)), ast.C(fmt.Sprintf("n%d", i+1)))})
		if err != nil || m.Added != 1 || m.Removed != 1 {
			t.Fatalf("mixed batch %d: added %d removed %d, err %v", i, m.Added, m.Removed, err)
		}
		if got := sys.Snapshot().Version; got != v+1 {
			t.Fatalf("mixed batch %d: version %d -> %d, want one more", i, v, got)
		}
		if got := depth(); got != d+1 {
			t.Fatalf("mixed batch %d: layer depth %d -> %d, want one more", i, d, got)
		}
		// The link is one log record: the chain, which counts manifest and
		// log links, is as deep as the served store, and no manifest swap.
		st := mgr.Stats()
		if st.ChainLinks != depth() || st.LogRecords != before.LogRecords+1 || st.DeltaLinks != before.DeltaLinks+1 || st.Generation != before.Generation {
			t.Fatalf("mixed batch %d: %+v, want one more log record and link at the same generation, %d chain links", i, st, depth())
		}
	}
	rows := func(s *System) []rel.Tuple {
		tuples := s.Snapshot().DB["up"].Clone().Tuples()
		sort.Slice(tuples, func(a, b int) bool { return fmt.Sprint(tuples[a]) < fmt.Sprint(tuples[b]) })
		return tuples
	}
	rebooted := loadPersistent(t, src.String(), dir)
	if want, got := rows(sys), rows(rebooted); !reflect.DeepEqual(want, got) {
		t.Fatalf("restart recovered %d up rows, served %d", len(got), len(want))
	}
	if want, got := pathRows(t, sys), pathRows(t, rebooted); !rowsEqual(want, got) {
		t.Fatalf("restart answers diverge: %d rows vs %d", len(got), len(want))
	}
}

// TestPersistRejectsArityDrift: a program whose declared arity disagrees
// with a recovered predicate must be rejected at construction, not at
// first query.
func TestPersistRejectsArityDrift(t *testing.T) {
	dir := t.TempDir()
	loadPersistent(t, persistProgram, dir)

	drifted := `
path(X,Y) :- up(X,Y,Z).
`
	if _, err := load(drifted, Options{Persist: openManager(t, dir)}); err == nil {
		t.Fatal("arity drift accepted")
	} else if !strings.Contains(err.Error(), "arity") {
		t.Fatalf("error does not mention arity: %v", err)
	}
}

// TestPersistChainDepthBounded drives the engine's own write path
// against a background compactor that folds the disk chain before the
// publish-time bound is ever reached: the store every query probes must
// stay a bounded number of layers deep (it used to gain one layer per
// write forever), and the answers must match an in-memory twin before
// and after a restart.
func TestPersistChainDepthBounded(t *testing.T) {
	var src strings.Builder
	src.WriteString("path(X,Y) :- up(X,Y).\npath(X,Y) :- path(X,Z), up(Z,Y).\n")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&src, "up(n%d,n%d).\n", i, i+1)
	}
	dir := t.TempDir()
	loadPersistent(t, src.String(), dir) // first day: publish the program's facts
	mgr := openManager(t, dir)
	disk, err := load(src.String(), Options{Persist: mgr})
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}
	mem, err := load(src.String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		fact := []ast.Atom{ast.NewAtom("up", ast.C(fmt.Sprintf("m%d", i)), ast.C(fmt.Sprintf("n%d", i)))}
		for _, s := range []*System{mem, disk} {
			if _, _, err := s.AddFacts(fact); err != nil {
				t.Fatalf("add %d: %v", i, err)
			}
			if i%3 == 2 { // and retract the one before
				gone := []ast.Atom{ast.NewAtom("up", ast.C(fmt.Sprintf("m%d", i-1)), ast.C(fmt.Sprintf("n%d", i-1)))}
				if _, _, err := s.Apply(context.Background(), nil, gone); err != nil {
					t.Fatalf("remove %d: %v", i, err)
				}
			}
		}
		if ly, ok := disk.Snapshot().DB["up"].(*rel.Layered); ok && ly.Depth() > 8 {
			t.Fatalf("after %d writes every probe of up walks %d layers", i+1, ly.Depth())
		}
		if i%5 == 4 {
			if _, err := mgr.CompactOnce(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := mgr.Stats(); st.MaxChainLinks > 8 || st.Compactions == 0 {
		t.Fatalf("chain gauges after the run: %+v", st)
	}
	want := pathRows(t, mem)
	if got := pathRows(t, disk); !rowsEqual(want, got) {
		t.Fatalf("disk answers diverge from memory after 60 writes: %d rows vs %d", len(got), len(want))
	}
	if got := pathRows(t, loadPersistent(t, src.String(), dir)); !rowsEqual(want, got) {
		t.Fatalf("rebooted answers diverge from memory: %d rows vs %d", len(got), len(want))
	}
}
