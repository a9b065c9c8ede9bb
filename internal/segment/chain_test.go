package segment

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"linrec/internal/rel"
)

// overlay wraps the previously published store for pred in one Layered
// layer carrying adds and dels, the exact shape the core write path
// hands PublishDelta.
func overlay(t *testing.T, base rel.Store, adds, dels []rel.Tuple) *rel.Layered {
	t.Helper()
	var as, ds rel.Store
	if len(adds) > 0 {
		a := rel.NewRelation(base.Arity())
		for _, tp := range adds {
			if base.Has(tp) {
				t.Fatalf("overlay: add %v already in base", tp)
			}
			a.Insert(tp)
		}
		as = a
	}
	if len(dels) > 0 {
		d := rel.NewRelation(base.Arity())
		for _, tp := range dels {
			if !base.Has(tp) {
				t.Fatalf("overlay: del %v not in base", tp)
			}
			d.Insert(tp)
		}
		ds = d
	}
	return rel.NewLayered(base, as, ds)
}

// TestDeltaPublishChainRoundTrip: a PublishDelta of a one-layer store
// persists only the overlay as chained delta segments, and a reboot
// replays the chain to the same tuples.
func TestDeltaPublishChainRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	syms := mksyms("a", "b", "c")
	db := mkdb(t, map[string][]rel.Tuple{
		"edge": {{0, 1}, {1, 2}, {2, 3}},
		"node": {{0}, {1}, {2}, {3}},
	})
	if err := m.Publish(1, db, syms); err != nil {
		t.Fatal(err)
	}
	base := m.Stats().BytesWritten

	// Swap 1: add two edges, remove one; node untouched.
	db2 := rel.DB{
		"edge": overlay(t, db["edge"], []rel.Tuple{{3, 0}, {3, 1}}, []rel.Tuple{{1, 2}}),
		"node": db["node"],
	}
	if err := m.PublishDelta(2, db2, syms); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.DeltaLinks != 1 {
		t.Fatalf("delta links = %d, want 1", st.DeltaLinks)
	}
	if st.ChainPreds != 1 || st.ChainLinks != 1 || st.MaxChainLinks != 1 {
		t.Fatalf("chain gauges = %+v", st)
	}
	if st.SegmentsReused != 1 { // node
		t.Fatalf("segments reused = %d, want 1", st.SegmentsReused)
	}
	// The delta must be far smaller than rewriting the base: 2 adds + 1
	// del = 3 rows against a 3-row base would not show, so check the
	// base segment file itself survived untouched instead, and that the
	// delta is one log record: no segment file, no manifest swap.
	if _, err := os.Stat(fmt.Sprintf("%s/edge-1.seg", dir)); err != nil {
		t.Fatalf("base segment rewritten by delta publish: %v", err)
	}
	if st.LogRecords != 1 || st.BytesWritten-base != st.LogBytes || st.Generation != 1 || st.SegmentsWritten != 2 {
		t.Fatalf("delta wrote %d bytes in %d log records (%d log bytes), %d segments, generation %d: want one record and no swap",
			st.BytesWritten-base, st.LogRecords, st.LogBytes, st.SegmentsWritten, st.Generation)
	}
	wantExactFiles(t, m, dir)

	want := mkdb(t, map[string][]rel.Tuple{
		"edge": {{0, 1}, {2, 3}, {3, 0}, {3, 1}},
		"node": {{0}, {1}, {2}, {3}},
	})
	sameTuples(t, "edge", want["edge"], db2["edge"])
	rebootServes(t, dir, 2, want)
}

// TestDeltaChainCrashRecovery kills or fails a PublishDelta at each
// stage of both publish paths, then reboots.  A write that merges its
// chain swaps the manifest: crashes before the rename reboot into the
// previous version, after it into the new one.  A write the chain keeps
// is one log record: a torn record, a record whose sync failed (a
// reported failure, cut back off the log) and a record whose version
// skips all reboot into the previous version; a record the disk kept
// although cutting it back failed is recovered, and its manager refuses
// to write on.  The directory must then heal: a shorter append lands
// over whatever tail the failure left, and a swap collects every stray.
func TestDeltaChainCrashRecovery(t *testing.T) {
	skipVersion := func(t *testing.T, m *Manager, version uint64, db rel.DB) {
		top := db["edge"].(*rel.Layered)
		buf, _ := appendLogRecord(nil, m.logSum, logRecord{version: version + 1, links: []logLink{{"edge", top.Adds(), top.Dels()}}})
		f, err := os.OpenFile(filepath.Join(m.dir, m.man.Log), os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteAt(buf, m.logEnd); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name    string
		stage   crashStage
		crash   func(t *testing.T, m *Manager, version uint64, db rel.DB) // instead of a PublishDelta at stage
		wantErr error
		swap    bool // the write merges its chain instead of logging one link
		durable bool // a reboot serves the write
	}{
		{name: "after delta segment write", stage: crashAfterSegment, wantErr: errCrash, swap: true},
		{name: "after symtab append", stage: crashAfterSymtab, wantErr: errCrash, swap: true},
		{name: "before manifest rename", stage: crashBeforeRename, wantErr: errCrash, swap: true},
		{name: "after manifest rename", stage: crashAfterRename, wantErr: errCrash, swap: true, durable: true},
		{name: "torn log record", stage: crashLogTorn, wantErr: errCrash},
		{name: "log sync fails", stage: failLogSync, wantErr: errInjected},
		{name: "log version skips", crash: skipVersion},
		{name: "log truncation fails", stage: failLogTruncate, wantErr: errInjected, durable: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A 100-row base, large enough that a merge keeps it, under
			// links the log holds: one short of the bound, or at it.
			m, db, syms, dir := bigBase(t, 100)
			rows := db["edge"].Clone().Tuples()
			logged := rel.MaxChainLinks - 1
			if tc.swap {
				logged = rel.MaxChainLinks
			}
			for i := 0; i < logged; i++ {
				add := rel.Tuple{rel.Value(1000 + i), 0}
				next := rel.DB{"edge": overlay(t, db["edge"], []rel.Tuple{add}, nil)}
				if err := m.PublishDelta(uint64(2+i), next, syms); err != nil {
					t.Fatal(err)
				}
				db, rows = next, append(rows, add)
			}
			if st := m.Stats(); st.Generation != 1 || st.MaxChainLinks != logged {
				t.Fatalf("%d kept writes swapped the manifest to generation %d, chain gauge %d", logged, st.Generation, st.MaxChainLinks)
			}
			version := uint64(2 + logged)
			syms.Intern(strings.Repeat("a long name the crashing write interns ", 8))
			next := rel.DB{"edge": overlay(t, db["edge"], []rel.Tuple{{2, 0}}, []rel.Tuple{{1, 2}})}
			if tc.crash != nil {
				tc.crash(t, m, version, next)
			} else {
				m.crashAt = tc.stage
				if err := m.PublishDelta(version, next, syms); err != tc.wantErr {
					t.Fatalf("delta publish with crash stage %d returned %v, want %v", tc.stage, err, tc.wantErr)
				}
			}
			wantV := version - 1
			if tc.durable {
				wantV, rows = version, next["edge"].Clone().Tuples()
			}
			rebootServes(t, dir, wantV, mkdb(t, map[string][]rel.Tuple{"edge": rows}))
			switch tc.stage {
			case failLogSync:
				if info, err := os.Stat(filepath.Join(dir, m.man.Log)); err != nil || info.Size() != m.logEnd {
					t.Fatalf("the failed record was not cut back off the log at %d: %v, %v", m.logEnd, info, err)
				}
			case failLogTruncate:
				if err := m.PublishDelta(version, next, syms); err == nil || !strings.Contains(err.Error(), "reopen") {
					t.Fatalf("a manager whose log kept a failed record wrote on: %v", err)
				}
				if _, err := m.CompactOnce(); err == nil {
					t.Fatal("a manager whose log kept a failed record compacted")
				}
			}

			// Heal: a fresh manager appends a short record over whatever
			// the failure left, then a full publish swaps the manifest,
			// carrying the log's links into the next generation's log and
			// collecting the crashed write's strays.
			m2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			syms2 := rel.NewSymtab()
			booted, _, ok, err := m2.Boot(syms2)
			if err != nil || !ok {
				t.Fatalf("Boot: ok=%v err=%v", ok, err)
			}
			recovered := syms2.Len()
			if v := syms2.Intern("z"); int(v) != recovered {
				t.Fatalf("new symbol interned as %d after recovering %d names", v, recovered)
			}
			healed := rel.DB{"edge": overlay(t, booted["edge"], []rel.Tuple{{9, 9}}, nil)}
			if err := m2.PublishDelta(wantV+1, healed, syms2); err != nil {
				t.Fatalf("delta publish after crash recovery: %v", err)
			}
			if info, err := os.Stat(filepath.Join(dir, m2.man.Log)); tc.stage == crashLogTorn && (err != nil || info.Size() <= m2.logEnd) {
				t.Fatalf("the shorter record left no stale tail to test: %v", err)
			}
			rows = append(rows, rel.Tuple{9, 9})
			want := mkdb(t, map[string][]rel.Tuple{"edge": rows})
			rebootServes(t, dir, wantV+1, want)
			if err := m2.Publish(wantV+2, healed, syms2); err != nil {
				t.Fatalf("publish after crash recovery: %v", err)
			}
			rebootServes(t, dir, wantV+2, want)
			wantSymbols(t, dir, syms2.Names()...)
			wantExactFiles(t, m2, dir)
		})
	}
}

// TestFormat3StrayLogIgnored: a format-3 manifest reads no log, so a
// wal-*.log beside it — here one holding a record that would validate,
// and named by the manifest — boots exactly the manifest's version; the first delta write takes the
// swap path, which migrates the directory to format 4 and sweeps the
// stray.
func TestFormat3StrayLogIgnored(t *testing.T) {
	m, db, syms, dir := bigBase(t, 40)
	want := rel.DB{"edge": db["edge"].Clone()}
	next := rel.DB{"edge": overlay(t, db["edge"], []rel.Tuple{{77, 0}}, nil)}
	if err := m.PublishDelta(2, next, syms); err != nil {
		t.Fatal(err)
	}
	rebootServes(t, dir, 2, rel.DB{"edge": next["edge"].Clone()})
	man := *m.man
	stray := man.Log
	man.Format = 3 // still naming the log, which a format-3 reader ignores
	raw, err := marshalManifest(&man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rebootServes(t, dir, 1, want)

	m2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	syms2 := rel.NewSymtab()
	booted, _, _, err := m2.Boot(syms2)
	if err != nil {
		t.Fatal(err)
	}
	again := rel.DB{"edge": overlay(t, booted["edge"], []rel.Tuple{{88, 0}}, nil)}
	if err := m2.PublishDelta(2, again, syms2); err != nil {
		t.Fatal(err)
	}
	if m2.man.Format != manifestFormat || m2.man.Generation != 2 || m2.man.Log == stray {
		t.Fatalf("the first write on a format-3 directory left format %d, generation %d, log %q", m2.man.Format, m2.man.Generation, m2.man.Log)
	}
	wantExactFiles(t, m2, dir) // the stray log is swept
	rebootServes(t, dir, 2, rel.DB{"edge": again["edge"].Clone()})
}

// chainDB publishes a base and then n delta swaps, each adding two
// tuples and removing one, returning the manager, the live store and
// the directory.  Every swap wraps exactly one Layered layer over the
// previous store, like the core write path.
func chainDB(t *testing.T, n int) (*Manager, rel.Store, string) {
	t.Helper()
	dir := t.TempDir()
	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	syms := mksyms("a", "b")
	db := mkdb(t, map[string][]rel.Tuple{"edge": {{0, 1}, {1, 2}, {2, 3}, {3, 4}}})
	if err := m.Publish(1, db, syms); err != nil {
		t.Fatal(err)
	}
	cur := rel.Store(db["edge"])
	for i := 0; i < n; i++ {
		adds := []rel.Tuple{{rel.Value(100 + 2*i), 0}, {rel.Value(101 + 2*i), 0}}
		dels := []rel.Tuple{cur.Clone().Tuples()[0]}
		next := rel.DB{"edge": overlay(t, cur, adds, dels)}
		if err := m.PublishDelta(uint64(2+i), next, syms); err != nil {
			t.Fatal(err)
		}
		cur = next["edge"]
	}
	return m, cur, dir
}

// TestCompactOnceEquivalence folds a delta chain and proves the result
// is the same relation bit-for-bit: same sorted tuple list before the
// fold, after it, and after a reboot from the compacted manifest.
func TestCompactOnceEquivalence(t *testing.T) {
	m, live, dir := chainDB(t, rel.CompactChainLinks)
	st := m.Stats()
	if st.ChainLinks != rel.CompactChainLinks {
		t.Fatalf("chain links = %d, want %d", st.ChainLinks, rel.CompactChainLinks)
	}
	want := live.Clone().Tuples()

	folded, err := m.CompactOnce()
	if err != nil {
		t.Fatal(err)
	}
	if folded != 1 {
		t.Fatalf("folded %d chains, want 1", folded)
	}
	st = m.Stats()
	if st.ChainLinks != 0 || st.ChainPreds != 0 {
		t.Fatalf("chain gauges after fold = %+v", st)
	}
	if st.Compactions != 1 || st.CompactedLinks != rel.CompactChainLinks {
		t.Fatalf("compaction counters = %+v", st)
	}
	// The live store keeps serving its chain untouched.
	if got := live.Clone().Tuples(); !reflect.DeepEqual(got, want) {
		t.Fatalf("live store changed across fold: %v != %v", got, want)
	}
	// A second pass finds nothing to do.
	if n, err := m.CompactOnce(); err != nil || n != 0 {
		t.Fatalf("second fold: n=%d err=%v", n, err)
	}

	// A reboot serves the folded segment with identical tuples.
	m2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, version, ok, err := m2.Boot(rel.NewSymtab())
	if err != nil || !ok {
		t.Fatalf("Boot: ok=%v err=%v", ok, err)
	}
	if version != uint64(1+rel.CompactChainLinks) {
		t.Fatalf("version = %d: compaction must not move the snapshot version", version)
	}
	if _, isLazy := got["edge"].(*Lazy); !isLazy {
		t.Fatalf("rebooted store is %T, want flat *Lazy", got["edge"])
	}
	if gt := got["edge"].Clone().Tuples(); !reflect.DeepEqual(gt, want) {
		t.Fatalf("rebooted tuples diverge: %v != %v", gt, want)
	}
	// No delta files survive the fold.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".add.seg") || strings.Contains(e.Name(), ".del.seg") {
			t.Fatalf("delta file %s survived compaction", e.Name())
		}
	}
}

// TestInlineFoldBoundsChain: publishing far more deltas than
// rel.MaxChainLinks never grows a chain past the bound — the publish that
// would exceed it folds inline instead — and the answers stay right.
func TestInlineFoldBoundsChain(t *testing.T) {
	m, live, dir := chainDB(t, 3*rel.MaxChainLinks)
	st := m.Stats()
	if st.MaxChainLinks > rel.MaxChainLinks {
		t.Fatalf("chain grew to %d links, bound is %d", st.MaxChainLinks, rel.MaxChainLinks)
	}
	if st.Compactions == 0 {
		t.Fatal("no inline folds despite publishing past the chain bound")
	}
	rebootServes(t, dir, uint64(1+3*rel.MaxChainLinks),
		rel.DB{"edge": live.Clone()})
}

// wantMirror asserts the invariant that bounds served chain depth: every
// store of db has exactly as many rel.Layered layers as its manifest
// entry has links plus the log holds for it, over a store of the
// entry's base file.
func wantMirror(t *testing.T, m *Manager, db rel.DB) {
	t.Helper()
	for _, p := range m.man.Preds {
		depth, base := 0, db[p.Pred]
		for ly, ok := base.(*rel.Layered); ok; ly, ok = base.(*rel.Layered) {
			depth++
			base = ly.Base()
		}
		if logged := len(m.logLinks[p.Pred]); depth != len(p.Links)+logged {
			t.Fatalf("%s is served %d layers deep, its manifest entry has %d links and the log %d", p.Pred, depth, len(p.Links), logged)
		}
		if depth > rel.MaxChainLinks {
			t.Fatalf("%s is served %d layers deep, bound is %d", p.Pred, depth, rel.MaxChainLinks)
		}
		if lz, ok := base.(*Lazy); ok && filepath.Base(lz.path) != p.File {
			t.Fatalf("%s is served over %s, its manifest entry's base is %s", p.Pred, filepath.Base(lz.path), p.File)
		}
		if base.Len() != baseRows(p) {
			t.Fatalf("%s is served over a %d-row base, its manifest entry's base has %d", p.Pred, base.Len(), baseRows(p))
		}
	}
}

// bigBase publishes one predicate of n rows {i, i+1} and reboots, so
// the returned store is a lazy segment like any server's past its first
// day.
func bigBase(t *testing.T, n int) (*Manager, rel.DB, *rel.Symtab, string) {
	t.Helper()
	dir := t.TempDir()
	pub, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]rel.Tuple, n)
	for i := range rows {
		rows[i] = rel.Tuple{rel.Value(i), rel.Value(i + 1)}
	}
	if err := pub.Publish(1, mkdb(t, map[string][]rel.Tuple{"edge": rows}), mksyms("a")); err != nil {
		t.Fatal(err)
	}
	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	syms := rel.NewSymtab()
	db, _, ok, err := m.Boot(syms)
	if err != nil || !ok {
		t.Fatalf("Boot: ok=%v err=%v", ok, err)
	}
	return m, db, syms, dir
}

// TestMemoryChainDepthBounded: the served chain is bounded by
// construction, whatever the interleaving of writes and background
// compactions.  Before the served store mirrored the manifest, a
// compactor that folded the disk chain first kept the inline fold from
// ever firing, and every write added a layer forever (60 writes with a
// CompactOnce every 5 served 60 layers over a chain-free manifest).
func TestMemoryChainDepthBounded(t *testing.T) {
	for _, every := range []int{1, 3, 5, 1000} {
		t.Run(fmt.Sprintf("compactEvery=%d", every), func(t *testing.T) {
			m, db, syms, dir := bigBase(t, 400)
			for i := 0; i < 60; i++ {
				next := rel.DB{"edge": overlay(t, db["edge"], []rel.Tuple{{rel.Value(1000 + i), 0}}, nil)}
				if err := m.PublishDelta(uint64(2+i), next, syms); err != nil {
					t.Fatal(err)
				}
				db = next
				wantMirror(t, m, db)
				if (i+1)%every == 0 {
					if _, err := m.CompactOnce(); err != nil {
						t.Fatal(err)
					}
				}
			}
			rebootServes(t, dir, 61, rel.DB{"edge": db["edge"].Clone()})
		})
	}
}

// TestCompactorConcurrentWithSwaps runs the background compactor at a
// tight interval against a writer publishing deltas and readers probing
// whatever snapshot is current — the three parties a server has.  Run
// with -race; the served depth bound and the answers must hold
// throughout.
func TestCompactorConcurrentWithSwaps(t *testing.T) {
	m, db, syms, dir := bigBase(t, 400)
	stop := m.StartCompactor(200 * time.Microsecond)
	defer stop()
	var current atomic.Pointer[rel.DB]
	booted := db
	current.Store(&booted)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				st := (*current.Load())["edge"]
				if !st.Has(rel.Tuple{399, 400}) || len(st.Lookup(0, 7)) != 1 {
					t.Error("a base row went missing from the served snapshot")
					return
				}
			}
		}()
	}
	for i := 0; i < 120; i++ {
		next := rel.DB{"edge": overlay(t, db["edge"], []rel.Tuple{{rel.Value(1000 + i), 0}}, nil)}
		if err := m.PublishDelta(uint64(2+i), next, syms); err != nil {
			t.Fatal(err)
		}
		db = next
		current.Store(&next)
		if ly, ok := db["edge"].(*rel.Layered); ok && ly.Depth() > rel.MaxChainLinks {
			t.Fatalf("swap %d serves %d layers", i, ly.Depth())
		}
	}
	close(done)
	wg.Wait()
	stop()
	rebootServes(t, dir, 121, rel.DB{"edge": db["edge"].Clone()})
}

// TestLinkMergeKeepsBase: a chain at its length bound merges its links
// into one and keeps the base — the same file, and the same store
// object with its mapping — instead of rewriting the relation.
func TestLinkMergeKeepsBase(t *testing.T) {
	m, db, syms, dir := bigBase(t, 400)
	base := db["edge"]
	baseFile := m.man.Preds[0].File
	before := m.Stats()
	for i := 0; i <= rel.MaxChainLinks; i++ {
		// Each swap adds a row; every other one also retracts the row the
		// previous swap added, so the merge has chained adds to cancel.
		var dels []rel.Tuple
		if i%2 == 1 {
			dels = []rel.Tuple{{rel.Value(1000 + i - 1), 0}}
		}
		next := rel.DB{"edge": overlay(t, db["edge"], []rel.Tuple{{rel.Value(1000 + i), 0}}, dels)}
		if err := m.PublishDelta(uint64(2+i), next, syms); err != nil {
			t.Fatal(err)
		}
		db = next
	}
	p := m.man.Preds[0]
	if p.File != baseFile || len(p.Links) != 1 {
		t.Fatalf("after the merge the entry is %+v, want base %s under one link", p, baseFile)
	}
	// 9 adds, 4 of them retracted again: 5 net adds, no tombstone.
	if lk := p.Links[0]; lk.AddRows != 5 || lk.DelRows != 0 {
		t.Fatalf("merged link = %+v, want 5 net adds and no tombstones", lk)
	}
	ly := db["edge"].(*rel.Layered)
	if ly.Depth() != 1 || ly.Base() != base {
		t.Fatalf("served store is %d layers over %p, want one layer over the booted base %p", ly.Depth(), ly.Base(), base)
	}
	st := m.Stats()
	if st.Compactions-before.Compactions != 1 || st.CompactedLinks-before.CompactedLinks != rel.MaxChainLinks+1 {
		t.Fatalf("compaction counters = %+v", st)
	}
	// The merge wrote only the merged link: no second copy of the base.
	if wrote := st.BytesWritten - before.BytesWritten; wrote >= p.Bytes {
		t.Fatalf("%d segment bytes written across %d swaps of a %d-byte base", wrote, rel.MaxChainLinks+1, p.Bytes)
	}
	wantExactFiles(t, m, dir)
	rebootServes(t, dir, uint64(2+rel.MaxChainLinks), rel.DB{"edge": db["edge"].Clone()})
}

// TestExactGC: no file outlives its manifest.  Fifty writes — logged
// links, merges, base rewrites and background compactions — leave,
// after every one of them, exactly the files the live manifest names,
// its log included, and write-ahead logs of older generations never
// survive a swap; strays a crashed publish left before Open are swept
// by the first manifest swap after it, and until then are all a
// logged write leaves beside the live files.
func TestExactGC(t *testing.T) {
	m, db, syms, dir := bigBase(t, 64)
	strays := []string{"x-9.seg", "edge-7.add.seg", "symtab-3.bin", "wal-7.log", manifestName + ".tmp"}
	for _, stray := range strays {
		if err := os.WriteFile(filepath.Join(dir, stray), []byte("stray"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	keep := filepath.Join(dir, "notes.txt") // not ours: never touched
	if err := os.WriteFile(keep, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		syms.Intern(fmt.Sprintf("n%d", i))
		next := rel.DB{"edge": overlay(t, db["edge"],
			[]rel.Tuple{{rel.Value(1000 + i), 0}}, []rel.Tuple{{rel.Value(i), rel.Value(i + 1)}})}
		if err := m.PublishDelta(uint64(2+i), next, syms); err != nil {
			t.Fatal(err)
		}
		db = next
		if i%7 == 6 {
			if _, err := m.CompactOnce(); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.Remove(keep); err != nil {
			t.Fatalf("publish %d removed a file that is not the store's: %v", i, err)
		}
		if m.man.Generation == 1 {
			wantExactFiles(t, m, dir, strays...)
		} else {
			wantExactFiles(t, m, dir)
		}
		if err := os.WriteFile(keep, []byte("keep"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if st := m.Stats(); st.Compactions < 3 || st.LogRecords < 10 {
		t.Fatalf("50 writes folded %d times and logged %d records: the test no longer covers merges, rewrites and the log", st.Compactions, st.LogRecords)
	}
	rebootServes(t, dir, 51, rel.DB{"edge": db["edge"].Clone()})
}

// TestLinkMergeEquivalence drives random add/retract sequences — among
// them re-adding a tombstoned base row and retracting a chained add —
// with compactions at random points, against a plain map as the
// oracle: the served store after every swap and the reopened directory
// at the end must hold exactly the oracle's tuples.
func TestLinkMergeEquivalence(t *testing.T) {
	type row = [2]rel.Value
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		baseLen := 40 + rng.Intn(200)
		m, db, syms, dir := bigBase(t, baseLen)
		oracle := map[row]bool{}
		db["edge"].Each(func(tp rel.Tuple) { oracle[row{tp[0], tp[1]}] = true })
		var chained []row // every tuple some swap added on top of the base
		readded, unchained := 0, 0
		for i, swaps := 0, 30+rng.Intn(40); i < swaps; i++ {
			// One swap never touches a tuple twice.
			var adds, dels []rel.Tuple
			touched := map[row]bool{}
			for n := rng.Intn(3); n >= 0; n-- {
				var v row
				switch rng.Intn(4) {
				case 0: // one of a few base rows: tombstone it, or re-add it if tombstoned
					k := rel.Value(rng.Intn(16))
					v = row{k, k + 1}
					if !oracle[v] && !touched[v] {
						readded++
					}
				case 1: // a chained add: retract it if still live
					if len(chained) == 0 {
						continue
					}
					v = chained[rng.Intn(len(chained))]
					if !oracle[v] {
						continue
					}
					if !touched[v] {
						unchained++
					}
				default: // a fresh add
					v = row{rel.Value(5000 + i*8 + n), rel.Value(rng.Intn(9))}
					chained = append(chained, v)
				}
				if touched[v] {
					continue
				}
				touched[v] = true
				if oracle[v] {
					dels = append(dels, rel.Tuple{v[0], v[1]})
				} else {
					adds = append(adds, rel.Tuple{v[0], v[1]})
				}
			}
			if len(adds)+len(dels) == 0 {
				continue
			}
			for _, tp := range adds {
				oracle[row{tp[0], tp[1]}] = true
			}
			for _, tp := range dels {
				delete(oracle, row{tp[0], tp[1]})
			}
			next := rel.DB{"edge": overlay(t, db["edge"], adds, dels)}
			if err := m.PublishDelta(uint64(2+i), next, syms); err != nil {
				t.Fatalf("seed %d swap %d: %v", seed, i, err)
			}
			db = next
			wantMirror(t, m, db)
			if got := db["edge"].Len(); got != len(oracle) {
				t.Fatalf("seed %d swap %d: served %d rows, oracle holds %d", seed, i, got, len(oracle))
			}
			if rng.Intn(6) == 0 {
				if _, err := m.CompactOnce(); err != nil {
					t.Fatalf("seed %d swap %d: compact: %v", seed, i, err)
				}
			}
		}
		if readded == 0 || unchained == 0 || m.Stats().Compactions == 0 {
			t.Fatalf("seed %d covers %d re-added base rows, %d retracted chained adds, %d folds", seed, readded, unchained, m.Stats().Compactions)
		}
		want := rel.NewRelation(2)
		for v := range oracle {
			want.Insert(rel.Tuple{v[0], v[1]})
		}
		sameTuples(t, "edge", want, db["edge"])
		rebootServes(t, dir, m.version, rel.DB{"edge": want})
		if _, err := m.CompactOnce(); err != nil {
			t.Fatal(err)
		}
		rebootServes(t, dir, m.version, rel.DB{"edge": want})
		wantExactFiles(t, m, dir)
	}
}

// TestEvictionUnderBudget hammers a budgeted manager from many
// goroutines: every answer must stay correct while the tracked
// residency never exceeds the cap and cold segments actually evict.
// Run with -race to check the probe/evict paths race-free.
func TestEvictionUnderBudget(t *testing.T) {
	dir := t.TempDir()
	pub, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const preds, rows = 8, 200
	db := rel.DB{}
	for p := 0; p < preds; p++ {
		r := db.Rel(fmt.Sprintf("e%d", p), 2)
		for i := 0; i < rows; i++ {
			r.Insert(rel.Tuple{rel.Value(i), rel.Value(p*rows + i)})
		}
	}
	if err := pub.Publish(1, db, mksyms("a")); err != nil {
		t.Fatal(err)
	}

	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Big enough for roughly one predicate's probe artifacts, far too
	// small for all eight.
	const cap = 32 << 10
	m.SetMemBudget(cap)
	got, _, ok, err := m.Boot(rel.NewSymtab())
	if err != nil || !ok {
		t.Fatalf("Boot: ok=%v err=%v", ok, err)
	}

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 40; it++ {
				p := (g + it) % preds
				st := got[fmt.Sprintf("e%d", p)]
				i := (g*13 + it*7) % rows
				tp := rel.Tuple{rel.Value(i), rel.Value(p*rows + i)}
				if !st.Has(tp) {
					errs <- fmt.Sprintf("e%d missing %v", p, tp)
					return
				}
				if hits := st.Lookup(0, rel.Value(i)); len(hits) != 1 || !hits[0].Eq(tp) {
					errs <- fmt.Sprintf("e%d lookup(0,%d) = %v", p, i, hits)
					return
				}
				if hits := st.Lookup(1, rel.Value(p*rows+i)); len(hits) != 1 || !hits[0].Eq(tp) {
					errs <- fmt.Sprintf("e%d lookup(1,%d) = %v", p, p*rows+i, hits)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	st := m.Stats()
	if st.MemBudgetBytes != cap {
		t.Fatalf("budget = %d, want %d", st.MemBudgetBytes, cap)
	}
	if st.ResidentPeakBytes > cap {
		t.Fatalf("peak residency %d exceeded the %d-byte budget", st.ResidentPeakBytes, cap)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions under an 8x-oversubscribed budget")
	}
	if st.ResidentBytes > cap || st.ResidentBytes < 0 {
		t.Fatalf("resident bytes = %d outside [0, %d]", st.ResidentBytes, cap)
	}
}
