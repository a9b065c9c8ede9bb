package segment

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"linrec/internal/rel"
)

// mkdb builds an in-memory database from pred -> rows.
func mkdb(t *testing.T, preds map[string][]rel.Tuple) rel.DB {
	t.Helper()
	db := rel.DB{}
	for pred, rows := range preds {
		if len(rows) == 0 {
			t.Fatalf("mkdb: predicate %q needs at least one row to fix its arity", pred)
		}
		r := db.Rel(pred, len(rows[0]))
		for _, row := range rows {
			r.Insert(row)
		}
	}
	return db
}

// syms interning a few names so persisted values are non-trivial.
func mksyms(names ...string) *rel.Symtab {
	s := rel.NewSymtab()
	for _, n := range names {
		s.Intern(n)
	}
	return s
}

// sameTuples asserts two stores hold exactly the same tuple set.
func sameTuples(t *testing.T, pred string, want, got rel.Store) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: %d rows, want %d", pred, got.Len(), want.Len())
	}
	want.Each(func(tp rel.Tuple) {
		if !got.Has(tp) {
			t.Fatalf("%s: missing tuple %v", pred, tp)
		}
	})
}

func TestPublishBootRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	syms := mksyms("a", "b", "c", "d")
	db := mkdb(t, map[string][]rel.Tuple{
		"edge": {{0, 1}, {1, 2}, {2, 3}},
		"node": {{0}, {1}, {2}, {3}},
	})
	if err := m.Publish(7, db, syms); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	syms2 := rel.NewSymtab()
	got, version, ok, err := m2.Boot(syms2)
	if err != nil || !ok {
		t.Fatalf("Boot: ok=%v err=%v", ok, err)
	}
	if version != 7 {
		t.Fatalf("version = %d, want 7", version)
	}
	if syms2.Len() != syms.Len() {
		t.Fatalf("symtab: %d names, want %d", syms2.Len(), syms.Len())
	}
	for i, name := range syms.Names() {
		if v, found := syms2.Lookup(name); !found || v != rel.Value(i) {
			t.Fatalf("symbol %q restored as %d/%v, want %d", name, v, found, i)
		}
	}
	if len(got) != 2 {
		t.Fatalf("booted %d predicates, want 2", len(got))
	}
	// Metadata answers without loading.
	lz := got["edge"].(*Lazy)
	if lz.Loaded() {
		t.Fatal("edge segment loaded before any probe")
	}
	if lz.Arity() != 2 || lz.Len() != 3 {
		t.Fatalf("edge metadata arity=%d len=%d", lz.Arity(), lz.Len())
	}
	for pred := range db {
		sameTuples(t, pred, db[pred], got[pred])
	}
	if !lz.Loaded() {
		t.Fatal("edge segment not loaded after probes")
	}
	st := m2.Stats()
	if !st.Recovered || st.RecoveredPreds != 2 || st.RecoveredRows != 7 {
		t.Fatalf("stats = %+v", st)
	}
	if st.LazyLoads != 2 {
		t.Fatalf("lazy loads = %d, want 2", st.LazyLoads)
	}
}

func TestBootEmptyDir(t *testing.T) {
	m, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	db, version, ok, err := m.Boot(rel.NewSymtab())
	if err != nil {
		t.Fatal(err)
	}
	if ok || db != nil || version != 0 {
		t.Fatalf("fresh dir booted: ok=%v version=%d db=%v", ok, version, db)
	}
}

// TestPublishReusesUnchangedSegments checks the copy-on-write property
// carries to disk: an update touching one predicate rewrites only that
// predicate's segment.
func TestPublishReusesUnchangedSegments(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	syms := mksyms("a", "b")
	db := mkdb(t, map[string][]rel.Tuple{
		"edge": {{0, 1}},
		"node": {{0}, {1}},
	})
	if err := m.Publish(1, db, syms); err != nil {
		t.Fatal(err)
	}

	// COW update: clone edge, share node.
	db2 := rel.DB{"node": db["node"]}
	e := db.Rel("edge", 2).Clone()
	e.Insert(rel.Tuple{1, 0})
	db2["edge"] = e
	if err := m.Publish(2, db2, syms); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.SegmentsWritten != 3 { // edge+node at gen 1, edge at gen 2
		t.Fatalf("segments written = %d, want 3", st.SegmentsWritten)
	}
	if st.SegmentsReused != 1 { // node at gen 2
		t.Fatalf("segments reused = %d, want 1", st.SegmentsReused)
	}
	// The replaced gen-1 edge segment must be gone, the reused node one alive.
	if _, err := os.Stat(filepath.Join(dir, "edge-1.seg")); !os.IsNotExist(err) {
		t.Fatalf("edge-1.seg not collected: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "node-1.seg")); err != nil {
		t.Fatalf("node-1.seg missing: %v", err)
	}

	m2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, version, ok, err := m2.Boot(rel.NewSymtab())
	if err != nil || !ok || version != 2 {
		t.Fatalf("Boot: version=%d ok=%v err=%v", version, ok, err)
	}
	sameTuples(t, "edge", db2["edge"], got["edge"])
	sameTuples(t, "node", db2["node"], got["node"])
}

// rebootServes asserts a fresh Manager over dir serves exactly the
// given version with the given database.
func rebootServes(t *testing.T, dir string, wantVersion uint64, want rel.DB) {
	t.Helper()
	m, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got, version, ok, err := m.Boot(rel.NewSymtab())
	if err != nil || !ok {
		t.Fatalf("Boot after crash: ok=%v err=%v", ok, err)
	}
	if version != wantVersion {
		t.Fatalf("recovered version %d, want %d", version, wantVersion)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered %d predicates, want %d", len(got), len(want))
	}
	for pred := range want {
		sameTuples(t, pred, want[pred], got[pred])
	}
}

// wantExactFiles asserts dir holds MANIFEST plus exactly the files the
// manager's live manifest references and the strays named: no other
// stray survives, nothing live is missing.
func wantExactFiles(t *testing.T, m *Manager, dir string, strays ...string) {
	t.Helper()
	want := m.man.files()
	want[manifestName] = true
	for _, name := range strays {
		want[name] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, e := range entries {
		got[e.Name()] = true
	}
	for name := range got {
		if !want[name] {
			t.Fatalf("stray %s survives; the manifest names %v", name, want)
		}
	}
	for name := range want {
		if !got[name] {
			t.Fatalf("live file %s is gone; the directory holds %v", name, got)
		}
	}
}

// wantSymbols asserts a reboot of dir restores exactly names, in order.
func wantSymbols(t *testing.T, dir string, names ...string) {
	t.Helper()
	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	syms := rel.NewSymtab()
	if _, _, _, err := m.Boot(syms); err != nil {
		t.Fatal(err)
	}
	if got := syms.Names(); !reflect.DeepEqual(got, names) {
		t.Fatalf("recovered symbols %q, want %q", got, names)
	}
}

// TestCrashRecovery kills a publish at each stage of the swap and
// asserts a reboot serves exactly the last *completed* publish: the old
// version for crashes before the manifest rename, the new version after.
// The killed publish interns new symbols, so the stage after the symtab
// append leaves an uncommitted tail on symtab.bin.
func TestCrashRecovery(t *testing.T) {
	base := map[string][]rel.Tuple{"edge": {{0, 1}, {1, 2}}}
	next := map[string][]rel.Tuple{"edge": {{0, 1}, {1, 2}, {2, 3}, {3, 4}}}
	baseSyms := []string{"a", "b", "c"}
	nextSyms := []string{"a", "b", "c", "a-long-new-name", "another-new-name"}

	cases := []struct {
		name        string
		stage       crashStage
		wantVersion uint64
		wantDB      map[string][]rel.Tuple
		wantSyms    []string
	}{
		{"after segment write", crashAfterSegment, 1, base, baseSyms},
		{"after symtab append", crashAfterSymtab, 1, base, baseSyms},
		{"before manifest rename", crashBeforeRename, 1, base, baseSyms},
		{"after manifest rename", crashAfterRename, 2, next, nextSyms},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			m, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			syms := mksyms(baseSyms...)
			if err := m.Publish(1, mkdb(t, base), syms); err != nil {
				t.Fatal(err)
			}
			committed := m.man.SymtabBytes
			for _, n := range nextSyms {
				syms.Intern(n)
			}
			m.crashAt = tc.stage
			if err := m.Publish(2, mkdb(t, next), syms); err != errCrash {
				t.Fatalf("publish with crash stage %d returned %v, want errCrash", tc.stage, err)
			}
			if info, err := os.Stat(filepath.Join(dir, symtabName)); err != nil {
				t.Fatal(err)
			} else if tail := info.Size() > committed; tail != (tc.stage >= crashAfterSymtab) {
				t.Fatalf("symtab.bin holds %d bytes over %d committed at stage %d", info.Size(), committed, tc.stage)
			}
			rebootServes(t, dir, tc.wantVersion, mkdb(t, tc.wantDB))
			wantSymbols(t, dir, tc.wantSyms...)

			// And the directory must heal: a clean publish after the
			// reboot works, its one new symbol overwrites any uncommitted
			// tail and lands on the next dense value, and garbage from the
			// crashed attempt is gone.
			m2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			syms2 := rel.NewSymtab()
			if _, _, _, err := m2.Boot(syms2); err != nil {
				t.Fatal(err)
			}
			if v := syms2.Intern("x"); int(v) != len(tc.wantSyms) {
				t.Fatalf("new symbol interned as %d after recovering %d names", v, len(tc.wantSyms))
			}
			healed := map[string][]rel.Tuple{"edge": {{0, 1}, {2, 2}}}
			if err := m2.Publish(9, mkdb(t, healed), syms2); err != nil {
				t.Fatalf("publish after crash recovery: %v", err)
			}
			rebootServes(t, dir, 9, mkdb(t, healed))
			wantSymbols(t, dir, append(append([]string{}, tc.wantSyms...), "x")...)
			wantExactFiles(t, m2, dir)
		})
	}
}

// publishOne writes a single-predicate manifest and returns the dir.
func publishOne(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	db := mkdb(t, map[string][]rel.Tuple{"edge": {{0, 1}, {1, 2}}})
	if err := m.Publish(1, db, mksyms("a", "b", "c")); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestOpenRejectsCorruptedManifest(t *testing.T) {
	dir := publishOne(t)
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "corrupted manifest") {
		t.Fatalf("Open with corrupted manifest: %v", err)
	}
}

func TestOpenRejectsTruncatedSegment(t *testing.T) {
	dir := publishOne(t)
	path := filepath.Join(dir, "edge-1.seg")
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-4); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "size") {
		t.Fatalf("Open with truncated segment: %v", err)
	}
}

func TestOpenRejectsMissingSegment(t *testing.T) {
	dir := publishOne(t)
	if err := os.Remove(filepath.Join(dir, "edge-1.seg")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open with missing segment succeeded")
	}
}

// TestLoadRejectsFlippedBit: Open's eager check reads only the header,
// so body corruption surfaces at load time — as a panic carrying the
// checksum failure, not as silently wrong tuples.
func TestLoadRejectsFlippedBit(t *testing.T) {
	dir := publishOne(t)
	path := filepath.Join(dir, "edge-1.seg")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := Open(dir) // header still consistent
	if err != nil {
		t.Fatalf("Open after body flip: %v", err)
	}
	db, _, ok, err := m.Boot(rel.NewSymtab())
	if err != nil || !ok {
		t.Fatalf("Boot: ok=%v err=%v", ok, err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("probing a bit-flipped segment did not panic")
		}
		if !strings.Contains(r.(string), "checksum") {
			t.Fatalf("panic %q does not mention checksum", r)
		}
	}()
	db["edge"].Len() // metadata: fine
	db["edge"].Has(rel.Tuple{0, 1})
}

// writeSymtabV2 writes the format-1/2 symbol table — a uvarint count,
// then the records — the layout symtab-<gen>.bin files had before the
// append-only symtab.bin.
func writeSymtabV2(t *testing.T, path string, names []string) {
	t.Helper()
	raw := appendSymtabRecords(binary.AppendUvarint(nil, uint64(len(names))), names)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// symtabRefFor describes raw as a committed prefix of count names.
func symtabRefFor(raw []byte, count int) symtabRef {
	return symtabRef{Symtab: symtabName, SymtabCount: count, SymtabBytes: int64(len(raw)), SymtabChecksum: fnv1a(fnvOffset64, raw)}
}

func TestSymtabRoundTrip(t *testing.T) {
	names := []string{"", "a", "hello world", strings.Repeat("x", 300), "λ→δ"}
	raw := appendSymtabRecords(nil, names)
	ref := symtabRefFor(raw, len(names))
	got, err := decodeSymtab(raw, ref)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, names) {
		t.Fatalf("decoded %q, want %q", got, names)
	}
	// Bytes past the committed prefix are an uncommitted tail: legal.
	if got, err := decodeSymtab(append(append([]byte{}, raw...), 0xff, 0xff, 0xff), ref); err != nil || !reflect.DeepEqual(got, names) {
		t.Fatalf("prefix with a tail decoded to %q, %v", got, err)
	}
	// A file shorter than the committed prefix must be detected.
	if _, err := decodeSymtab(raw[:len(raw)-3], ref); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated symtab: %v", err)
	}
	// So must a flipped byte inside the prefix, and a wrong count.
	flipped := append([]byte{}, raw...)
	flipped[2] ^= 0x01
	if _, err := decodeSymtab(flipped, ref); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("flipped symtab byte: %v", err)
	}
	for _, count := range []int{len(names) - 1, len(names) + 1} {
		if _, err := decodeSymtab(raw, symtabRefFor(raw, count)); err == nil {
			t.Fatalf("prefix of %d names decoded as %d", len(names), count)
		}
	}
}

// TestOpenRejectsShortOrCorruptSymtab: the directory is rejected, at
// Open when symtab.bin is shorter than the manifest committed and at
// Boot when the committed prefix no longer matches its checksum —
// never served with renamed constants.
func TestOpenRejectsShortOrCorruptSymtab(t *testing.T) {
	dir := publishOne(t)
	path := filepath.Join(dir, symtabName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte{}, raw...)
	flipped[1] ^= 0x02 // "a" becomes "c": a silent rename without the checksum
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := Open(dir)
	if err != nil {
		t.Fatalf("Open reads no symtab bytes, yet: %v", err)
	}
	if _, _, _, err := m.Boot(rel.NewSymtab()); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("Boot over a flipped symtab byte: %v", err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("Open with a short symtab: %v", err)
	}
}

// logAsLinks returns m's manifest at m's version with every link its
// log holds written out as link segments: the chain a writer before
// format 4 left, which kept every link in the manifest.
func logAsLinks(t *testing.T, m *Manager) *manifest {
	t.Helper()
	man := *m.man
	man.Version = m.version
	man.Preds = slices.Clone(man.Preds)
	for i := range man.Preds {
		p := &man.Preds[i]
		p.BaseRows = baseRows(*p)
		p.Links = slices.Clone(p.Links)
		for k, lk := range m.logLinks[p.Pred] {
			cl, err := m.writeLink(p.Pred, uint64(1000+k), lk.adds, lk.dels)
			if err != nil {
				t.Fatal(err)
			}
			p.Links = append(p.Links, cl)
			p.Rows += lk.adds.Len() - lk.dels.Len()
		}
	}
	return &man
}

// TestFormat2DirectoryMigrates: a directory written before format 3 —
// symtab-<gen>.bin with a count header, no symtab fields in the
// manifest, every link a segment — boots, serves, and is a current
// directory after its first publish, the old symbol file and the
// write-ahead log a format-2 manifest never reads collected.
func TestFormat2DirectoryMigrates(t *testing.T) {
	for _, compactFirst := range []bool{false, true} {
		t.Run(fmt.Sprintf("compactFirst=%v", compactFirst), func(t *testing.T) {
			m0, live, dir := chainDB(t, rel.CompactChainLinks)
			want := rel.DB{"edge": live.Clone()}
			man := logAsLinks(t, m0)
			names := []string{"a", "b"} // chainDB's symbols
			writeSymtabV2(t, filepath.Join(dir, "symtab-1.bin"), names)
			man.Format, man.symtabRef, man.Log = 2, symtabRef{Symtab: "symtab-1.bin"}, ""
			raw, err := marshalManifest(man)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, manifestName), raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Remove(filepath.Join(dir, symtabName)); err != nil {
				t.Fatal(err)
			}

			rebootServes(t, dir, man.Version, want)
			wantSymbols(t, dir, names...)

			m, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			syms := rel.NewSymtab()
			db, _, _, err := m.Boot(syms)
			if err != nil {
				t.Fatal(err)
			}
			if compactFirst {
				// The compactor may be the first to publish a manifest.
				if n, err := m.CompactOnce(); err != nil || n != 1 {
					t.Fatalf("CompactOnce on a format-2 directory: n=%d err=%v", n, err)
				}
				wantExactFiles(t, m, dir)
				rebootServes(t, dir, man.Version, want)
			}
			syms.Intern("c")
			next := rel.DB{"edge": overlay(t, db["edge"], []rel.Tuple{{7, 7}}, nil)}
			if err := m.PublishDelta(man.Version+1, next, syms); err != nil {
				t.Fatal(err)
			}
			if m.man.Format != manifestFormat || m.man.Symtab != symtabName {
				t.Fatalf("manifest after the first publish: format %d, symtab %q", m.man.Format, m.man.Symtab)
			}
			wantExactFiles(t, m, dir) // symtab-1.bin collected
			rebootServes(t, dir, man.Version+1, rel.DB{"edge": next["edge"].Clone()})
			wantSymbols(t, dir, "a", "b", "c")
		})
	}
}

func TestSanitizeFilenames(t *testing.T) {
	cases := map[string]string{
		"edge":     "edge",
		"up2":      "up2",
		"a_b":      "a_005fb",
		"path/to":  "path_002fto",
		"ünïcode":  "_00fcn_00efcode",
		"dotted.p": "dotted.p",
	}
	for in, want := range cases {
		if got := sanitize(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
	// Distinct predicates must map to distinct files.
	if sanitize("a_b") == sanitize("a_005fb") {
		t.Error("sanitize collides on escape-looking input")
	}
}

func TestSegmentHeaderRejectsWrongArity(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x-1.seg")
	sum, _, err := writeSegment(path, 2, []rel.Value{0, 1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSegmentHeader(path, 2, 2, sum); err != nil {
		t.Fatalf("valid header rejected: %v", err)
	}
	if err := checkSegmentHeader(path, 3, 2, sum); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if err := checkSegmentHeader(path, 2, 3, sum); err == nil {
		t.Fatal("wrong row count accepted")
	}
	if err := checkSegmentHeader(path, 2, 2, sum+1); err == nil {
		t.Fatal("wrong checksum field accepted")
	}
}

func TestEmptyRelationSegment(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	db := rel.DB{}
	db.Rel("empty", 2)
	if err := m.Publish(1, db, mksyms("a")); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, _, ok, err := m2.Boot(rel.NewSymtab())
	if err != nil || !ok {
		t.Fatalf("Boot: ok=%v err=%v", ok, err)
	}
	e := got["empty"]
	if e.Len() != 0 || e.Arity() != 2 {
		t.Fatalf("empty relation recovered as len=%d arity=%d", e.Len(), e.Arity())
	}
	if e.Has(rel.Tuple{0, 0}) {
		t.Fatal("empty relation claims membership")
	}
}
