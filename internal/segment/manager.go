package segment

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"linrec/internal/rel"
)

// Manager owns one data directory: it boots the newest published
// snapshot from the manifest and its log, and publishes a new snapshot
// either as one record appended to the generation's log (a write rel's
// chain policy keeps as one more link per changed predicate) or as
// immutable segment files plus an atomic manifest swap, which absorbs
// the log.  One Manager serves one
// engine; Publish/PublishDelta calls arrive serialized under the
// engine's write lock, the background compactor serializes against
// them on the manager's own lock, and Stats may be read concurrently
// from the HTTP handlers.
type Manager struct {
	dir string

	mu  sync.Mutex
	man *manifest // last published (or booted) manifest, nil if none

	// lastDB holds the stores of the last published (or booted) snapshot:
	// a predicate whose store is identical in the next publish keeps its
	// manifest entry, one that wraps it in a single rel.Layered publishes
	// only that layer.  shape holds, per predicate, a store with the same
	// tuples laid out exactly as the manifest entry — one layer per chain
	// link over a store of the base file.  The two differ only for what
	// the background compactor (or a non-delta Publish of a chain)
	// reshaped on disk since; the next PublishDelta hands the engine the
	// shape, which is what keeps served chain depth equal to disk chain
	// length.
	lastDB rel.DB
	shape  rel.DB

	// symsChecked records that the engine's symbol table is known to
	// extend the persisted one (Boot replayed it, or a publish verified
	// it), so appending names past the committed count is sound.
	symsChecked bool

	// The generation's log (wal.go): the snapshot version it has
	// reached, its committed end and the checksum state a record appended
	// there chains from, the names it interned past symtab.bin's committed
	// prefix, and per predicate the links it holds — the top layers of
	// shape's chain, in order.  logReady is false while the manifest names
	// no log file that exists (format ≤ 3, or a missing log), and the next
	// write then takes the swap path, which starts one.  broken holds why
	// a failed append could not be cut back off the log; every write fails
	// with it until the directory is reopened.
	version  uint64
	logEnd   int64
	logSum   uint64
	logNames []string
	logLinks map[string][]logLink
	logReady bool
	broken   error

	// sweepDue makes the next successful manifest swap also sweep the
	// directory for strays of crashed or failed publishes: set at Open
	// and after any failed publish, so steady-state publishes unlink
	// exactly what they orphaned and never list the directory.
	sweepDue bool

	// budget, when set (SetMemBudget before Boot), charges the probe
	// artifacts of every lazy store this manager hands out and evicts
	// them under pressure.
	budget *Budget

	// lazyByFile maps segment file names to the live Lazy stores
	// reading them.  gc consults it so a file is force-mapped before
	// its directory entry disappears — without this, compacting or
	// replacing a predicate could unlink a segment an in-flight query
	// (pinning an old snapshot) had not touched yet, turning its first
	// probe into a crash.
	lazyByFile map[string]*Lazy

	stats Stats
	// Lazy-load counters live outside mu: onLoad fires inside a store's
	// map-once, which a Publish holding mu may itself trigger (Packed on
	// a not-yet-mapped store), so they must not re-enter the lock.
	lazyLoads      atomic.Int64
	lazyLoadMicros atomic.Int64

	// crashAt, when non-zero, aborts Publish at a chosen stage so the
	// crash-recovery tests can observe every intermediate disk state.
	crashAt crashStage
}

// crashStage names the points where a test can make Publish "crash"
// (return errCrash with the disk left exactly as a killed process
// would leave it).
type crashStage int

const (
	crashNone         crashStage = iota
	crashAfterSegment            // new segment files written, manifest untouched
	crashAfterSymtab             // new names appended past symtab.bin's committed end
	crashBeforeRename            // MANIFEST.tmp written, rename not performed
	crashAfterRename             // new manifest live, old files not yet GC'd
	crashLogTorn                 // half of a log record written
	failLogSync                  // a log record written, its sync fails
	failLogTruncate              // as failLogSync, and cutting the record back off fails too
)

// errCrash marks a test-induced crash inside Publish; errInjected is a
// test-induced I/O failure the manager handles as a real one.
var errCrash, errInjected = fmt.Errorf("segment: simulated crash"), fmt.Errorf("segment: injected I/O failure")

// Stats is a point-in-time snapshot of the manager's counters, shaped
// for /v1/stats and /metrics.  The residency block is zero unless a
// memory budget is configured; the chain block describes the current
// delta chains, manifest and log links alike.
type Stats struct {
	Dir             string `json:"dir"`
	Generation      uint64 `json:"generation"`
	SnapshotVersion uint64 `json:"snapshot_version"`
	Recovered       bool   `json:"recovered"`
	RecoveredPreds  int    `json:"recovered_preds"`
	RecoveredRows   int    `json:"recovered_rows"`
	BootMillis      int64  `json:"boot_millis"`
	Publishes       int64  `json:"publishes"`
	SegmentsWritten int64  `json:"segments_written"`
	SegmentsReused  int64  `json:"segments_reused"`
	BytesWritten    int64  `json:"bytes_written"` // segment files and log records
	LogRecords      int64  `json:"log_records"`
	LogBytes        int64  `json:"log_bytes"`
	SymtabBytes     int64  `json:"symtab_bytes"` // symbol-table bytes written
	ManifestBytes   int64  `json:"manifest_bytes"`
	Fsyncs          int64  `json:"fsyncs"` // file and directory fsyncs issued
	LazyLoads       int64  `json:"lazy_loads"`
	LazyLoadMicros  int64  `json:"lazy_load_micros"`
	GCRemoved       int64  `json:"gc_removed"`

	MemBudgetBytes    int64 `json:"mem_budget_bytes,omitempty"`
	ResidentBytes     int64 `json:"resident_bytes"`
	ResidentPeakBytes int64 `json:"resident_peak_bytes"`
	ResidentSegments  int   `json:"resident_segments"`
	Evictions         int64 `json:"evictions"`
	EvictedBytes      int64 `json:"evicted_bytes"`

	DeltaLinks     int64 `json:"delta_links_written"`
	ChainPreds     int   `json:"chain_preds"`
	ChainLinks     int   `json:"chain_links"`
	MaxChainLinks  int   `json:"max_chain_links"`
	Compactions    int64 `json:"compactions"`
	CompactedLinks int64 `json:"compacted_links"`
}

// Open attaches a Manager to dir, creating the directory if needed and
// validating any existing manifest eagerly: every referenced segment
// file — base and chained delta alike — must exist with the exact size
// and header the manifest promises, and the symbol table must hold at
// least its committed bytes.  Validation reads 24 bytes per file and
// never lists the directory, so opening stays proportional to the
// number of persisted segments, not to row counts or to garbage.  Open
// then reads the longest valid prefix of the manifest's log.
func Open(dir string) (*Manager, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m := &Manager{dir: dir, lazyByFile: map[string]*Lazy{}, logLinks: map[string][]logLink{}, sweepDue: true}
	m.stats.Dir = dir
	man, err := readManifest(dir)
	if os.IsNotExist(err) {
		m.symsChecked = true // nothing persisted to diverge from
		return m, nil
	}
	if err != nil {
		return nil, err
	}
	for _, p := range man.Preds {
		if err := checkSegmentHeader(filepath.Join(dir, p.File), p.Arity, baseRows(p), p.Checksum); err != nil {
			return nil, fmt.Errorf("segment: predicate %q: %w", p.Pred, err)
		}
		for _, lk := range p.Links {
			if lk.AddFile != "" {
				if err := checkSegmentHeader(filepath.Join(dir, lk.AddFile), p.Arity, lk.AddRows, lk.AddChecksum); err != nil {
					return nil, fmt.Errorf("segment: predicate %q delta: %w", p.Pred, err)
				}
			}
			if lk.DelFile != "" {
				if err := checkSegmentHeader(filepath.Join(dir, lk.DelFile), p.Arity, lk.DelRows, lk.DelChecksum); err != nil {
					return nil, fmt.Errorf("segment: predicate %q delta: %w", p.Pred, err)
				}
			}
		}
	}
	if man.Format < 3 || man.SymtabBytes > 0 {
		info, err := os.Stat(filepath.Join(dir, man.Symtab))
		if err != nil {
			return nil, fmt.Errorf("segment: manifest references missing symtab %s: %w", man.Symtab, err)
		}
		if info.Size() < man.SymtabBytes {
			return nil, fmt.Errorf("segment: symtab %s holds %d bytes, manifest committed %d (truncated)", man.Symtab, info.Size(), man.SymtabBytes)
		}
	}
	m.man = man
	if err := m.readLogLocked(); err != nil {
		return nil, err
	}
	m.stats.Generation = man.Generation
	return m, nil
}

// Dir returns the data directory the manager is attached to.
func (m *Manager) Dir() string { return m.dir }

// SetMemBudget caps the heap bytes spent on probe-acceleration
// artifacts (per-column indexes, promoted key tables) across
// every store this manager hands out: segments stay mmap-resident and
// the least-recently-probed artifacts evict back to mmap-only under
// pressure, which is what lets a query answer over a database larger
// than resident memory.  Zero or negative removes the budget.  Call
// before Boot; stores already handed out keep their previous budget.
func (m *Manager) SetMemBudget(capBytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if capBytes > 0 {
		m.budget = NewBudget(capBytes)
	} else {
		m.budget = nil
	}
}

// HasSnapshot reports whether the directory held a published snapshot
// when the manager opened (i.e. Boot will recover rather than start
// fresh).  Callers use it to decide whether seeding work is needed.
func (m *Manager) HasSnapshot() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.man != nil
}

// newLazyLocked builds a lazy store over one segment file, wired to
// the manager's budget, load counters and gc registry.
func (m *Manager) newLazyLocked(pred, file string, arity, rows int, checksum uint64) *Lazy {
	lz := NewLazy(pred, filepath.Join(m.dir, file), arity, rows, checksum)
	lz.onLoad = m.noteLoad
	lz.budget = m.budget
	m.lazyByFile[file] = lz
	return lz
}

// Boot restores the last published snapshot: it replays the persisted
// symbol table and the log's names into syms (verifying the table's
// checksum) and returns a database of lazy disk-backed stores plus the
// snapshot version the log reached.  A predicate persisted as a delta
// chain boots as layered lazy stores — base segment plus one overlay
// per manifest link — under one in-memory overlay per log link, so
// recovery still reads no segment data.  ok is false when the directory
// holds no manifest yet (fresh start).
func (m *Manager) Boot(syms *rel.Symtab) (db rel.DB, version uint64, ok bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.man == nil {
		return nil, 0, false, nil
	}
	start := time.Now()
	if err := m.replaySymtabLocked(syms); err != nil {
		return nil, 0, false, err
	}
	db = m.openStoresLocked()
	m.lastDB = db
	m.shape = maps.Clone(db)
	rows := 0
	for _, st := range db {
		rows += st.Len()
	}
	m.stats.Recovered = true
	m.stats.RecoveredPreds = len(m.man.Preds)
	m.stats.RecoveredRows = rows
	m.stats.BootMillis = time.Since(start).Milliseconds()
	return db, m.version, true, nil
}

// replaySymtabLocked replays the manifest's symbol table and the log's
// names into syms, failing if syms already diverges from them.
func (m *Manager) replaySymtabLocked(syms *rel.Symtab) error {
	names, err := readSymtab(m.dir, m.man)
	if err != nil {
		return err
	}
	if err := restoreSymtab(syms, append(names, m.logNames...)); err != nil {
		return err
	}
	m.symsChecked = true
	return nil
}

// openStoresLocked builds the manifest's predicates as lazy stores, one
// rel.Layered per chain link over the base segment's store, then one
// per log link.
func (m *Manager) openStoresLocked() rel.DB {
	db := make(rel.DB, len(m.man.Preds))
	for _, p := range m.man.Preds {
		var st rel.Store = m.newLazyLocked(p.Pred, p.File, p.Arity, baseRows(p), p.Checksum)
		for _, lk := range p.Links {
			var adds, dels rel.Store
			if lk.AddFile != "" {
				adds = m.newLazyLocked(p.Pred, lk.AddFile, p.Arity, lk.AddRows, lk.AddChecksum)
			}
			if lk.DelFile != "" {
				dels = m.newLazyLocked(p.Pred, lk.DelFile, p.Arity, lk.DelRows, lk.DelChecksum)
			}
			st = rel.NewLayered(st, adds, dels)
		}
		for _, lk := range m.logLinks[p.Pred] {
			st = rel.NewLayered(st, lk.adds, lk.dels)
		}
		db[p.Pred] = st
	}
	return db
}

// noteLoad records one lazy segment mapping.  Lock-free on purpose —
// see the counter declarations.  Microsecond resolution: an mmap of a
// warm file costs tens of microseconds, which millisecond granularity
// used to truncate to zero.
func (m *Manager) noteLoad(took time.Duration, bytes int64) {
	m.lazyLoads.Add(1)
	m.lazyLoadMicros.Add(took.Microseconds())
}

// Publish persists a snapshot with a manifest swap: unchanged
// predicates (same store identity as the previous publish) keep their
// existing segment files and log links; changed or new predicates get
// fresh segments under <pred>-<generation>.seg names.  Symbols interned
// since the last publish are appended to the symbol table.  Once all
// new bytes are durable, the manifest swaps atomically; finally the
// files the swap orphaned are unlinked, best-effort.  On error the old
// manifest remains live and fully consistent — stray new files and an
// uncommitted symbol-table tail are unreferenced, and a later
// successful publish collects or overwrites them.
func (m *Manager) Publish(version uint64, db rel.DB, syms *rel.Symtab) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.publishLocked(version, db, syms, false)
}

// PublishDelta is Publish with partial segment reuse: a predicate
// whose store is one overlay layer (rel.Layered) over the previously
// published store persists just the overlay as a link chained onto the
// base, instead of rewriting the whole relation.  Chains are bounded by
// rel's chain policy (rel.Layered.Fold) — a delta that would push a
// chain past its length bound merges the links into one, and past its
// garbage bound folds into a fresh base segment.  When the policy keeps
// every changed chain and version is the next one, the publish is one
// record appended to the generation's log and one sync; anything else
// swaps the manifest.  Every entry of db whose on-disk shape differs
// from the store the caller passed (a merge or fold here, or one the
// background compactor made since the last publish) is replaced in
// place with an equivalent store of exactly that shape, so the
// caller's snapshot never serves a chain deeper than the disk's.  The
// durability contract is identical to Publish.
func (m *Manager) PublishDelta(version uint64, db rel.DB, syms *rel.Symtab) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.publishLocked(version, db, syms, true)
}

func (m *Manager) publishLocked(version uint64, db rel.DB, syms *rel.Symtab, allowDelta bool) (err error) {
	defer m.sweepAfterFailure(&err)
	if m.broken != nil {
		return m.broken
	}
	gen, inSymtab := uint64(1), 0
	prev := map[string]predEntry{}
	if m.man != nil {
		gen = m.man.Generation + 1
		for _, p := range m.man.Preds {
			prev[p.Pred] = p
		}
		if !m.symsChecked {
			if err := m.replaySymtabLocked(syms); err != nil {
				return err
			}
		}
		if m.man.Format >= 3 {
			inSymtab = m.man.SymtabCount
		}
	}
	names := syms.Names()
	if len(names) < inSymtab+len(m.logNames) {
		return fmt.Errorf("segment: symbol table shrank from %d persisted names to %d", inSymtab+len(m.logNames), len(names))
	}

	preds := make([]string, 0, len(db))
	for pred := range db {
		preds = append(preds, pred)
	}
	sort.Strings(preds)

	// A delta publish whose every changed chain rel's policy keeps is one
	// log record; a fold, a predicate written whole, a dropped predicate
	// or a version that is not the next one swaps the manifest.
	swap := !allowDelta || !m.logReady || version != m.version+1 || len(db) != len(prev)
	next := &manifest{Format: manifestFormat, Generation: gen, Version: version}
	shape := make(rel.DB, len(db))
	links := map[string][]logLink{} // the log's links once this publish commits
	rec := logRecord{version: version, names: names[inSymtab+len(m.logNames):]}
	for _, pred := range preds {
		st, served := db[pred], m.lastDB[pred]
		old, hasOld := prev[pred]
		ly, layered := st.(*rel.Layered)
		entry, sh := old, st
		switch {
		case hasOld && served == st:
			sh, links[pred] = m.shape[pred], m.logLinks[pred]
			m.stats.SegmentsReused++
		case allowDelta && layered && hasOld && ly.Base() == served:
			if m.shape[pred] != served {
				ly = rel.NewLayered(m.shape[pred], ly.Adds(), ly.Dels())
			}
			kind, merged := ly.Fold(rel.MaxChainLinks)
			if kind == rel.FoldKeep {
				lk := logLink{pred, ly.Adds(), ly.Dels()}
				sh, links[pred] = ly, append(slices.Clip(m.logLinks[pred]), lk)
				rec.links = append(rec.links, lk)
				m.stats.DeltaLinks++
				break
			}
			swap = true
			entry, sh, err = m.fold(pred, gen, old, ly, kind, merged)
		default:
			swap = true
			entry, err = m.writePred(pred, gen, st)
			if layered && err == nil {
				// A chain written out whole: its mirror is the flat segment.
				sh = m.newLazyLocked(pred, entry.File, entry.Arity, entry.Rows, entry.Checksum)
			}
		}
		if err != nil {
			return err
		}
		next.Preds = append(next.Preds, entry)
		shape[pred] = sh
		if allowDelta && sh != db[pred] {
			db[pred] = sh // not yet visible: the caller's snapshot takes the disk's shape
		}
	}

	if !swap {
		end, sum, err := m.appendLogLocked(m.man.Log, m.logEnd, m.logSum, rec)
		if err != nil {
			return err
		}
		m.version, m.logEnd, m.logSum, m.logLinks = version, end, sum, links
		m.logNames = append(m.logNames, rec.names...)
	} else {
		if m.crashAt == crashAfterSegment {
			return errCrash
		}
		if err := m.appendSymtab(next, names[inSymtab:]); err != nil {
			return err
		}
		if m.crashAt == crashAfterSymtab {
			return errCrash
		}
		if err := m.commitLocked(next, links); err != nil {
			return err
		}
	}
	m.lastDB = db
	m.shape = shape
	m.stats.Publishes++
	return nil
}

// sweepAfterFailure (deferred) schedules a directory sweep when a
// publish or compaction failed: whatever files it wrote are strays.
func (m *Manager) sweepAfterFailure(err *error) {
	if *err != nil {
		m.sweepDue = true
	}
}

// fold does the I/O of a fold rel decided for top, the chain old and
// the log describe, and returns the new entry with the store that
// mirrors it.  A rebase writes a fresh base segment and serves a flat
// lazy store over it.  A merge writes merged's one layer as the entry's
// only link (none when the chain netted out to its bare base); the base
// file, and the base store with its mapping and indexes, carry over
// untouched.
func (m *Manager) fold(pred string, gen uint64, old predEntry, top *rel.Layered, kind rel.FoldKind, merged rel.Store) (predEntry, rel.Store, error) {
	entry := old
	if kind == rel.FoldRebase {
		var err error
		if entry, err = m.writePred(pred, gen, top); err != nil {
			return predEntry{}, nil, err
		}
		merged = m.newLazyLocked(pred, entry.File, entry.Arity, entry.Rows, entry.Checksum)
	} else {
		entry.Links, entry.BaseRows, entry.Rows = nil, 0, top.Len()
		if ly, ok := merged.(*rel.Layered); ok {
			lk, err := m.writeLink(pred, gen, ly.Adds(), ly.Dels())
			if err != nil {
				return predEntry{}, nil, err
			}
			entry.Links, entry.BaseRows = []chainLink{lk}, ly.Base().Len()
		}
	}
	m.stats.Compactions++
	m.stats.CompactedLinks += int64(top.Depth())
	return entry, merged, nil
}

// writeLink persists one merged chain link's additions and tombstones
// as delta segments (either may be empty, not both).
func (m *Manager) writeLink(pred string, gen uint64, adds, dels rel.Store) (lk chainLink, err error) {
	if adds.Len() > 0 {
		lk.AddFile = fmt.Sprintf("%s-%d.add.seg", sanitize(pred), gen)
		lk.AddRows = adds.Len()
		if lk.AddChecksum, lk.AddBytes, err = m.writeStoreSegment(lk.AddFile, adds); err != nil {
			return chainLink{}, err
		}
	}
	if dels.Len() > 0 {
		lk.DelFile = fmt.Sprintf("%s-%d.del.seg", sanitize(pred), gen)
		lk.DelRows = dels.Len()
		if lk.DelChecksum, lk.DelBytes, err = m.writeStoreSegment(lk.DelFile, dels); err != nil {
			return chainLink{}, err
		}
	}
	return lk, nil
}

// packedValues returns st's rows flat, row-major.
func packedValues(st rel.Store) []rel.Value {
	type packed interface{ Packed() []rel.Value }
	if p, ok := st.(packed); ok {
		return p.Packed()
	}
	// Generic fallback: flatten through the interface.
	data := make([]rel.Value, 0, st.Len()*st.Arity())
	st.Each(func(t rel.Tuple) { data = append(data, t...) })
	return data
}

// writeStoreSegment flattens st into a segment file, updating the
// write counters.
func (m *Manager) writeStoreSegment(file string, st rel.Store) (checksum uint64, bytes int64, err error) {
	checksum, bytes, err = writeSegment(filepath.Join(m.dir, file), st.Arity(), packedValues(st))
	if err != nil {
		return 0, 0, err
	}
	m.stats.SegmentsWritten++
	m.stats.BytesWritten += bytes
	m.stats.Fsyncs++
	return checksum, bytes, nil
}

// writePred materializes one predicate's tuples into a fresh segment.
func (m *Manager) writePred(pred string, gen uint64, st rel.Store) (predEntry, error) {
	file := fmt.Sprintf("%s-%d.seg", sanitize(pred), gen)
	checksum, bytes, err := m.writeStoreSegment(file, st)
	if err != nil {
		return predEntry{}, err
	}
	return predEntry{
		Pred:     pred,
		Arity:    st.Arity(),
		Rows:     st.Len(),
		File:     file,
		Checksum: checksum,
		Bytes:    bytes,
	}, nil
}

// appendSymtab makes next commit to a symbol table extended by fresh,
// the names past the live manifest's committed count (the log's names
// first): they are appended to symtab.bin at its committed end —
// overwriting whatever tail a crashed or failed publish left there,
// never a committed byte — and fsync'd, and the running checksum is
// extended over the appended bytes alone.  A directory whose manifest
// predates format 3 has nothing committed in symtab.bin, so its first
// publish writes every name.
func (m *Manager) appendSymtab(next *manifest, fresh []string) error {
	ref := symtabRef{Symtab: symtabName, SymtabChecksum: fnvOffset64}
	if m.man != nil && m.man.Format >= 3 {
		ref = m.man.symtabRef
	}
	if len(fresh) > 0 {
		buf := appendSymtabRecords(nil, fresh)
		f, err := os.OpenFile(filepath.Join(m.dir, symtabName), os.O_WRONLY|os.O_CREATE, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.WriteAt(buf, ref.SymtabBytes); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		ref.SymtabCount += len(fresh)
		ref.SymtabBytes += int64(len(buf))
		ref.SymtabChecksum = fnv1a(ref.SymtabChecksum, buf)
		m.stats.SymtabBytes += int64(len(buf))
		m.stats.Fsyncs++
	}
	next.symtabRef = ref
	return nil
}

// commitLocked swaps next in as the live manifest — the commit point —
// and unlinks the files the swap orphaned.  Before the rename it starts
// next's log holding carry, the log links each predicate keeps, as one
// record at next's version.
func (m *Manager) commitLocked(next *manifest, carry map[string][]logLink) error {
	next.Log = logName(next.Generation)
	var links []logLink
	for _, p := range next.Preds {
		links = append(links, carry[p.Pred]...)
	}
	end, sum, err := m.startLog(next.Log, next.Version, links)
	if err != nil {
		return err
	}
	if m.crashAt == crashBeforeRename {
		// Mimic a crash between writing MANIFEST.tmp and the rename: the
		// tmp file exists but the live manifest is untouched.
		raw, err := marshalManifest(next)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(m.dir, manifestName+".tmp"), raw, 0o644); err != nil {
			return err
		}
		return errCrash
	}
	bytes, err := writeManifest(m.dir, next)
	if err != nil {
		return err
	}
	m.stats.ManifestBytes += bytes
	m.stats.Fsyncs += 2 // MANIFEST.tmp and the directory
	old := m.man
	m.man = next
	m.stats.Generation = next.Generation
	m.version, m.logEnd, m.logSum, m.logReady = next.Version, end, sum, true
	m.logNames, m.logLinks = nil, carry
	if m.crashAt == crashAfterRename {
		return errCrash
	}
	m.gc(old, next)
	return nil
}

// CompactOnce tidies every chain rel's policy folds at the background
// trigger, at the current snapshot version, publishing a new manifest
// generation: a chain of rel.CompactChainLinks links or more (log links
// included) merges into one link, and one carrying more garbage than
// live rows folds into a fresh base.  Purely physical: live stores keep
// serving the chain they hold, identity-based reuse still matches them,
// and the next PublishDelta hands the engine the reshaped stores.
// Returns how many chains it reshaped.
func (m *Manager) CompactOnce() (n int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	defer m.sweepAfterFailure(&err)
	if m.man == nil {
		return 0, nil
	}
	if m.broken != nil {
		return 0, m.broken
	}
	if m.shape == nil {
		m.shape = m.openStoresLocked() // never booted: compact straight off the disk
	}
	gen := m.man.Generation + 1
	next := &manifest{Format: manifestFormat, Generation: gen, Version: m.version}
	reshaped := rel.DB{}
	carry := map[string][]logLink{}
	for _, p := range m.man.Preds {
		kind, merged := rel.FoldKeep, rel.Store(nil)
		top, chained := m.shape[p.Pred].(*rel.Layered)
		if chained {
			kind, merged = top.Fold(rel.CompactChainLinks - 1)
		}
		if kind == rel.FoldKeep {
			next.Preds = append(next.Preds, p)
			carry[p.Pred] = m.logLinks[p.Pred]
			continue
		}
		entry, sh, err := m.fold(p.Pred, gen, p, top, kind, merged)
		if err != nil {
			return 0, err
		}
		next.Preds = append(next.Preds, entry)
		reshaped[p.Pred] = sh
	}
	if len(reshaped) == 0 {
		return 0, nil
	}
	fresh := m.logNames
	if m.man.Format < 3 {
		// Not yet migrated: carry the old table over into symtab.bin.
		if fresh, err = readSymtab(m.dir, m.man); err != nil {
			return 0, err
		}
	}
	if err := m.appendSymtab(next, fresh); err != nil {
		return 0, err
	}
	if err := m.commitLocked(next, carry); err != nil {
		return 0, err
	}
	for pred, sh := range reshaped {
		m.shape[pred] = sh
	}
	return len(reshaped), nil
}

// StartCompactor runs CompactOnce every interval on a background
// goroutine until the returned stop function is called.  Fold errors
// are swallowed (the chain stays valid and the next tick retries); a
// non-positive interval disables the compactor and returns a no-op
// stop.
func (m *Manager) StartCompactor(every time.Duration) (stop func()) {
	if every <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				_, _ = m.CompactOnce()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}

// gc unlinks exactly the files old references and cur does not — what
// this manifest swap orphaned.  When a sweep is due (the first swap
// after Open, or after a failed publish) it also lists the directory
// once and unlinks any other stray *.seg / symtab-*.bin / wal-*.log.  Removal is
// best-effort: a leaked file wastes disk but can never be resurrected,
// because nothing references it.
func (m *Manager) gc(old, cur *manifest) {
	live := cur.files()
	if old != nil {
		for name := range old.files() {
			if !live[name] {
				m.unlink(name)
			}
		}
	}
	if !m.sweepDue {
		return
	}
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		return
	}
	m.sweepDue = false
	for _, e := range entries {
		name := e.Name()
		if live[name] || e.IsDir() {
			continue
		}
		if strings.HasSuffix(name, ".seg") || strings.HasPrefix(name, "symtab-") || strings.HasPrefix(name, "wal-") {
			m.unlink(name)
		}
	}
}

// unlink removes one unreferenced file.  A file a live lazy store still
// reads from is force-mapped first (the mapping survives the unlink),
// so compaction and segment replacement can never crash an in-flight
// query pinning an old snapshot.
func (m *Manager) unlink(name string) {
	if lz, ok := m.lazyByFile[name]; ok {
		if lz.ensureMapped() != nil {
			// Couldn't pin the data into memory; keep the file so the
			// store's next probe still has something to read.
			return
		}
		delete(m.lazyByFile, name)
	}
	if os.Remove(filepath.Join(m.dir, name)) == nil {
		m.stats.GCRemoved++
	}
}

// Stats returns a copy of the manager's counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.stats
	out.SnapshotVersion = m.version
	out.LazyLoads = m.lazyLoads.Load()
	out.LazyLoadMicros = m.lazyLoadMicros.Load()
	if m.man != nil {
		for _, p := range m.man.Preds {
			if n := len(p.Links) + len(m.logLinks[p.Pred]); n > 0 {
				out.ChainPreds++
				out.ChainLinks += n
				if n > out.MaxChainLinks {
					out.MaxChainLinks = n
				}
			}
		}
	}
	if m.budget != nil {
		bs := m.budget.Stats()
		out.MemBudgetBytes = bs.CapBytes
		out.ResidentBytes = bs.UsedBytes
		out.ResidentPeakBytes = bs.PeakBytes
		out.ResidentSegments = bs.Resident
		out.Evictions = bs.Evictions
		out.EvictedBytes = bs.EvictedBytes
	}
	return out
}

// Budget returns the configured memory budget, or nil.
func (m *Manager) Budget() *Budget {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.budget
}

// sanitize maps a predicate name onto a filesystem-safe token.  Escape
// first (so an escaped char can't collide with a literal underscore),
// then the generation suffix keeps distinct publishes distinct.
func sanitize(pred string) string {
	var b strings.Builder
	for _, r := range pred {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			b.WriteRune(r)
		default:
			fmt.Fprintf(&b, "_%04x", r)
		}
	}
	return b.String()
}
