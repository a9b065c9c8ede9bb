package segment

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"slices"

	"linrec/internal/rel"
)

// manifestName is the root of a data directory.  Segment files are
// immutable once written and the symbol table and the generation's log
// only ever grow past their committed ends; a manifest swap writes fresh
// segment files under new names, appends any new symbols, starts a new
// log and then atomically renames a new MANIFEST over the old one, so a
// reader (or a crashed process rebooting) always sees a complete,
// internally consistent version.
const manifestName = "MANIFEST"

// symtabName is the one append-only symbol-table file of a format-3
// directory.  The manifest records how much of it is committed.
const symtabName = "symtab.bin"

// manifestFormat guards against reading manifests written by a future,
// incompatible layout.  Format 2 added delta chains (predEntry.Links);
// format 3 replaced the per-generation symtab-<gen>.bin (count header,
// rewritten whole on growth) with the append-only symtab.bin whose
// committed prefix the manifest records.  Older manifests remain
// readable and migrate on their first publish; a reader rejects formats
// it does not know (an older reader would silently drop chained deltas
// or misparse the symbol table).  Format 4 names the generation's log
// (wal.go), which holds the chain links written since the swap.
const (
	manifestFormat    = 4
	manifestFormatMin = 1
)

// predEntry describes one persisted predicate: enough metadata to
// answer Arity/Len without touching the segment, and enough integrity
// information (size and checksum) to validate the file eagerly at boot.
// File/Checksum/Bytes describe the base segment; Links, when present,
// chain delta segments (additions and tombstones, in publish order)
// onto it.  Rows is always the net row count of the whole chain;
// BaseRows is the base segment's own row count and is meaningful only
// when Links is non-empty (chain-free entries leave it 0, meaning
// "equal to Rows").
type predEntry struct {
	Pred     string      `json:"pred"`
	Arity    int         `json:"arity"`
	Rows     int         `json:"rows"`
	File     string      `json:"file"`
	Checksum uint64      `json:"checksum,string"`
	Bytes    int64       `json:"bytes"`
	BaseRows int         `json:"base_rows,omitempty"`
	Links    []chainLink `json:"links,omitempty"`
}

// chainLink is one published delta: the tuples one snapshot swap (or
// one merge of several swaps) added to and tombstoned from the
// predicate.  Applying a chain left to right — base, minus each link's
// dels, plus each link's adds — reproduces the published relation
// exactly.  Either half may be absent (empty file name) when the link
// only adds or only removes.
type chainLink struct {
	AddFile     string `json:"add_file,omitempty"`
	AddRows     int    `json:"add_rows,omitempty"`
	AddChecksum uint64 `json:"add_checksum,string,omitempty"`
	AddBytes    int64  `json:"add_bytes,omitempty"`
	DelFile     string `json:"del_file,omitempty"`
	DelRows     int    `json:"del_rows,omitempty"`
	DelChecksum uint64 `json:"del_checksum,string,omitempty"`
	DelBytes    int64  `json:"del_bytes,omitempty"`
}

// baseRows returns the row count of p's base segment file.
func baseRows(p predEntry) int {
	if len(p.Links) == 0 {
		return p.Rows
	}
	return p.BaseRows
}

// symtabRef names the symbol table a manifest commits to.  In format 3
// Symtab is symtabName and the other three fields delimit and checksum
// its committed prefix: Count names in the first Bytes bytes, whose
// FNV-1a state is Checksum.  Formats 1–2 carry only Symtab — a
// symtab-<gen>.bin read whole.
type symtabRef struct {
	Symtab         string `json:"symtab"`
	SymtabCount    int    `json:"symtab_count,omitempty"`
	SymtabBytes    int64  `json:"symtab_bytes,omitempty"`
	SymtabChecksum uint64 `json:"symtab_checksum,string,omitempty"`
}

// manifest is the on-disk root of a published snapshot.
type manifest struct {
	Format     int    `json:"format"`
	Generation uint64 `json:"generation"`
	Version    uint64 `json:"version"`
	symtabRef
	Log   string      `json:"log,omitempty"`
	Preds []predEntry `json:"preds"`
}

// files returns every file name the manifest references.
func (m *manifest) files() map[string]bool {
	out := map[string]bool{m.Symtab: true}
	if m.Log != "" {
		out[m.Log] = true
	}
	for _, p := range m.Preds {
		out[p.File] = true
		for _, lk := range p.Links {
			if lk.AddFile != "" {
				out[lk.AddFile] = true
			}
			if lk.DelFile != "" {
				out[lk.DelFile] = true
			}
		}
	}
	return out
}

// readManifest parses and sanity-checks dir/MANIFEST.  A missing file
// is reported via os.IsNotExist on the returned error.
func readManifest(dir string) (*manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	return parseManifest(raw)
}

// parseManifest parses and sanity-checks a manifest's bytes.  A manifest
// before format 4 reads no log, whatever it names.
func parseManifest(raw []byte) (*manifest, error) {
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("segment: corrupted manifest: %w", err)
	}
	if m.Format < manifestFormatMin || m.Format > manifestFormat {
		return nil, fmt.Errorf("segment: manifest format %d not supported (want %d..%d)", m.Format, manifestFormatMin, manifestFormat)
	}
	if m.Symtab == "" {
		return nil, fmt.Errorf("segment: manifest missing symtab reference")
	}
	if m.Format < 4 {
		m.Log = ""
	} else if m.Log == "" {
		return nil, fmt.Errorf("segment: format %d manifest names no log", m.Format)
	}
	if m.SymtabCount < 0 || m.SymtabBytes < int64(m.SymtabCount) {
		// Every record is at least its one length byte.
		return nil, fmt.Errorf("segment: manifest claims %d symbols in %d symtab bytes", m.SymtabCount, m.SymtabBytes)
	}
	seen := make(map[string]bool, len(m.Preds))
	for _, p := range m.Preds {
		if p.Pred == "" || p.File == "" || p.Arity <= 0 || p.Rows < 0 {
			return nil, fmt.Errorf("segment: manifest entry for %q is malformed", p.Pred)
		}
		if seen[p.Pred] {
			return nil, fmt.Errorf("segment: manifest lists predicate %q twice", p.Pred)
		}
		seen[p.Pred] = true
		if len(p.Links) > 0 && baseRows(p) < 0 {
			return nil, fmt.Errorf("segment: manifest entry for %q has negative base rows", p.Pred)
		}
		for i, lk := range p.Links {
			if lk.AddFile == "" && lk.DelFile == "" {
				return nil, fmt.Errorf("segment: manifest entry for %q has empty chain link %d", p.Pred, i)
			}
			if lk.AddFile == "" && lk.AddRows != 0 {
				return nil, fmt.Errorf("segment: manifest entry for %q link %d claims add rows without a file", p.Pred, i)
			}
			if lk.DelFile == "" && lk.DelRows != 0 {
				return nil, fmt.Errorf("segment: manifest entry for %q link %d claims del rows without a file", p.Pred, i)
			}
		}
	}
	return &m, nil
}

// marshalManifest renders a manifest for writing, newline-terminated.
func marshalManifest(m *manifest) ([]byte, error) {
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(raw, '\n'), nil
}

// writeManifest publishes m atomically: serialize to MANIFEST.tmp,
// fsync it, rename over MANIFEST, then fsync the directory so the
// rename itself is durable — two fsyncs.  A crash at any point leaves
// either the old complete manifest or the new complete manifest in
// place.  It returns the manifest's size in bytes.
func writeManifest(dir string, m *manifest) (int64, error) {
	raw, err := marshalManifest(m)
	if err != nil {
		return 0, err
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return 0, err
	}
	return int64(len(raw)), syncDir(dir)
}

// syncDir fsyncs a directory so a just-completed rename survives power
// loss.  Some platforms refuse to fsync directories; that only weakens
// durability, not atomicity, so the error is ignored there.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !os.IsPermission(err) {
		return err
	}
	return nil
}

// appendSymtabRecords encodes names as symbol-table records — uvarint
// length + bytes each — onto buf.  Replaying the records in order into
// a fresh symtab reproduces the same int32 for every name, which is
// what keeps persisted column values meaningful across restarts.
func appendSymtabRecords(buf []byte, names []string) []byte {
	size := 0
	for _, name := range names {
		size += (bits.Len(uint(len(name))|1)+6)/7 + len(name)
	}
	buf = slices.Grow(buf, size)
	for _, name := range names {
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
	}
	return buf
}

// parseSymtabRecords decodes exactly count records that together fill
// raw exactly.
func parseSymtabRecords(raw []byte, count int) ([]string, error) {
	if count < 0 || count > len(raw) {
		return nil, fmt.Errorf("segment: corrupted symtab: %d names cannot fit %d bytes", count, len(raw))
	}
	names := make([]string, 0, count)
	off := 0
	for i := 0; i < count; i++ {
		n, k := binary.Uvarint(raw[off:])
		if k <= 0 || n > uint64(len(raw)-off-k) {
			return nil, fmt.Errorf("segment: corrupted symtab: truncated at entry %d", i)
		}
		off += k
		names = append(names, string(raw[off:off+int(n)]))
		off += int(n)
	}
	if off != len(raw) {
		return nil, fmt.Errorf("segment: corrupted symtab: %d bytes past the last of %d names", len(raw)-off, count)
	}
	return names, nil
}

// decodeSymtab reads the committed prefix ref describes out of raw, the
// leading bytes of a format-3 symtab.bin: the prefix must be present in
// full, hash to the recorded checksum and hold exactly the recorded
// number of names.  Whatever follows the prefix is an uncommitted tail
// (a crashed append) and is ignored.
func decodeSymtab(raw []byte, ref symtabRef) ([]string, error) {
	if ref.SymtabBytes < 0 || int64(len(raw)) < ref.SymtabBytes {
		return nil, fmt.Errorf("segment: symtab %s holds %d bytes, manifest committed %d (truncated)", ref.Symtab, len(raw), ref.SymtabBytes)
	}
	raw = raw[:ref.SymtabBytes]
	if got := fnv1a(fnvOffset64, raw); got != ref.SymtabChecksum {
		return nil, fmt.Errorf("segment: symtab %s checksum %x, manifest says %x (corrupt)", ref.Symtab, got, ref.SymtabChecksum)
	}
	return parseSymtabRecords(raw, ref.SymtabCount)
}

// readSymtab loads the interning table man commits to, in intern order.
// Format 3 reads only the committed prefix of symtab.bin; formats 1–2
// read a whole symtab-<gen>.bin — a uvarint count, then the records —
// in which trailing bytes are corruption.
func readSymtab(dir string, man *manifest) ([]string, error) {
	f, err := os.Open(filepath.Join(dir, man.Symtab))
	if err != nil {
		if man.Format >= 3 && man.SymtabBytes == 0 && os.IsNotExist(err) {
			return nil, nil // no symbol was ever interned
		}
		return nil, err
	}
	defer f.Close()
	if man.Format >= 3 {
		raw := make([]byte, man.SymtabBytes)
		n, err := io.ReadFull(f, raw)
		if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
			return nil, err
		}
		return decodeSymtab(raw[:n], man.symtabRef) // a short file fails there
	}
	raw, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	count, off := binary.Uvarint(raw)
	if off <= 0 || count > uint64(len(raw)) {
		return nil, fmt.Errorf("segment: corrupted symtab %s: bad count", man.Symtab)
	}
	return parseSymtabRecords(raw[off:], int(count))
}

// restoreSymtab replays persisted names into syms via the bulk Restore
// path, which verifies the interning produces the expected dense values
// (tolerating an already-present prefix, rejecting any divergence — a
// mismatched table would silently remap every persisted column value).
func restoreSymtab(syms *rel.Symtab, names []string) error {
	if err := syms.Restore(names); err != nil {
		return fmt.Errorf("segment: %w", err)
	}
	return nil
}
