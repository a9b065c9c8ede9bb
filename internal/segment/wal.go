package segment

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"linrec/internal/rel"
)

// The generation's log, wal-<gen>.log, is the redo log in front of the
// manifest swap: a write that rel's chain policy keeps as one more link
// per changed predicate appends one framed record here and syncs once,
// and the next manifest swap — the checkpoint — absorbs the log.  A
// record is a 12-byte frame, a u32 payload length and a u64 FNV-1a state
// chained from the previous record's (from logSeed for the first), then
// the payload:
//
//	uvarint version
//	uvarint name count, then names as symbol-table records
//	uvarint link count, then per link:
//	    uvarint len(pred), pred bytes, uvarint arity,
//	    uvarint add rows, uvarint del rows,
//	    (add rows + del rows) × arity u32 values, adds first
//
// docs/STORAGE.md specifies the layout and its recovery rule.

// logFrameSize is a record's frame: payload length and checksum.
const logFrameSize = 4 + 8

// logLink is one chain link the log holds: a predicate's added and
// tombstoned rows.
type logLink struct {
	pred       string
	adds, dels rel.Store
}

// logRecord is one record: the snapshot version it commits, the names
// interned since the previous commit, and its links in order.
type logRecord struct {
	version uint64
	names   []string
	links   []logLink
}

// logName names generation gen's log.
func logName(gen uint64) string { return fmt.Sprintf("wal-%d.log", gen) }

// logSeed is the checksum state a log's first record chains from, so a
// record can only ever validate in the log it was written to.
func logSeed(name string) uint64 { return fnv1a(fnvOffset64, []byte(name)) }

// appendLogRecord frames rec onto buf with its checksum chained from
// sum, returning the grown buffer and the record's checksum.
func appendLogRecord(buf []byte, sum uint64, rec logRecord) ([]byte, uint64) {
	start := len(buf)
	buf = append(buf, make([]byte, logFrameSize)...)
	buf = binary.AppendUvarint(buf, rec.version)
	buf = binary.AppendUvarint(buf, uint64(len(rec.names)))
	buf = appendSymtabRecords(buf, rec.names)
	buf = binary.AppendUvarint(buf, uint64(len(rec.links)))
	for _, lk := range rec.links {
		buf = binary.AppendUvarint(buf, uint64(len(lk.pred)))
		buf = append(buf, lk.pred...)
		buf = binary.AppendUvarint(buf, uint64(lk.adds.Arity()))
		buf = binary.AppendUvarint(buf, uint64(lk.adds.Len()))
		buf = binary.AppendUvarint(buf, uint64(lk.dels.Len()))
		buf = append(buf, encodeValues(packedValues(lk.adds))...)
		buf = append(buf, encodeValues(packedValues(lk.dels))...)
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start-logFrameSize))
	sum = fnv1a(fnv1a(sum, buf[start:start+4]), buf[start+logFrameSize:])
	binary.LittleEndian.PutUint64(buf[start+4:], sum)
	return buf, sum
}

// decodeLog returns the longest valid prefix of raw, a log's bytes,
// against a manifest at version whose predicates have the given
// arities.  A record is valid when its frame fits, its checksum chains
// from the previous record's (from seed for the first), its payload
// parses — known predicates at their arity, rows that fit — and its
// version is the previous one's plus one, starting at version; only the
// first record may carry version itself (links a swap carried over).
// The first invalid record ends the log.  end and sum are where the
// next record goes and the state it chains from.
func decodeLog(raw []byte, seed, version uint64, arity map[string]int) (recs []logRecord, end int64, sum uint64) {
	sum = seed
	for {
		rest := raw[end:]
		if len(rest) < logFrameSize {
			return recs, end, sum
		}
		n := int64(binary.LittleEndian.Uint32(rest))
		if n > int64(len(rest)-logFrameSize) {
			return recs, end, sum
		}
		payload := rest[logFrameSize : logFrameSize+n]
		next := fnv1a(fnv1a(sum, rest[:4]), payload)
		if next != binary.LittleEndian.Uint64(rest[4:]) {
			return recs, end, sum
		}
		rec, ok := parseLogPayload(payload, arity)
		if !ok || rec.version != version+1 && (len(recs) > 0 || rec.version != version) {
			return recs, end, sum
		}
		recs = append(recs, rec)
		version = rec.version
		end += logFrameSize + n
		sum = next
	}
}

// payloadReader decodes a record payload; the first malformed field
// clears ok and every later read returns zero.
type payloadReader struct {
	b  []byte
	ok bool
}

func (r *payloadReader) uvarint() uint64 {
	v, k := binary.Uvarint(r.b)
	if k <= 0 {
		r.ok, r.b = false, nil
		return 0
	}
	r.b = r.b[k:]
	return v
}

// count reads a count of items at least min bytes each that must fit
// in what is left.
func (r *payloadReader) count(min int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/min) {
		r.ok, r.b = false, nil
		return 0
	}
	return int(n)
}

func (r *payloadReader) str() string {
	n := r.count(1)
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// rows reads n rows of arity values, which the caller has checked are
// there.  Like a segment's, a checksummed record's rows are distinct.
func (r *payloadReader) rows(n, arity int) *rel.Relation {
	vals := make([]rel.Value, n*arity)
	for i := range vals {
		vals[i] = rel.Value(binary.LittleEndian.Uint32(r.b[4*i:]))
	}
	r.b = r.b[4*len(vals):]
	return rel.FromPacked(arity, vals)
}

// parseLogPayload decodes one record payload.
func parseLogPayload(p []byte, arity map[string]int) (rec logRecord, ok bool) {
	r := &payloadReader{b: p, ok: true}
	rec.version = r.uvarint()
	for k := r.count(1); k > 0 && r.ok; k-- {
		rec.names = append(rec.names, r.str())
	}
	for k := r.count(4); k > 0 && r.ok; k-- {
		pred := r.str()
		a := arity[pred]
		if r.uvarint() != uint64(a) || a == 0 {
			return rec, false
		}
		nAdds, nDels := r.count(4*a), r.count(4*a)
		if nAdds+nDels > len(r.b)/(4*a) {
			return rec, false
		}
		lk := logLink{pred: pred, adds: r.rows(nAdds, a)}
		lk.dels = r.rows(nDels, a)
		rec.links = append(rec.links, lk)
	}
	return rec, r.ok && len(r.b) == 0
}

// appendLogLocked makes rec durable in the log name at its committed
// end, chaining from sum: one write and one fsync, never O_APPEND, so
// whatever a crashed or failed append left past the end is overwritten.
// If the write or the fsync fails, the log is cut back to end and that
// is synced before the error returns, so a write reported as failed
// never reappears after a reboot; if that repair fails too, the manager
// refuses every further write until the directory is reopened.  It
// returns the log's new end and checksum.
func (m *Manager) appendLogLocked(name string, end int64, sum uint64, rec logRecord) (int64, uint64, error) {
	buf, sum := appendLogRecord(nil, sum, rec)
	f, err := os.OpenFile(filepath.Join(m.dir, name), os.O_WRONLY, 0)
	if err != nil {
		return 0, 0, err
	}
	// Close's error is dropped: once the fsync succeeded the record is
	// durable, and a write reported as failed must not be.
	defer f.Close()
	if m.crashAt == crashLogTorn {
		_, _ = f.WriteAt(buf[:len(buf)/2], end) // a crash keeps whatever reached the file
		return 0, 0, errCrash
	}
	if _, err = f.WriteAt(buf, end); err == nil {
		err = f.Sync()
	}
	if err == nil && m.crashAt >= failLogSync {
		err = errInjected
	}
	if err != nil {
		repair := errInjected
		if m.crashAt != failLogTruncate {
			if repair = f.Truncate(end); repair == nil {
				repair = f.Sync()
			}
		}
		if repair != nil {
			m.broken = fmt.Errorf("segment: log %s kept a failed record (%v); reopen the directory to write again", name, err)
		}
		return 0, 0, err
	}
	m.stats.LogRecords++
	m.stats.LogBytes += int64(len(buf))
	m.stats.BytesWritten += int64(len(buf))
	m.stats.Fsyncs++
	return end + int64(len(buf)), sum, nil
}

// startLog creates the log name holding carry — the links of the old
// log that a swap keeps, as one record at the swap's version — before
// the manifest naming it is renamed in, so the swap's directory fsync
// covers its entry.  It returns the new log's end and checksum.
func (m *Manager) startLog(name string, version uint64, carry []logLink) (int64, uint64, error) {
	if err := os.WriteFile(filepath.Join(m.dir, name), nil, 0o644); err != nil || len(carry) == 0 {
		return 0, logSeed(name), err
	}
	return m.appendLogLocked(name, 0, logSeed(name), logRecord{version: version, links: carry})
}

// readLogLocked loads the manifest's log at Open: its longest valid
// prefix becomes the links layered over the manifest's chains, the
// names past the symbol table's prefix and the snapshot version.  A
// missing log reads as empty, and the next write then takes the swap
// path, which starts a fresh one.
func (m *Manager) readLogLocked() error {
	m.version = m.man.Version
	if m.man.Log == "" {
		return nil
	}
	raw, err := os.ReadFile(filepath.Join(m.dir, m.man.Log))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	arity := make(map[string]int, len(m.man.Preds))
	for _, p := range m.man.Preds {
		arity[p.Pred] = p.Arity
	}
	recs, end, sum := decodeLog(raw, logSeed(m.man.Log), m.man.Version, arity)
	for _, rec := range recs {
		m.version = rec.version
		m.logNames = append(m.logNames, rec.names...)
		for _, lk := range rec.links {
			m.logLinks[lk.pred] = append(m.logLinks[lk.pred], lk)
		}
	}
	m.logEnd, m.logSum, m.logReady = end, sum, true
	return nil
}
