// Package segment is the persistent storage backend behind rel.Store:
// immutable on-disk columnar segments addressed by a versioned JSON
// manifest.  A segment file holds one relation's packed row-major tuple
// columns, written once when a snapshot publishes and never modified;
// the manifest names the segment set (plus the interned symbol table)
// that makes up one published snapshot.  Copy-on-write snapshot swaps
// become segment-list manipulation — predicates untouched by an update
// keep their manifest entry byte-for-byte — and restarting a server
// becomes manifest replay: recovery time is proportional to segment
// metadata, not to closure size, because segment data loads lazily on
// first probe (via mmap where the platform supports it, buffered reads
// elsewhere).
package segment

import (
	"encoding/binary"
	"fmt"
	"os"

	"linrec/internal/rel"
)

// segMagic opens every segment file; the digit versions the layout.
const segMagic = "LRS1"

// segHeaderSize is the fixed header: magic (4) + arity (4) + rows (8) +
// FNV-1a checksum of the data bytes (8).  24 is a multiple of 4, so the
// int32 column data that follows stays 4-byte aligned in a page-aligned
// mapping.
const segHeaderSize = 4 + 4 + 8 + 8

// segSize returns the exact file size of a segment with the given shape.
func segSize(arity, rows int) int64 {
	return segHeaderSize + int64(rows)*int64(arity)*4
}

// FNV-1a (64-bit) parameters.  The state is carried as a plain uint64 so
// a checksum can be extended over appended bytes alone (the symbol
// table's running checksum) without rehashing what came before.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// fnv1a extends the FNV-1a state h over p; fnv1a(fnvOffset64, p) is
// p's checksum.
func fnv1a(h uint64, p []byte) uint64 {
	for _, b := range p {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return h
}

// writeSegment writes one relation's packed data as a segment file at
// path, fsync'd (one fsync), returning the data checksum and total bytes
// written.  The values are encoded once and the same bytes are hashed
// and written.  The file is written under its final name: a crash
// mid-write leaves an unreferenced file (the manifest still names the
// old segment set), which a later publish garbage-collects.
func writeSegment(path string, arity int, data []rel.Value) (checksum uint64, bytes int64, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	rows := len(data) / arity
	body := encodeValues(data)
	checksum = fnv1a(fnvOffset64, body)
	hdr := make([]byte, segHeaderSize)
	copy(hdr, segMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(arity))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(rows))
	binary.LittleEndian.PutUint64(hdr[16:], checksum)
	if _, err := f.Write(hdr); err != nil {
		return 0, 0, err
	}
	if _, err := f.Write(body); err != nil {
		return 0, 0, err
	}
	if err := f.Sync(); err != nil {
		return 0, 0, err
	}
	return checksum, segSize(arity, rows), nil
}

// checkSegmentHeader opens path and validates its header against the
// manifest's expectations: magic, arity, row count, checksum field and
// exact file size.  This is the eager (boot-time) half of segment
// validation — it rejects truncated or mismatched segments before the
// manifest is accepted; the data checksum itself is verified lazily when
// the segment first loads.
func checkSegmentHeader(path string, arity, rows int, checksum uint64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if want := segSize(arity, rows); st.Size() != want {
		return fmt.Errorf("segment %s: size %d, manifest expects %d (truncated or stale)", path, st.Size(), want)
	}
	var hdr [segHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return fmt.Errorf("segment %s: header: %w", path, err)
	}
	if string(hdr[:4]) != segMagic {
		return fmt.Errorf("segment %s: bad magic %q", path, hdr[:4])
	}
	if got := int(binary.LittleEndian.Uint32(hdr[4:])); got != arity {
		return fmt.Errorf("segment %s: arity %d, manifest expects %d", path, got, arity)
	}
	if got := int(binary.LittleEndian.Uint64(hdr[8:])); got != rows {
		return fmt.Errorf("segment %s: rows %d, manifest expects %d", path, got, rows)
	}
	if got := binary.LittleEndian.Uint64(hdr[16:]); got != checksum {
		return fmt.Errorf("segment %s: checksum %x, manifest expects %x", path, got, checksum)
	}
	return nil
}

// readSegment loads a segment's packed values, verifying the header
// against the manifest entry and the data against the stored checksum.
// On little-endian platforms with mmap support the returned slice views
// the mapped file (no copy, pages shared across processes); elsewhere it
// is a decoded heap copy.  bytes reports the file size either way.
func readSegment(path string, arity, rows int, checksum uint64) (data []rel.Value, bytes int64, err error) {
	if err := checkSegmentHeader(path, arity, rows, checksum); err != nil {
		return nil, 0, err
	}
	raw, err := mapSegment(path, segSize(arity, rows))
	if err != nil {
		return nil, 0, err
	}
	body := raw[segHeaderSize:]
	if got := fnv1a(fnvOffset64, body); got != checksum {
		return nil, 0, fmt.Errorf("segment %s: data checksum %x, header says %x (corrupt)", path, got, checksum)
	}
	return decodeValues(body, rows*arity), segSize(arity, rows), nil
}
