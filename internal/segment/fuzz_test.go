package segment

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"linrec/internal/rel"
)

// FuzzReadSymtab fuzzes the bytes read back from symtab.bin against an
// arbitrary manifest claim: any file content, any committed prefix
// length and any name count.  decodeSymtab may reject but never panic
// or over-allocate, it rejects whenever the recorded checksum is not
// the prefix's, and what it accepts is the claimed number of names, all
// read from inside the committed prefix.
func FuzzReadSymtab(f *testing.F) {
	good := appendSymtabRecords(nil, []string{"a", "", "hello world", "λ"})
	f.Add(good, int64(len(good)), 4, false)
	f.Add(append(append([]byte{}, good...), 0x80, 0x80), int64(len(good)), 4, false)                     // an uncommitted tail
	f.Add(good, int64(len(good)-1), 4, false)                                                            // the prefix cuts the last name
	f.Add(good, int64(len(good)+9), 4, false)                                                            // file shorter than committed
	f.Add(good, int64(len(good)), 5, false)                                                              // one name too many
	f.Add(good, int64(len(good)), 1<<40, false)                                                          // count far past the bytes
	f.Add(good, int64(-1), 4, false)                                                                     // negative prefix
	f.Add(binary.AppendUvarint(nil, 1<<62), int64(9), 1, false)                                          // length overruns the prefix
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}, int64(11), 1, false) // varint overflow
	f.Add(good, int64(len(good)), 4, true)                                                               // a stale checksum
	f.Fuzz(func(t *testing.T, raw []byte, prefix int64, count int, staleSum bool) {
		ref := symtabRef{Symtab: symtabName, SymtabCount: count, SymtabBytes: prefix}
		if prefix >= 0 && prefix <= int64(len(raw)) {
			ref.SymtabChecksum = fnv1a(fnvOffset64, raw[:prefix])
		}
		if staleSum {
			ref.SymtabChecksum++
		}
		names, err := decodeSymtab(raw, ref)
		if err != nil {
			return
		}
		if staleSum {
			t.Fatalf("accepted a prefix whose checksum is not the recorded one")
		}
		if len(names) != count {
			t.Fatalf("decoded %d names for a manifest claiming %d", len(names), count)
		}
		// Every name lies inside the prefix (a record is its length varint
		// plus its bytes), so no tail byte ever leaks into a name.
		total := len(names)
		for _, n := range names {
			total += len(n)
		}
		if int64(total) > prefix {
			t.Fatalf("decoded %d record bytes out of a %d-byte prefix", total, prefix)
		}
	})
}

// fuzzLogArity is the manifest FuzzReadLog decodes against.
var fuzzLogArity = map[string]int{"edge": 2, "node": 1}

// fuzzLogPrefix encodes n valid records for a manifest at version 7,
// the first a carried one at version 7 itself when carried is set.
func fuzzLogPrefix(n int, carried bool) (raw []byte, versions []uint64) {
	sum, version := logSeed("wal-3.log"), uint64(8)
	if carried {
		version = 7
	}
	for i := 0; i < n; i++ {
		adds, dels := rel.NewRelation(2), rel.NewRelation(2)
		adds.Insert(rel.Tuple{rel.Value(i), 1})
		if i%2 == 1 {
			dels.Insert(rel.Tuple{0, rel.Value(i)})
		}
		nodes := rel.NewRelation(1)
		nodes.Insert(rel.Tuple{rel.Value(i)})
		rec := logRecord{version: version, names: []string{fmt.Sprint("n", i)}, links: []logLink{
			{"edge", adds, dels}, {"node", nodes, rel.NewRelation(1)},
		}}
		raw, sum = appendLogRecord(raw, sum, rec)
		versions = append(versions, version)
		version++
	}
	return raw, versions
}

// FuzzReadLog appends arbitrary bytes to a valid prefix of log records:
// decodeLog never panics, recovers the whole valid prefix, and returns
// only records with consecutive versions whose bytes end where it says —
// decoding just those bytes gives the same records and state.
func FuzzReadLog(f *testing.F) {
	full, _ := fuzzLogPrefix(1, false)
	f.Add([]byte{}, uint8(2), false)
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f}, uint8(1), true) // a frame longer than the file
	f.Add(full[:len(full)/2], uint8(3), false)            // a torn record
	f.Add(full, uint8(0), false)                          // a record whose checksum chains from elsewhere
	f.Add(append([]byte{}, full...), uint8(0), true)      // a version that skips
	f.Add(make([]byte, logFrameSize+3), uint8(2), false)  // zeros
	f.Add([]byte{1, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8}, uint8(4), true)
	f.Fuzz(func(t *testing.T, tail []byte, n uint8, carried bool) {
		prefix, versions := fuzzLogPrefix(int(n%5), carried)
		raw := append(prefix, tail...)
		recs, end, sum := decodeLog(raw, logSeed("wal-3.log"), 7, fuzzLogArity)
		if len(recs) < len(versions) || end < int64(len(prefix)) || end > int64(len(raw)) {
			t.Fatalf("decoded %d records ending at %d of %d bytes, behind the %d-record valid prefix of %d bytes",
				len(recs), end, len(raw), len(versions), len(prefix))
		}
		for i, rec := range recs {
			if i < len(versions) && rec.version != versions[i] {
				t.Fatalf("record %d has version %d, wrote %d", i, rec.version, versions[i])
			}
			if i > 0 && rec.version != recs[i-1].version+1 || i == 0 && rec.version != 7 && rec.version != 8 {
				t.Fatalf("record %d has version %d after %v", i, rec.version, recs[:i])
			}
		}
		again, end2, sum2 := decodeLog(raw[:end], logSeed("wal-3.log"), 7, fuzzLogArity)
		if len(again) != len(recs) || end2 != end || sum2 != sum {
			t.Fatalf("the returned prefix decodes to %d records ending at %d, not %d at %d", len(again), end2, len(recs), end)
		}
	})
}

// FuzzReadManifest fuzzes the manifest parser over formats 1–4: it may
// reject but never panics, and what it accepts is a known format that
// names a log exactly from format 4 on, lists no predicate twice,
// commits no more names than bytes, and re-renders to bytes it parses
// back to the same manifest.
func FuzzReadManifest(f *testing.F) {
	link := chainLink{AddFile: "edge-2.add.seg", AddRows: 3, AddChecksum: 1099511628211, AddBytes: 48,
		DelFile: "edge-2.del.seg", DelRows: 1, DelChecksum: 99, DelBytes: 32}
	entry := predEntry{Pred: "edge", Arity: 2, Rows: 5, File: "edge-1.seg", Checksum: 14695981039346656037, Bytes: 48}
	chained := entry
	chained.BaseRows, chained.Links = 3, []chainLink{link}
	for _, man := range []manifest{
		{Format: 1, Generation: 1, Version: 1, symtabRef: symtabRef{Symtab: "symtab-1.bin"}, Preds: []predEntry{entry}},
		{Format: 2, Generation: 2, Version: 2, symtabRef: symtabRef{Symtab: "symtab-2.bin"}, Preds: []predEntry{chained}},
		{Format: 3, Generation: 3, Version: 3, symtabRef: symtabRef{Symtab: symtabName, SymtabCount: 2, SymtabBytes: 4, SymtabChecksum: 77}, Preds: []predEntry{chained}},
		{Format: 4, Generation: 4, Version: 9, symtabRef: symtabRef{Symtab: symtabName, SymtabCount: 2, SymtabBytes: 4, SymtabChecksum: 77}, Log: logName(4), Preds: []predEntry{chained, {Pred: "node", Arity: 1, File: "node-4.seg", Bytes: 24}}},
	} {
		raw, err := marshalManifest(&man)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"format":4,"generation":1,"symtab":"symtab.bin","preds":[]}`))                   // no log
	f.Add([]byte(`{"format":5,"generation":1,"symtab":"symtab.bin","log":"wal-1.log","preds":[]}`)) // a future format
	f.Add([]byte(`{"format":3,"symtab":"symtab.bin","log":"wal-1.log","preds":[{"pred":"p","arity":1,"file":"p-1.seg"},{"pred":"p","arity":1,"file":"p-2.seg"}]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		man, err := parseManifest(raw)
		if err != nil {
			return
		}
		if man.Format < manifestFormatMin || man.Format > manifestFormat || (man.Log != "") != (man.Format >= 4) {
			t.Fatalf("accepted format %d naming log %q", man.Format, man.Log)
		}
		if man.SymtabCount < 0 || int64(man.SymtabCount) > man.SymtabBytes {
			t.Fatalf("accepted %d names in %d bytes", man.SymtabCount, man.SymtabBytes)
		}
		seen := map[string]bool{}
		for _, p := range man.Preds {
			if seen[p.Pred] || p.Arity <= 0 || p.Rows < 0 {
				t.Fatalf("accepted entry %+v", p)
			}
			seen[p.Pred] = true
		}
		out, err := marshalManifest(man)
		if err != nil {
			t.Fatal(err)
		}
		again, err := parseManifest(out)
		if err != nil {
			t.Fatalf("a re-rendered manifest no longer parses: %v\n%s", err, out)
		}
		if out2, _ := marshalManifest(again); !bytes.Equal(out, out2) {
			t.Fatalf("re-rendering is not stable:\n%s\n%s", out, out2)
		}
	})
}
