package segment

import (
	"encoding/binary"
	"testing"
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
