//go:build amd64 || arm64 || 386 || arm || riscv64 || loong64 || mipsle || mips64le || ppc64le || wasm

package segment

import (
	"unsafe"

	"linrec/internal/rel"
)

// decodeValues reinterprets the little-endian file bytes as values in
// place: on little-endian hosts the on-disk layout is the in-memory
// layout, so a mapped segment becomes a relation without copying a
// byte.  The body offset inside the file (segHeaderSize) is a multiple
// of 4, so the cast stays aligned for int32 whether the backing slice
// is a page-aligned mapping or a heap buffer.
func decodeValues(body []byte, n int) []rel.Value {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*rel.Value)(unsafe.Pointer(&body[0])), n)
}

// encodeValues is decodeValues' inverse: the little-endian file bytes
// of the packed values, which on these hosts are the slice's own bytes
// — a segment is hashed and written straight from the relation's
// storage.
func encodeValues(data []rel.Value) []byte {
	if len(data) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&data[0])), len(data)*4)
}
