//go:build !(amd64 || arm64 || 386 || arm || riscv64 || loong64 || mipsle || mips64le || ppc64le || wasm)

package segment

import (
	"encoding/binary"

	"linrec/internal/rel"
)

// decodeValues decodes the little-endian file bytes into fresh values —
// the portable path for big-endian hosts, where the zero-copy cast
// would read columns byte-swapped.
func decodeValues(body []byte, n int) []rel.Value {
	out := make([]rel.Value, n)
	for i := range out {
		out[i] = rel.Value(binary.LittleEndian.Uint32(body[i*4:]))
	}
	return out
}

// encodeValues is decodeValues' inverse: the packed values encoded
// little-endian into a fresh buffer.
func encodeValues(data []rel.Value) []byte {
	out := make([]byte, 0, len(data)*4)
	for _, v := range data {
		out = binary.LittleEndian.AppendUint32(out, uint32(v))
	}
	return out
}
