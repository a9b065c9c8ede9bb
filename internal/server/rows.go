package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"linrec/internal/rel"
)

// rowChunk is how many bytes the row writer gathers before handing them
// to the response.
const rowChunk = 32 << 10

// rowBufs recycles the row writers' buffers across requests.  A buffer
// starts with room for a chunk and the row that overflows it.
var rowBufs = sync.Pool{New: func() any { b := make([]byte, 0, 2*rowChunk); return &b }}

// rowWriter is the one encoder of answer rows for every response shape.
// It appends each tuple as a JSON array of symbol names — byte for byte
// what encoding/json writes for the rendered []string with HTML escaping
// off, "#<v>" for a value the names snapshot does not cover — into one
// pooled buffer, and hands the buffer to the response every rowChunk
// bytes, so serving an answer allocates nothing per row.
type rowWriter struct {
	w     http.ResponseWriter
	enc   *json.Encoder // writeJSON's encoding, into buf
	names []string
	bufp  *[]byte
	buf   []byte
	n     int   // rows written
	err   error // the first failed write: the client went away
}

// newRowWriter commits a 200 response of the given content type.
func (s *Server) newRowWriter(w http.ResponseWriter, contentType string) *rowWriter {
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(http.StatusOK)
	bufp := rowBufs.Get().(*[]byte)
	rw := &rowWriter{w: w, names: s.sys.Engine.Syms.Names(), bufp: bufp, buf: (*bufp)[:0]}
	rw.enc = json.NewEncoder(rw)
	rw.enc.SetEscapeHTML(false)
	return rw
}

// release returns the buffer to the pool.
func (rw *rowWriter) release() {
	*rw.bufp = rw.buf[:0]
	rowBufs.Put(rw.bufp)
}

// Write appends p: the io.Writer enc renders through.
func (rw *rowWriter) Write(p []byte) (int, error) {
	rw.buf = append(rw.buf, p...)
	return len(p), nil
}

// flush hands the buffered bytes to the response and, on a stream, pushes
// them to the client.
func (rw *rowWriter) flush(stream bool) {
	if rw.err == nil && len(rw.buf) > 0 {
		_, rw.err = rw.w.Write(rw.buf)
	}
	rw.buf = rw.buf[:0]
	if f, ok := rw.w.(http.Flusher); ok && stream && rw.err == nil {
		f.Flush()
	}
}

// tuple appends t as a JSON array of symbol names.
func (rw *rowWriter) tuple(t rel.Tuple) {
	rw.buf = append(rw.buf, '[')
	for i, v := range t {
		if i > 0 {
			rw.buf = append(rw.buf, ',')
		}
		if int(v) >= 0 && int(v) < len(rw.names) {
			rw.appendName(rw.names[v])
		} else {
			rw.buf = append(strconv.AppendInt(append(rw.buf, `"#`...), int64(v), 10), '"')
		}
	}
	rw.buf = append(rw.buf, ']')
	rw.n++
	if len(rw.buf) >= rowChunk {
		rw.flush(false)
	}
}

// line writes t as one NDJSON line, pushing the stream to the client
// every streamFlushRows rows.  A false return means the client went away.
func (rw *rowWriter) line(t rel.Tuple) bool {
	rw.tuple(t)
	rw.buf = append(rw.buf, '\n')
	if rw.n%streamFlushRows == 0 {
		rw.flush(true)
	}
	return rw.err == nil
}

// rowsOpen is how encoding/json opens a QueryResponse: Rows is its first
// field.
const rowsOpen = `{"rows":[`

// writeRows writes resp with the n tuples row(i) as its rows: the bytes
// writeJSON writes for the same response with the rows rendered.
func (s *Server) writeRows(w http.ResponseWriter, resp QueryResponse, n int, row func(i int) rel.Tuple) {
	rw := s.newRowWriter(w, "application/json")
	defer rw.release()
	rw.buf = append(rw.buf, rowsOpen...)
	for i := 0; i < n; i++ {
		if i > 0 {
			rw.buf = append(rw.buf, ',')
		}
		rw.tuple(row(i))
	}
	// The rest is encoding/json's rendering of the response with empty
	// rows, after the opening already written.
	resp.Rows, resp.RowCount = [][]string{}, n
	mark := len(rw.buf)
	_ = rw.enc.Encode(resp)
	rw.buf = append(rw.buf[:mark], rw.buf[mark+len(rowsOpen):]...)
	rw.flush(false)
}

// appendName appends a symbol name as a JSON string.  A name holding
// nothing encoding/json escapes is its own encoding between quotes; any
// other — never one the parser yields — is encoded by encoding/json.
func (rw *rowWriter) appendName(name string) {
	if !plainJSON(name) {
		_ = rw.enc.Encode(name)
		rw.buf = rw.buf[:len(rw.buf)-1] // the Encoder's newline
		return
	}
	rw.buf = append(append(append(rw.buf, '"'), name...), '"')
}

// plainJSON reports whether encoding/json with HTML escaping off writes s
// verbatim: no control byte, quote or backslash, and, past ASCII, valid
// UTF-8 without U+2028 or U+2029.
func plainJSON(s string) bool {
	ascii := true
	for i := 0; i < len(s); i++ {
		if b := s[i]; b < 0x20 || b == '"' || b == '\\' {
			return false
		} else if b >= utf8.RuneSelf {
			ascii = false
		}
	}
	return ascii || utf8.ValidString(s) && !strings.ContainsAny(s, "\u2028\u2029")
}
