package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"linrec/internal/core"
	"linrec/internal/rel"
)

// rowChunk is how many bytes the row writer gathers before handing them
// to the response.
const rowChunk = 32 << 10

// rowBufs recycles the row writers' buffers across requests.  A buffer
// starts with room for a chunk and the row that overflows it.
var rowBufs = sync.Pool{New: func() any { b := make([]byte, 0, 2*rowChunk); return &b }}

// rowWriter writes answer rows for every response shape.  Each row is a
// JSON array of symbol names — byte for byte what encoding/json writes
// for the rendered []string with HTML escaping off, "#<v>" for a value
// the symbol encodings do not cover — appended to one pooled buffer that
// goes to the response every rowChunk bytes, so serving an answer
// allocates nothing per row.  A row is a byte range of a cached
// answer's rendering, or a tuple rendered on the spot by appendRow.
type rowWriter struct {
	w    http.ResponseWriter
	enc  *json.Encoder // writeJSON's encoding, into buf
	syms *symbolEncodings
	bufp *[]byte
	buf  []byte
	n    int   // rows written
	err  error // the first failed write: the client went away
}

// newRowWriter commits a 200 response of the given content type.
func (s *Server) newRowWriter(w http.ResponseWriter, contentType string, syms *symbolEncodings) *rowWriter {
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(http.StatusOK)
	bufp := rowBufs.Get().(*[]byte)
	rw := &rowWriter{w: w, syms: syms, bufp: bufp, buf: (*bufp)[:0]}
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

// tuple appends t as one row.
func (rw *rowWriter) tuple(t rel.Tuple) {
	rw.buf = rw.syms.appendRow(rw.buf, t)
	rw.added()
}

// row appends one row rendered earlier.
func (rw *rowWriter) row(b []byte) {
	rw.buf = append(rw.buf, b...)
	rw.added()
}

// added counts a row and hands a full chunk to the response.
func (rw *rowWriter) added() {
	rw.n++
	if len(rw.buf) >= rowChunk {
		rw.flush(false)
	}
}

// endLine ends the row just written as an NDJSON line, pushing the
// stream to the client every streamFlushRows rows.  A false return means
// the client went away.
func (rw *rowWriter) endLine() bool {
	rw.buf = append(rw.buf, '\n')
	if rw.n%streamFlushRows == 0 {
		rw.flush(true)
	}
	return rw.err == nil
}

// answerRows is an answer as the row writer serves it: byte ranges of
// the rendering a cached result keeps, or, for any other answer, its
// tuples rendered on the spot.
type answerRows struct {
	syms  *symbolEncodings
	buf   []byte
	ends  []uint32              // row i is buf[ends[i]:ends[i+1]], ending in '\n'
	tuple func(i int) rel.Tuple // read when ends is nil
}

// rowsOf returns res's rows in storage order, rendering a cached answer
// on its first hit.
func (s *Server) rowsOf(res *core.QueryResult) answerRows {
	rows := answerRows{syms: s.symbols()}
	if rows.buf, rows.ends, _ = res.Rendered(s.sys, rows.syms.appendAll); rows.ends == nil {
		rows.tuple = res.Answer.Row
	}
	return rows
}

// put writes row i.
func (a answerRows) put(rw *rowWriter, i int) {
	if a.ends == nil {
		rw.tuple(a.tuple(i))
	} else {
		rw.row(a.buf[a.ends[i] : a.ends[i+1]-1])
	}
}

// lines writes the first n rows as NDJSON lines, pushing the stream to
// the client every streamFlushRows rows.  A rendering already holds the
// lines back to back, so each flush batch goes to the response as one
// slice of it.  A false return means the client went away.
func (a answerRows) lines(rw *rowWriter, n int) bool {
	if a.ends == nil {
		for i := 0; i < n; i++ {
			if rw.tuple(a.tuple(i)); !rw.endLine() {
				return false
			}
		}
		return true
	}
	for i := 0; i < n && rw.err == nil; i += streamFlushRows {
		j := min(n, i+streamFlushRows)
		_, rw.err = rw.w.Write(a.buf[a.ends[i]:a.ends[j]])
		if rw.n += j - i; rw.n%streamFlushRows == 0 {
			rw.flush(true)
		}
	}
	return rw.err == nil
}

// rowsOpen is how encoding/json opens a QueryResponse: Rows is its first
// field.
const rowsOpen = `{"rows":[`

// writeRows writes resp with n of the rows as its rows — row pick[i],
// or row i when pick is nil: the bytes writeJSON writes for the same
// response with the rows rendered.
func (s *Server) writeRows(w http.ResponseWriter, resp QueryResponse, rows answerRows, n int, pick []int32) {
	rw := s.newRowWriter(w, "application/json", rows.syms)
	defer rw.release()
	rw.buf = append(rw.buf, rowsOpen...)
	for i := 0; i < n; i++ {
		if i > 0 {
			rw.buf = append(rw.buf, ',')
		}
		if pick != nil {
			rows.put(rw, int(pick[i]))
		} else {
			rows.put(rw, i)
		}
	}
	// The rest is encoding/json's rendering of the response with empty
	// rows, after the opening already written.
	resp.Rows, resp.RowCount = [][]string{}, n
	mark := len(rw.buf)
	_ = rw.enc.Encode(resp)
	rw.buf = append(rw.buf[:mark], rw.buf[mark+len(rowsOpen):]...)
	rw.flush(false)
}

// symbolJSON keeps the JSON encoding of every interned symbol name, so
// no name is escape-scanned twice: the encodings back to back in one
// pointer-free buffer, append-only, and extended when the symbol table
// grows.  Readers load a view without locking.
type symbolJSON struct {
	mu  sync.Mutex // serializes extensions
	cur atomic.Pointer[symbolEncodings]
}

// symbolEncodings is one view of the encodings: symbol v's is
// buf[ends[v]:ends[v+1]].  An extension appends past the end of every
// published view, so a view stays valid for as long as it is held.
type symbolEncodings struct {
	buf  []byte
	ends []int
}

// symbols returns encodings covering the whole symbol table.
func (s *Server) symbols() *symbolEncodings { return s.names.view(s.sys.Engine.Syms.Names()) }

// view returns encodings covering every name of a symbol-table snapshot.
func (c *symbolJSON) view(names []string) *symbolEncodings {
	if e := c.cur.Load(); e != nil && len(e.ends) > len(names) {
		return e
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.cur.Load()
	if e == nil {
		e = &symbolEncodings{ends: []int{0}}
	}
	if len(e.ends) > len(names) {
		return e
	}
	// Room for every new name up front: the first view covers the whole
	// table, which append would otherwise reach by repeated copying.
	fresh, size := names[len(e.ends)-1:], 0
	for _, name := range fresh {
		size += len(name) + len(`""`)
	}
	next := &symbolEncodings{buf: slices.Grow(e.buf, size), ends: slices.Grow(e.ends, len(fresh))}
	for _, name := range fresh {
		next.buf = appendName(next.buf, name)
		next.ends = append(next.ends, len(next.buf))
	}
	c.cur.Store(next)
	return next
}

// appendRow appends t as a JSON array of symbol names: the one renderer
// of answer rows, for evaluated rows and cached renderings alike.
func (e *symbolEncodings) appendRow(dst []byte, t rel.Tuple) []byte {
	dst = append(dst, '[')
	for i, v := range t {
		if i > 0 {
			dst = append(dst, ',')
		}
		if int(v) >= 0 && int(v) < len(e.ends)-1 {
			dst = append(dst, e.buf[e.ends[v]:e.ends[v+1]]...)
		} else {
			dst = append(strconv.AppendInt(append(dst, `"#`...), int64(v), 10), '"')
		}
	}
	return append(dst, ']')
}

// appendAll renders every row of ans with appendRow as an NDJSON line,
// back to back in storage order into one buffer of the exact size: row
// i is buf[ends[i]:ends[i+1]], its last byte the newline.  It declines,
// with nil ends, an answer whose rendering the uint32 offsets cannot
// address.
func (e *symbolEncodings) appendAll(ans *rel.Relation) (buf []byte, ends []uint32) {
	size := 0
	for i := 0; i < ans.Len(); i++ {
		t := ans.Row(i)
		size += len(t) + 2 // brackets, commas and the newline
		for _, v := range t {
			if int(v) >= 0 && int(v) < len(e.ends)-1 {
				size += e.ends[v+1] - e.ends[v]
			} else {
				size += len(`"#"`) + len(strconv.Itoa(int(v)))
			}
		}
	}
	if size > math.MaxUint32 {
		return nil, nil
	}
	buf, ends = make([]byte, 0, size), make([]uint32, 1, ans.Len()+1)
	for i := 0; i < ans.Len(); i++ {
		buf = append(e.appendRow(buf, ans.Row(i)), '\n')
		ends = append(ends, uint32(len(buf)))
	}
	return buf, ends
}

// appendName appends a symbol name as a JSON string.  A name holding
// nothing encoding/json escapes is its own encoding between quotes; any
// other — never one the parser yields — is encoded by encoding/json.
func appendName(dst []byte, name string) []byte {
	if plainJSON(name) {
		return append(append(append(dst, '"'), name...), '"')
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(name)
	return append(dst, bytes.TrimSuffix(b.Bytes(), []byte("\n"))...)
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
