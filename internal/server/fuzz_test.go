package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"linrec/internal/rel"
)

// FuzzQueryRequestDecode fuzzes the /v1/query request decoder end to
// end: arbitrary bodies through the same strict JSON decode the handler
// runs, then — for bodies that decode — the serving-mode validation.
// Neither stage may panic, and an accepted mode must satisfy its
// invariants (a non-negative limit, pagination exclusive of limit,
// exists and streaming, a positive page size once paged).
func FuzzQueryRequestDecode(f *testing.F) {
	seeds := []string{
		`{"query":"path(c0, Y)"}`,
		`{"query":"p(X, Y)","limit":5}`,
		`{"query":"p(X, Y)","exists":true}`,
		`{"query":"p(X, Y)","limit":-3}`,
		`{"query":"p(X, Y)","page_size":100}`,
		`{"query":"p(X, Y)","cursor":"eyJ2IjoxLCJvIjo0LCJnIjoicChYLCBZKSJ9"}`,
		`{"query":"p(X, Y)","cursor":"###"}`,
		`{"query":"p(X, Y)","limit":2,"page_size":2}`,
		`{"query":"p(X, Y)","workers":4,"timeout_ms":100,"trace":true}`,
		`{"query":"p(X, Y)","limit":9999999999999999999}`,
		`{"unknown_field":1}`,
		`{"query":`,
		`[]`,
		`"just a string"`,
		``,
	}
	for _, s := range seeds {
		f.Add([]byte(s), false)
	}
	f.Fuzz(func(t *testing.T, body []byte, stream bool) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var req QueryRequest
		if err := dec.Decode(&req); err != nil {
			return // rejection is fine; panics are not
		}
		mode, bad := queryModeFor(&req, stream, 1000)
		if bad != "" {
			return
		}
		if mode.limit < 0 {
			t.Fatalf("accepted mode has negative limit: %+v (req %+v)", mode, req)
		}
		if mode.exists && mode.limit != 1 {
			t.Fatalf("exists mode without limit 1: %+v", mode)
		}
		if mode.paged {
			if mode.limit > 0 || mode.exists || mode.stream {
				t.Fatalf("paged mode combined with limit/exists/stream: %+v", mode)
			}
			if mode.pageSize <= 0 || mode.pageSize > 1000 {
				t.Fatalf("paged mode with page size %d outside (0, maxRows]", mode.pageSize)
			}
		}
		if mode.limit > 1000 {
			t.Fatalf("limit %d not clamped to maxRows", mode.limit)
		}
	})
}

// FuzzRowJSON holds the row writer to encoding/json: for arbitrary name
// bytes encoded once each by the server's per-symbol encoder, a rendered
// row — with values past the encodings rendered "#<v>" — is byte for
// byte what an Encoder with HTML escaping off writes for the same
// []string.  The second name joins the encodings in a later extension,
// as a symbol interned after the first response would.  A whole answer
// renders to the same rows as NDJSON lines, in a buffer of exactly
// their size.
func FuzzRowJSON(f *testing.F) {
	seeds := []string{"c0", `"q"`, `a\b`, "\x00\x01\b\f\n\r\t\x1f\x7f", "<a&b>", "h\u00e9llo", "\u65e5\u672c", "\xff\xfe", "\xe2\x80", "\u2028\u2029", "", "a\u2028b\xc0z"}
	for _, s := range seeds {
		f.Add([]byte(s), []byte("x"))
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ref := func(row []string) string {
			var want bytes.Buffer
			enc := json.NewEncoder(&want)
			enc.SetEscapeHTML(false)
			if err := enc.Encode(row); err != nil {
				t.Fatal(err)
			}
			return want.String()
		}
		var names symbolJSON
		first := names.view([]string{string(a)})
		rec := httptest.NewRecorder()
		rw := &rowWriter{w: rec, syms: names.view([]string{string(a), string(b)})}
		rw.enc = json.NewEncoder(rw)
		rw.enc.SetEscapeHTML(false)
		rw.tuple(rel.Tuple{0, 1, 2, -1})
		rw.flush(false)
		if got, want := rec.Body.String()+"\n", ref([]string{string(a), string(b), "#2", "#-1"}); got != want {
			t.Fatalf("names %q, %q: writer %q, encoding/json %q", a, b, got, want)
		}
		if got, want := string(first.appendRow(nil, rel.Tuple{0, 1}))+"\n", ref([]string{string(a), "#1"}); got != want {
			t.Fatalf("name %q: the view before the extension renders %q, encoding/json %q", a, got, want)
		}
		ans := rel.NewRelation(4)
		ans.Insert(rel.Tuple{0, 1, 2, -1})
		ans.Insert(rel.Tuple{1, 0, 0, 1})
		buf, ends := rw.syms.appendAll(ans)
		if got, want := string(buf), rec.Body.String()+"\n"+string(rw.syms.appendRow(nil, ans.Row(1)))+"\n"; got != want || cap(buf) != len(buf) || ends[1] != uint32(rec.Body.Len()+1) {
			t.Fatalf("names %q, %q: whole answer %q (capacity %d, row ends %v), rows %q", a, b, got, cap(buf), ends, want)
		}
	})
}

// FuzzDecodeCursor fuzzes the pagination cursor decoder: arbitrary
// strings must never panic, and any accepted cursor must survive an
// encode/decode round trip unchanged.
func FuzzDecodeCursor(f *testing.F) {
	seeds := []string{
		encodeCursor(pageCursor{Version: 1, Offset: 0, Goal: "p(X, Y)"}),
		encodeCursor(pageCursor{Version: 99, Offset: 12345, Goal: "path(c0, Y)"}),
		"",
		"AAAA",
		"!!!not-base64!!!",
		strings.Repeat("A", 4096),
		"eyJ2IjotMSwibyI6LTV9",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, err := decodeCursor(s)
		if err != nil {
			return
		}
		if c.Offset < 0 || c.Goal == "" {
			t.Fatalf("accepted cursor violates invariants: %+v", c)
		}
		again, err := decodeCursor(encodeCursor(c))
		if err != nil {
			t.Fatalf("re-encoded cursor rejected: %v (%+v)", err, c)
		}
		if again != c {
			t.Fatalf("cursor round trip diverges: %+v vs %+v", again, c)
		}
	})
}
