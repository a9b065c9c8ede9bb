package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"linrec/internal/ast"
	"linrec/internal/core"
	"linrec/internal/parser"
)

// escapeNames are symbols the parser never yields but a recovered symbol
// table or a library caller can intern: JSON metacharacters, control
// bytes, HTML metacharacters, non-ASCII, invalid UTF-8 and the two
// JavaScript line separators.
var escapeNames = []string{
	`q"uote`, `back\slash`, "ctl\x00\x01\x1f\x7f", "\b\f\n\r\t", "<tag>&amp;",
	"h\u00e9llo\u65e5\U0001F600", "bad\xff\xfe\xc3(", "sep\u2028\u2029", "plain",
}

// escapeSystem serves path/edge over n edges whose names are interned
// straight into the symbol table; sources and targets never meet, so
// path(X, Y) answers exactly n rows.  reach/link is the same rule pair
// over no facts, for answers whose names arrive later.
func escapeSystem(t *testing.T, n int, opts core.Options) *core.System {
	t.Helper()
	sys, err := loadSystem("path(X,Y) :- edge(X,Y).\npath(X,Y) :- path(X,U), edge(U,Y).\n"+
		"reach(X,Y) :- link(X,Y).\nreach(X,Y) :- reach(X,U), link(U,Y).\n", opts)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	facts := escapeFacts("edge", "", n)
	for _, f := range facts {
		sys.Engine.Syms.Intern(f.Args[0].Name)
		sys.Engine.Syms.Intern(f.Args[1].Name)
	}
	if n > 0 {
		if _, added, err := sys.AddFacts(facts); err != nil || added != n {
			t.Fatalf("add facts: %d of %d, %v", added, n, err)
		}
	}
	return sys
}

// escapeFacts returns n pred facts over escapeNames, tagged so that
// facts made with different tags share no constant.
func escapeFacts(pred, tag string, n int) []ast.Atom {
	facts := make([]ast.Atom, n)
	for i := range facts {
		a := escapeNames[i%len(escapeNames)] + tag + strconv.Itoa(i)
		b := escapeNames[(i+4)%len(escapeNames)] + tag + "/" + strconv.Itoa(i)
		facts[i] = ast.NewAtom(pred, ast.C(a), ast.C(b))
	}
	return facts
}

func mustAtom(t *testing.T, src string) ast.Atom {
	t.Helper()
	a, err := parser.ParseAtom(src)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// serve runs one request through the handler and returns the body.
func serve(t *testing.T, s *Server, target string, req QueryRequest) []byte {
	t.Helper()
	body, _ := json.Marshal(req)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %+v: status %d: %s", target, req, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// encodeRef is how responses were rendered before the row writer: one
// encoding/json Encoder with HTML escaping off over rendered []string rows.
func encodeRef(buf *bytes.Buffer, v any) {
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// streamRows renders a stream's rows with RenderRow, the reference
// renderer of an answer in stream order.
func streamRows(t *testing.T, sys *core.System, goal string, limit int, wantCached bool) [][]string {
	t.Helper()
	st, err := sys.Stream(context.Background(), core.QueryRequest{Goal: mustAtom(t, goal), Opts: core.Options{Workers: 1}, Limit: limit})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer st.Close()
	if st.Cached() != wantCached {
		t.Fatalf("reference stream cached=%v, want %v", st.Cached(), wantCached)
	}
	rows := [][]string{}
	for {
		tup, ok := st.Next()
		if !ok {
			break
		}
		rows = append(rows, st.RenderRow(tup))
	}
	return rows
}

// sortedRef sorts rendered rows as Rows always has: by symbol name,
// column by column.
func sortedRef(rows [][]string) [][]string {
	out := append([][]string{}, rows...)
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

// sameBytes fails at the first byte where got leaves want.
func sameBytes(t *testing.T, shape string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	from := max(0, i-40)
	t.Fatalf("%s: %d vs %d bytes, first difference at byte %d:\ngot  %q\nwant %q",
		shape, len(got), len(want), i, got[from:min(len(got), i+40)], want[from:min(len(want), i+40)])
}

// checkBuffered compares a buffered JSON body with the reference
// rendering of the same metadata over rows.
func checkBuffered(t *testing.T, shape string, body []byte, rows [][]string) QueryResponse {
	t.Helper()
	var resp QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("%s: %v", shape, err)
	}
	resp.Rows = rows
	var want bytes.Buffer
	encodeRef(&want, resp)
	sameBytes(t, shape, body, want.Bytes())
	return resp
}

// checkNDJSON compares an NDJSON body with the reference rendering: one
// encoded line per row, then the tail.
func checkNDJSON(t *testing.T, shape string, body []byte, rows [][]string) {
	t.Helper()
	cut := bytes.LastIndexByte(body[:max(0, len(body)-1)], '\n') + 1
	var tail streamTail
	if err := json.Unmarshal(body[cut:], &tail); err != nil || !tail.Done {
		t.Fatalf("%s: tail %q: %v", shape, body[cut:], err)
	}
	var want bytes.Buffer
	for _, row := range rows {
		encodeRef(&want, row)
	}
	encodeRef(&want, tail)
	sameBytes(t, shape, body, want.Bytes())
}

// cachedRendering returns the row offsets of the rendering the result
// cache keeps for goal, whose identity tells one rendering from another.
func cachedRendering(t *testing.T, s *Server, goal string) *uint32 {
	t.Helper()
	if s.sys.ResultCacheStats().RenderedBytes == 0 {
		t.Fatal("no response has rendered a cached answer")
	}
	opts := core.Options{Workers: s.cfg.QueryWorkers, Strategy: s.sys.Opts.Strategy}
	plan, err := s.sys.PlanFor(mustAtom(t, goal), opts)
	if err != nil {
		t.Fatal(err)
	}
	res, ok := s.sys.CachedAnswer(s.sys.Snapshot(), mustAtom(t, goal), plan, opts)
	if !ok {
		t.Fatalf("%s is not cached", goal)
	}
	_, ends, ok := res.Rendered(s.sys, s.symbols().appendAll)
	if !ok {
		t.Fatalf("%s keeps no rendering", goal)
	}
	return &ends[0]
}

// checkHits serves every shape of goal's cached answer — full, every
// page, every limit, exists, NDJSON with and without a limit — and
// compares each byte for byte with the reference rendering of the rows,
// given in storage order and sorted.
func checkHits(t *testing.T, s *Server, goal, round string, stored, sorted [][]string) {
	t.Helper()
	n := len(stored)
	if !checkBuffered(t, round+" full", serve(t, s, "/v1/query", QueryRequest{Query: goal}), sorted).Cached {
		t.Fatalf("%s: %s not served from cache", round, goal)
	}
	for off, cursor := 0, ""; ; off += 256 {
		page := checkBuffered(t, round+" page "+strconv.Itoa(off), serve(t, s, "/v1/query", QueryRequest{Query: goal, PageSize: 256, Cursor: cursor}), sorted[off:min(n, off+256)])
		if cursor = page.NextCursor; cursor == "" {
			break
		}
	}
	for _, limit := range []int{1, 256, 257, n + 1} {
		want := stored[:min(n, limit)]
		checkBuffered(t, round+" limit "+strconv.Itoa(limit), serve(t, s, "/v1/query", QueryRequest{Query: goal, Limit: limit}), want)
		checkNDJSON(t, round+" stream limit "+strconv.Itoa(limit), serve(t, s, "/v1/query?stream=1", QueryRequest{Query: goal, Limit: limit}), want)
	}
	checkBuffered(t, round+" exists", serve(t, s, "/v1/query", QueryRequest{Query: goal, Exists: true}), stored[:min(n, 1)])
	checkNDJSON(t, round+" stream", serve(t, s, "/v1/query?stream=1", QueryRequest{Query: goal}), stored)
}

// TestResponseBytesMatchEncodingJSON is the byte-identity harness of the
// row writer: every response shape — buffered JSON (miss and hit),
// limit and exists (materialized and evaluated), cursor pages, NDJSON
// (cached and evaluated) — over answers on both sides of the 256-row
// flush batch, compared byte for byte with encoding/json's rendering of
// the rows Rows and RenderRow give.  Cached shapes are served three
// times, from the one rendering the first hit built, which a swap
// interning new constants carries over unchanged while new answers
// render the new names.
func TestResponseBytesMatchEncodingJSON(t *testing.T) {
	const goal = "path(X, Y)"
	for _, n := range []int{0, 1, 255, 256, 257, 10000} {
		t.Run(strconv.Itoa(n), func(t *testing.T) {
			sys := escapeSystem(t, n, core.Options{})
			s := New(Config{System: sys})
			miss := serve(t, s, "/v1/query", QueryRequest{Query: goal})
			stored := streamRows(t, sys, goal, 0, true) // the cached answer's storage order
			sorted := sortedRef(stored)
			res, err := sys.Evaluate(context.Background(), core.QueryRequest{Goal: mustAtom(t, goal), Opts: sys.Opts})
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Rows(sys); fmt.Sprint(got) != fmt.Sprint(sorted) {
				t.Fatalf("Rows diverges from the string sort of the answer")
			}
			if checkBuffered(t, "miss", miss, sorted).Cached {
				t.Fatal("first query served from cache")
			}
			if got := sys.ResultCacheStats().RenderedBytes; got != 0 {
				t.Fatalf("the miss rendered %d bytes into memory", got)
			}
			checkHits(t, s, goal, "hit 1", stored, sorted)
			built := cachedRendering(t, s, goal)
			for hit := 2; hit <= 3; hit++ {
				checkHits(t, s, goal, "hit "+strconv.Itoa(hit), stored, sorted)
			}
			if cachedRendering(t, s, goal) != built {
				t.Fatal("a hit rendered the cached answer again")
			}

			// New constants that cannot reach the goal: its entry and
			// rendering carry over, and the new answer renders the names.
			k := min(n, 300) + 1
			if _, _, err := sys.Apply(context.Background(), escapeFacts("link", "+", k), nil); err != nil {
				t.Fatal(err)
			}
			checkHits(t, s, goal, "after swap", stored, sorted)
			if cachedRendering(t, s, goal) != built {
				t.Fatal("a swap that cannot reach the goal replaced its rendering")
			}
			const reach = "reach(X, Y)"
			reachMiss := serve(t, s, "/v1/query", QueryRequest{Query: reach})
			reachStored := streamRows(t, sys, reach, 0, true)
			if len(reachStored) != k {
				t.Fatalf("reach answers %d rows, want %d", len(reachStored), k)
			}
			checkBuffered(t, "new names miss", reachMiss, sortedRef(reachStored))
			checkHits(t, s, reach, "new names", reachStored, sortedRef(reachStored))

			// New constants that reach the goal: a new answer, rendered anew.
			if _, _, err := sys.Apply(context.Background(), escapeFacts("edge", "+", k), nil); err != nil {
				t.Fatal(err)
			}
			grown := streamRows(t, sys, goal, 0, true)
			if len(grown) != n+k {
				t.Fatalf("path answers %d rows after the swap, want %d", len(grown), n+k)
			}
			checkHits(t, s, goal, "grown", grown, sortedRef(grown))
			if cachedRendering(t, s, goal) == built {
				t.Fatal("a changed answer is served from the old rendering")
			}

			// Without a result cache every shape evaluates.
			cold := escapeSystem(t, n, core.Options{ResultCacheRows: -1})
			cs := New(Config{System: cold})
			checkBuffered(t, "evaluated", serve(t, cs, "/v1/query", QueryRequest{Query: goal}), sorted)
			checkNDJSON(t, "evaluated stream", serve(t, cs, "/v1/query?stream=1", QueryRequest{Query: goal}), streamRows(t, cold, goal, 0, false))
			for _, limit := range []int{1, 256, 257, n + 1} {
				want := streamRows(t, cold, goal, limit, false)
				checkBuffered(t, "evaluated limit "+strconv.Itoa(limit), serve(t, cs, "/v1/query", QueryRequest{Query: goal, Limit: limit}), want)
				checkNDJSON(t, "evaluated stream limit "+strconv.Itoa(limit), serve(t, cs, "/v1/query?stream=1", QueryRequest{Query: goal, Limit: limit}), want)
			}
			checkBuffered(t, "evaluated exists", serve(t, cs, "/v1/query", QueryRequest{Query: goal, Exists: true}), streamRows(t, cold, goal, 1, false))
		})
	}
}

// countingWriter is a ResponseWriter that keeps nothing but a flush
// count, so allocation counts are the handler's own.
type countingWriter struct {
	h       http.Header
	flushes int
}

func (c *countingWriter) Header() http.Header         { return c.h }
func (c *countingWriter) WriteHeader(int)             {}
func (c *countingWriter) Flush()                      { c.flushes++ }
func (c *countingWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestServedAnswerAllocsFlatInRowCount is the allocation contract of the
// serving path: a cached answer of 8000 rows costs the same allocations
// per request as one of 1000 — buffered, as NDJSON, under a limit of
// every row and as one page of every row — and the hits after the first
// render nothing: they serve the one rendering it built.  An NDJSON
// stream still flushes once per 256 rows and once for its tail.
func TestServedAnswerAllocsFlatInRowCount(t *testing.T) {
	const goal = "path(X, Y)"
	allocs := func(n int, target, extra string) (float64, int) {
		var b strings.Builder
		b.WriteString("path(X,Y) :- edge(X,Y).\npath(X,Y) :- path(X,U), edge(U,Y).\n")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "edge(s%d,t%d).\n", i, i)
		}
		sys, err := loadSystem(b.String(), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s := New(Config{System: sys})
		w := &countingWriter{h: http.Header{}}
		post := func(target, body string) {
			s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, target, strings.NewReader(body)))
		}
		body := fmt.Sprintf(`{"query":%q%s}`, goal, strings.ReplaceAll(extra, "N", strconv.Itoa(n)))
		run := func() { post(target, body) }
		post("/v1/query", fmt.Sprintf(`{"query":%q}`, goal)) // evaluate and cache
		run()                                                // the first hit renders
		built := cachedRendering(t, s, goal)
		a := testing.AllocsPerRun(50, run)
		w.flushes = 0
		run()
		if cachedRendering(t, s, goal) != built {
			t.Errorf("%s %s: hits rendered the answer again", target, body)
		}
		return a, w.flushes
	}
	for _, c := range []struct{ target, extra string }{
		{"/v1/query", ""},
		{"/v1/query?stream=1", ""},
		{"/v1/query", `,"limit":N`},
		{"/v1/query", `,"page_size":N`},
	} {
		small, _ := allocs(1000, c.target, c.extra)
		large, flushes := allocs(8000, c.target, c.extra)
		t.Logf("%s %s: %v allocations per request at 1000 rows, %v at 8000", c.target, c.extra, small, large)
		if large-small > 5 { // the race detector's pools drop buffers at random
			t.Errorf("%s %s: allocations grow with the row count", c.target, c.extra)
		}
		if want := 8000/streamFlushRows + 1; strings.Contains(c.target, "stream") && flushes != want {
			t.Errorf("%s: %d flushes for 8000 rows, want %d", c.target, flushes, want)
		}
	}
}

// TestCacheHitStreamPageRaceWithSwap drives every materialized shape
// against a cached answer while fact swaps sweep it: each swap upgrades
// the entry to a result whose sorted order is unsorted until the first
// buffered or paged hit sorts it, while NDJSON hits are still encoding
// the entry the swap replaced.  Every response must be whole and match
// its snapshot version.  Run under -race.
func TestCacheHitStreamPageRaceWithSwap(t *testing.T) {
	const initial, swaps, readers = 40, 15, 4
	s, _ := newTestServer(t, chainProgram(initial), Config{TotalWorkers: 4, MaxQueue: 64})
	rowsAt := func(version uint64) int {
		m := initial + int(version) - 1
		return m * (m + 1) / 2
	}
	query := func(target string, req QueryRequest) ([]byte, error) {
		body, _ := json.Marshal(req)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("%s %+v: status %d", target, req, rec.Code)
		}
		return rec.Body.Bytes(), nil
	}
	check := func(i int) error {
		q := QueryRequest{Query: "path(X, Y)"}
		switch i % 4 {
		case 0, 1:
			if i%4 == 1 {
				q.PageSize = 100
			}
			body, err := query("/v1/query", q)
			if err != nil {
				return err
			}
			var resp QueryResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				return err
			}
			want := rowsAt(resp.SnapshotVersion)
			if q.PageSize > 0 {
				want = min(want, q.PageSize)
			}
			if len(resp.Rows) != want || resp.RowCount != want {
				return fmt.Errorf("%+v at version %d: %d rows (row_count %d), want %d", q, resp.SnapshotVersion, len(resp.Rows), resp.RowCount, want)
			}
		default:
			if i%4 == 3 {
				q.Limit = 300
			}
			body, err := query("/v1/query?stream=1", q)
			if err != nil {
				return err
			}
			lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
			var tail streamTail
			if err := json.Unmarshal(lines[len(lines)-1], &tail); err != nil || !tail.Done {
				return fmt.Errorf("stream tail %q: %v", lines[len(lines)-1], err)
			}
			want := rowsAt(tail.SnapshotVersion)
			if q.Limit > 0 {
				want = min(want, q.Limit)
			}
			if len(lines)-1 != want || tail.RowCount != want {
				return fmt.Errorf("%+v at version %d: %d lines (row_count %d), want %d", q, tail.SnapshotVersion, len(lines)-1, tail.RowCount, want)
			}
			for _, line := range lines[:len(lines)-1] {
				var row []string
				if err := json.Unmarshal(line, &row); err != nil || len(row) != 2 {
					return fmt.Errorf("stream row %q: %v", line, err)
				}
			}
		}
		return nil
	}
	if err := check(0); err != nil { // warm the cache
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if err := check(i); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	for i := 0; i < swaps; i++ {
		if _, _, err := s.sys.AddFacts([]ast.Atom{mustAtom(t, fmt.Sprintf("edge(c%d,c%d)", initial+i, initial+i+1))}); err != nil {
			t.Error(err)
			break
		}
		if err := check(1); err != nil { // a paged hit on the fresh entry
			t.Error(err)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := s.sys.ResultCacheStats(); st.Upgrades == 0 {
		t.Fatalf("no swap carried the cached answer over, so no hit sorted an upgraded entry: %+v", st)
	}
}

// post serves one request without failing the test, for goroutines.
func post(s *Server, target string, req QueryRequest) ([]byte, error) {
	body, _ := json.Marshal(req)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("%s %+v: status %d: %s", target, req, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes(), nil
}

// TestConcurrentFirstHitsRenderOnce: an entry the result cache holds
// unrendered meets its first hits in every shape at once.  They render
// it once, and every response agrees byte for byte with the reference.
// Run under -race.
func TestConcurrentFirstHitsRenderOnce(t *testing.T) {
	const goal, n = "path(X, Y)", 1000
	sys := escapeSystem(t, n, core.Options{})
	s := New(Config{System: sys})
	if _, err := sys.Evaluate(context.Background(), core.QueryRequest{Goal: mustAtom(t, goal), Opts: core.Options{Workers: s.cfg.QueryWorkers, Strategy: sys.Opts.Strategy}}); err != nil {
		t.Fatal(err)
	}
	if got := sys.ResultCacheStats().RenderedBytes; got != 0 {
		t.Fatalf("the entry was rendered before any response: %d bytes", got)
	}
	stored := streamRows(t, sys, goal, 0, true)
	sorted := sortedRef(stored)
	shapes := []struct {
		target string
		req    QueryRequest
		rows   [][]string
	}{
		{"/v1/query", QueryRequest{Query: goal}, sorted},
		{"/v1/query", QueryRequest{Query: goal, PageSize: 300}, sorted[:300]},
		{"/v1/query", QueryRequest{Query: goal, Limit: 300}, stored[:300]},
		{"/v1/query", QueryRequest{Query: goal, Exists: true}, stored[:1]},
		{"/v1/query?stream=1", QueryRequest{Query: goal}, stored},
		{"/v1/query?stream=1", QueryRequest{Query: goal, Limit: 300}, stored[:300]},
	}
	const rounds = 3
	bodies := make([][]byte, rounds*len(shapes))
	errs := make([]error, len(bodies))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			sh := shapes[i%len(shapes)]
			bodies[i], errs[i] = post(s, sh.target, sh.req)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, body := range bodies {
		sh := shapes[i%len(shapes)]
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		shape := fmt.Sprintf("%s %+v", sh.target, sh.req)
		if strings.Contains(sh.target, "stream") {
			checkNDJSON(t, shape, body, sh.rows)
		} else if !checkBuffered(t, shape, body, sh.rows).Cached {
			t.Fatalf("%s: not served from the cache", shape)
		}
	}
	built := cachedRendering(t, s, goal)
	bytesHeld := sys.ResultCacheStats().RenderedBytes
	checkHits(t, s, goal, "after", stored, sorted)
	if cachedRendering(t, s, goal) != built || sys.ResultCacheStats().RenderedBytes != bytesHeld {
		t.Fatal("a later hit rendered the answer again")
	}
}

// pausingWriter is a recorder whose first flush waits until resumed, so
// a test can act while a stream is part way through its rows.
type pausingWriter struct {
	*httptest.ResponseRecorder
	paused, resume chan struct{}
	once           sync.Once
}

func (p *pausingWriter) Flush() {
	p.ResponseRecorder.Flush()
	p.once.Do(func() {
		close(p.paused)
		<-p.resume
	})
}

// TestRenderedStreamSurvivesPurge: a fact swap purges a cached entry
// while an NDJSON hit is part way through copying its rendering, and a
// query renders the new answer meanwhile.  The stream still serves the
// old answer whole, byte for byte.  Run under -race.
func TestRenderedStreamSurvivesPurge(t *testing.T) {
	const n = 1000
	s, _ := newTestServer(t, chainProgram(n), Config{})
	// A bound goal: a swap that touches edge purges its entry.
	req := QueryRequest{Query: "path(c0, Y)"}
	if _, err := post(s, "/v1/query", req); err != nil { // evaluate and cache
		t.Fatal(err)
	}
	ref, err := post(s, "/v1/query?stream=1", req) // the first hit renders
	if err != nil {
		t.Fatal(err)
	}
	rowLines := func(body []byte) []byte { return body[:bytes.LastIndexByte(body[:len(body)-1], '\n')+1] }
	if got := bytes.Count(rowLines(ref), []byte("\n")); got != n {
		t.Fatalf("reference stream has %d rows, want %d", got, n)
	}
	w := &pausingWriter{ResponseRecorder: httptest.NewRecorder(), paused: make(chan struct{}), resume: make(chan struct{})}
	body, _ := json.Marshal(req)
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/query?stream=1", bytes.NewReader(body)))
	}()
	<-w.paused
	before := s.sys.ResultCacheStats()
	if _, _, err := s.sys.Apply(context.Background(), []ast.Atom{mustAtom(t, "edge(c0, z)")}, []ast.Atom{mustAtom(t, "edge(c1, c2)")}); err != nil {
		t.Fatal(err)
	}
	if after := s.sys.ResultCacheStats(); after.Invalidated == before.Invalidated || after.Entries != 0 {
		t.Fatalf("the swap kept the entry: %+v", after)
	}
	for i := 0; i < 2; i++ { // cache and render the new answer
		if _, err := post(s, "/v1/query", req); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	close(w.resume)
	<-done
	got := w.Body.Bytes()
	sameBytes(t, "paused stream", rowLines(got), rowLines(ref))
	var tail streamTail
	if err := json.Unmarshal(got[len(rowLines(got)):], &tail); err != nil || !tail.Done || tail.RowCount != n || tail.SnapshotVersion != 1 {
		t.Fatalf("paused stream tail %q: %v", got[len(rowLines(got)):], err)
	}
}
