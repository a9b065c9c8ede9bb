package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// ndjsonAnswer is one parsed NDJSON query response: the row lines plus
// the terminal object.
type ndjsonAnswer struct {
	rows [][]string
	tail streamTail
}

// readNDJSON parses an NDJSON response body: row lines (JSON arrays)
// followed by one terminal object.
func readNDJSON(t *testing.T, resp *http.Response) ndjsonAnswer {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/x-ndjson") {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var out ndjsonAnswer
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	sawTail := false
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if sawTail {
			t.Fatalf("line after the terminal object: %s", line)
		}
		if line[0] == '[' {
			var row []string
			if err := json.Unmarshal(line, &row); err != nil {
				t.Fatalf("bad row line %s: %v", line, err)
			}
			out.rows = append(out.rows, row)
			continue
		}
		if err := json.Unmarshal(line, &out.tail); err != nil {
			t.Fatalf("bad tail line %s: %v", line, err)
		}
		sawTail = true
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read body: %v", err)
	}
	if !sawTail {
		t.Fatal("stream ended without a terminal object")
	}
	return out
}

// TestQueryLimitAndExists: "limit" caps the buffered answer (and marks
// truncation), "exists" answers the boolean, and the early-termination
// counters advance.
func TestQueryLimitAndExists(t *testing.T) {
	s, ts := newTestServer(t, chainProgram(5), Config{})

	resp := postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "path(c0, Y)", Limit: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("limit: status = %d", resp.StatusCode)
	}
	out := decode[QueryResponse](t, resp)
	if out.RowCount != 2 || len(out.Rows) != 2 {
		t.Fatalf("limit=2 returned %d rows: %v", out.RowCount, out.Rows)
	}
	if !out.Truncated {
		t.Fatal("limit=2 on a 5-row answer not marked truncated")
	}
	// Every limited row must be a row of the full answer.
	full := decode[QueryResponse](t, postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "path(c0, Y)"}))
	fullSet := map[string]bool{}
	for _, r := range full.Rows {
		fullSet[strings.Join(r, "\x00")] = true
	}
	for _, r := range out.Rows {
		if !fullSet[strings.Join(r, "\x00")] {
			t.Fatalf("limited row %v not in the full answer %v", r, full.Rows)
		}
	}

	resp = postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "path(c0, Y)", Exists: true})
	ex := decode[QueryResponse](t, resp)
	if ex.Exists == nil || !*ex.Exists || ex.RowCount != 1 {
		t.Fatalf("exists on non-empty answer: %+v", ex)
	}

	resp = postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "path(c5, Y)", Exists: true})
	ex = decode[QueryResponse](t, resp)
	if ex.Exists == nil || *ex.Exists || ex.RowCount != 0 {
		t.Fatalf("exists on empty answer: %+v", ex)
	}

	st := s.Stats()
	if st.LimitedQueries < 3 {
		t.Fatalf("limited_queries = %d, want ≥ 3 (limit + two exists)", st.LimitedQueries)
	}
	if st.ExistsQueries != 2 {
		t.Fatalf("exists_queries = %d, want 2", st.ExistsQueries)
	}
	if st.EarlyTerminations < 1 {
		t.Fatalf("early_terminations = %d, want ≥ 1", st.EarlyTerminations)
	}
}

// TestQueryStreamNDJSON: a streamed query delivers the same rows the
// buffered endpoint sorts, one NDJSON line each, with the metadata in
// the terminal object, and the streamed-rows counter advances.
func TestQueryStreamNDJSON(t *testing.T) {
	s, ts := newTestServer(t, chainProgram(6), Config{})

	buffered := decode[QueryResponse](t, postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "path(X, Y)"}))

	resp := postJSON(t, ts.URL+"/v1/query?stream=1", QueryRequest{Query: "path(X, Y)"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	got := readNDJSON(t, resp)
	if !got.tail.Done || got.tail.Error != "" {
		t.Fatalf("tail = %+v, want done with no error", got.tail)
	}
	if got.tail.RowCount != len(got.rows) {
		t.Fatalf("tail row_count %d != %d streamed lines", got.tail.RowCount, len(got.rows))
	}
	want := map[string]int{}
	for _, r := range buffered.Rows {
		want[strings.Join(r, "\x00")]++
	}
	gotSet := map[string]int{}
	for _, r := range got.rows {
		gotSet[strings.Join(r, "\x00")]++
	}
	if len(got.rows) != len(buffered.Rows) {
		t.Fatalf("streamed %d rows, buffered answer has %d", len(got.rows), len(buffered.Rows))
	}
	for k, n := range want {
		if gotSet[k] != n {
			t.Fatalf("streamed multiset diverges from the buffered answer at %q: %d vs %d", k, gotSet[k], n)
		}
	}
	if st := s.Stats(); st.StreamedRows < int64(len(got.rows)) {
		t.Fatalf("streamed_rows = %d, want ≥ %d", st.StreamedRows, len(got.rows))
	}
}

// TestQueryStreamLimit: a streamed limit-k query stops after k lines and
// the tail marks the truncation.
func TestQueryStreamLimit(t *testing.T) {
	s, ts := newTestServer(t, chainProgram(8), Config{})
	resp := postJSON(t, ts.URL+"/v1/query?stream=1", QueryRequest{Query: "path(X, Y)", Limit: 3})
	got := readNDJSON(t, resp)
	if len(got.rows) != 3 || got.tail.RowCount != 3 {
		t.Fatalf("limit=3 streamed %d rows (tail %d)", len(got.rows), got.tail.RowCount)
	}
	if !got.tail.Truncated {
		t.Fatal("limited stream tail not marked truncated")
	}
	if st := s.Stats(); st.EarlyTerminations < 1 {
		t.Fatalf("early_terminations = %d, want ≥ 1", st.EarlyTerminations)
	}
}

// TestCursorPagination pages through an answer and reassembles it
// exactly, then exercises the failure modes: a garbage cursor (400) and
// a cursor from a superseded snapshot (410).
func TestCursorPagination(t *testing.T) {
	s, ts := newTestServer(t, chainProgram(6), Config{})

	full := decode[QueryResponse](t, postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "path(X, Y)"}))
	if len(full.Rows) < 5 {
		t.Fatalf("premise drifted: only %d answer rows", len(full.Rows))
	}

	var paged [][]string
	cursor := ""
	pages := 0
	for {
		req := QueryRequest{Query: "path(X, Y)", PageSize: 4, Cursor: cursor}
		resp := postJSON(t, ts.URL+"/v1/query", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("page %d: status = %d", pages, resp.StatusCode)
		}
		page := decode[QueryResponse](t, resp)
		if len(page.Rows) > 4 {
			t.Fatalf("page %d has %d rows, page_size is 4", pages, len(page.Rows))
		}
		paged = append(paged, page.Rows...)
		pages++
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
		if pages > 20 {
			t.Fatal("pagination did not terminate")
		}
	}
	if pages < 2 {
		t.Fatalf("answer served in %d page(s); pagination not exercised", pages)
	}
	if len(paged) != len(full.Rows) {
		t.Fatalf("pages reassemble to %d rows, want %d", len(paged), len(full.Rows))
	}
	for i := range paged {
		if strings.Join(paged[i], "\x00") != strings.Join(full.Rows[i], "\x00") {
			t.Fatalf("row %d diverges: %v vs %v", i, paged[i], full.Rows[i])
		}
	}
	if st := s.Stats(); st.CursorPages != int64(pages) {
		t.Fatalf("cursor_pages = %d, want %d", st.CursorPages, pages)
	}

	// Garbage cursor: 400.
	resp := postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "path(X, Y)", Cursor: "not-base64!"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage cursor: status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// A valid mid-answer cursor from the current snapshot…
	firstPage := decode[QueryResponse](t, postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "path(X, Y)", PageSize: 4}))
	if firstPage.NextCursor == "" {
		t.Fatal("first page has no next cursor")
	}
	// …goes stale when a fact swap advances the snapshot: 410 Gone.
	fr := postJSON(t, ts.URL+"/v1/facts", FactsRequest{Facts: "edge(c9,c10)."})
	if fr.StatusCode != http.StatusOK {
		t.Fatalf("facts: status = %d", fr.StatusCode)
	}
	fr.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "path(X, Y)", Cursor: firstPage.NextCursor})
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("stale cursor: status = %d, want 410", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestQueryModeValidation: contradictory or malformed serving-mode
// fields are 400s before any evaluation.
func TestQueryModeValidation(t *testing.T) {
	_, ts := newTestServer(t, chainProgram(3), Config{})
	bad := []QueryRequest{
		{Query: "path(X, Y)", Limit: -1},
		{Query: "path(X, Y)", PageSize: -2},
		{Query: "path(X, Y)", PageSize: 2, Limit: 1},
		{Query: "path(X, Y)", PageSize: 2, Exists: true},
	}
	for i, req := range bad {
		resp := postJSON(t, ts.URL+"/v1/query", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("case %d (%+v): status = %d, want 400", i, req, resp.StatusCode)
		}
		resp.Body.Close()
	}
	// Streaming + pagination contradict too (stream flag is a query param).
	resp := postJSON(t, ts.URL+"/v1/query?stream=1", QueryRequest{Query: "path(X, Y)", PageSize: 2})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("stream+cursor: status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestStreamClientDisconnectReleasesBudget is the mid-stream leak probe:
// a client that drops the connection partway through a large NDJSON
// stream must leave no evaluation goroutines behind and must give the
// worker-budget grant back promptly.
func TestStreamClientDisconnectReleasesBudget(t *testing.T) {
	s, ts := newTestServer(t, cycleProgram(220), Config{TotalWorkers: 4, QueryWorkers: 4})

	before := runtime.NumGoroutine()
	client := &http.Client{}
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		body, _ := json.Marshal(QueryRequest{Query: "p(X, Y)", Workers: 4})
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/query?stream=1", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("request: %v", err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			cancel()
			t.Fatalf("iteration %d: %v", i, err)
		}
		// Read a few rows to make sure evaluation is underway, then hang up.
		sc := bufio.NewScanner(resp.Body)
		for j := 0; j < 3 && sc.Scan(); j++ {
		}
		cancel()
		resp.Body.Close()
	}
	client.CloseIdleConnections()

	// The grant release happens the moment the server's write fails; give
	// the handler a bounded window to notice the dead connection.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Stats()
		if st.WorkersInUse == 0 && st.InFlight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("budget leaked after disconnects: %d workers in use, %d inflight", st.WorkersInUse, st.InFlight)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for {
		if g := runtime.NumGoroutine(); g <= before+4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after mid-stream disconnects", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if aborts := s.Stats().ClientAborts; aborts < 1 {
		t.Fatalf("client_aborts = %d, want ≥ 1", aborts)
	}
}

// TestStreamTimeoutTail: a deadline that fires mid-stream ends the
// stream with an error tail (the 200 is already on the wire) and counts
// a timeout, not a success.  The closure (10⁶ tuples over 1000 rounds)
// must outlast the deadline on a fast idle machine too: a 400-node
// cycle's 160k tuples finish inside 60 ms there.
func TestStreamTimeoutTail(t *testing.T) {
	s, ts := newTestServer(t, cycleProgram(1000), Config{DefaultTimeout: 60 * time.Millisecond})
	resp := postJSON(t, ts.URL+"/v1/query?stream=1", QueryRequest{Query: "p(X, Y)"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (the stream commits to 200 before evaluating)", resp.StatusCode)
	}
	got := readNDJSON(t, resp)
	if got.tail.Done || got.tail.Error == "" {
		t.Fatalf("tail = %+v, want an error tail", got.tail)
	}
	if st := s.Stats(); st.Timeouts < 1 {
		t.Fatalf("timeouts = %d, want ≥ 1", st.Timeouts)
	}
}

// mustParseMetrics scrapes and strictly parses /metrics.
func mustParseMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	m, err := ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("parse metrics: %v", err)
	}
	return m
}

// TestStreamingMetricsExported: the new counters appear in /metrics and
// track the stats report.
func TestStreamingMetricsExported(t *testing.T) {
	_, ts := newTestServer(t, chainProgram(5), Config{})
	readNDJSON(t, postJSON(t, ts.URL+"/v1/query?stream=1", QueryRequest{Query: "path(X, Y)"}))
	resp := postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "path(c0, Y)", Exists: true})
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "path(X, Y)", PageSize: 3})
	resp.Body.Close()

	m := mustParseMetrics(t, ts.URL)
	checks := []struct {
		series string
		min    float64
	}{
		{"linrec_streamed_rows_total", 1},
		{"linrec_exists_queries_total", 1},
		{"linrec_limited_queries_total", 1},
		{"linrec_early_terminations_total", 1},
		{"linrec_cursor_pages_total", 1},
	}
	for _, c := range checks {
		v, ok := m[c.series]
		if !ok {
			t.Fatalf("series %s missing from /metrics", c.series)
		}
		if v < c.min {
			t.Fatalf("%s = %v, want ≥ %v", c.series, v, c.min)
		}
	}
}
