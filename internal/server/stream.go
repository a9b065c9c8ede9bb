// Streamed, limited and paginated query serving.  Three response shapes
// share the /v1/query endpoint beyond the classic buffered JSON answer:
//
//   - NDJSON streaming (?stream=1 or Accept: application/x-ndjson): rows
//     go out as the closure derives them, flushed in small batches, with
//     a terminal JSON object ("done":true) carrying the metadata.  The
//     evaluation advances only as rows are written, so a client that
//     stops reading stops the fixpoint.
//   - limit / exists: the request caps the answer at k rows (exists is
//     limit 1 with a boolean verdict); the engine's streaming entry
//     point stops the closure at the round that produced the k-th row.
//   - cursor pagination ("page_size" / "cursor"): the full answer is
//     evaluated (and result-cached) once, and pages of its sorted rows
//     are served with an opaque resume cursor.  A cursor is only valid
//     against the snapshot version that minted it — a fact swap between
//     pages answers 410 Gone rather than silently tearing the page
//     sequence.

package server

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"linrec/internal/ast"
	"linrec/internal/core"
	"linrec/internal/rel"
)

// Error classifiers shared by the buffered and streamed failure paths.
func isDeadline(err error) bool { return errors.Is(err, context.DeadlineExceeded) }
func isCanceled(err error) bool { return errors.Is(err, context.Canceled) }
func isInternal(err error) bool { return errors.Is(err, core.ErrInternal) }

// streamFlushRows is the NDJSON flush batch: rows reach the client at
// least this often (plus a final flush), balancing syscall cost against
// delivery latency on million-row streams.
const streamFlushRows = 256

// defaultPageSize applies when a pagination request names no page_size.
const defaultPageSize = 1000

// queryMode captures how one /v1/query request wants its answer served.
type queryMode struct {
	// limit caps the answer rows; 0 streams/serves everything.  Exists
	// queries run with limit 1.
	limit  int
	exists bool
	stream bool
	// paged selects cursor pagination; cursor resumes a page sequence
	// and pageSize bounds one page.
	paged    bool
	cursor   string
	pageSize int
}

// pageCursor is the decoded pagination cursor: an offset into the sorted
// rows of one goal's answer at one snapshot version.
type pageCursor struct {
	Version uint64 `json:"v"`
	Offset  int    `json:"o"`
	Goal    string `json:"g"`
}

// encodeCursor renders the cursor opaquely (URL-safe base64 JSON).
func encodeCursor(c pageCursor) string {
	b, _ := json.Marshal(c)
	return base64.RawURLEncoding.EncodeToString(b)
}

// decodeCursor parses a client-supplied cursor, rejecting anything that
// does not decode to a well-formed offset.
func decodeCursor(s string) (pageCursor, error) {
	b, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return pageCursor{}, fmt.Errorf("bad cursor encoding: %w", err)
	}
	var c pageCursor
	if err := json.Unmarshal(b, &c); err != nil {
		return pageCursor{}, fmt.Errorf("bad cursor payload: %w", err)
	}
	if c.Offset < 0 || c.Goal == "" {
		return pageCursor{}, fmt.Errorf("bad cursor: negative offset or empty goal")
	}
	return c, nil
}

// queryModeFor validates the request's serving-mode fields.  The error
// string, when non-empty, is a 400.
func queryModeFor(req *QueryRequest, stream bool, maxRows int) (queryMode, string) {
	m := queryMode{
		limit:    req.Limit,
		exists:   req.Exists,
		stream:   stream,
		paged:    req.Cursor != "" || req.PageSize > 0,
		cursor:   req.Cursor,
		pageSize: req.PageSize,
	}
	if req.Limit < 0 {
		return m, `"limit" must be non-negative`
	}
	if req.PageSize < 0 {
		return m, `"page_size" must be non-negative`
	}
	if m.exists {
		m.limit = 1
	}
	if m.paged {
		if m.exists || m.limit > 0 {
			return m, `cursor pagination cannot combine with "limit" or "exists"`
		}
		if m.stream {
			return m, "cursor pagination cannot combine with row streaming"
		}
		if m.pageSize <= 0 {
			m.pageSize = defaultPageSize
		}
		if maxRows > 0 && m.pageSize > maxRows {
			m.pageSize = maxRows
		}
	}
	// The row cap bounds per-request materialization; a larger limit is
	// clamped rather than rejected so limited queries never 413.
	if maxRows > 0 && m.limit > maxRows {
		m.limit = maxRows
	}
	return m, ""
}

// answered records the success counters shared by every serving mode
// and assembles the response metadata for n served rows.
func (s *Server) answered(res *core.QueryResult, n int, truncated bool, rp reply) QueryResponse {
	s.ctr.queriesOK.Add(1)
	s.ctr.observePlan(res.Plan.Kind, res.Query.Pred, res.Query.Adornment())
	s.ctr.rowsServed.Add(int64(n))
	s.lat.observe(rp.elapsed)
	if rp.mode.limit > 0 {
		s.ctr.limitedQueries.Add(1)
	}
	if rp.mode.exists {
		s.ctr.existsQueries.Add(1)
	}
	if truncated {
		s.ctr.earlyTerminations.Add(1)
	}
	resp := QueryResponse{
		RowCount:        n,
		Plan:            res.Plan.Kind.String(),
		Why:             res.Plan.Why,
		Stats:           res.Stats,
		SnapshotVersion: res.Version,
		Workers:         rp.grant,
		Cached:          res.Cached,
		ElapsedMS:       float64(rp.elapsed) / 1e6,
		RequestID:       rp.rid,
		Truncated:       truncated,
	}
	if rp.mode.exists {
		ex := n > 0
		resp.Exists = &ex
	}
	if rp.wantTrace && rp.tr != nil {
		resp.Trace = rp.tr.Trace()
	}
	return resp
}

// pageMaterialized serves one page of the answer's sorted rows plus the
// cursor for the next page (absent on the last).
func (s *Server) pageMaterialized(w http.ResponseWriter, res *core.QueryResult, rp reply) {
	goal := res.Query.String()
	offset := 0
	fail := func(status int, format string, args ...any) {
		s.ctr.queryErrors.Add(1)
		writeError(w, status, format, args...)
	}
	if rp.mode.cursor != "" {
		c, err := decodeCursor(rp.mode.cursor)
		switch {
		case err != nil:
			fail(http.StatusBadRequest, "%v", err)
			return
		case c.Goal != goal:
			fail(http.StatusBadRequest, "cursor belongs to goal %q, request asks %q", c.Goal, goal)
			return
		case c.Version != res.Version:
			// The snapshot advanced between pages: the sorted row order
			// the cursor indexes into no longer exists.
			fail(http.StatusGone, "cursor pinned snapshot version %d, current is %d; restart pagination", c.Version, res.Version)
			return
		}
		offset = c.Offset
	}
	order := res.Order(s.sys)
	if offset > len(order) {
		fail(http.StatusBadRequest, "cursor offset %d past the %d-row answer", offset, len(order))
		return
	}
	end := offset + min(rp.mode.pageSize, len(order)-offset)
	page := order[offset:end]
	resp := s.answered(res, len(page), false, rp)
	s.ctr.cursorPages.Add(1)
	if end < len(order) {
		resp.NextCursor = encodeCursor(pageCursor{Version: res.Version, Offset: end, Goal: goal})
	}
	s.writeRows(w, resp, s.rowsOf(res), len(page), page)
}

// streamTail is the NDJSON terminal object: the response metadata with
// "done" prepended and the rows shadowed out (they are already on the
// wire as NDJSON lines).
type streamTail struct {
	Done bool `json:"done"`
	// Error is set instead of the metadata when evaluation failed after
	// rows were already streamed (the 200 status is long gone).
	Error string `json:"error,omitempty"`
	QueryResponse
	Rows any `json:"rows,omitempty"`
}

// streamMaterialized streams an already-materialized answer (the cached
// fast path) as NDJSON, honoring the limit and the MaxRows cap.
func (s *Server) streamMaterialized(w http.ResponseWriter, res *core.QueryResult, rp reply) {
	n := res.Answer.Len()
	if rp.mode.limit > 0 {
		n = min(n, rp.mode.limit)
	}
	if s.cfg.MaxRows > 0 {
		n = min(n, s.cfg.MaxRows)
	}
	resp := s.answered(res, n, n < res.Answer.Len(), rp)
	s.ctr.streamedRows.Add(int64(n))
	rows := s.rowsOf(res)
	rw := s.newRowWriter(w, "application/x-ndjson", rows.syms)
	defer rw.release()
	if !rows.lines(rw, n) {
		s.ctr.clientAborts.Add(1)
		return
	}
	_ = rw.enc.Encode(streamTail{Done: true, QueryResponse: resp})
	rw.flush(true)
}

// streamEvaluated is the evaluated path for streamed and limited
// queries: it opens the engine's pull-based QueryStream so rows go out
// (or accumulate, for the buffered limited shape) as the closure derives
// them, and a reached limit stops the fixpoint at the round that
// produced the k-th answer.  The worker grant is released the moment the
// evaluation stops — before the tail (or the JSON body) is serialized.
func (s *Server) streamEvaluated(w http.ResponseWriter, qctx context.Context, snap *core.Snapshot, goal ast.Atom, opts core.Options, release func(), timeout time.Duration, start time.Time, rp reply) {
	st, err := s.sys.Stream(qctx, core.QueryRequest{Goal: goal, Snap: snap, Opts: opts, Limit: rp.mode.limit})
	if err != nil {
		release()
		s.writeQueryError(w, err, timeout, rp.rid, goal.String())
		return
	}
	defer st.Close()

	if !rp.mode.stream {
		// Buffered JSON with a limit: collect up to limit rows (the cap
		// below guards the unlimited-exists degenerate case) into one flat
		// value array, since the stream owns the tuples it yields.
		var vals []rel.Value
		n := 0
		for {
			t, ok := st.Next()
			if !ok {
				break
			}
			vals, n = append(vals, t...), n+1
			if s.cfg.MaxRows > 0 && n >= s.cfg.MaxRows {
				st.Close()
				break
			}
		}
		rp.elapsed = time.Since(start)
		release()
		if err := st.Err(); err != nil {
			s.writeQueryError(w, err, timeout, rp.rid, goal.String())
			return
		}
		resp := s.answered(s.streamResult(st, goal), n, st.EarlyTerminated(), rp)
		arity := goal.Arity()
		rows := answerRows{syms: s.symbols(), tuple: func(i int) rel.Tuple { return vals[i*arity : (i+1)*arity] }}
		s.writeRows(w, resp, rows, n, nil)
		return
	}

	// NDJSON while evaluating: each pulled row is encoded at once and
	// reaches the client with its flush batch; the fixpoint advances only
	// between writes.  MaxRows caps delivery by truncation (a stream has
	// no buffered answer to 413).
	rw := s.newRowWriter(w, "application/x-ndjson", s.symbols())
	defer rw.release()
	capped := false
	for {
		t, ok := st.Next()
		if !ok {
			break
		}
		if rw.tuple(t); !rw.endLine() {
			// Client went away mid-stream: stop the evaluation and give
			// the budget back; nobody reads a tail.
			st.Close()
			release()
			s.ctr.clientAborts.Add(1)
			s.ctr.streamedRows.Add(int64(rw.n))
			return
		}
		if s.cfg.MaxRows > 0 && rw.n >= s.cfg.MaxRows {
			capped = true
			st.Close()
			break
		}
	}
	rp.elapsed = time.Since(start)
	st.Close()
	release()
	s.ctr.streamedRows.Add(int64(rw.n))
	if err := st.Err(); err != nil {
		// The 200 and some rows are already on the wire; classify the
		// failure for the counters and say so in the tail.
		s.countFailure(err, rp.rid, goal.String())
		_ = rw.enc.Encode(streamTail{Error: err.Error(), QueryResponse: QueryResponse{RequestID: rp.rid}})
		rw.flush(true)
		return
	}
	resp := s.answered(s.streamResult(st, goal), rw.n, st.EarlyTerminated() || capped, rp)
	_ = rw.enc.Encode(streamTail{Done: true, QueryResponse: resp})
	rw.flush(true)
}

// streamResult adapts a finished QueryStream to the QueryResult shape
// the shared counter/response helpers consume.
func (s *Server) streamResult(st *core.QueryStream, goal ast.Atom) *core.QueryResult {
	return &core.QueryResult{
		Query:   goal,
		Plan:    st.Plan(),
		Stats:   st.Stats(),
		Version: st.Version(),
		Cached:  st.Cached(),
	}
}

// countFailure classifies an evaluation failure, buffered or mid-stream,
// into the counters and returns its status code.  It matches the error
// itself, not ctx.Err(): a genuine evaluation failure racing the deadline
// must not be mislabeled as a timeout or client abort.
func (s *Server) countFailure(err error, rid, query string) int {
	switch {
	case isDeadline(err):
		s.ctr.timeouts.Add(1)
		return http.StatusGatewayTimeout
	case isCanceled(err):
		// The client went away mid-evaluation; 499 is the de-facto
		// client-closed-request status.
		s.ctr.clientAborts.Add(1)
		return 499
	case isInternal(err):
		// Counted apart from client errors so a smoke check can fail a run
		// that provoked any 500.
		s.ctr.queryErrors.Add(1)
		s.ctr.internalErrors.Add(1)
		s.log.Error("internal evaluation error", "request_id", rid, "query", query, "err", err)
		return http.StatusInternalServerError
	}
	s.ctr.queryErrors.Add(1)
	return http.StatusUnprocessableEntity
}
