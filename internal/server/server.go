// Package server is the linrecd network front end: it multiplexes many
// concurrent HTTP clients onto one loaded core.System, serving
// linear-recursion queries over snapshot-isolated databases.
//
//	POST   /v1/query  {"query":"path(a,Y)","timeout_ms":1000,"workers":2}
//	POST   /v1/facts  {"facts":"edge(c,d).","remove":"edge(a,b)."}
//	DELETE /v1/facts  {"facts":"edge(a,b)."}
//	GET    /v1/stats
//	GET    /healthz
//
// Each query pins the database snapshot current at admission and runs
// entirely against it; POST /v1/facts adds facts, DELETE /v1/facts (or a
// POST with "remove" entries) retracts them, and each request publishes
// at most one new snapshot copy-on-write (core.System.Apply, removals
// first when a POST carries both), so updates never block or tear
// in-flight queries — a query admitted before a retraction answers from
// its pinned pre-retraction snapshot.  Admission control partitions a
// global worker budget into per-query grants through a weighted FIFO semaphore: a bounded
// queue sheds excess load with 429 (queue full) and 503 (budget
// unavailable before the query's deadline), and per-query timeouts
// propagate as context cancellation all the way into the engine's closure
// round barriers, so a slow query is killed promptly (504) without
// leaking its workers.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"linrec/internal/ast"
	"linrec/internal/core"
	"linrec/internal/eval"
	"linrec/internal/parser"
	"linrec/internal/segment"
)

// Config sizes the server.  Zero values select the documented defaults.
type Config struct {
	// System is the loaded program the server fronts.  Required.
	System *core.System
	// TotalWorkers is the global closure-worker budget shared by all
	// in-flight queries.  Default: GOMAXPROCS.
	TotalWorkers int
	// QueryWorkers is the per-query worker grant when the request doesn't
	// ask for one.  Default: 1 (sequential evaluation per query; the
	// budget then equals the maximum number of concurrent queries).
	QueryWorkers int
	// MaxQueue bounds the admission queue: requests beyond it are shed
	// with 429 instead of waiting for budget.  Default: 4 × TotalWorkers.
	MaxQueue int
	// DefaultTimeout applies when a request carries no timeout_ms.
	// Default: 30s.
	DefaultTimeout time.Duration
	// MaxTimeout caps any requested timeout.  Default: 120s.
	MaxTimeout time.Duration
	// MaxRows rejects answers larger than this with 413 before they are
	// serialized — serialization happens after the worker grant is
	// released, so without a cap, huge open-query answers would be the
	// one unmetered resource.  0 = unlimited.
	MaxRows int
	// Logger receives the server's structured diagnostics (internal
	// errors, slow queries), each record carrying the request ID the
	// response echoed.  Default: slog.Default().
	Logger *slog.Logger
	// SlowQuery, when positive, forces tracing on for every query and
	// logs the full trace of any query whose evaluation exceeds the
	// threshold (the linrecd -slow-query-ms flag).  0 disables.
	SlowQuery time.Duration
	// Persist, when the system runs on durable storage (linrecd
	// -data-dir), exposes the storage manager's recovery and publish
	// counters through /v1/stats and /metrics.  nil for in-memory
	// systems.
	Persist *segment.Manager
}

func (c Config) withDefaults() Config {
	if c.TotalWorkers <= 0 {
		c.TotalWorkers = runtime.GOMAXPROCS(0)
	}
	if c.QueryWorkers <= 0 {
		c.QueryWorkers = 1
	}
	if c.QueryWorkers > c.TotalWorkers {
		c.QueryWorkers = c.TotalWorkers
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.TotalWorkers
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 120 * time.Second
	}
	return c
}

// Server serves one core.System over HTTP.  Safe for concurrent use.
type Server struct {
	cfg      Config
	sys      *core.System
	sem      *Semaphore
	queued   atomic.Int64
	inflight atomic.Int64
	start    time.Time
	ctr      counters
	lat      latencyHist
	mux      *http.ServeMux
	log      *slog.Logger
	runID    string
	reqSeq   atomic.Int64
	names    symbolJSON // every symbol's JSON encoding, for the row writer
}

// New builds a server over a loaded system.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	if cfg.System == nil {
		panic("server: Config.System is required")
	}
	s := &Server{
		cfg:   cfg,
		sys:   cfg.System,
		sem:   NewSemaphore(int64(cfg.TotalWorkers)),
		start: time.Now(),
		mux:   http.NewServeMux(),
		log:   cfg.Logger,
		runID: fmt.Sprintf("%08x", uint32(time.Now().UnixNano())),
	}
	if s.log == nil {
		s.log = slog.Default()
	}
	s.mux.HandleFunc("/v1/query", s.handleQuery)
	s.mux.HandleFunc("/v1/facts", s.handleFacts)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// nextRequestID mints a per-request ID: a per-process run prefix (so IDs
// from different server lifetimes never collide in aggregated logs) plus
// a monotone sequence number.  It is echoed as the X-Request-Id response
// header, in response bodies, on traces and in every log record.
func (s *Server) nextRequestID() string {
	return fmt.Sprintf("%s-%06d", s.runID, s.reqSeq.Add(1))
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// QueryRequest is the POST /v1/query body.
type QueryRequest struct {
	// Query is a goal atom, e.g. "path(a, Y)"; the "?-" marker and
	// trailing "." are optional.
	Query string `json:"query"`
	// TimeoutMS is the per-query deadline; 0 selects the server default,
	// values above the server cap are clamped.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Workers is the requested closure worker grant; 0 selects the server
	// default, values above the global budget are clamped.
	Workers int `json:"workers,omitempty"`
	// Trace requests the evaluation trace in the response (equivalent to
	// the ?trace=1 URL parameter): per-round delta sizes, per-rule
	// timings, shard balance and cache decisions.
	Trace bool `json:"trace,omitempty"`
	// Explain requests the planner's decision tree instead of execution
	// (equivalent to ?explain=1): the response describes the plan the
	// query would run under, and nothing is evaluated or admitted.
	Explain bool `json:"explain,omitempty"`
	// Limit caps the answer at this many rows.  The engine streams rows
	// out of the closure and stops evaluating at the round that produced
	// the limit-th row, so a limited query on a deep closure can be
	// orders of magnitude cheaper than the full fixpoint.  The served
	// rows are a valid subset of the full answer, in derivation order
	// (not sorted).  0 means unlimited.
	Limit int `json:"limit,omitempty"`
	// Exists asks only whether the answer is non-empty: evaluation stops
	// at the first row, and the response carries "exists" plus at most
	// one witness row.
	Exists bool `json:"exists,omitempty"`
	// Cursor resumes a paginated answer where the previous page's
	// "next_cursor" left off.  Cursors are opaque and valid only against
	// the snapshot version that minted them (410 Gone after a fact swap).
	Cursor string `json:"cursor,omitempty"`
	// PageSize switches the response to cursor pagination with pages of
	// this many sorted rows (default 1000 when only "cursor" is set).
	PageSize int `json:"page_size,omitempty"`
}

// QueryResponse is the POST /v1/query answer.
type QueryResponse struct {
	Rows            [][]string `json:"rows"`
	RowCount        int        `json:"row_count"`
	Plan            string     `json:"plan"`
	Why             string     `json:"why"`
	Stats           eval.Stats `json:"stats"`
	SnapshotVersion uint64     `json:"snapshot_version"`
	Workers         int        `json:"workers"`
	// Cached reports that the answer came from the goal-level result
	// cache (bit-for-bit identical to the evaluation that populated it).
	Cached    bool    `json:"cached,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// RequestID echoes the server-assigned request ID (also the
	// X-Request-Id header), correlating the response with log records.
	RequestID string `json:"request_id,omitempty"`
	// Exists is the verdict of an exists query (present only then).
	Exists *bool `json:"exists,omitempty"`
	// Truncated reports that the served rows are a strict subset of the
	// full answer: a limit was reached or an NDJSON stream hit the
	// server's row cap before the closure was exhausted.
	Truncated bool `json:"truncated,omitempty"`
	// NextCursor resumes pagination at the next page; absent on the last
	// page (and on non-paginated responses).
	NextCursor string `json:"next_cursor,omitempty"`
	// Trace is the evaluation trace, present only when requested
	// (?trace=1 or "trace":true).
	Trace *eval.Trace `json:"trace,omitempty"`
}

// ExplainResponse is the POST /v1/query?explain=1 answer: the planner's
// decision for the query, with nothing executed.
type ExplainResponse struct {
	RequestID       string        `json:"request_id,omitempty"`
	SnapshotVersion uint64        `json:"snapshot_version"`
	Explain         *core.Explain `json:"explain"`
}

// FactsRequest is the POST and DELETE /v1/facts body.
type FactsRequest struct {
	// Facts is Datalog source containing only ground facts,
	// e.g. "edge(c,d). edge(d,e)."  On POST they are added; on DELETE
	// they are retracted.
	Facts string `json:"facts,omitempty"`
	// Remove is Datalog source of ground facts to retract (POST only;
	// DELETE expresses retraction through Facts).  When a POST carries
	// both, removals apply first, then additions — one copy-on-write
	// swap either way.
	Remove string `json:"remove,omitempty"`
	// Trace requests the maintenance trace in the response (equivalent
	// to ?trace=1): per-entry cache upgrade/purge decisions and any
	// resume phases the swap's differential maintenance ran.
	Trace bool `json:"trace,omitempty"`
}

// FactsResponse is the /v1/facts answer.
type FactsResponse struct {
	SnapshotVersion uint64 `json:"snapshot_version"`
	FactsAdded      int    `json:"facts_added"`
	FactsRemoved    int    `json:"facts_removed,omitempty"`
	// CacheUpgraded / CachePurged report how cached derived state fared
	// across the swap this request caused: entries maintained in place
	// (result views and seed relations upgraded to the new version)
	// versus entries that fell back to invalidation.
	CacheUpgraded int     `json:"cache_upgraded"`
	CachePurged   int     `json:"cache_purged"`
	ElapsedMS     float64 `json:"elapsed_ms"`
	// RequestID echoes the server-assigned request ID (also the
	// X-Request-Id header).
	RequestID string `json:"request_id,omitempty"`
	// Trace is the maintenance trace, present only when requested.
	Trace *eval.Trace `json:"trace,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

const maxBodyBytes = 16 << 20 // fact batches can be large; queries are tiny

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	rid := s.nextRequestID()
	w.Header().Set("X-Request-Id", rid)
	var req QueryRequest
	if !decodeBody(w, r, &req) {
		s.ctr.queryErrors.Add(1)
		return
	}
	goal, err := parser.ParseAtom(req.Query)
	if err != nil {
		s.ctr.queryErrors.Add(1)
		writeError(w, http.StatusBadRequest, "bad query: %v", err)
		return
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	timeout = min(timeout, s.cfg.MaxTimeout)
	workers := s.cfg.QueryWorkers
	if req.Workers > 0 {
		workers = req.Workers
	}
	workers = min(workers, s.cfg.TotalWorkers)
	opts := core.Options{Workers: workers, Strategy: s.sys.Opts.Strategy}

	// Row streaming is ?stream=1 or Accept: application/x-ndjson.
	params := r.URL.Query()
	stream := params.Get("stream") == "1" || strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
	mode, badMode := queryModeFor(&req, stream, s.cfg.MaxRows)
	if badMode != "" {
		s.ctr.queryErrors.Add(1)
		writeError(w, http.StatusBadRequest, "%s", badMode)
		return
	}

	// Explain: return the planner's decision tree without executing —
	// no admission, no queue slot, no worker grant, no evaluation.
	if req.Explain || params.Get("explain") == "1" {
		ex, err := s.sys.Explain(goal, opts)
		if err != nil {
			s.ctr.queryErrors.Add(1)
			writeError(w, http.StatusUnprocessableEntity, "explain failed: %v", err)
			return
		}
		writeJSON(w, http.StatusOK, ExplainResponse{
			RequestID:       rid,
			SnapshotVersion: s.sys.Snapshot().Version,
			Explain:         ex,
		})
		return
	}

	// Tracing is on when the client asked for it, or unconditionally
	// when a slow-query threshold is set (the trace must already exist
	// by the time the query turns out slow).  tr == nil is the off-path:
	// the engine's hooks degenerate to nil checks at round granularity.
	rp := reply{rid: rid, wantTrace: req.Trace || params.Get("trace") == "1", mode: mode}
	if rp.wantTrace || s.cfg.SlowQuery > 0 {
		rp.tr = &eval.Tracer{}
		rp.tr.SetRequestID(rid)
	}

	// Grant the pool the plan runs on (Plan.Workers): a context-mode
	// magic plan evaluates sequentially, so a wide budget slice would
	// hold workers idle and starve other queries; the result key, and
	// what explain reports, name the same pool.  This also rejects
	// unknown predicates before they burn a queue slot.
	plan, err := s.sys.PlanFor(goal, opts)
	if err != nil {
		s.ctr.queryErrors.Add(1)
		writeError(w, http.StatusUnprocessableEntity, "query failed: %v", err)
		return
	}
	grant := max(plan.Workers, 1)
	opts.Workers = grant

	// Admission-free fast path: a completed result-cache entry answers
	// the query in a map probe, so it skips the queue and consumes no
	// worker grant — under overload, repeated goals keep being served
	// while the budget goes to queries that actually evaluate.
	if res, ok := s.sys.CachedAnswer(s.sys.Snapshot(), goal, plan, opts); ok {
		if rp.tr != nil {
			rp.tr.Cache("result", "hit", goal.String(), 0)
		}
		s.finishQuery(w, res, rp)
		return
	}
	rp.grant = grant

	// Admission: a bounded queue in front of the worker budget.  The
	// counter includes requests currently acquiring, so the bound holds
	// under any interleaving; beyond it, shed immediately.
	if s.queued.Add(1) > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		s.ctr.shedQueue.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "admission queue full (%d waiting)", s.cfg.MaxQueue)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	err = s.sem.Acquire(ctx, int64(grant))
	s.queued.Add(-1)
	if err != nil {
		s.ctr.shedBudget.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable,
			"no worker budget within the %v query deadline: %v", timeout, err)
		return
	}

	// Pin the snapshot current at admission; the query never sees a
	// later fact swap.  The grant covers evaluation only — it is
	// returned before the response is serialized, so a slow-reading
	// client cannot pin closure workers.  The release is once-guarded
	// and deferred as well: net/http recovers handler panics, so a
	// non-deferred release would leak the grant and inflight count on
	// any panic, permanently shrinking the budget.
	s.inflight.Add(1)
	var releaseOnce sync.Once
	release := func() {
		releaseOnce.Do(func() {
			s.inflight.Add(-1)
			s.sem.Release(int64(grant))
		})
	}
	defer release()
	snap := s.sys.Snapshot()
	qctx := ctx
	if rp.tr != nil {
		qctx = eval.WithTracer(ctx, rp.tr)
	}
	start := time.Now()

	// Streamed and limited queries take the engine's pull-based entry
	// point, so evaluation stops at the k-th answer (or at the client's
	// pace) instead of running the closure to its fixpoint.
	if mode.stream || mode.limit > 0 {
		s.streamEvaluated(w, qctx, snap, goal, opts, release, timeout, start, rp)
		return
	}

	res, err := s.sys.Evaluate(qctx, core.QueryRequest{Goal: goal, Snap: snap, Opts: opts})
	rp.elapsed = time.Since(start)
	release()
	if err != nil {
		s.writeQueryError(w, err, timeout, rid, req.Query)
		return
	}

	s.finishQuery(w, res, rp)
}

// writeQueryError answers a failed evaluation with the status code
// countFailure classifies it under.
func (s *Server) writeQueryError(w http.ResponseWriter, err error, timeout time.Duration, rid, query string) {
	switch status := s.countFailure(err, rid, query); status {
	case http.StatusGatewayTimeout:
		writeError(w, status, "query timed out after %v", timeout)
	case 499: // nobody reads this reply
		writeError(w, status, "client closed request")
	case http.StatusInternalServerError:
		// The full error carries the recovered panic and its stack; that
		// diagnostic belongs in the server log, not in a response body
		// handed to remote clients.
		writeError(w, status, "internal evaluation error; see server log")
	default:
		writeError(w, status, "query failed: %v", err)
	}
}

// reply is what every serving mode needs to answer one query request.
type reply struct {
	rid       string
	tr        *eval.Tracer // the query's tracer; nil when tracing is off
	wantTrace bool         // the trace joins the response
	mode      queryMode
	grant     int           // the worker grant the query consumed; 0 for cache hits
	elapsed   time.Duration // evaluation time; 0 for cache hits
}

// finishQuery is the shared success tail of the cached fast path and the
// materialized evaluated path: row-cap enforcement, counters, slow-query
// logging, and dispatch on the serving mode — buffered JSON by default,
// a limited prefix for limit/exists, one page for cursor requests, or an
// NDJSON stream of the materialized rows.
func (s *Server) finishQuery(w http.ResponseWriter, res *core.QueryResult, rp reply) {
	switch {
	case rp.mode.stream:
		s.streamMaterialized(w, res, rp)
		return
	case rp.mode.limit > 0:
		// A limit/exists query on a materialized answer serves its first
		// rows in storage order: any k-subset is a valid limited result.
		n := min(rp.mode.limit, res.Answer.Len())
		s.writeRows(w, s.answered(res, n, res.Answer.Len() > n, rp), s.rowsOf(res), n, nil)
		return
	case rp.mode.paged:
		s.pageMaterialized(w, res, rp)
		return
	}
	if s.cfg.MaxRows > 0 && res.Answer.Len() > s.cfg.MaxRows {
		s.ctr.queryErrors.Add(1)
		writeError(w, http.StatusRequestEntityTooLarge,
			"answer has %d rows, over the server's %d-row cap; narrow the query, add a limit, or paginate with a cursor", res.Answer.Len(), s.cfg.MaxRows)
		return
	}
	order := res.Order(s.sys)
	resp := s.answered(res, len(order), false, rp)

	if s.cfg.SlowQuery > 0 && rp.elapsed >= s.cfg.SlowQuery {
		s.ctr.slowQueries.Add(1)
		trace, _ := json.Marshal(rp.tr.Trace())
		s.log.Warn("slow query",
			"request_id", rp.rid,
			"query", res.Query.String(),
			"elapsed_ms", float64(rp.elapsed)/1e6,
			"rows", len(order),
			"plan", res.Plan.Kind.Slug(),
			"cached", res.Cached,
			"trace", string(trace))
	}
	s.writeRows(w, resp, s.rowsOf(res), len(order), order)
}

// parseFactSource parses Datalog source that must contain only ground
// facts, rejecting rules and queries.
func parseFactSource(src, what string) ([]ast.Atom, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("bad %s: %w", what, err)
	}
	if len(prog.Rules) > 0 || len(prog.Queries) > 0 {
		return nil, fmt.Errorf("%s update must contain only ground facts (got %d rules, %d queries)",
			what, len(prog.Rules), len(prog.Queries))
	}
	return prog.Facts, nil
}

// handleFacts serves the fact lifecycle: POST adds (and, with "remove"
// entries, retracts — removals first), DELETE retracts the facts in the
// body.  Every request is one copy-on-write snapshot swap; no-op batches
// (pure duplicates, absent retractions) publish nothing, so the reported
// version only advances when the database actually changed.
func (s *Server) handleFacts(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost && r.Method != http.MethodDelete {
		writeError(w, http.StatusMethodNotAllowed, "POST or DELETE only")
		return
	}
	rid := s.nextRequestID()
	w.Header().Set("X-Request-Id", rid)
	var req FactsRequest
	if !decodeBody(w, r, &req) {
		return
	}
	addSrc, removeSrc := req.Facts, req.Remove
	if r.Method == http.MethodDelete {
		if req.Remove != "" {
			writeError(w, http.StatusBadRequest, `DELETE expresses retraction through "facts"; "remove" is POST-only`)
			return
		}
		addSrc, removeSrc = "", req.Facts
	}
	var toAdd, toRemove []ast.Atom
	var err error
	if removeSrc != "" {
		if toRemove, err = parseFactSource(removeSrc, "remove"); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	if addSrc != "" {
		if toAdd, err = parseFactSource(addSrc, "facts"); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	if len(toAdd) == 0 && len(toRemove) == 0 {
		writeError(w, http.StatusBadRequest, "no facts in update")
		return
	}
	// The maintenance context carries observability only — built on
	// Background, never the request context, so a client disconnect
	// cannot abort a swap's cache maintenance.
	wantTrace := req.Trace || r.URL.Query().Get("trace") == "1"
	mctx := context.Background()
	var tr *eval.Tracer
	if wantTrace {
		tr = &eval.Tracer{}
		tr.SetRequestID(rid)
		mctx = eval.WithTracer(mctx, tr)
	}
	// One Apply: both halves validate, publish and become visible as one
	// version, so a 409 (a publish failure included) commits nothing.
	start := time.Now()
	snap, maint, err := s.sys.Apply(mctx, toAdd, toRemove)
	if err != nil {
		writeError(w, http.StatusConflict, "update rejected: %v", err)
		return
	}
	added, removed := maint.Added, maint.Removed
	if removed > 0 {
		s.ctr.retractBatches.Add(1)
		s.ctr.factsRemoved.Add(int64(removed))
	}
	if added > 0 {
		s.ctr.factBatches.Add(1)
		s.ctr.factsAdded.Add(int64(added))
	}
	elapsed := time.Since(start)
	if added > 0 || removed > 0 {
		s.ctr.swapNS.Add(int64(elapsed))
	}
	resp := FactsResponse{
		SnapshotVersion: snap.Version,
		FactsAdded:      added,
		FactsRemoved:    removed,
		CacheUpgraded:   maint.ResultsUpgraded + maint.SeedsUpgraded,
		CachePurged:     maint.ResultsPurged + maint.SeedsPurged,
		ElapsedMS:       float64(elapsed) / 1e6,
		RequestID:       rid,
	}
	if wantTrace {
		resp.Trace = tr.Trace()
	}
	writeJSON(w, http.StatusOK, resp)
}

// Stats returns a point-in-time statistics report (the /v1/stats body).
func (s *Server) Stats() StatsReport {
	rep := StatsReport{
		UptimeS:           time.Since(s.start).Seconds(),
		SnapshotVersion:   s.sys.Snapshot().Version,
		QueriesOK:         s.ctr.queriesOK.Load(),
		QueryErrors:       s.ctr.queryErrors.Load(),
		Internal500s:      s.ctr.internalErrors.Load(),
		Timeouts:          s.ctr.timeouts.Load(),
		ClientAborts:      s.ctr.clientAborts.Load(),
		Shed429:           s.ctr.shedQueue.Load(),
		Shed503:           s.ctr.shedBudget.Load(),
		FactBatches:       s.ctr.factBatches.Load(),
		FactsAdded:        s.ctr.factsAdded.Load(),
		RetractBatches:    s.ctr.retractBatches.Load(),
		FactsRemoved:      s.ctr.factsRemoved.Load(),
		RowsServed:        s.ctr.rowsServed.Load(),
		SwapS:             float64(s.ctr.swapNS.Load()) / 1e9,
		SlowQueries:       s.ctr.slowQueries.Load(),
		LimitedQueries:    s.ctr.limitedQueries.Load(),
		ExistsQueries:     s.ctr.existsQueries.Load(),
		EarlyTerminations: s.ctr.earlyTerminations.Load(),
		StreamedRows:      s.ctr.streamedRows.Load(),
		CursorPages:       s.ctr.cursorPages.Load(),
		InFlight:          s.inflight.Load(),
		Queued:            s.queued.Load(),
		WorkerBudget:      s.sem.Size(),
		WorkersInUse:      s.sem.InUse(),
		Plans:             s.ctr.planCounts(),
		PlansByAdornment:  s.ctr.adornCounts(),
		Latency:           s.lat.summary(),
		ResultCache:       s.sys.ResultCacheStats(),
		SeedCache:         s.sys.SeedCacheStatsNow(),
	}
	if s.cfg.Persist != nil {
		ps := s.cfg.Persist.Stats()
		rep.Persist = &ps
	}
	return rep
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status          string `json:"status"`
		SnapshotVersion uint64 `json:"snapshot_version"`
	}{Status: "ok", SnapshotVersion: s.sys.Snapshot().Version})
}
