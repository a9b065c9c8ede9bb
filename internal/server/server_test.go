package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"linrec/internal/core"
	"linrec/internal/rel"
)

// chainProgram builds a path/edge program over a chain c0→c1→…→cN.
func chainProgram(n int) string {
	var b strings.Builder
	b.WriteString("path(X,Y) :- edge(X,Y).\n")
	b.WriteString("path(X,Y) :- path(X,U), edge(U,Y).\n")
	b.WriteString("path(X,Y) :- edge(X,U), path(U,Y).\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "edge(c%d,c%d).\n", i, i+1)
	}
	return b.String()
}

// cycleProgram's closure is n² tuples over n rounds — the slow query used
// by the timeout and shedding tests.
func cycleProgram(n int) string {
	var b strings.Builder
	b.WriteString("p(X,Y) :- e(X,Y).\n")
	b.WriteString("p(X,Y) :- p(X,U), e(U,Y).\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "e(v%d,v%d).\n", i, (i+1)%n)
	}
	return b.String()
}

func newTestServer(t *testing.T, program string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	sys, err := core.Load(program)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	cfg.System = sys
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return v
}

func TestQueryEndpoint(t *testing.T) {
	_, ts := newTestServer(t, chainProgram(3), Config{})
	resp := postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "path(c0, Y)"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	out := decode[QueryResponse](t, resp)
	if out.RowCount != 3 || len(out.Rows) != 3 {
		t.Fatalf("rows = %d, want 3: %v", out.RowCount, out.Rows)
	}
	// Deterministic sorted order.
	want := [][]string{{"c0", "c1"}, {"c0", "c2"}, {"c0", "c3"}}
	for i, row := range out.Rows {
		if row[0] != want[i][0] || row[1] != want[i][1] {
			t.Fatalf("row %d = %v, want %v", i, row, want[i])
		}
	}
	if out.SnapshotVersion != 1 {
		t.Fatalf("version = %d, want 1", out.SnapshotVersion)
	}
	if !strings.Contains(out.Plan, "separable") {
		t.Fatalf("plan = %q, want the separable algorithm for a selection query", out.Plan)
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, chainProgram(3), Config{})

	resp := postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "path(c0"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("syntax error: status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	resp = postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "nosuch(X, Y)"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unknown predicate: status = %d, want 422", resp.StatusCode)
	}
	resp.Body.Close()

	getResp, err := http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status = %d, want 405", getResp.StatusCode)
	}
	getResp.Body.Close()
}

func TestFactsSwap(t *testing.T) {
	_, ts := newTestServer(t, chainProgram(2), Config{})

	resp := postJSON(t, ts.URL+"/v1/facts", FactsRequest{Facts: "edge(c2,c3). edge(c3,c4)."})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("facts: status = %d", resp.StatusCode)
	}
	fr := decode[FactsResponse](t, resp)
	if fr.SnapshotVersion != 2 || fr.FactsAdded != 2 {
		t.Fatalf("facts response = %+v", fr)
	}

	q := postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "path(c0, Y)"})
	out := decode[QueryResponse](t, q)
	if out.RowCount != 4 || out.SnapshotVersion != 2 {
		t.Fatalf("post-swap query = %d rows at version %d, want 4 at 2", out.RowCount, out.SnapshotVersion)
	}

	// Rules and queries are rejected; so are non-ground or misarity facts.
	for _, bad := range []string{
		"path(X,Y) :- edge(X,Y).",
		"?- path(c0, Y).",
		"edge(c9).",
		"",
	} {
		resp := postJSON(t, ts.URL+"/v1/facts", FactsRequest{Facts: bad})
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("bad facts %q accepted", bad)
		}
		resp.Body.Close()
	}
}

func TestQueryTimeout504(t *testing.T) {
	s, ts := newTestServer(t, cycleProgram(1000), Config{TotalWorkers: 4, QueryWorkers: 2})
	start := time.Now()
	resp := postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "p(X, Y)", TimeoutMS: 50})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("timed-out query held the connection %v", elapsed)
	}
	if got := s.Stats().Timeouts; got != 1 {
		t.Fatalf("timeout counter = %d, want 1", got)
	}
}

// TestAdmissionShedding: with the budget held and a queue of one, the
// second waiter is shed 429; a queued waiter whose deadline fires is shed
// 503; once the budget frees, queries are admitted again.
func TestAdmissionShedding(t *testing.T) {
	s, ts := newTestServer(t, chainProgram(3), Config{TotalWorkers: 1, QueryWorkers: 1, MaxQueue: 1})

	// Hold the entire budget so every request must queue.
	if err := s.sem.Acquire(context.Background(), 1); err != nil {
		t.Fatalf("Acquire: %v", err)
	}

	// Fill the one queue slot with a patient request.
	patient := make(chan int, 1)
	go func() {
		resp := postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "path(c0, Y)", TimeoutMS: 10_000})
		resp.Body.Close()
		patient <- resp.StatusCode
	}()
	for s.queued.Load() != 1 {
		time.Sleep(time.Millisecond)
	}

	// Queue full → 429.
	resp := postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "path(c0, Y)", TimeoutMS: 10_000})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	resp.Body.Close()

	// Free the budget: the patient request completes.
	s.sem.Release(1)
	if code := <-patient; code != http.StatusOK {
		t.Fatalf("patient request: status = %d, want 200", code)
	}

	// Hold the budget again: a short-deadline waiter is shed 503.  A
	// different goal than the patient request's — path(c0, Y) is now in
	// the result cache, and cached goals are served admission-free
	// without needing budget at all.
	if err := s.sem.Acquire(context.Background(), 1); err != nil {
		t.Fatalf("re-Acquire: %v", err)
	}
	resp = postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "path(c1, Y)", TimeoutMS: 50})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
	s.sem.Release(1)

	st := s.Stats()
	if st.Shed429 != 1 || st.Shed503 != 1 {
		t.Fatalf("shed counters = 429:%d 503:%d, want 1 and 1", st.Shed429, st.Shed503)
	}
	if st.WorkersInUse != 0 {
		t.Fatalf("workers leaked: %d in use", st.WorkersInUse)
	}
}

func TestStreamNDJSON(t *testing.T) {
	_, ts := newTestServer(t, chainProgram(5), Config{})
	data, _ := json.Marshal(QueryRequest{Query: "path(c0, Y)"})
	resp, err := http.Post(ts.URL+"/v1/query?stream=1", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var rows int
	var tail map[string]any
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.HasPrefix(bytes.TrimSpace(line), []byte("[")) {
			rows++
			continue
		}
		if err := json.Unmarshal(line, &tail); err != nil {
			t.Fatalf("tail line: %v", err)
		}
	}
	if rows != 5 {
		t.Fatalf("streamed %d rows, want 5", rows)
	}
	if tail == nil || tail["done"] != true || tail["row_count"].(float64) != 5 {
		t.Fatalf("tail = %v", tail)
	}
}

func TestHealthzAndStats(t *testing.T) {
	_, ts := newTestServer(t, chainProgram(2), Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v status=%v", err, resp.StatusCode)
	}
	resp.Body.Close()

	postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "path(c0, Y)"}).Body.Close()
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	st := decode[StatsReport](t, resp)
	if st.QueriesOK != 1 || st.SnapshotVersion != 1 || st.WorkerBudget < 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Latency.Count != 1 || st.Latency.P50MS <= 0 {
		t.Fatalf("latency summary = %+v", st.Latency)
	}
}

// TestServerSnapshotSwapRace is the HTTP-level version of the core race
// test: concurrent clients query while a writer swaps fact snapshots;
// every response must be internally consistent with exactly one snapshot
// (row_count determined by snapshot_version).  Run under -race in CI.
func TestServerSnapshotSwapRace(t *testing.T) {
	const (
		initial = 8
		swaps   = 25
		readers = 6
	)
	_, ts := newTestServer(t, chainProgram(initial), Config{TotalWorkers: 8, QueryWorkers: 1, MaxQueue: 64})
	lenAt := func(version uint64) int { return initial + int(version) - 1 }

	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	done := make(chan struct{})

	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		defer close(done)
		for i := 0; i < swaps; i++ {
			facts := fmt.Sprintf("edge(c%d,c%d).", initial+i, initial+i+1)
			fr, err := PostFacts(context.Background(), http.DefaultClient, ts.URL, facts)
			if err != nil {
				errs <- fmt.Errorf("facts %d: %v", i, err)
				return
			}
			if want := uint64(i + 2); fr.SnapshotVersion != want {
				errs <- fmt.Errorf("swap %d: version %d, want %d", i, fr.SnapshotVersion, want)
				return
			}
		}
	}()

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				out, err := QueryOnce(context.Background(), http.DefaultClient, ts.URL, "path(c0, Y)", 5*time.Second, 1)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %v", g, err)
					return
				}
				want := lenAt(out.SnapshotVersion)
				if out.RowCount != want {
					errs <- fmt.Errorf("reader %d: torn read: %d rows at version %d, want %d",
						g, out.RowCount, out.SnapshotVersion, want)
					return
				}
				for _, row := range out.Rows {
					idx, err := strconv.Atoi(strings.TrimPrefix(row[1], "c"))
					if err != nil || idx < 1 || idx > want {
						errs <- fmt.Errorf("reader %d: row %v inconsistent with version %d", g, row, out.SnapshotVersion)
						return
					}
				}
			}
		}(g)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPlanAwareGrant: separable plans evaluate sequentially, so a wide
// worker request is downgraded to a single-slot grant (leaving budget for
// other queries), while flat closures keep their requested width.
func TestPlanAwareGrant(t *testing.T) {
	_, ts := newTestServer(t, chainProgram(4), Config{TotalWorkers: 4})

	resp := postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "path(c0, Y)", Workers: 4})
	sel := decode[QueryResponse](t, resp)
	if !strings.Contains(sel.Plan, "separable") || sel.Workers != 1 {
		t.Fatalf("separable query granted %d workers (plan %q), want 1", sel.Workers, sel.Plan)
	}

	resp = postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "path(X, Y)", Workers: 3})
	open := decode[QueryResponse](t, resp)
	if open.Workers != 3 {
		t.Fatalf("open query granted %d workers (plan %q), want 3", open.Workers, open.Plan)
	}
}

// TestWrongArityFactsRejectedNotFatal: rules declare link/2 but ship no
// link facts, so no snapshot holds a relation to check against; a
// wrong-arity fact batch must still be rejected with 409, and the
// follow-up query — which previously hit the join arity panic inside a
// bare engine goroutine and killed the process — must be served.
func TestWrongArityFactsRejectedNotFatal(t *testing.T) {
	const prog = "path(X,Y) :- link(X,Y).\npath(X,Y) :- link(X,Z), path(Z,Y).\n"
	_, ts := newTestServer(t, prog, Config{})

	resp := postJSON(t, ts.URL+"/v1/facts", FactsRequest{Facts: "link(a,b,c)."})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("wrong-arity facts: status = %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()

	resp = postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "path(a, Y)"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after rejected facts: status = %d, want 200", resp.StatusCode)
	}
	if out := decode[QueryResponse](t, resp); out.RowCount != 0 {
		t.Fatalf("rows = %d, want 0 over the empty link relation", out.RowCount)
	}

	resp = postJSON(t, ts.URL+"/v1/facts", FactsRequest{Facts: "link(a,b). link(b,c)."})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("correct-arity facts: status = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()

	resp = postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "path(a, Y)"})
	if out := decode[QueryResponse](t, resp); out.RowCount != 2 {
		t.Fatalf("rows after swap = %d, want 2", out.RowCount)
	}
}

// TestEvaluationPanicReturns500AndLeaksNoBudget: an engine invariant
// violation (relation arity disagreeing with the program, injected here
// through the pre-share mutation window) must come back as 500 with the
// worker grant and inflight count released — a leak would starve the
// 2-worker budget and turn later queries into 503s.
func TestEvaluationPanicReturns500AndLeaksNoBudget(t *testing.T) {
	sys, err := core.Load("path(X,Y) :- base(X,Y).\npath(X,Y) :- edge(X,Z), path(Z,Y).\nbase(a,b). edge(b,c).")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	sys.DB()["edge"] = rel.NewRelation(3)
	s := New(Config{System: sys, TotalWorkers: 2, DefaultTimeout: time.Second})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	for i := 0; i < 5; i++ {
		resp := postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "path(X, Y)", Workers: 2})
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("query %d: status = %d, want 500 (a leaked grant sheds with 503 instead)", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	st := s.Stats()
	if st.WorkersInUse != 0 || st.InFlight != 0 {
		t.Fatalf("budget leaked: %d workers in use, %d inflight after all queries returned", st.WorkersInUse, st.InFlight)
	}
	if st.QueryErrors != 5 {
		t.Fatalf("query errors = %d, want 5", st.QueryErrors)
	}
}

// TestLifecycleSmoke drives the shipped example program through one
// add → query → retract → query lifecycle over HTTP and checks what the
// narrower tests leave out: a warm full closure is upgraded in place by
// both swaps and is still a hit with its original row count afterwards,
// a cold trace's per-round deltas sum to total_rows, a traced hit has no
// phases, the per-plan counters cover every plan served, and /metrics
// still parses strictly at the end.
func TestLifecycleSmoke(t *testing.T) {
	src, err := os.ReadFile("../../examples/server/paths.dl")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, string(src), Config{})
	ctx, hc := context.Background(), http.DefaultClient
	const goal, closureGoal = "path(a, Y)", "path(X, Y)"

	resp, err := hc.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()
	st0, err := FetchStats(ctx, hc, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	planned := map[string]int64{}
	query := func(q string, traced bool) *QueryResponse {
		t.Helper()
		do := QueryOnce
		if traced {
			do = QueryTraced
		}
		out, err := do(ctx, hc, ts.URL, q, 5*time.Second, 0)
		if err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
		planned[out.Plan]++
		return out
	}

	before := query(goal, false)
	warm := query(closureGoal, true)
	if warm.Cached || warm.Trace == nil || len(warm.Trace.Phases) == 0 {
		t.Fatalf("cold traced closure: cached=%v trace=%+v", warm.Cached, warm.Trace)
	}
	for _, ph := range warm.Trace.Phases {
		sum := ph.BaseRows + ph.SeedRows
		for _, rd := range ph.Rounds {
			sum += rd.NewRows
		}
		if sum != ph.TotalRows {
			t.Fatalf("phase %q: base + seed + round deltas = %d, want total_rows %d", ph.Name, sum, ph.TotalRows)
		}
	}
	if last := warm.Trace.Phases[len(warm.Trace.Phases)-1]; last.TotalRows != warm.RowCount {
		t.Fatalf("final phase holds %d rows, response has %d", last.TotalRows, warm.RowCount)
	}

	const fact = "edge(d,smoke)."
	add, err := PostFacts(ctx, hc, ts.URL, fact)
	if err != nil {
		t.Fatal(err)
	}
	if add.SnapshotVersion <= before.SnapshotVersion || add.CacheUpgraded < 1 {
		t.Fatalf("add: %+v, want a newer snapshot with the warm closure upgraded", add)
	}
	if grown := query(goal, false); grown.SnapshotVersion < add.SnapshotVersion || grown.RowCount != before.RowCount+1 {
		t.Fatalf("after add: %d rows at version %d, want %d at ≥ %d",
			grown.RowCount, grown.SnapshotVersion, before.RowCount+1, add.SnapshotVersion)
	}
	del, err := DeleteFacts(ctx, hc, ts.URL, fact)
	if err != nil {
		t.Fatal(err)
	}
	if del.FactsRemoved != 1 || del.SnapshotVersion <= add.SnapshotVersion || del.CacheUpgraded < 1 {
		t.Fatalf("retract: %+v, want one fact removed at a newer snapshot with the warm closure upgraded", del)
	}
	if final := query(goal, false); final.RowCount != before.RowCount {
		t.Fatalf("rows after add+retract = %d, want the original %d", final.RowCount, before.RowCount)
	}
	if closure := query(closureGoal, false); !closure.Cached || closure.RowCount != warm.RowCount {
		t.Fatalf("closure after two maintained swaps: cached=%v rows=%d, want a hit with %d rows",
			closure.Cached, closure.RowCount, warm.RowCount)
	}
	if hit := query(closureGoal, true); !hit.Cached || hit.Trace == nil || len(hit.Trace.Phases) != 0 {
		t.Fatalf("traced hit: cached=%v trace=%+v, want a hit with 0 phases", hit.Cached, hit.Trace)
	}

	st, err := FetchStats(ctx, hc, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if st.Internal500s != 0 {
		t.Fatalf("%d requests answered 500", st.Internal500s)
	}
	for plan, n := range planned {
		if got := st.Plans[plan] - st0.Plans[plan]; got < n {
			t.Errorf("plan counter %q advanced by %d, want ≥ %d", plan, got, n)
		}
	}
	if got := st.ResultCache.Upgrades - st0.ResultCache.Upgrades; got < 2 {
		t.Fatalf("result_cache.upgrades advanced by %d across the add and the retract, want ≥ 2", got)
	}
	m, err := FetchMetrics(ctx, hc, ts.URL)
	if err != nil {
		t.Fatalf("/metrics after the lifecycle: %v", err)
	}
	if got := m["linrec_snapshot_version"]; got != float64(st.SnapshotVersion) {
		t.Fatalf("linrec_snapshot_version = %g, /v1/stats says %d", got, st.SnapshotVersion)
	}
}

// magicProgram: a single left-recursive TC rule — no separable partner,
// so bound queries take the magic-seeded plan.
func magicProgram(n int) string {
	var b strings.Builder
	b.WriteString("path(X,Y) :- edge(X,Y).\n")
	b.WriteString("path(X,Y) :- edge(X,U), path(U,Y).\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "edge(c%d,c%d).\n", i, i+1)
	}
	return b.String()
}

// TestBoundQueryTakesMagicPlanAndStatsCountIt: a bound /v1/query goal is
// served by the magic-seeded plan, and /v1/stats reports per-plan-kind
// query counts.
func TestBoundQueryTakesMagicPlanAndStatsCountIt(t *testing.T) {
	_, ts := newTestServer(t, magicProgram(12), Config{TotalWorkers: 4})

	resp := postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "path(c4, Y)"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	out := decode[QueryResponse](t, resp)
	if !strings.Contains(out.Plan, "magic-seeded") {
		t.Fatalf("plan = %q (%s), want magic-seeded", out.Plan, out.Why)
	}
	if out.RowCount != 8 { // c5..c12
		t.Fatalf("rows = %d, want 8", out.RowCount)
	}

	// An open query takes the closure path; both kinds must show up in
	// the stats report, keyed by the plan's String form.
	resp = postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "path(X, Y)"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open query status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	st := decode[StatsReport](t, sresp)
	if st.Plans[out.Plan] != 1 {
		t.Fatalf("stats.plans[%q] = %d, want 1 (all: %v)", out.Plan, st.Plans[out.Plan], st.Plans)
	}
	var total int64
	for _, n := range st.Plans {
		total += n
	}
	if total != st.QueriesOK || total != 2 {
		t.Fatalf("plan counts sum to %d, queries_ok = %d, want both 2 (%v)", total, st.QueriesOK, st.Plans)
	}
}

// deleteJSON issues a DELETE with a JSON body.
func deleteJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	req, err := http.NewRequest(http.MethodDelete, url, bytes.NewReader(data))
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE %s: %v", url, err)
	}
	return resp
}

// queryRows answers one query and returns the response.
func queryRows(t *testing.T, baseURL, query string) QueryResponse {
	t.Helper()
	resp := postJSON(t, baseURL+"/v1/query", QueryRequest{Query: query})
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		t.Fatalf("query %q: status %d", query, resp.StatusCode)
	}
	return decode[QueryResponse](t, resp)
}

// TestFactLifecycle: add → query → retract (DELETE) → query exercises
// the full fact lifecycle over HTTP: versions advance on both swap
// directions, answers shrink after the retraction, and the stats report
// both directions' counters.
func TestFactLifecycle(t *testing.T) {
	s, ts := newTestServer(t, chainProgram(2), Config{})

	before := queryRows(t, ts.URL, "path(c0, Y)")
	if before.RowCount != 2 {
		t.Fatalf("initial rows = %d, want 2", before.RowCount)
	}

	add := decode[FactsResponse](t, postJSON(t, ts.URL+"/v1/facts", FactsRequest{Facts: "edge(c2,c3)."}))
	if add.FactsAdded != 1 || add.SnapshotVersion <= before.SnapshotVersion {
		t.Fatalf("add: %+v (before version %d)", add, before.SnapshotVersion)
	}
	if grown := queryRows(t, ts.URL, "path(c0, Y)"); grown.RowCount != 3 {
		t.Fatalf("post-add rows = %d, want 3", grown.RowCount)
	}

	del := decode[FactsResponse](t, deleteJSON(t, ts.URL+"/v1/facts", FactsRequest{Facts: "edge(c2,c3)."}))
	if del.FactsRemoved != 1 || del.FactsAdded != 0 || del.SnapshotVersion <= add.SnapshotVersion {
		t.Fatalf("delete: %+v (add version %d)", del, add.SnapshotVersion)
	}
	after := queryRows(t, ts.URL, "path(c0, Y)")
	if after.RowCount != 2 {
		t.Fatalf("post-retract rows = %d, want 2", after.RowCount)
	}
	if after.SnapshotVersion != del.SnapshotVersion {
		t.Fatalf("post-retract query at version %d, want %d", after.SnapshotVersion, del.SnapshotVersion)
	}

	st := s.Stats()
	if st.FactsAdded != 1 || st.FactsRemoved != 1 || st.RetractBatches != 1 {
		t.Fatalf("lifecycle counters: added %d removed %d retractBatches %d",
			st.FactsAdded, st.FactsRemoved, st.RetractBatches)
	}
}

// TestPostWithRemoveEntries: a POST carrying both "remove" and "facts"
// retracts first, then adds, and reports both counts.
func TestPostWithRemoveEntries(t *testing.T) {
	_, ts := newTestServer(t, chainProgram(2), Config{})
	out := decode[FactsResponse](t, postJSON(t, ts.URL+"/v1/facts",
		FactsRequest{Facts: "edge(c2,c3).", Remove: "edge(c0,c1)."}))
	if out.FactsRemoved != 1 || out.FactsAdded != 1 {
		t.Fatalf("combined swap: %+v", out)
	}
	// c0→c1 gone: path(c0, Y) reaches nothing; path(c1, Y) reaches c2, c3.
	if r := queryRows(t, ts.URL, "path(c0, Y)"); r.RowCount != 0 {
		t.Fatalf("path(c0,Y) = %d rows after retracting its only edge", r.RowCount)
	}
	if r := queryRows(t, ts.URL, "path(c1, Y)"); r.RowCount != 2 {
		t.Fatalf("path(c1,Y) = %d rows, want 2", r.RowCount)
	}
}

// TestRetractionRejections: retraction maps the same validation failures
// to the same statuses as addition — 409 for derived predicates and
// arity mismatches, 400 for malformed or rule-carrying bodies, and a
// DELETE body with "remove" is rejected outright.
func TestRetractionRejections(t *testing.T) {
	_, ts := newTestServer(t, chainProgram(2), Config{})
	cases := []struct {
		name   string
		do     func() *http.Response
		status int
	}{
		{"derived predicate", func() *http.Response {
			return deleteJSON(t, ts.URL+"/v1/facts", FactsRequest{Facts: "path(c0,c1)."})
		}, http.StatusConflict},
		{"arity mismatch", func() *http.Response {
			return deleteJSON(t, ts.URL+"/v1/facts", FactsRequest{Facts: "edge(c0)."})
		}, http.StatusConflict},
		{"rules in body", func() *http.Response {
			return deleteJSON(t, ts.URL+"/v1/facts", FactsRequest{Facts: "edge(X,Y) :- path(X,Y)."})
		}, http.StatusBadRequest},
		{"remove on DELETE", func() *http.Response {
			return deleteJSON(t, ts.URL+"/v1/facts", FactsRequest{Remove: "edge(c0,c1)."})
		}, http.StatusBadRequest},
		{"empty", func() *http.Response {
			return postJSON(t, ts.URL+"/v1/facts", FactsRequest{})
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp := tc.do()
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
	// Nothing above may have published a snapshot.
	if v := queryRows(t, ts.URL, "path(c0, Y)").SnapshotVersion; v != 1 {
		t.Fatalf("rejected updates advanced the version to %d", v)
	}
}

// TestRetractionIdempotent: retracting absent facts is a 200 no-op that
// keeps the snapshot version (and therefore warm caches).
func TestRetractionIdempotent(t *testing.T) {
	_, ts := newTestServer(t, chainProgram(2), Config{})
	out := decode[FactsResponse](t, deleteJSON(t, ts.URL+"/v1/facts", FactsRequest{Facts: "edge(c7,c9). edge(nope,nada)."}))
	if out.FactsRemoved != 0 || out.SnapshotVersion != 1 {
		t.Fatalf("no-op retraction: %+v, want removed 0 at version 1", out)
	}
}

// TestQueryCacheOverHTTP: a repeated query reports cached=true with an
// identical body, /v1/stats exposes the per-plan-kind counters, and a
// retraction invalidates the entry.
func TestQueryCacheOverHTTP(t *testing.T) {
	s, ts := newTestServer(t, chainProgram(3), Config{})
	const q = "path(c0, Y)"
	first := queryRows(t, ts.URL, q)
	if first.Cached {
		t.Fatalf("first query reported cached")
	}
	second := queryRows(t, ts.URL, q)
	if !second.Cached {
		t.Fatalf("repeat query not served from the result cache")
	}
	if fmt.Sprint(second.Rows) != fmt.Sprint(first.Rows) || second.Stats != first.Stats || second.Plan != first.Plan {
		t.Fatalf("cached response diverges: %+v vs %+v", second, first)
	}
	st := s.Stats()
	var hits, misses int64
	for _, n := range st.ResultCache.Hits {
		hits += n
	}
	for _, n := range st.ResultCache.Misses {
		misses += n
	}
	if hits != 1 || misses != 1 {
		t.Fatalf("result cache counters: %d hits / %d misses, want 1 / 1", hits, misses)
	}
	if st.ResultCache.Entries == 0 || st.ResultCache.CapRows == 0 {
		t.Fatalf("result cache gauges empty: %+v", st.ResultCache)
	}

	del := decode[FactsResponse](t, deleteJSON(t, ts.URL+"/v1/facts", FactsRequest{Facts: "edge(c2,c3)."}))
	if del.FactsRemoved != 1 {
		t.Fatalf("retraction: %+v", del)
	}
	third := queryRows(t, ts.URL, q)
	if third.Cached {
		t.Fatalf("post-retraction query served stale cache entry")
	}
	if third.RowCount != first.RowCount-1 {
		t.Fatalf("post-retraction rows = %d, want %d", third.RowCount, first.RowCount-1)
	}
	if s.Stats().ResultCache.Invalidated == 0 {
		t.Fatalf("retraction did not invalidate the result cache")
	}
}

// TestInFlightQueryPinsPreRetractionSnapshot: a slow query admitted
// before a retraction answers from the snapshot it pinned — the pinned
// world, not the shrunk one.
func TestInFlightQueryPinsPreRetractionSnapshot(t *testing.T) {
	const n = 400 // closure is n² tuples: slow enough to observe in flight
	s, ts := newTestServer(t, cycleProgram(n), Config{TotalWorkers: 4, MaxRows: n * n})
	var wg sync.WaitGroup
	wg.Add(1)
	var slow QueryResponse
	var slowErr error
	done := make(chan struct{})
	go func() {
		defer wg.Done()
		defer close(done)
		resp := postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "p(X, Y)", TimeoutMS: 30000})
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			slowErr = fmt.Errorf("slow query status %d", resp.StatusCode)
			return
		}
		slow = decode[QueryResponse](t, resp)
	}()
	// Retract only once the query is either admitted (pinned) or already
	// answered at version 1 — both orders keep the assertions exact.
wait:
	for {
		select {
		case <-done:
			break wait
		default:
			if s.Stats().InFlight >= 1 {
				break wait
			}
			time.Sleep(time.Millisecond)
		}
	}
	resp := deleteJSON(t, ts.URL+"/v1/facts", FactsRequest{Facts: "e(v0,v1)."})
	resp.Body.Close()
	wg.Wait()
	if slowErr != nil {
		t.Fatal(slowErr)
	}
	// InFlight flips on slightly before the snapshot pin, so the
	// retraction may legally land on either side of it: a version-1
	// answer must be the full cycle closure, a version-2 answer the
	// broken-cycle (chain) closure.  What can never happen is a version
	// tag inconsistent with the rows — a torn read.
	switch slow.SnapshotVersion {
	case 1:
		if slow.RowCount != n*n {
			t.Fatalf("version-1 answer has %d rows, want the full pre-retraction closure %d", slow.RowCount, n*n)
		}
	case 2:
		if slow.RowCount != n*(n-1)/2 {
			t.Fatalf("version-2 answer has %d rows, want the broken-cycle closure %d", slow.RowCount, n*(n-1)/2)
		}
	default:
		t.Fatalf("slow query ran at version %d, want 1 or 2", slow.SnapshotVersion)
	}
	if v := s.sys.Snapshot().Version; v != 2 {
		t.Fatalf("server version = %d, want 2 after the retraction", v)
	}
}

// TestCombinedSwapRejectionIsAtomic: a POST whose remove half is valid
// but whose add half fails validation must commit neither half — the
// 409 may not hide a published retraction.
func TestCombinedSwapRejectionIsAtomic(t *testing.T) {
	_, ts := newTestServer(t, chainProgram(2), Config{})
	resp := postJSON(t, ts.URL+"/v1/facts", FactsRequest{
		Remove: "edge(c0,c1).", // valid on its own
		Facts:  "path(c5,c6).", // derived predicate: rejected
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status = %d, want 409", resp.StatusCode)
	}
	r := queryRows(t, ts.URL, "path(c0, Y)")
	if r.SnapshotVersion != 1 {
		t.Fatalf("rejected combined swap committed its retraction half: version %d", r.SnapshotVersion)
	}
	if r.RowCount != 2 {
		t.Fatalf("rows = %d, want the untouched 2", r.RowCount)
	}
}

// TestCachedHitBypassesAdmission: with the whole worker budget held, an
// uncached goal sheds 503 while a cached goal is still served — the
// fast path consumes neither a queue slot nor a grant (workers: 0).
func TestCachedHitBypassesAdmission(t *testing.T) {
	s, ts := newTestServer(t, chainProgram(3), Config{TotalWorkers: 1, MaxQueue: 1})
	warm := queryRows(t, ts.URL, "path(c0, Y)")
	if warm.Cached {
		t.Fatalf("first query reported cached")
	}

	if err := s.sem.Acquire(context.Background(), 1); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	defer s.sem.Release(1)

	resp := postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "path(c1, Y)", TimeoutMS: 50})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("uncached goal under held budget: status = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()

	hit := queryRows(t, ts.URL, "path(c0, Y)")
	if !hit.Cached || hit.Workers != 0 {
		t.Fatalf("cached goal under held budget: cached=%v workers=%d, want admission-free hit", hit.Cached, hit.Workers)
	}
	if fmt.Sprint(hit.Rows) != fmt.Sprint(warm.Rows) {
		t.Fatalf("cached rows diverge from the warm evaluation")
	}
}

// TestStatsPerAdornmentPlanCounts: answered queries are accounted per
// (predicate, adornment, plan-kind slug), and the per-kind Plans map
// advances in step — the counters TestLifecycleSmoke asserts against.
func TestStatsPerAdornmentPlanCounts(t *testing.T) {
	s, ts := newTestServer(t, chainProgram(6), Config{TotalWorkers: 2})
	for _, q := range []string{"path(c0, Y)", "path(c0, Y)", "path(X, Y)", "path(c0, c3)"} {
		resp := postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: q})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %q: status %d", q, resp.StatusCode)
		}
		resp.Body.Close()
	}
	st := s.Stats()
	var perKind, perAdorn int64
	for _, n := range st.Plans {
		perKind += n
	}
	for _, n := range st.PlansByAdornment {
		perAdorn += n
	}
	if perKind != 4 || perAdorn != 4 {
		t.Fatalf("plan counters = %d per kind / %d per adornment, want 4/4\nplans=%v\nby_adornment=%v",
			perKind, perAdorn, st.Plans, st.PlansByAdornment)
	}
	for _, adorn := range []string{"path/bf", "path/ff", "path/bb"} {
		found := false
		for key := range st.PlansByAdornment {
			if strings.HasPrefix(key, adorn+" ") {
				found = true
			}
		}
		if !found {
			t.Errorf("no per-adornment counter for %q: %v", adorn, st.PlansByAdornment)
		}
	}
}
