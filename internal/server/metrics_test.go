package server

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"linrec/internal/eval"
)

// scrape fetches and strictly parses /metrics.
func scrape(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	m, err := ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("exposition body malformed: %v", err)
	}
	return m
}

// TestMetricsExposition drives a little traffic and checks the scrape
// is well-formed (the strict parser accepts it) and that the counters
// agree with /v1/stats.
func TestMetricsExposition(t *testing.T) {
	s, ts := newTestServer(t, chainProgram(4), Config{TotalWorkers: 2})

	for _, q := range []string{"path(c0, Y)", "path(X, Y)"} {
		resp := postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: q})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %q: status %d", q, resp.StatusCode)
		}
		resp.Body.Close()
	}
	postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "nosuch(X, Y)"}).Body.Close()
	postJSON(t, ts.URL+"/v1/facts", FactsRequest{Facts: "edge(c4,c5)."}).Body.Close()

	m := scrape(t, ts.URL)
	st := s.Stats()

	if got := m[`linrec_queries_total{status="ok"}`]; got != 2 {
		t.Fatalf("ok queries = %v, want 2", got)
	}
	if got := m[`linrec_queries_total{status="invalid"}`]; got != 1 {
		t.Fatalf("invalid queries = %v, want 1", got)
	}
	if got := m["linrec_snapshot_version"]; got != float64(st.SnapshotVersion) || got != 2 {
		t.Fatalf("snapshot version = %v, stats say %d", got, st.SnapshotVersion)
	}
	if got := m[`linrec_facts_total{op="add"}`]; got != 1 {
		t.Fatalf("facts added = %v, want 1", got)
	}
	if m["linrec_snapshot_swap_seconds_total"] <= 0 {
		t.Fatalf("swap time not accounted: %v", m["linrec_snapshot_swap_seconds_total"])
	}
	if got := m["linrec_rows_served_total"]; got != float64(st.RowsServed) {
		t.Fatalf("rows served = %v, stats say %d", got, st.RowsServed)
	}

	// Histogram shape: _count == answered queries, the +Inf bucket is
	// cumulative over everything, and the derived quantile gauges agree
	// with the /v1/stats interpolation.
	if got := m["linrec_query_latency_seconds_count"]; got != 2 {
		t.Fatalf("latency count = %v, want 2", got)
	}
	if inf := m[`linrec_query_latency_seconds_bucket{le="+Inf"}`]; inf != 2 {
		t.Fatalf("+Inf bucket = %v, want 2", inf)
	}
	if m["linrec_query_latency_seconds_sum"] <= 0 {
		t.Fatalf("latency sum not positive")
	}
	wantP50 := st.Latency.P50MS / 1e3
	if got := m["linrec_query_latency_p50_seconds"]; math.Abs(got-wantP50) > wantP50*0.5+1e-9 {
		t.Fatalf("p50 gauge = %v s, stats report %v s", got, wantP50)
	}

	// Plan counters: every kind is pre-declared (zero series included),
	// and the served ones advanced.
	var kindSum float64
	for series, v := range m {
		if strings.HasPrefix(series, "linrec_plans_total{") {
			kindSum += v
		}
	}
	if kindSum != 2 {
		t.Fatalf("plan kind counters sum to %v, want 2", kindSum)
	}
	if m["linrec_result_cache_entries"] == 0 || m["linrec_result_cache_cap_rows"] == 0 {
		t.Fatalf("result cache gauges empty")
	}

	// The disjoint statuses sum to every finished query: 2 ok + 1 invalid.
	var statuses float64
	for _, status := range []string{"ok", "invalid", "internal", "timeout", "client_abort", "shed_queue", "shed_budget"} {
		statuses += m[fmt.Sprintf("linrec_queries_total{status=%q}", status)]
	}
	if statuses != 3 {
		t.Fatalf("status counters sum to %v, want 3", statuses)
	}
}

// TestParsePrometheusRejectsMalformed pins the strictness the /metrics
// tests rely on: a parser that accepts garbage would let a broken
// exporter through.
func TestParsePrometheusRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"bare words", "hello world\n"},
		{"bad metric name", "1bad_name 3\n"},
		{"bad label name", `m{__name__="x"} 1` + "\n"},
		{"unterminated labels", `m{l="x" 1` + "\n"},
		{"non-numeric value", "m notanumber\n"},
		{"duplicate series", "m 1\nm 2\n"},
		{"duplicate TYPE", "# TYPE m counter\n# TYPE m counter\nm 1\n"},
		{"TYPE after samples", "m 1\n# TYPE m counter\n"},
	}
	for _, tc := range cases {
		if _, err := ParsePrometheus(strings.NewReader(tc.body)); err == nil {
			t.Errorf("%s: accepted %q", tc.name, tc.body)
		}
	}
	// And the happy path parses.
	m, err := ParsePrometheus(strings.NewReader(
		"# HELP m help text\n# TYPE m counter\nm{a=\"b\"} 4\nm{a=\"c\"} 2 1700000000000\n"))
	if err != nil {
		t.Fatalf("valid body rejected: %v", err)
	}
	if m[`m{a="b"}`] != 4 || m[`m{a="c"}`] != 2 {
		t.Fatalf("parsed samples = %v", m)
	}
}

// TestQuantileInterpolation pins the histogram's interpolated
// percentiles on a hand-computed population.
func TestQuantileInterpolation(t *testing.T) {
	var h latencyHist
	// Buckets: 10ms → [8.192, 16.384)ms, 20ms and 30ms → [16.384,
	// 32.768)ms, 40ms → [32.768, 65.536)ms.
	for _, d := range []time.Duration{10, 20, 30, 40} {
		h.observe(d * time.Millisecond)
	}
	// p50: rank 2 of 4 lands mid-bucket → 16.384ms + ½·16.384ms.
	if got, want := h.quantile(0.50), 24576*time.Microsecond; got != want {
		t.Fatalf("p50 = %v, want %v", got, want)
	}
	// p99: rank 4 is in the top bucket, whose upper edge clamps to the
	// observed max.
	if got, want := h.quantile(0.99), 40*time.Millisecond; got != want {
		t.Fatalf("p99 = %v, want %v", got, want)
	}

	// A single observation interpolates to itself, not to a bucket edge.
	var one latencyHist
	one.observe(3 * time.Millisecond)
	if got := one.quantile(0.50); got != 3*time.Millisecond {
		t.Fatalf("single-observation p50 = %v, want 3ms", got)
	}
}

// TestMetricsScrapeUnderSwapRace scrapes /metrics (and the stats and
// query endpoints) while a writer swaps snapshots — the -race lane's
// check that the exporter reads every counter and cache gauge without
// tearing the swap path.
func TestMetricsScrapeUnderSwapRace(t *testing.T) {
	const swaps = 20
	_, ts := newTestServer(t, chainProgram(4), Config{TotalWorkers: 4, MaxQueue: 64})

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	done := make(chan struct{})

	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		defer close(done)
		for i := 0; i < swaps; i++ {
			facts := fmt.Sprintf("edge(c%d,c%d).", 4+i, 5+i)
			if _, err := PostFacts(context.Background(), http.DefaultClient, ts.URL, facts); err != nil {
				errs <- fmt.Errorf("swap %d: %v", i, err)
				return
			}
		}
	}()

	for g := 0; g < 3; g++ { // scrapers
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := FetchMetrics(context.Background(), http.DefaultClient, ts.URL); err != nil {
					errs <- fmt.Errorf("scrape: %v", err)
					return
				}
			}
		}()
	}

	wg.Add(1)
	go func() { // traced reader
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			out, err := QueryTraced(context.Background(), http.DefaultClient, ts.URL, "path(c0, Y)", 5*time.Second, 1)
			if err != nil {
				errs <- fmt.Errorf("traced query: %v", err)
				return
			}
			if out.RequestID == "" {
				errs <- fmt.Errorf("traced query missing request id")
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	m := scrape(t, ts.URL)
	if m["linrec_snapshot_version"] != float64(swaps+1) {
		t.Fatalf("final snapshot version = %v, want %d", m["linrec_snapshot_version"], swaps+1)
	}
}

// TestQueryTraceEndpoint: ?trace=1 returns the structured trace whose
// per-round deltas account for every answer row; an untraced query
// returns no trace but still echoes a request ID.
func TestQueryTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, magicProgram(6), Config{TotalWorkers: 2})

	resp := postJSON(t, ts.URL+"/v1/query?trace=1", QueryRequest{Query: "path(X, Y)"})
	if rid := resp.Header.Get("X-Request-Id"); rid == "" {
		t.Fatalf("no X-Request-Id header")
	}
	out := decode[QueryResponse](t, resp)
	if out.RowCount != 21 { // 6-edge chain closure
		t.Fatalf("rows = %d, want 21", out.RowCount)
	}
	if out.Trace == nil || len(out.Trace.Phases) == 0 {
		t.Fatalf("traced query returned no trace: %+v", out.Trace)
	}
	if out.Trace.RequestID != out.RequestID || out.RequestID == "" {
		t.Fatalf("request id mismatch: response %q, trace %q", out.RequestID, out.Trace.RequestID)
	}
	for _, ph := range out.Trace.Phases {
		sum := ph.BaseRows + ph.SeedRows
		for _, rd := range ph.Rounds {
			sum += rd.NewRows
		}
		if sum != ph.TotalRows {
			t.Fatalf("phase %q: accounted %d rows, total %d", ph.Name, sum, ph.TotalRows)
		}
	}
	last := out.Trace.Phases[len(out.Trace.Phases)-1]
	if last.TotalRows != out.RowCount {
		t.Fatalf("final phase holds %d rows, answer has %d", last.TotalRows, out.RowCount)
	}
	if !hasEvent(out.Trace, "result", "miss") {
		t.Fatalf("cold traced query events = %+v, want a result miss", out.Trace.CacheEvents)
	}

	// The cached repeat reports the hit in its trace, with no phases.
	hit := decode[QueryResponse](t, postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "path(X, Y)", Trace: true}))
	if !hit.Cached || hit.Trace == nil || len(hit.Trace.Phases) != 0 || !hasEvent(hit.Trace, "result", "hit") {
		t.Fatalf("cached traced query: cached=%v trace=%+v", hit.Cached, hit.Trace)
	}

	// Untraced queries carry no trace payload but keep the request ID.
	plain := decode[QueryResponse](t, postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "path(c0, Y)"}))
	if plain.Trace != nil || plain.RequestID == "" {
		t.Fatalf("untraced query: trace=%+v request_id=%q", plain.Trace, plain.RequestID)
	}
}

func hasEvent(tr *eval.Trace, cache, event string) bool {
	for _, ev := range tr.CacheEvents {
		if ev.Cache == cache && ev.Event == event {
			return true
		}
	}
	return false
}

// TestExplainEndpoint: ?explain=1 returns the planner decision without
// executing the query — no rows, no stats movement, no cache warmup.
func TestExplainEndpoint(t *testing.T) {
	s, ts := newTestServer(t, magicProgram(6), Config{TotalWorkers: 2})

	resp := postJSON(t, ts.URL+"/v1/query?explain=1", QueryRequest{Query: "path(c2, Y)"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain status = %d", resp.StatusCode)
	}
	out := decode[ExplainResponse](t, resp)
	if out.Explain == nil || out.RequestID == "" {
		t.Fatalf("explain response = %+v", out)
	}
	ex := out.Explain
	if ex.PlanKind != "magic-seeded" || ex.Adornment != "bf" {
		t.Fatalf("plan = %q adornment = %q, want magic-seeded/bf (%s)", ex.PlanKind, ex.Adornment, ex.Why)
	}
	if ex.Why == "" || ex.CacheKey == "" {
		t.Fatalf("explain missing why/cache key: %+v", ex)
	}

	// The body flag works too, and nothing above executed a query.
	body := decode[ExplainResponse](t, postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "path(X, Y)", Explain: true}))
	if body.Explain == nil || body.Explain.PlanKind == "" {
		t.Fatalf("body-flag explain = %+v", body)
	}
	st := s.Stats()
	if st.QueriesOK != 0 || st.ResultCache.Entries != 0 {
		t.Fatalf("explain executed: %d ok queries, %d cache entries", st.QueriesOK, st.ResultCache.Entries)
	}

	// Unknown predicates still 422.
	bad := postJSON(t, ts.URL+"/v1/query?explain=1", QueryRequest{Query: "nosuch(X, Y)"})
	if bad.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unknown predicate explain status = %d, want 422", bad.StatusCode)
	}
	bad.Body.Close()
}

// TestSlowQueryLog: with a 1ns threshold every query is slow — the
// structured log line must carry the request ID and the full trace even
// though the client never asked for one.
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	s, ts := newTestServer(t, chainProgram(4), Config{
		Logger:    slog.New(slog.NewTextHandler(&buf, nil)),
		SlowQuery: time.Nanosecond,
	})

	out := decode[QueryResponse](t, postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "path(c0, Y)"}))
	if out.Trace != nil {
		t.Fatalf("forced tracing leaked into the response")
	}
	logged := buf.String()
	if !strings.Contains(logged, "slow query") {
		t.Fatalf("no slow-query line logged: %q", logged)
	}
	if !strings.Contains(logged, out.RequestID) {
		t.Fatalf("log line missing request id %q: %q", out.RequestID, logged)
	}
	if !strings.Contains(logged, "phases") || !strings.Contains(logged, "semi-naive") {
		t.Fatalf("log line missing the trace payload: %q", logged)
	}
	if st := s.Stats(); st.SlowQueries != 1 {
		t.Fatalf("slow query counter = %d, want 1", st.SlowQueries)
	}
	m := scrape(t, ts.URL)
	if m["linrec_slow_queries_total"] != 1 {
		t.Fatalf("slow query metric = %v, want 1", m["linrec_slow_queries_total"])
	}
}
