// The /metrics endpoint: the server's counters, gauges and the latency
// histogram rendered in the Prometheus text exposition format (0.0.4),
// hand-rolled — no client library.  Naming scheme: every series is
// prefixed "linrec_", counters end in "_total", base units are seconds,
// and dimensions (plan kind, query status, cache layer, cache event)
// are labels rather than name suffixes, so dashboards can aggregate
// across a dimension with a single selector.  Reads are lock-free
// (atomic loads) or take the same short mutexes /v1/stats takes, so
// scraping is safe concurrently with queries and snapshot swaps.  The
// tests read the output back with a strict parser (ParsePrometheus in
// client_test.go) that fails on bad names, duplicate series and samples
// contradicting their TYPE declaration.

package server

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"linrec/internal/planner"
)

// kindSlugs maps the planner Kind's human-readable String form (the key
// of /v1/stats maps) to its stable slug (the metrics label value).
var kindSlugs = func() map[string]string {
	m := map[string]string{}
	for k := planner.Kind(0); k <= planner.MagicSeeded; k++ {
		m[k.String()] = k.Slug()
	}
	return m
}()

// metricsWriter accumulates exposition lines with one TYPE header per
// metric family.
type metricsWriter struct {
	b strings.Builder
}

func (m *metricsWriter) family(name, kind, help string) {
	fmt.Fprintf(&m.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// sample emits one series.  labels are name/value pairs; values render
// with minimal digits ('g', full float64 precision).
func (m *metricsWriter) sample(name string, labels [][2]string, v float64) {
	m.b.WriteString(name)
	if len(labels) > 0 {
		m.b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				m.b.WriteByte(',')
			}
			fmt.Fprintf(&m.b, `%s=%q`, l[0], escapeLabel(l[1]))
		}
		m.b.WriteByte('}')
	}
	m.b.WriteByte(' ')
	m.b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	m.b.WriteByte('\n')
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, s.renderMetrics())
}

// renderMetrics builds the full exposition body.
func (s *Server) renderMetrics() string {
	var m metricsWriter

	m.family("linrec_uptime_seconds", "gauge", "Seconds since the server started.")
	m.sample("linrec_uptime_seconds", nil, time.Since(s.start).Seconds())
	m.family("linrec_snapshot_version", "gauge", "Version of the current database snapshot.")
	m.sample("linrec_snapshot_version", nil, float64(s.sys.Snapshot().Version))

	// Disjoint terminal statuses: "invalid" is the client-error remainder
	// of queryErrors once the 500s are split out, so summing the label
	// values counts every finished query exactly once.
	m.family("linrec_queries_total", "counter", "Finished queries by terminal status.")
	internal := s.ctr.internalErrors.Load()
	for _, st := range []struct {
		status string
		n      int64
	}{
		{"ok", s.ctr.queriesOK.Load()},
		{"invalid", s.ctr.queryErrors.Load() - internal},
		{"internal", internal},
		{"timeout", s.ctr.timeouts.Load()},
		{"client_abort", s.ctr.clientAborts.Load()},
		{"shed_queue", s.ctr.shedQueue.Load()},
		{"shed_budget", s.ctr.shedBudget.Load()},
	} {
		m.sample("linrec_queries_total", [][2]string{{"status", st.status}}, float64(st.n))
	}
	m.family("linrec_slow_queries_total", "counter", "Queries over the slow-query threshold.")
	m.sample("linrec_slow_queries_total", nil, float64(s.ctr.slowQueries.Load()))
	m.family("linrec_rows_served_total", "counter", "Answer rows returned to clients.")
	m.sample("linrec_rows_served_total", nil, float64(s.ctr.rowsServed.Load()))
	m.family("linrec_limited_queries_total", "counter", "Answered queries that carried a limit (exists implies limit=1).")
	m.sample("linrec_limited_queries_total", nil, float64(s.ctr.limitedQueries.Load()))
	m.family("linrec_exists_queries_total", "counter", "Answered exists queries.")
	m.sample("linrec_exists_queries_total", nil, float64(s.ctr.existsQueries.Load()))
	m.family("linrec_early_terminations_total", "counter", "Limited queries answered short of the full fixpoint (evaluation stopped at the k-th row or a cached answer was truncated).")
	m.sample("linrec_early_terminations_total", nil, float64(s.ctr.earlyTerminations.Load()))
	m.family("linrec_streamed_rows_total", "counter", "Rows written as NDJSON stream lines.")
	m.sample("linrec_streamed_rows_total", nil, float64(s.ctr.streamedRows.Load()))
	m.family("linrec_cursor_pages_total", "counter", "Cursor-paginated result pages served.")
	m.sample("linrec_cursor_pages_total", nil, float64(s.ctr.cursorPages.Load()))

	m.family("linrec_plans_total", "counter", "Answered queries by evaluation plan kind.")
	for i := planner.Kind(0); i <= planner.MagicSeeded; i++ {
		m.sample("linrec_plans_total", [][2]string{{"kind", i.Slug()}}, float64(s.ctr.plans[int(i)].Load()))
	}
	m.family("linrec_plans_by_adornment_total", "counter", "Answered queries by predicate, goal adornment and plan kind.")
	adorn := s.ctr.adornCounts()
	adornKeys := make([]string, 0, len(adorn))
	for k := range adorn {
		adornKeys = append(adornKeys, k)
	}
	sort.Strings(adornKeys)
	for _, k := range adornKeys {
		// Keys are "pred/adornment kind-slug" (see counters.observePlan).
		predAdorn, slug, ok := strings.Cut(k, " ")
		if !ok {
			continue
		}
		pred, ad, ok := strings.Cut(predAdorn, "/")
		if !ok {
			continue
		}
		m.sample("linrec_plans_by_adornment_total",
			[][2]string{{"pred", pred}, {"adornment", ad}, {"kind", slug}}, float64(adorn[k]))
	}

	m.family("linrec_facts_total", "counter", "Facts applied by operation.")
	m.sample("linrec_facts_total", [][2]string{{"op", "add"}}, float64(s.ctr.factsAdded.Load()))
	m.sample("linrec_facts_total", [][2]string{{"op", "remove"}}, float64(s.ctr.factsRemoved.Load()))
	m.family("linrec_fact_batches_total", "counter", "Snapshot-swapping fact batches by operation.")
	m.sample("linrec_fact_batches_total", [][2]string{{"op", "add"}}, float64(s.ctr.factBatches.Load()))
	m.sample("linrec_fact_batches_total", [][2]string{{"op", "remove"}}, float64(s.ctr.retractBatches.Load()))
	m.family("linrec_snapshot_swap_seconds_total", "counter", "Cumulative wall time of snapshot swaps, cache maintenance included.")
	m.sample("linrec_snapshot_swap_seconds_total", nil, float64(s.ctr.swapNS.Load())/1e9)

	m.family("linrec_queue_depth", "gauge", "Requests waiting in the admission queue.")
	m.sample("linrec_queue_depth", nil, float64(s.queued.Load()))
	m.family("linrec_queue_limit", "gauge", "Admission queue capacity.")
	m.sample("linrec_queue_limit", nil, float64(s.cfg.MaxQueue))
	m.family("linrec_inflight_queries", "gauge", "Queries currently evaluating.")
	m.sample("linrec_inflight_queries", nil, float64(s.inflight.Load()))
	m.family("linrec_worker_budget", "gauge", "Global closure-worker budget.")
	m.sample("linrec_worker_budget", nil, float64(s.sem.Size()))
	m.family("linrec_workers_in_use", "gauge", "Workers currently granted to queries.")
	m.sample("linrec_workers_in_use", nil, float64(s.sem.InUse()))

	rc := s.sys.ResultCacheStats()
	m.family("linrec_result_cache_entries", "gauge", "Entries in the goal-level result cache.")
	m.sample("linrec_result_cache_entries", nil, float64(rc.Entries))
	m.family("linrec_result_cache_rows", "gauge", "Answer rows held by the result cache.")
	m.sample("linrec_result_cache_rows", nil, float64(rc.Rows))
	m.family("linrec_result_cache_rendered_bytes", "gauge", "Bytes of rendered answer rows and row offsets the result cache holds.")
	m.sample("linrec_result_cache_rendered_bytes", nil, float64(rc.RenderedBytes))
	m.family("linrec_result_cache_cap_rows", "gauge", "Result cache row capacity.")
	m.sample("linrec_result_cache_cap_rows", nil, float64(rc.CapRows))
	m.family("linrec_result_cache_events_total", "counter", "Result cache lookups and evictions by event and plan kind.")
	for event, byKind := range map[string]map[string]int64{
		"hit": rc.Hits, "miss": rc.Misses, "eviction": rc.Evictions,
	} {
		kinds := make([]string, 0, len(byKind))
		for k := range byKind {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			slug := kindSlugs[k]
			if slug == "" {
				slug = "unknown"
			}
			m.sample("linrec_result_cache_events_total",
				[][2]string{{"event", event}, {"kind", slug}}, float64(byKind[k]))
		}
	}
	m.family("linrec_result_cache_joins_total", "counter", "Queries that joined another query's in-flight build.")
	m.sample("linrec_result_cache_joins_total", nil, float64(rc.Joins))
	m.family("linrec_result_cache_invalidated_total", "counter", "Result cache entries invalidated by snapshot swaps.")
	m.sample("linrec_result_cache_invalidated_total", nil, float64(rc.Invalidated))
	m.family("linrec_result_cache_upgrades_total", "counter", "Result cache entries carried across snapshot swaps.")
	m.sample("linrec_result_cache_upgrades_total", nil, float64(rc.Upgrades))
	m.family("linrec_result_cache_upgrade_fallbacks_total", "counter", "Result cache upgrade attempts that fell back to purging.")
	m.sample("linrec_result_cache_upgrade_fallbacks_total", nil, float64(rc.UpgradeFallbacks))

	sc := s.sys.SeedCacheStatsNow()
	m.family("linrec_seed_cache_entries", "gauge", "Seed/magic cache entries by layer.")
	m.sample("linrec_seed_cache_entries", [][2]string{{"cache", "seed"}}, float64(sc.SeedEntries))
	m.sample("linrec_seed_cache_entries", [][2]string{{"cache", "magic"}}, float64(sc.MagicEntries))
	m.family("linrec_seed_cache_rows", "gauge", "Rows held by completed seed/magic cache entries.")
	m.sample("linrec_seed_cache_rows", nil, float64(sc.Rows))
	m.family("linrec_seed_cache_events_total", "counter", "Seed/magic cache lookups by layer and event (a bypass counts as a miss).")
	m.sample("linrec_seed_cache_events_total", [][2]string{{"cache", "seed"}, {"event", "hit"}}, float64(sc.SeedHits))
	m.sample("linrec_seed_cache_events_total", [][2]string{{"cache", "seed"}, {"event", "miss"}}, float64(sc.SeedMisses))
	m.sample("linrec_seed_cache_events_total", [][2]string{{"cache", "magic"}, {"event", "hit"}}, float64(sc.MagicHits))
	m.sample("linrec_seed_cache_events_total", [][2]string{{"cache", "magic"}, {"event", "miss"}}, float64(sc.MagicMisses))
	m.family("linrec_seed_cache_upgrades_total", "counter", "Seed/magic cache entries carried across snapshot swaps.")
	m.sample("linrec_seed_cache_upgrades_total", nil, float64(sc.Upgraded))
	m.family("linrec_seed_cache_purged_total", "counter", "Seed/magic cache entries dropped by snapshot swaps.")
	m.sample("linrec_seed_cache_purged_total", nil, float64(sc.Purged))

	// The log₂ histogram re-emitted as a cumulative Prometheus histogram:
	// bucket b spans [2^b, 2^(b+1)) µs, so its upper bound le is
	// 2^(b+1) µs in seconds; the last bucket catches everything (+Inf).
	m.family("linrec_query_latency_seconds", "histogram", "Query latency (answered queries).")
	var cum int64
	for b := 0; b < latBuckets; b++ {
		cum += s.lat.buckets[b].Load()
		le := "+Inf"
		if b < latBuckets-1 {
			le = strconv.FormatFloat(float64(int64(1)<<uint(b+1))/1e6, 'g', -1, 64)
		}
		m.sample("linrec_query_latency_seconds_bucket", [][2]string{{"le", le}}, float64(cum))
	}
	m.sample("linrec_query_latency_seconds_sum", nil, float64(s.lat.sumNS.Load())/1e9)
	m.sample("linrec_query_latency_seconds_count", nil, float64(s.lat.count.Load()))
	m.family("linrec_query_latency_p50_seconds", "gauge", "Median query latency interpolated from the histogram.")
	m.sample("linrec_query_latency_p50_seconds", nil, s.lat.quantile(0.50).Seconds())
	m.family("linrec_query_latency_p99_seconds", "gauge", "99th-percentile query latency interpolated from the histogram.")
	m.sample("linrec_query_latency_p99_seconds", nil, s.lat.quantile(0.99).Seconds())

	// Durable-storage series, present only when the server fronts a
	// persistent system (linrecd -data-dir).
	if s.cfg.Persist != nil {
		ps := s.cfg.Persist.Stats()
		one := func(name, kind, help string, v float64) {
			m.family(name, kind, help)
			m.sample(name, nil, v)
		}
		one("linrec_persist_generation", "gauge", "Manifest generation of the durable segment store.", float64(ps.Generation))
		one("linrec_persist_snapshot_version", "gauge", "Snapshot version last made durable, by the manifest or its log.", float64(ps.SnapshotVersion))
		recovered := 0.0
		if ps.Recovered {
			recovered = 1
		}
		one("linrec_persist_recovered", "gauge", "1 when this process booted from an existing manifest, 0 when it started fresh.", recovered)
		one("linrec_persist_recovered_preds", "gauge", "Predicates recovered from the manifest at boot.", float64(ps.RecoveredPreds))
		one("linrec_persist_recovered_rows", "gauge", "Rows recovered from the manifest and its log at boot (metadata only, not loaded).", float64(ps.RecoveredRows))
		one("linrec_persist_boot_seconds", "gauge", "Wall time of the manifest boot (segment loading excluded).", float64(ps.BootMillis)/1e3)
		one("linrec_persist_publishes_total", "counter", "Snapshot publishes written to the durable store.", float64(ps.Publishes))
		m.family("linrec_persist_segments_total", "counter", "Segments written or reused by identity across publishes.")
		m.sample("linrec_persist_segments_total", [][2]string{{"op", "written"}}, float64(ps.SegmentsWritten))
		m.sample("linrec_persist_segments_total", [][2]string{{"op", "reused"}}, float64(ps.SegmentsReused))
		one("linrec_persist_bytes_written_total", "counter", "Segment and log bytes written (headers and frames included).", float64(ps.BytesWritten))
		one("linrec_persist_log_records_total", "counter", "Records synced to the write-ahead log (one per kept-chain write, one per swap carrying links).", float64(ps.LogRecords))
		one("linrec_persist_log_bytes_written_total", "counter", "Write-ahead log bytes written (frames included).", float64(ps.LogBytes))
		one("linrec_persist_symtab_bytes_written_total", "counter", "Symbol-table bytes written (appended past the committed end).", float64(ps.SymtabBytes))
		one("linrec_persist_manifest_bytes_written_total", "counter", "Manifest bytes written across manifest swaps.", float64(ps.ManifestBytes))
		one("linrec_persist_fsyncs_total", "counter", "File and directory fsyncs issued by publishes and compactions.", float64(ps.Fsyncs))
		one("linrec_persist_lazy_loads_total", "counter", "Segments mapped on first touch after boot.", float64(ps.LazyLoads))
		one("linrec_persist_lazy_load_seconds_total", "counter", "Cumulative wall time spent mapping segments (microsecond resolution).", float64(ps.LazyLoadMicros)/1e6)
		one("linrec_persist_gc_removed_total", "counter", "Unreferenced storage files removed after manifest swaps.", float64(ps.GCRemoved))
		one("linrec_persist_mem_budget_bytes", "gauge", "Configured residency budget for probe artifacts (0 = unbudgeted).", float64(ps.MemBudgetBytes))
		one("linrec_persist_resident_bytes", "gauge", "Probe-artifact bytes currently resident under the memory budget.", float64(ps.ResidentBytes))
		one("linrec_persist_resident_peak_bytes", "gauge", "Peak tracked probe-artifact residency since boot.", float64(ps.ResidentPeakBytes))
		one("linrec_persist_resident_segments", "gauge", "Segments currently holding resident probe artifacts.", float64(ps.ResidentSegments))
		one("linrec_persist_evictions_total", "counter", "Probe artifacts evicted back to mmap-only under budget pressure.", float64(ps.Evictions))
		one("linrec_persist_evicted_bytes_total", "counter", "Probe-artifact bytes released by evictions.", float64(ps.EvictedBytes))
		one("linrec_persist_delta_links_total", "counter", "Chain links published as deltas instead of full rewrites.", float64(ps.DeltaLinks))
		m.family("linrec_persist_chain_links", "gauge", "Delta-chain links in the current manifest and its log (total and longest chain).")
		m.sample("linrec_persist_chain_links", [][2]string{{"agg", "total"}}, float64(ps.ChainLinks))
		m.sample("linrec_persist_chain_links", [][2]string{{"agg", "max"}}, float64(ps.MaxChainLinks))
		one("linrec_persist_compactions_total", "counter", "Chain folds (inline at publish or by the background compactor).", float64(ps.Compactions))
		one("linrec_persist_compacted_links_total", "counter", "Chain links folded away by compactions.", float64(ps.CompactedLinks))
	}

	return m.b.String()
}
