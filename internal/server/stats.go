// Server-side observability: lock-free counters for the admission and
// query paths plus a compact log₂-bucketed latency histogram from which
// /v1/stats derives p50/p99.  The histogram trades exactness for a fixed
// 512-byte footprint and an O(1) allocation-free observe path, which the
// load generator (exact, client-side percentiles) cross-checks.

package server

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"linrec/internal/core"
	"linrec/internal/planner"
	"linrec/internal/segment"
)

// latBuckets spans [1µs, 2^39µs ≈ 6.4 days) in powers of two.
const latBuckets = 40

// latencyHist is a log₂-bucketed histogram of query latencies.
type latencyHist struct {
	count   atomic.Int64
	sumNS   atomic.Int64
	maxNS   atomic.Int64
	buckets [latBuckets]atomic.Int64
}

func (h *latencyHist) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sumNS.Add(int64(d))
	for {
		old := h.maxNS.Load()
		if int64(d) <= old || h.maxNS.CompareAndSwap(old, int64(d)) {
			break
		}
	}
	us := d.Microseconds()
	b := 0
	for us > 1 && b < latBuckets-1 {
		us >>= 1
		b++
	}
	h.buckets[b].Add(1)
}

// quantile estimates the q-th latency quantile by linear interpolation
// inside the bucket holding the target rank: bucket b spans
// [2^b, 2^(b+1)) µs (b = 0 starts at zero), and the rank's position
// within the bucket's population picks the point on that span, with the
// upper edge clamped to the largest latency actually observed.  The
// load generator's exact client-side percentiles use the same
// rank = ⌈q·n⌉ definition, so the two views agree up to bucket
// resolution instead of the server systematically reporting the
// power-of-two upper bound.
func (h *latencyHist) quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b := 0; b < latBuckets; b++ {
		n := h.buckets[b].Load()
		if n == 0 {
			continue
		}
		if seen+n >= rank {
			loNS := int64(0)
			if b > 0 {
				loNS = (int64(1) << uint(b)) * 1000
			}
			hiNS := (int64(1) << uint(b+1)) * 1000
			if mx := h.maxNS.Load(); mx > loNS && mx < hiNS {
				hiNS = mx // the top bucket ends at the observed max
			}
			frac := float64(rank-seen) / float64(n)
			return time.Duration(float64(loNS) + frac*float64(hiNS-loNS))
		}
		seen += n
	}
	return time.Duration(h.maxNS.Load())
}

// LatencySummary is the JSON form of the histogram.
type LatencySummary struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

func (h *latencyHist) summary() LatencySummary {
	s := LatencySummary{Count: h.count.Load()}
	if s.Count > 0 {
		s.MeanMS = float64(h.sumNS.Load()) / float64(s.Count) / 1e6
		s.P50MS = float64(h.quantile(0.50)) / 1e6
		s.P99MS = float64(h.quantile(0.99)) / 1e6
		s.MaxMS = float64(h.maxNS.Load()) / 1e6
	}
	return s
}

// planKindSlots is the number of plan-kind counters: the planner's Kind
// values plus one overflow slot for kinds this build doesn't know.
const planKindSlots = int(planner.MagicSeeded) + 2

// counters are the server's monotonically increasing event counts.
type counters struct {
	queriesOK      atomic.Int64 // answered 200s
	queryErrors    atomic.Int64 // parse/eval failures (4xx and 500)
	internalErrors atomic.Int64 // 500s specifically (recovered engine panics) — the lrload -smoke failure signal
	timeouts       atomic.Int64 // per-query deadline fired during evaluation (504)
	clientAborts   atomic.Int64 // client dropped the connection mid-evaluation (499)
	shedQueue      atomic.Int64 // 429: admission queue full
	shedBudget     atomic.Int64 // 503: worker budget unavailable before deadline
	factBatches    atomic.Int64 // successful additive /v1/facts swaps
	factsAdded     atomic.Int64 // total facts across additive swaps
	retractBatches atomic.Int64 // successful retraction swaps (DELETE or POST "remove")
	factsRemoved   atomic.Int64 // total facts across retraction swaps
	rowsServed     atomic.Int64 // answer rows returned
	swapNS         atomic.Int64 // cumulative snapshot-swap time (/v1/facts maintenance included)
	slowQueries    atomic.Int64 // queries over the -slow-query-ms threshold (trace dumped to the log)

	limitedQueries    atomic.Int64 // answered queries that carried "limit" (exists implies limit=1)
	existsQueries     atomic.Int64 // answered queries that carried "exists"
	earlyTerminations atomic.Int64 // answered limited queries whose full answer was cut short (streamed evaluation stopped early, or a cached answer was truncated to the limit)
	streamedRows      atomic.Int64 // rows written as NDJSON lines (subset of rowsServed)
	cursorPages       atomic.Int64 // cursor-paginated pages served

	// plans counts answered queries per plan kind, indexed by
	// planner.Kind — the /v1/stats view of how often each evaluation
	// strategy (semi-naive, decomposed, separable, magic-seeded)
	// actually serves traffic.
	plans [planKindSlots]atomic.Int64

	// plansByAdorn refines the plan counters by the goal's binding
	// pattern: keys are "pred/adornment kind-slug" (e.g.
	// "path/bf magic-seeded"), so /v1/stats shows which adornments a
	// plan kind actually serves — the signal that a multi-bound query
	// took the multi-column adornment rather than first-column plus
	// post-filter.  Cardinality is bounded by the program's predicates ×
	// their binding patterns × plan kinds, so a plain map under a mutex
	// suffices.
	plansMu      sync.Mutex
	plansByAdorn map[string]int64
}

// observePlan records one answered query's plan kind under the goal's
// predicate and adornment.
func (c *counters) observePlan(k planner.Kind, pred, adorn string) {
	i := int(k)
	if i < 0 || i >= planKindSlots-1 {
		i = planKindSlots - 1
	}
	c.plans[i].Add(1)
	key := pred + "/" + adorn + " " + k.Slug()
	c.plansMu.Lock()
	if c.plansByAdorn == nil {
		c.plansByAdorn = map[string]int64{}
	}
	c.plansByAdorn[key]++
	c.plansMu.Unlock()
}

// adornCounts snapshots the per-adornment plan counters.
func (c *counters) adornCounts() map[string]int64 {
	c.plansMu.Lock()
	defer c.plansMu.Unlock()
	out := make(map[string]int64, len(c.plansByAdorn))
	for k, n := range c.plansByAdorn {
		out[k] = n
	}
	return out
}

// planCounts renders the nonzero plan-kind counters keyed by the kind's
// String form.
func (c *counters) planCounts() map[string]int64 {
	out := map[string]int64{}
	for i := range c.plans {
		n := c.plans[i].Load()
		if n == 0 {
			continue
		}
		name := "unknown"
		if i < planKindSlots-1 {
			name = planner.Kind(i).String()
		}
		out[name] = n
	}
	return out
}

// StatsReport is the /v1/stats wire format.
type StatsReport struct {
	UptimeS         float64 `json:"uptime_s"`
	SnapshotVersion uint64  `json:"snapshot_version"`
	QueriesOK       int64   `json:"queries_ok"`
	QueryErrors     int64   `json:"query_errors"`
	// Internal500s is the subset of QueryErrors answered 500 (recovered
	// engine panics).  lrload -smoke fails the run when it is nonzero.
	Internal500s   int64 `json:"internal_500s"`
	Timeouts       int64 `json:"timeouts"`
	ClientAborts   int64 `json:"client_aborts"`
	Shed429        int64 `json:"shed_429_queue_full"`
	Shed503        int64 `json:"shed_503_no_budget"`
	FactBatches    int64 `json:"fact_batches"`
	FactsAdded     int64 `json:"facts_added"`
	RetractBatches int64 `json:"retract_batches"`
	FactsRemoved   int64 `json:"facts_removed"`
	RowsServed     int64 `json:"rows_served"`
	// SwapS is the cumulative wall time of /v1/facts snapshot swaps,
	// cache maintenance included.
	SwapS float64 `json:"swap_s"`
	// SlowQueries counts answered queries that exceeded the server's
	// slow-query threshold (their traces went to the log).
	SlowQueries int64 `json:"slow_queries"`
	// LimitedQueries counts answered queries that carried a "limit"
	// (an "exists" query is limit=1, so it counts here too).
	LimitedQueries int64 `json:"limited_queries"`
	// ExistsQueries counts answered "exists" queries.
	ExistsQueries int64 `json:"exists_queries"`
	// EarlyTerminations counts limited queries whose answer was cut
	// short of the full fixpoint: either streamed evaluation stopped at
	// the k-th row with rounds left unrun, or a cached/materialized
	// answer was truncated to the limit.
	EarlyTerminations int64 `json:"early_terminations"`
	// StreamedRows counts rows written as NDJSON lines (a subset of
	// RowsServed).
	StreamedRows int64 `json:"streamed_rows"`
	// CursorPages counts cursor-paginated result pages served.
	CursorPages  int64 `json:"cursor_pages"`
	InFlight     int64 `json:"inflight_queries"`
	Queued       int64 `json:"queued_queries"`
	WorkerBudget int64 `json:"worker_budget"`
	WorkersInUse int64 `json:"workers_in_use"`
	// Plans counts answered queries per evaluation plan kind (keyed by
	// the planner's Kind string, e.g. "magic-seeded evaluation
	// (σ-bound frontier)"); kinds that served no query are omitted.
	Plans map[string]int64 `json:"plans"`
	// PlansByAdornment refines Plans by the goal's binding pattern:
	// keyed "pred/adornment kind-slug" (e.g. "path/bb magic-seeded"),
	// one entry per (predicate, adornment, plan kind) that served
	// traffic.
	PlansByAdornment map[string]int64 `json:"plans_by_adornment,omitempty"`
	Latency          LatencySummary   `json:"latency"`
	// ResultCache reports the core goal-level result cache: gauges for
	// the current contents plus hit/miss/eviction counters per plan kind
	// and the number of entries invalidated by snapshot swaps.
	ResultCache core.ResultCacheStats `json:"result_cache"`
	// SeedCache reports the seed/magic cache: current entries and rows
	// plus lifetime hit/miss and swap upgrade/purge counters.
	SeedCache core.SeedCacheStats `json:"seed_cache"`
	// Persist reports the durable segment store (recovery provenance,
	// publish and lazy-load counters) when the server was started with a
	// data directory; omitted for in-memory systems.
	Persist *segment.Stats `json:"persist,omitempty"`
}
