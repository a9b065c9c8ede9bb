package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// metricDef declares one metric of the ledger.  The same table drives what
// a run prints, what BENCHMARK.json lists (a test holds the two equal) and
// how -compare judges a move.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the base median an end-to-end metric may worsen
	// by before -compare (and the driver) call it a regression; per-layer
	// metrics carry none.
	Bound float64
	// Exact marks a '#' counter: a count made by the program that must
	// repeat exactly for a seed, the only kind of per-layer number a later
	// claim may rest on.  Which end-to-end metric each per-layer metric is
	// predicted to move is README.md's table.
	Exact bool
}

// The end-to-end metrics are the three quantities every workload has: each
// run prints all of them, so each is defined per workload (README,
// "End-to-end metrics").  The ISSUE's workload-specific names (qps,
// read_p99_ms, write_amp, boot_ms, ...) are kept, by those names, in the
// per-layer list.  The bounds are what this sandbox's run-to-run spread
// allows: ten runs of one commit spread by up to 13% of their median.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// closurePrograms are the four cold closures of closure_batch, in run
// order; eval.<program>.* metrics exist for each.
var closurePrograms = []string{"tc_tree", "tc_dag", "sg_tree", "comm_grid"}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	d := []metricDef{
		// The workload-specific user-visible numbers of the untraced load
		// run; the end-to-end metrics above are picked from these.
		{Name: "fail_ratio", Unit: "ratio", Better: "lower"},
		{Name: "closure_tuples_per_s_w1", Unit: "1/s", Better: "higher"},
		{Name: "closure_tuples_per_s_w2", Unit: "1/s", Better: "higher"},
		{Name: "closure_alloc_bytes_per_tuple", Unit: "B", Better: "lower"},
		{Name: "qps", Unit: "1/s", Better: "higher"},
		{Name: "read_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "read_p99_ms", Unit: "ms", Better: "lower"},
		{Name: "write_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "write_amp", Unit: "ratio", Better: "lower"},
		{Name: "boot_ms", Unit: "ms", Better: "lower"},
		{Name: "first_query_ms", Unit: "ms", Better: "lower"},
		{Name: "paged_tuples_per_s", Unit: "1/s", Better: "higher"},

		{Name: "parser.parse_atom_ns", Unit: "ns", Better: "lower"},
		{Name: "parser.parse_fact_ns", Unit: "ns", Better: "lower"},

		{Name: "planner.analyze_ms", Unit: "ms", Better: "lower"},
		{Name: "planner.choose_ns", Unit: "ns", Better: "lower"},
		{Name: "planner.kind_seminaive", Unit: "count", Better: "lower", Exact: true},
		{Name: "planner.kind_decomposed", Unit: "count", Better: "lower", Exact: true},
		{Name: "planner.kind_separable", Unit: "count", Better: "lower", Exact: true},
		{Name: "planner.kind_magic", Unit: "count", Better: "lower", Exact: true},

		{Name: "core.evaluate_hit_ns", Unit: "ns", Better: "lower"},
		{Name: "core.render_ns_per_row", Unit: "ns", Better: "lower"},
		{Name: "core.result_hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "core.evaluate_miss_us", Unit: "us", Better: "lower"},
		{Name: "core.seed_build_ms", Unit: "ms", Better: "lower"},
		{Name: "core.swap_add_ms", Unit: "ms", Better: "lower"},
		{Name: "core.swap_remove_ms", Unit: "ms", Better: "lower"},
		{Name: "core.results_upgraded", Unit: "count", Better: "higher", Exact: true},
		{Name: "core.results_purged", Unit: "count", Better: "lower", Exact: true},
		{Name: "core.seeds_upgraded", Unit: "count", Better: "higher", Exact: true},
		{Name: "core.seeds_purged", Unit: "count", Better: "lower", Exact: true},
	}
	for _, p := range closurePrograms {
		d = append(d,
			metricDef{Name: "eval." + p + ".closure_ms_w1", Unit: "ms", Better: "lower"},
			metricDef{Name: "eval." + p + ".closure_ms_w2", Unit: "ms", Better: "lower"},
			metricDef{Name: "eval." + p + ".derivations", Unit: "count", Better: "lower", Exact: true},
			metricDef{Name: "eval." + p + ".duplicates", Unit: "count", Better: "lower", Exact: true},
			metricDef{Name: "eval." + p + ".rounds", Unit: "count", Better: "lower", Exact: true},
			metricDef{Name: "eval." + p + ".ns_per_derivation_w1", Unit: "ns", Better: "lower"},
			metricDef{Name: "eval." + p + ".parallel_eff", Unit: "ratio", Better: "higher"},
			metricDef{Name: "eval." + p + ".round_ms_max", Unit: "ms", Better: "lower"},
			metricDef{Name: "eval." + p + ".shard_imbalance", Unit: "ratio", Better: "lower"},
		)
	}
	d = append(d,
		metricDef{Name: "eval.apply_ns_per_row", Unit: "ns", Better: "lower"},
		metricDef{Name: "eval.magic_frontier_us", Unit: "us", Better: "lower"},
		metricDef{Name: "eval.stream_first_row_us", Unit: "us", Better: "lower"},

		metricDef{Name: "rel.insert_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "rel.insert_dup_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "rel.has_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "rel.probe_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "rel.build_index_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "rel.bytes_per_tuple", Unit: "B", Better: "lower"},
		metricDef{Name: "rel.minus_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "rel.clone_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "rel.layered_probe_ns_d1", Unit: "ns", Better: "lower"},
		metricDef{Name: "rel.layered_probe_ns_d3", Unit: "ns", Better: "lower"},

		metricDef{Name: "segment.boot_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "segment.cold_map_us", Unit: "us", Better: "lower"},
		metricDef{Name: "segment.first_probe_us", Unit: "us", Better: "lower"},
		metricDef{Name: "segment.warm_probe_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "segment.scan_ns_per_row", Unit: "ns", Better: "lower"},
		metricDef{Name: "segment.lazy_loads", Unit: "count", Better: "lower", Exact: true},
		metricDef{Name: "segment.evictions", Unit: "count", Better: "lower"},
		metricDef{Name: "segment.evicted_bytes", Unit: "B", Better: "lower"},
		metricDef{Name: "segment.resident_peak_bytes", Unit: "B", Better: "lower"},
		metricDef{Name: "segment.publish_full_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "segment.publish_delta_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "segment.bytes_per_publish", Unit: "B", Better: "lower"},
		metricDef{Name: "segment.delta_links", Unit: "count", Better: "lower", Exact: true},
		metricDef{Name: "segment.compact_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "segment.compacted_links", Unit: "count", Better: "lower", Exact: true},
		metricDef{Name: "segment.chain_links_max", Unit: "count", Better: "lower", Exact: true},

		metricDef{Name: "server.handler_hit_us", Unit: "us", Better: "lower"},
		metricDef{Name: "server.residual_us", Unit: "us", Better: "lower"},
		metricDef{Name: "server.healthz_rtt_us", Unit: "us", Better: "lower"},
		metricDef{Name: "server.json_ns_per_row", Unit: "ns", Better: "lower"},
		metricDef{Name: "server.ndjson_rows_per_s", Unit: "1/s", Better: "higher"},
		metricDef{Name: "server.sem_acquire_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "server.sem_handoff_us", Unit: "us", Better: "lower"},
		metricDef{Name: "server.queue_wait_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "server.shed", Unit: "count", Better: "lower"},
		metricDef{Name: "server.facts_handler_ms", Unit: "ms", Better: "lower"},

		metricDef{Name: "bench.gen_late_p99_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "bench.achieved_over_offered", Unit: "ratio", Better: "higher"},
		metricDef{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
		metricDef{Name: "bench.server_rss_peak_mb", Unit: "MB", Better: "lower"},
		metricDef{Name: "bench.write_p95_ms", Unit: "ms", Better: "lower"},
	)
	return d
}

// defs indexes both lists by name.
var defs = func() map[string]metricDef {
	m := map[string]metricDef{}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if _, dup := m[d.Name]; dup {
				panic("bench: metric declared twice: " + d.Name)
			}
			m[d.Name] = d
		}
	}
	return m
}()

// sample is one reported metric value with the number of measurements
// behind it.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// metrics collects a run's samples by name.  Setting an undeclared name
// panics: that is a bug in the benchmark, not in the system measured.
type metrics map[string]sample

func (m metrics) set(name string, v float64, n int) {
	d, ok := defs[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = sample{Value: v, Unit: d.Unit, N: n}
}

// setDur records a duration statistic in the metric's own unit.
func (m metrics) setDur(name string, ns float64, n int) {
	m.set(name, ns/unitNS(defs[name].Unit), n)
}

func unitNS(unit string) float64 {
	switch unit {
	case "ns":
		return 1
	case "us":
		return 1e3
	case "ms":
		return 1e6
	case "s":
		return 1e9
	}
	panic("bench: not a time unit: " + unit)
}

// median returns the middle of xs (mean of the two middle values for an
// even count); 0 for no samples.  xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return (xs[mid-1] + xs[mid]) / 2
}

// quantile returns the nearest-rank q-quantile of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailLadder are the percentiles a latency report may name, ascending.
var tailLadder = []float64{0.90, 0.95, 0.99, 0.999, 0.9999}

// tailQuantile applies the percentile rule: a timing is reported as its
// median and the highest percentile that still has at least ten samples
// beyond it.  ok is false when even p90 lacks them (n < 100) and only the
// median may be reported.
func tailQuantile(n int) (q float64, ok bool) {
	for _, p := range tailLadder {
		if float64(n)*(1-p) >= 10-1e-9 {
			q, ok = p, true
		}
	}
	return q, ok
}

// cappedQuantile reports the want-quantile of an ascending slice, lowered
// to what the percentile rule allows for its sample count.
func cappedQuantile(sorted []float64, want float64) float64 {
	q, ok := tailQuantile(len(sorted))
	if !ok {
		return quantile(sorted, 0.5)
	}
	return quantile(sorted, math.Min(q, want))
}

// quartiles returns the first quartile, median and third quartile by the
// exclusive method Python's statistics.quantiles(xs, n=4) uses, which is
// what the acceptance rule is stated in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// metricTable renders samples as aligned "name value unit n" lines in
// declaration order.
func metricTable(list []metricDef, m metrics) string {
	var b strings.Builder
	for _, d := range list {
		s, ok := m[d.Name]
		if !ok {
			continue
		}
		name := d.Name
		if d.Exact {
			name += "#"
		}
		fmt.Fprintf(&b, "  %-38s %16.6g %-6s n=%d\n", name, s.Value, s.Unit, s.N)
	}
	return b.String()
}
