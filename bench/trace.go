package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"

	"linrec/internal/eval"
)

// span is one timed call the harness made into a layer.  Names are
// "layer.operation"; Parent is the index of the enclosing span (-1 at the
// top) and Req groups the spans of one request or closure.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	// Rows is the row count the call produced or consumed, where it has one.
	Rows int `json:"rows,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.  A nil tracer records
// nothing, so the staged drivers run the same code traced and untraced —
// the difference between the two is bench.trace_overhead_pct.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	req   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request starts a new request group; spans begun until the next call
// carry its id.
func (t *tracer) request(id int) {
	if t != nil {
		t.req = id
	}
}

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: t.req})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// rename relabels an open or closed span once its outcome is known (a
// core.evaluate becomes core.evaluate_hit or core.evaluate_miss).
func (t *tracer) rename(id int, name string) {
	if t != nil {
		t.spans[id].Name = name
	}
}

func (t *tracer) rows(id, n int) {
	if t != nil {
		t.spans[id].Rows = n
	}
}

// addEval converts an eval.Tracer's phases and rounds into child spans of
// parent.  The engine records durations, not start times, so phases are
// laid end to end from the parent's start and rounds likewise within their
// phase; self time only needs the durations.
func (t *tracer) addEval(parent int, tr *eval.Trace) {
	if t == nil || tr == nil {
		return
	}
	at := t.spans[parent].Start
	for _, p := range tr.Phases {
		pid := len(t.spans)
		t.spans = append(t.spans, span{
			Name: "eval." + p.Name, Start: at, End: at + p.ElapsedUS*1000,
			Parent: parent, Req: t.spans[parent].Req, Rows: p.TotalRows,
		})
		rat := at
		for _, r := range p.Rounds {
			t.spans = append(t.spans, span{
				Name: "eval.round", Start: rat, End: rat + r.ElapsedUS*1000,
				Parent: pid, Req: t.spans[parent].Req, Rows: r.NewRows,
			})
			rat += r.ElapsedUS * 1000
		}
		at += p.ElapsedUS * 1000
	}
}

// durations returns, in nanoseconds, the duration of every span named
// name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// perRow returns Σ duration ÷ Σ rows over the spans named name, in
// nanoseconds per row, and the number of spans.
func (t *tracer) perRow(name string) (ns float64, n int) {
	var dur, rows int64
	for _, s := range t.spans {
		if s.Name == name && s.Rows > 0 {
			dur += s.dur()
			rows += int64(s.Rows)
			n++
		}
	}
	if rows == 0 {
		return 0, 0
	}
	return float64(dur) / float64(rows), n
}

// layerSelf is one row of the trace file's summary: a span name's call
// count, total time and self time (its duration minus what its child
// spans cover).
type layerSelf struct {
	Name    string  `json:"name"`
	Layer   string  `json:"layer"`
	Calls   int     `json:"calls"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// childTime returns, per span, the time its child spans cover.
func (t *tracer) childTime() []int64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	return child
}

// selfDurations returns, per span named name, its duration minus its
// children's, in ns.
func (t *tracer) selfDurations(name string) []float64 {
	child := t.childTime()
	var out []float64
	for i, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur()-child[i]))
		}
	}
	return out
}

// setOverhead records what tracing cost: the same work traced against
// untraced.
func setOverhead(m metrics, untraced, traced time.Duration) {
	m.set("bench.trace_overhead_pct", 100*(float64(traced)-float64(untraced))/float64(untraced), 2)
}

// selfTimes derives self time per span name.
func (t *tracer) selfTimes() []layerSelf {
	child := t.childTime()
	by := map[string]*layerSelf{}
	for i, s := range t.spans {
		l := by[s.Name]
		if l == nil {
			layer, _, _ := strings.Cut(s.Name, ".")
			l = &layerSelf{Name: s.Name, Layer: layer}
			by[s.Name] = l
		}
		l.Calls++
		l.TotalMS += float64(s.dur()) / 1e6
		self := s.dur() - child[i]
		if self < 0 {
			self = 0 // laid-out eval spans can overrun a parent by rounding
		}
		l.SelfMS += float64(self) / 1e6
	}
	out := make([]layerSelf, 0, len(by))
	for _, l := range by {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// traceFile is what trace-<workload>.json holds.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Summary  []layerSelf `json:"summary"`
	Counters metrics     `json:"counters"`
	Spans    []span      `json:"spans"`
}

func (t *tracer) write(path, workload string, seed int64, counters metrics) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(traceFile{Workload: workload, Seed: seed, Summary: t.selfTimes(), Counters: counters, Spans: t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
