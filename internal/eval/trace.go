// Per-query tracing: a context-carried Tracer collects per-phase,
// per-round evaluation detail (delta sizes, per-rule apply timings,
// worker-shard row counts) plus cache decisions, without touching the
// hot path when disabled.  The off-path guarantee has two layers: the
// exported Ctx entry points look the Tracer up once per phase
// (ctx.Value on a zero-size key — no allocation), and the stepper holds
// a *PhaseTrace that is nil when tracing is off, so the only
// disabled-path cost is a few pointer comparisons per round, never per
// row.  All methods are nil-receiver-safe for the same reason: callers
// thread the hooks unconditionally and the nil case degenerates to a
// no-op.
//
// A Tracer belongs to one evaluation at a time: phases and cache
// events are appended without locks from the goroutine driving the
// evaluation (a fanned-out round is recorded at its merge barrier, never
// inside workers).

package eval

import (
	"context"
	"time"
)

// Trace is the structured record of one evaluation: the phases run (a
// decomposed plan chains two closure phases, a magic plan a frontier
// phase and a restricted closure) and the cache decisions taken on the
// way.  It marshals to the `trace` object the server returns for
// ?trace=1 queries.
type Trace struct {
	// RequestID echoes the server's per-request ID when the trace was
	// collected for an HTTP query; empty for direct engine use.
	RequestID string `json:"request_id,omitempty"`
	// Phases are the evaluation phases in execution order.
	Phases []*PhaseTrace `json:"phases,omitempty"`
	// CacheEvents are the cache decisions in the order they were made.
	CacheEvents []CacheEvent `json:"cache_events,omitempty"`
}

// PhaseTrace records one fixpoint phase: a semi-naive closure, a
// restricted closure (magic-filtered, or the over-delete cone of a
// delete-and-rederive maintenance pass), a magic-frontier iteration, or
// a maintenance resume.  The row accounting is exact:
// BaseRows + SeedRows + Σ rounds.NewRows == TotalRows.
type PhaseTrace struct {
	// Name identifies the phase kind: "semi-naive",
	// "restricted-closure", "magic-frontier" or "resume".
	Name string `json:"name"`
	// Workers is the effective pool width the phase ran with: 1 for a
	// sequential engine or a nullary relation (whose rounds never fan
	// out), else Engine.Workers.
	Workers int `json:"workers"`
	// BaseRows counts pre-existing fixpoint rows a resume phase started
	// from; zero for a fresh closure.
	BaseRows int `json:"base_rows,omitempty"`
	// SeedRows is the initial delta: the seed relation of a closure,
	// the appended rows of a resume, the seeded frontier of a magic set.
	SeedRows int `json:"seed_rows"`
	// TotalRows is the phase's final relation size.
	TotalRows int `json:"total_rows"`
	// Rounds holds one entry per semi-naive round (or frontier
	// generation), in order.
	Rounds []RoundTrace `json:"rounds,omitempty"`
	// ElapsedUS is the phase's wall time in microseconds.
	ElapsedUS int64 `json:"elapsed_us"`

	start time.Time
}

// RoundTrace is one round of the closure kernel — a semi-naive round,
// or a generation of the magic frontier, which runs on the same
// stepper: the delta it consumed, the new tuples it produced, and where
// the work went.
type RoundTrace struct {
	// Round numbers rounds within the phase from 1.
	Round int `json:"round"`
	// DeltaRows is the number of delta rows joined this round.
	DeltaRows int `json:"delta_rows"`
	// NewRows is the number of genuinely new tuples the round added.
	NewRows int `json:"new_rows"`
	// Derivations counts successful body instantiations this round,
	// duplicates included.
	Derivations int64 `json:"derivations"`
	// Duplicates counts derivations of already-known tuples this round.
	Duplicates int64 `json:"duplicates"`
	// ElapsedUS is the round's wall time in microseconds.
	ElapsedUS int64 `json:"elapsed_us"`
	// RuleUS is the per-operator apply time in microseconds, in
	// operator order; only inline rounds (one goroutine, operators run
	// one after another) attribute time per rule.
	RuleUS []int64 `json:"rule_us,omitempty"`
	// ShardRows is the per-worker emission count of a fanned-out round
	// (keep-filtered emissions excluded, duplicates included; sums to
	// the round's Derivations) — the shard-imbalance signal.  Empty for
	// inline rounds.
	ShardRows []int `json:"shard_rows,omitempty"`
	// Pipelined marks a fanned-out round whose join ran while the
	// previous round merged.
	Pipelined bool `json:"pipelined,omitempty"`
}

// CacheEvent records one cache decision made while answering a query
// or maintaining a swap.
type CacheEvent struct {
	// Cache names the layer: "result", "seed" or "magic".
	Cache string `json:"cache"`
	// Event is the decision: "hit", "miss", "bypass", "join" (waited on
	// another query's in-flight build), "upgrade" or "purge".
	Event string `json:"event"`
	// Key identifies the entry (normalized goal, predicate, or
	// predicate plus adornment binding).
	Key string `json:"key,omitempty"`
	// WaitUS is how long the caller waited on the entry (build or
	// single-flight join), in microseconds; zero when instantaneous.
	WaitUS int64 `json:"wait_us,omitempty"`
}

// Tracer collects a Trace across one evaluation.  The zero value is
// ready to use; a nil *Tracer is a valid no-op collector, which is how
// the disabled path stays allocation-free.
type Tracer struct {
	t Trace
}

// SetRequestID tags the collected trace with a server request ID.
func (tr *Tracer) SetRequestID(id string) {
	if tr == nil {
		return
	}
	tr.t.RequestID = id
}

// Cache records one cache decision; wait is the time spent blocked on
// the entry (zero when none).
func (tr *Tracer) Cache(cache, event, key string, wait time.Duration) {
	if tr == nil {
		return
	}
	ev := CacheEvent{Cache: cache, Event: event, Key: key}
	if wait > 0 {
		ev.WaitUS = wait.Microseconds()
	}
	tr.t.CacheEvents = append(tr.t.CacheEvents, ev)
}

// Trace returns the collected trace (nil for a nil Tracer).  The
// result aliases the collector's storage: read it only after the
// evaluation completes.
func (tr *Tracer) Trace() *Trace {
	if tr == nil {
		return nil
	}
	return &tr.t
}

// phase opens a new phase on the trace; the engine entry points call
// it once per fixpoint loop and close it when the loop exits.
func (tr *Tracer) phase(name string, workers, baseRows, seedRows int) *PhaseTrace {
	if tr == nil {
		return nil
	}
	if workers < 1 {
		workers = 1
	}
	p := &PhaseTrace{Name: name, Workers: workers, BaseRows: baseRows, SeedRows: seedRows, start: time.Now()}
	tr.t.Phases = append(tr.t.Phases, p)
	return p
}

// round appends one round record.
func (p *PhaseTrace) round(r RoundTrace) {
	if p == nil {
		return
	}
	p.Rounds = append(p.Rounds, r)
}

// close stamps the phase's final relation size and wall time.
func (p *PhaseTrace) close(totalRows int) {
	if p == nil {
		return
	}
	p.TotalRows = totalRows
	p.ElapsedUS = time.Since(p.start).Microseconds()
}

// tracerKey carries the Tracer through a context; the zero-size key
// keeps the disabled-path Value lookup allocation-free.
type tracerKey struct{}

// WithTracer returns a context carrying tr; every evaluation entered
// through a Ctx entry point under it records its phases on tr.
func WithTracer(ctx context.Context, tr *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, tr)
}

// TracerFrom returns the Tracer carried by ctx, or nil when tracing is
// disabled (including for a nil context).
func TracerFrom(ctx context.Context) *Tracer {
	if ctx == nil {
		return nil
	}
	tr, _ := ctx.Value(tracerKey{}).(*Tracer)
	return tr
}
