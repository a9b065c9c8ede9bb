package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"linrec/internal/core"
	"linrec/internal/eval"
	"linrec/internal/parser"
	"linrec/internal/planner"
	"linrec/internal/rel"
	"linrec/internal/segment"
	"linrec/internal/server"
)

// The traced replays of the serve workloads run in process and
// sequentially, so their counts repeat exactly.  The same prefix of the
// seeded requests goes once through a staged driver — parse, plan,
// evaluate, render, encode as separate calls with a span around each — and
// once through server.New(...).Handler() on a recorder; the handler's time
// minus the stages' is what the server adds around them.

// replayReads is how many requests of the untraced sequence a replay takes.
func (cfg config) replayReads() int {
	if cfg.quick {
		return 200
	}
	return 3000
}

var kindName = [...]string{"select", "point", "limit", "stream"}

// timedPersister puts a span around every call the engine makes into the
// storage backend; tr is swapped by the replay between its passes.
type timedPersister struct {
	mgr *segment.Manager
	tr  **tracer
}

func (p timedPersister) Boot(syms *rel.Symtab) (rel.DB, uint64, bool, error) {
	id := (*p.tr).begin("segment.boot")
	defer (*p.tr).end(id)
	return p.mgr.Boot(syms)
}

func (p timedPersister) Publish(version uint64, db rel.DB, syms *rel.Symtab) error {
	id := (*p.tr).begin("segment.publish_full")
	defer (*p.tr).end(id)
	return p.mgr.Publish(version, db, syms)
}

func (p timedPersister) PublishDelta(version uint64, db rel.DB, syms *rel.Symtab) error {
	id := (*p.tr).begin("segment.publish_delta")
	defer (*p.tr).end(id)
	return p.mgr.PublishDelta(version, db, syms)
}

// staged is one in-process system a replay drives.
type staged struct {
	sys    *core.System
	srv    *server.Server
	mgr    *segment.Manager // nil on the memory backend
	oracle *forest
	tr     *tracer
	out    *outcome
	kinds  map[planner.Kind]int
	maint  core.Maintenance
	// firstRow collects the time from opening a limited stream to its
	// first row, on requests the result cache did not answer.
	firstRow []float64
	chainMax int
}

// newStaged loads the serve program.  With a data directory the system is
// published there and then recovered from it, so that, like the measured
// child, it serves on-disk segments and chains deltas onto them.
func newStaged(in serveInput, dataDir string, out *outcome, tr *tracer) (*staged, error) {
	// The tracer is in place before the system is built: the initial
	// publish and the recovery boot are spans too.
	s := &staged{oracle: newForest(in.edges), out: out, kinds: map[planner.Kind]int{}, tr: tr}
	prog, err := parser.Parse(in.program)
	if err != nil {
		return nil, err
	}
	opts := core.Options{}
	if dataDir != "" {
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
		for pass := 0; pass < 2; pass++ {
			if s.mgr, err = segment.Open(dataDir); err != nil {
				return nil, err
			}
			opts.Persist = timedPersister{s.mgr, &s.tr}
			if pass == 0 {
				if _, err := core.NewSystem(prog, opts); err != nil {
					return nil, err
				}
			}
		}
	}
	if s.sys, err = core.NewSystem(prog, opts); err != nil {
		return nil, err
	}
	s.srv = server.New(server.Config{System: s.sys, TotalWorkers: 2, Persist: s.mgr})
	return s, nil
}

// rowsSum reduces rendered rows to an answerSum.
func rowsSum(rows [][]string) (answerSum, [10]pair) {
	var s answerSum
	var head [10]pair
	for _, r := range rows {
		a, _ := strconv.Atoi(strings.TrimPrefix(r[0], "n"))
		b, _ := strconv.Atoi(strings.TrimPrefix(r[1], "n"))
		if s.N < len(head) {
			head[s.N] = pair{int32(a), int32(b)}
		}
		s.add(int32(a), int32(b))
	}
	return s, head
}

// read takes one request through the stages.
func (s *staged) read(id int, q request) {
	tr := s.tr
	tr.request(id)
	ctx := context.Background()
	top := tr.begin("request." + kindName[q.Kind])
	defer tr.end(top)

	p := tr.begin("parser.parse_atom")
	goal, err := parser.ParseAtom(q.goal())
	tr.end(p)
	if err != nil {
		s.out.fatal("%s: %v", q.goal(), err)
		return
	}
	// As the server does: one worker by default, and the plan decides
	// whether more could be used.
	opts := core.Options{Workers: 1}
	c := tr.begin("planner.choose")
	plan, err := s.sys.PlanFor(goal, opts)
	tr.end(c)
	if err != nil {
		s.out.fatal("%s: %v", q.goal(), err)
		return
	}
	s.kinds[plan.Kind]++

	var rows [][]string
	version := uint64(0)
	if q.Kind == kindLimit {
		e := tr.begin("core.stream")
		start := time.Now()
		st, err := s.sys.Stream(ctx, core.QueryRequest{Goal: goal, Opts: opts, Limit: 10})
		if err != nil {
			tr.end(e)
			s.out.fatal("%s: %v", q.goal(), err)
			return
		}
		for {
			t, ok := st.Next()
			if !ok {
				break
			}
			if len(rows) == 0 && !st.Cached() {
				s.firstRow = append(s.firstRow, float64(time.Since(start)))
			}
			rows = append(rows, st.RenderRow(t))
		}
		err, version = st.Err(), st.Version()
		st.Close()
		tr.end(e)
		tr.rows(e, len(rows))
		if err != nil {
			s.out.fatal("%s: %v", q.goal(), err)
			return
		}
	} else {
		qctx, etr := ctx, (*eval.Tracer)(nil)
		if tr != nil {
			etr = &eval.Tracer{}
			qctx = eval.WithTracer(ctx, etr)
		}
		e := tr.begin("core.evaluate_miss")
		res, err := s.sys.Evaluate(qctx, core.QueryRequest{Goal: goal, Opts: opts})
		tr.end(e)
		if err != nil {
			s.out.fatal("%s: %v", q.goal(), err)
			return
		}
		tr.rows(e, res.Answer.Len())
		tr.addEval(e, etr.Trace())
		name := "core.render"
		if res.Cached {
			tr.rename(e, "core.evaluate_hit")
			name = "core.render_memo" // a hit shares the rows rendered once
		}
		r := tr.begin(name)
		rows = res.Rows(s.sys)
		tr.end(r)
		tr.rows(r, len(rows))
		version = res.Version
	}

	j := tr.begin("server.encode_json")
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if q.Kind == kindStream {
		tr.rename(j, "server.encode_ndjson")
		for _, row := range rows {
			enc.Encode(row)
		}
	} else {
		enc.Encode(server.QueryResponse{Rows: rows, RowCount: len(rows), Plan: plan.Kind.String(), Why: plan.Why, SnapshotVersion: version, Workers: 1})
	}
	tr.end(j)
	tr.rows(j, len(rows))

	sum, head := rowsSum(rows)
	checkReply(s.out, s.oracle, q, obs{reply: reply{status: http.StatusOK, sum: sum, head: head, done: true, version: version}})
}

// handle sends one request through the server's handler on a recorder.
func (s *staged) handle(id int, method, path, body, span string) reply {
	s.tr.request(id)
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h := s.tr.begin(span)
	s.srv.Handler().ServeHTTP(rec, req)
	s.tr.end(h)
	r := reply{status: rec.Code}
	if r.status == http.StatusOK {
		scanBody(rec.Body.Bytes(), &r)
	}
	s.tr.rows(h, r.sum.N)
	return r
}

func (s *staged) handleRead(id int, q request) {
	path := "/v1/query"
	if q.Kind == kindStream {
		path += "?stream=1"
	}
	r := s.handle(id, http.MethodPost, path, q.body(), "server.handler."+kindName[q.Kind])
	checkReply(s.out, s.oracle, q, obs{reply: r})
}

// write applies one update through the core API, parse and swap as
// separate stages; the storage publish shows up as the swap's child span.
func (s *staged) write(id int, w write) {
	tr := s.tr
	tr.request(id)
	top := tr.begin("request.write")
	defer tr.end(top)
	s.out.attempted++
	p := tr.begin("parser.parse_fact")
	prog, err := parser.Parse(w.facts())
	tr.end(p)
	if err != nil {
		s.out.fail("write %d: %v", id, err)
		return
	}
	tr.rows(p, len(prog.Facts))
	var m core.Maintenance
	var n int
	if w.Delete {
		sp := tr.begin("core.swap_remove")
		_, n, m, err = s.sys.RemoveFactsMaintCtx(context.Background(), prog.Facts)
		tr.end(sp)
	} else {
		sp := tr.begin("core.swap_add")
		_, n, m, err = s.sys.AddFactsMaintCtx(context.Background(), prog.Facts)
		tr.end(sp)
	}
	if err != nil || n != len(w.Edges) {
		s.out.fail("write %d: %d of %d facts applied: %v", id, n, len(w.Edges), err)
		return
	}
	s.maint = s.maint.Add(m)
	applyWrite(s.oracle, w)
	s.afterWrite(id)
}

func (s *staged) handleWrite(id int, w write) {
	method := http.MethodPost
	if w.Delete {
		method = http.MethodDelete
	}
	s.out.attempted++
	if r := s.handle(id, method, "/v1/facts", w.body(), "server.handler.facts"); r.status != http.StatusOK {
		s.out.fail("write %d through the handler: HTTP %d", id, r.status)
		return
	}
	applyWrite(s.oracle, w)
	s.afterWrite(id)
}

// compactEvery paces compaction by count where the child paces it by
// timer: the count is what lets the chain counters repeat.
const compactEvery = 25

func (s *staged) afterWrite(k int) {
	if s.mgr == nil {
		return
	}
	if links := s.mgr.Stats().MaxChainLinks; links > s.chainMax {
		s.chainMax = links
	}
	if (k+1)%compactEvery == 0 {
		c := s.tr.begin("segment.compact")
		_, err := s.mgr.CompactOnce()
		s.tr.end(c)
		if err != nil {
			s.out.fatal("compaction: %v", err)
		}
	}
}

// setMedian records the median duration of the spans named span.
func setMedian(m metrics, tr *tracer, metric, span string) {
	d := tr.durations(span)
	m.setDur(metric, median(d), len(d))
}

// overhead runs the staged pass untraced and traced and records the
// difference; it returns the traced pass's tracer.
func overhead(m metrics, s *staged, pass func()) *tracer {
	s.tr = nil
	start := time.Now()
	pass()
	untraced := time.Since(start)
	s.tr = newTracer()
	start = time.Now()
	pass()
	setOverhead(m, untraced, time.Since(start))
	return s.tr
}

// hotTrace is the traced serve_hot run: the pool is pre-warmed, so every
// replayed request is a result-cache hit, as in the load run.
func hotTrace(cfg config, out *outcome) *tracer {
	m := out.m
	in := genServe(cfg.seed, cfg.serveSizes())
	pool := genHotPool(in)
	s, err := newStaged(in, "", out, nil)
	if err != nil {
		out.fatal("serve_hot replay: %v", err)
		return nil
	}
	for i, q := range pool.goals {
		if q.Kind != kindPoint {
			q.Kind = kindSelect
		}
		s.read(i, q)
	}
	pick := pool.picker(cfg.seed, 0)
	prefix := make([]request, cfg.replayReads())
	for i := range prefix {
		prefix[i] = pool.goals[pick()]
	}
	tr := overhead(m, s, func() {
		s.kinds = map[planner.Kind]int{} // the plans of one pass
		for i, q := range prefix {
			s.read(i, q)
		}
	})
	kinds := s.kinds
	for i, q := range prefix {
		s.handleRead(i, q)
	}

	setMedian(m, tr, "parser.parse_atom_ns", "parser.parse_atom")
	setMedian(m, tr, "planner.choose_ns", "planner.choose")
	setMedian(m, tr, "core.evaluate_hit_ns", "core.evaluate_hit")
	setMedian(m, tr, "server.handler_hit_us", "server.handler.select")
	setKinds(m, kinds)
	serverMetrics(m, tr)
	return tr
}

// serverMetrics derives the server-layer numbers both serve replays share.
func serverMetrics(m metrics, tr *tracer) {
	// What the handler adds around the stages: decode, admission,
	// bookkeeping, response headers.
	stages := median(tr.durations("request.select"))
	m.setDur("server.residual_us", median(tr.durations("server.handler.select"))-stages, len(tr.durations("server.handler.select")))
	ns, n := tr.perRow("server.encode_json")
	m.set("server.json_ns_per_row", ns, n)
	if ns, n := tr.perRow("server.handler.stream"); ns > 0 {
		m.set("server.ndjson_rows_per_s", 1e9/ns, n)
	}
	ns, n = tr.perRow("core.render")
	m.set("core.render_ns_per_row", ns, n)
}

// churnTrace is the traced serve_churn run: reads interleaved with
// count-paced writes over on-disk segments, staged and through the
// handler, then the probes of what a swap is made of.
func churnTrace(cfg config, out *outcome) *tracer {
	m := out.m
	in := genServe(cfg.seed, cfg.serveSizes())
	n := cfg.replayReads()
	load := genChurn(in, float64(n)/in.sz.churnRate)

	// One fresh system per pass: writes change the database.
	pass := func(name string, traced *tracer, read func(*staged, int, request), write func(*staged, int, write)) (*staged, time.Duration) {
		dir := filepath.Join(cfg.work, "replay-"+name)
		defer os.RemoveAll(dir)
		s, err := newStaged(in, dir, out, traced)
		if err != nil {
			out.fatal("serve_churn replay: %v", err)
			return nil, 0
		}
		start := time.Now()
		for i, q := range load.reads {
			read(s, i, q)
			if (i+1)%in.sz.churnWriteEvery == 0 {
				if k := (i+1)/in.sz.churnWriteEvery - 1; k < len(load.writes) {
					write(s, k, load.writes[k])
				}
			}
		}
		return s, time.Since(start)
	}
	_, untraced := pass("untraced", nil, (*staged).read, (*staged).write)
	tr := newTracer()
	s, traced := pass("staged", tr, (*staged).read, (*staged).write)
	if s == nil {
		return tr
	}
	setOverhead(m, untraced, traced)
	st := s.mgr.Stats()
	h, _ := pass("handler", tr, (*staged).handleRead, (*staged).handleWrite)
	if h == nil {
		return tr
	}

	setMedian(m, tr, "parser.parse_atom_ns", "parser.parse_atom")
	if ns, k := tr.perRow("parser.parse_fact"); k > 0 {
		m.set("parser.parse_fact_ns", ns, k)
	}
	setMedian(m, tr, "planner.choose_ns", "planner.choose")
	setMedian(m, tr, "core.evaluate_hit_ns", "core.evaluate_hit")
	setMedian(m, tr, "core.evaluate_miss_us", "core.evaluate_miss")
	setKinds(m, s.kinds)
	add, remove := tr.selfDurations("core.swap_add"), tr.selfDurations("core.swap_remove")
	m.setDur("core.swap_add_ms", median(add), len(add))
	m.setDur("core.swap_remove_ms", median(remove), len(remove))
	writes := len(add) + len(remove)
	m.set("core.results_upgraded", float64(s.maint.ResultsUpgraded), writes)
	m.set("core.results_purged", float64(s.maint.ResultsPurged), writes)
	m.set("core.seeds_upgraded", float64(s.maint.SeedsUpgraded), writes)
	m.set("core.seeds_purged", float64(s.maint.SeedsPurged), writes)
	m.setDur("eval.stream_first_row_us", median(s.firstRow), len(s.firstRow))

	setMedian(m, tr, "segment.boot_ms", "segment.boot")
	setMedian(m, tr, "segment.publish_full_ms", "segment.publish_full")
	setMedian(m, tr, "segment.publish_delta_ms", "segment.publish_delta")
	setMedian(m, tr, "segment.compact_ms", "segment.compact")
	m.set("segment.bytes_per_publish", float64(st.BytesWritten)/float64(max(st.Publishes, 1)), int(st.Publishes))
	m.set("segment.delta_links", float64(st.DeltaLinks), writes)
	m.set("segment.compacted_links", float64(st.CompactedLinks), int(st.Compactions))
	m.set("segment.chain_links_max", float64(s.chainMax), writes)
	setMedian(m, tr, "server.facts_handler_ms", "server.handler.facts")
	serverMetrics(m, tr)

	probeSeed(m, s)
	probeMagic(m, s, load.reads)
	probeSwapRel(m, s)
	probeSemaphore(m)
	return tr
}

// probeSeed times the exit-rule seed build every first query after a
// purging swap waits for.
func probeSeed(m metrics, s *staged) {
	var d []float64
	for _, pred := range []string{"path", "reach"} {
		a, err := s.sys.Analyze(pred)
		if err != nil {
			continue
		}
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			if _, err := a.Seed(s.sys.Engine, s.sys.Snapshot().DB); err == nil {
				d = append(d, float64(time.Since(start)))
			}
		}
	}
	m.setDur("core.seed_build_ms", median(d), len(d))
}

// probeMagic times the magic frontier alone for the replay's reach goals.
func probeMagic(m metrics, s *staged, reads []request) {
	var d []float64
	db := s.sys.Snapshot().DB
	for _, q := range reads {
		if q.Pred != "reach" || len(d) >= 200 {
			continue
		}
		goal, err := parser.ParseAtom(q.goal())
		if err != nil {
			continue
		}
		plan, err := s.sys.PlanFor(goal, core.Options{Workers: 1})
		if err != nil || plan.Kind != planner.MagicSeeded || plan.Magic == nil {
			continue
		}
		var stats eval.Stats
		start := time.Now()
		if _, err := s.sys.Engine.MagicSetCtx(context.Background(), db, plan.Magic.Spec, plan.Magic.BoundTuple(), &stats); err == nil {
			d = append(d, float64(time.Since(start)))
		}
	}
	m.setDur("eval.magic_frontier_us", median(d), len(d))
}

// probeSwapRel times the relation operations a copy-on-write swap and its
// delete-and-rederive maintenance are made of, on the edge relation.
func probeSwapRel(m metrics, s *staged) {
	edges := s.sys.Snapshot().DB.Probe("edge").Clone()
	var clone, minus []float64
	drop := rel.NewRelation(2)
	for i := 0; i < 4 && i < edges.Len(); i++ {
		drop.Insert(edges.Row(i * (edges.Len() / 4)))
	}
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		c := edges.Clone()
		clone = append(clone, float64(time.Since(start)))
		start = time.Now()
		c.Minus(drop)
		minus = append(minus, float64(time.Since(start)))
	}
	m.setDur("rel.clone_ms", median(clone), len(clone))
	m.setDur("rel.minus_ms", median(minus), len(minus))
}

// probeSemaphore times the admission semaphore: an uncontended
// acquire/release pair, and the hand-off from a release to a blocked
// acquirer.
func probeSemaphore(m metrics) {
	sem := server.NewSemaphore(2)
	ctx := context.Background()
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		sem.Acquire(ctx, 1)
		sem.Release(1)
	}
	m.set("server.sem_acquire_ns", float64(time.Since(start))/n, n)

	var handoff []float64
	for i := 0; i < 200; i++ {
		sem.Acquire(ctx, 2)
		got := make(chan time.Time)
		go func() {
			sem.Acquire(ctx, 1)
			got <- time.Now()
		}()
		for sem.Waiting() == 0 {
			time.Sleep(10 * time.Microsecond)
		}
		released := time.Now()
		sem.Release(2)
		handoff = append(handoff, float64((<-got).Sub(released)))
		sem.Release(1)
	}
	m.setDur("server.sem_handoff_us", median(handoff), len(handoff))
}
