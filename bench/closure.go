package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"linrec/internal/ast"
	"linrec/internal/core"
	"linrec/internal/eval"
	"linrec/internal/parser"
	"linrec/internal/planner"
	"linrec/internal/rel"
)

// closureSys is one closure_batch program loaded into the engine.
type closureSys struct {
	in   closureInput
	sys  *core.System
	goal ast.Atom
	ids  []int32 // rel.Value → node id
}

// loadClosure parses the rules, loads the facts and runs the analysis —
// everything between "inputs exist" and "the first query can run".  The
// result cache is disabled: every closure of the workload is evaluated.
func loadClosure(in closureInput) (*closureSys, error) {
	prog, err := parser.Parse(in.Rules)
	if err != nil {
		return nil, err
	}
	prog.Facts = in.facts()
	sys, err := core.NewSystem(prog, core.Options{ResultCacheRows: -1})
	if err != nil {
		return nil, err
	}
	goal, err := parser.ParseAtom(in.Goal)
	if err != nil {
		return nil, err
	}
	if _, err := sys.Analyze(goal.Pred); err != nil {
		return nil, err
	}
	return &closureSys{in: in, sys: sys, goal: goal, ids: nodeIDs(sys.Engine.Syms)}, nil
}

// nodeIDs maps every interned constant "n<i>" back to i.
func nodeIDs(syms *rel.Symtab) []int32 {
	names := syms.Names()
	ids := make([]int32, len(names))
	for v, name := range names {
		ids[v] = -1
		if len(name) > 1 && name[0] == 'n' {
			if i, err := strconv.Atoi(name[1:]); err == nil {
				ids[v] = int32(i)
			}
		}
	}
	return ids
}

// relationSum reduces an engine answer to an answerSum over node ids.
func relationSum(r *rel.Relation, ids []int32) answerSum {
	var s answerSum
	r.Each(func(t rel.Tuple) { s.add(ids[t[0]], ids[t[1]]) })
	return s
}

// closure evaluates the program's full closure at the given worker count.
func (c *closureSys) closure(ctx context.Context, workers int) (*core.QueryResult, time.Duration, error) {
	start := time.Now()
	res, err := c.sys.Evaluate(ctx, core.QueryRequest{Goal: c.goal, Opts: core.Options{Workers: workers}})
	return res, time.Since(start), err
}

// check compares an answer with the oracle: always the count, and the
// checksum when full is set.
func (c *closureSys) check(out *outcome, res *core.QueryResult, workers int, full bool) {
	out.attempted++
	if got := res.Answer.Len(); got != c.in.Want.N {
		out.fail("%s at %d workers: %d tuples, oracle %d", c.in.Name, workers, got, c.in.Want.N)
	} else if full && relationSum(res.Answer, c.ids) != c.in.Want {
		out.fail("%s at %d workers: right count, wrong tuples", c.in.Name, workers)
	}
}

// checkNaive closes every program at a size the naive evaluator can
// handle and requires engine, naive evaluator and oracle to agree: the
// oracle is what full-size answers are held to, so it must itself be
// right about what the rules mean.
func checkNaive(seed int64, out *outcome) {
	for _, in := range genClosure(seed, closureTiny) {
		out.attempted++
		c, err := loadClosure(in)
		if err != nil {
			out.fail("naive check %s: %v", in.Name, err)
			continue
		}
		res, _, err := c.closure(context.Background(), 1)
		if err != nil {
			out.fail("naive check %s: %v", in.Name, err)
			continue
		}
		naive := sumOf(naiveEval(c.sys.Prog.Rules, in.EDB)[c.goal.Pred])
		if engine := relationSum(res.Answer, c.ids); engine != naive || in.Want != naive {
			out.fail("naive check %s: engine %+v, naive %+v, oracle %+v", in.Name, engine, naive, in.Want)
		}
	}
}

var closureWorkers = []int{1, 2}

// closureSetup generates the inputs, loads the four programs and closes
// each once at one worker, which fills the analysis and exit-rule seed
// caches and verifies the full checksum.  boot is the load part alone.
func closureSetup(cfg config, out *outcome) (progs []*closureSys, boot time.Duration) {
	sz := closureFull
	if cfg.quick {
		sz = closureQuick
	}
	inputs := genClosure(cfg.seed, sz)
	for _, in := range inputs {
		start := time.Now()
		c, err := loadClosure(in)
		boot += time.Since(start)
		if err != nil {
			out.fatal("closure_batch: loading %s: %v", in.Name, err)
			return nil, 0
		}
		progs = append(progs, c)
	}
	for _, c := range progs {
		res, _, err := c.closure(context.Background(), 1)
		if err != nil {
			out.fatal("closure_batch: warming %s: %v", c.in.Name, err)
			return nil, 0
		}
		c.check(out, res, 1, true)
	}
	return progs, boot
}

// closureLoad is the untraced closure_batch run: cycles of the four cold
// closures at 1 and 2 workers until the time is up.
func closureLoad(cfg config, seconds float64, setups int, out *outcome) {
	m := out.m
	checkNaive(cfg.seed, out)
	var progs []*closureSys
	var setupS, bootMS []float64
	for i := 0; i < setups; i++ {
		progs = nil
		runtime.GC()
		start := time.Now()
		var boot time.Duration
		progs, boot = closureSetup(cfg, out)
		if progs == nil {
			return
		}
		setupS = append(setupS, time.Since(start).Seconds())
		bootMS = append(bootMS, float64(boot)/1e6)
	}

	type key struct{ prog, workers int }
	times := map[key][]float64{}
	var allocBytes, allocTuples uint64
	ctx := context.Background()
	var ms runtime.MemStats
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		for _, w := range closureWorkers {
			for pi, c := range progs {
				// Each closure starts from a collected heap, so one
				// program's garbage is not billed to the next.
				runtime.GC()
				runtime.ReadMemStats(&ms)
				before := ms.TotalAlloc
				res, d, err := c.closure(ctx, w)
				if err != nil {
					out.attempted++
					out.fail("%s at %d workers: %v", c.in.Name, w, err)
					continue
				}
				runtime.ReadMemStats(&ms)
				if w == 1 {
					allocBytes += ms.TotalAlloc - before
					allocTuples += uint64(res.Answer.Len())
				}
				// The first cycle verifies the checksum at 2 workers too
				// (setup did 1); later cycles verify the count.
				c.check(out, res, w, cycle == 0 && w > 1)
				times[key{pi, w}] = append(times[key{pi, w}], float64(d))
			}
		}
	}

	var tuples float64
	sumMedian := map[int]float64{}
	n := 0
	for pi, c := range progs {
		tuples += float64(c.in.Want.N)
		for _, w := range closureWorkers {
			sumMedian[w] += median(times[key{pi, w}])
			n = len(times[key{pi, w}])
		}
	}
	m.set("closure_tuples_per_s_w1", tuples/(sumMedian[1]/1e9), n)
	m.set("closure_tuples_per_s_w2", tuples/(sumMedian[2]/1e9), n)
	m.set("closure_alloc_bytes_per_tuple", float64(allocBytes)/float64(allocTuples), n)

	m.set("setup_s", median(setupS), len(setupS))
	m.set("boot_ms", median(bootMS), len(bootMS))
	// Per-worker efficiency is the throughput; what a user with both cores
	// waits for one batch of the four closures is the latency.
	m.set("throughput_per_s", tuples/(sumMedian[1]/1e9), n)
	m.setDur("latency_p50_ms", sumMedian[2], n)
}

// closureTrace is the traced closure_batch run: two cycles through the
// staged driver with an eval.Tracer, the eval.<program>.* numbers from
// closures over a pre-built seed, and the rel/eval/planner probes.
func closureTrace(cfg config, out *outcome) *tracer {
	m := out.m
	progs, _ := closureSetup(cfg, out)
	if progs == nil {
		return nil
	}
	ctx := context.Background()

	// The same two cycles untraced, then traced: the difference is what
	// tracing costs.
	cycles := func(tr *tracer) time.Duration {
		start := time.Now()
		req := 0
		for cycle := 0; cycle < 2; cycle++ {
			for _, w := range closureWorkers {
				for _, c := range progs {
					req++
					tr.request(req)
					top := tr.begin("closure." + c.in.Name)
					qctx, etr := ctx, (*eval.Tracer)(nil)
					if tr != nil {
						etr = &eval.Tracer{}
						qctx = eval.WithTracer(ctx, etr)
					}
					p := tr.begin("planner.choose")
					_, err := c.sys.PlanFor(c.goal, core.Options{Workers: w})
					tr.end(p)
					e := tr.begin("core.evaluate_miss")
					var res *core.QueryResult
					if err == nil {
						res, err = c.sys.Evaluate(qctx, core.QueryRequest{Goal: c.goal, Opts: core.Options{Workers: w}})
					}
					tr.end(e)
					if err != nil {
						out.attempted++
						out.fail("traced %s: %v", c.in.Name, err)
					} else {
						tr.rows(e, res.Answer.Len())
						tr.addEval(e, etr.Trace())
						c.check(out, res, w, false)
					}
					tr.end(top)
				}
			}
		}
		return time.Since(start)
	}
	runtime.GC()
	untraced := cycles(nil)
	runtime.GC()
	tr := newTracer()
	traced := cycles(tr)
	setOverhead(m, untraced, traced)
	m.setDur("planner.choose_ns", median(tr.durations("planner.choose")), len(tr.durations("planner.choose")))
	m.setDur("core.evaluate_miss_us", median(tr.durations("core.evaluate_miss")), len(tr.durations("core.evaluate_miss")))

	kinds := map[planner.Kind]int{}
	var analyze []float64
	for _, c := range progs {
		for rep := 0; rep < 5; rep++ {
			start := time.Now()
			_, err := planner.Analyze(c.sys.Prog, c.goal.Pred)
			analyze = append(analyze, float64(time.Since(start)))
			if err != nil {
				out.fatal("planner.Analyze %s: %v", c.in.Name, err)
				return tr
			}
		}
		if err := closureEvalMetrics(ctx, c, m, kinds); err != nil {
			out.fatal("eval metrics %s: %v", c.in.Name, err)
			return tr
		}
	}
	m.setDur("planner.analyze_ms", median(analyze), len(analyze))
	setKinds(m, kinds)

	probeRel(m, progs[0])
	probeApply(m, progs[0])
	return tr
}

func setKinds(m metrics, kinds map[planner.Kind]int) {
	n := 0
	for _, c := range kinds {
		n += c
	}
	m.set("planner.kind_seminaive", float64(kinds[planner.SemiNaive]), n)
	m.set("planner.kind_decomposed", float64(kinds[planner.Decomposed]), n)
	m.set("planner.kind_separable", float64(kinds[planner.Separable]), n)
	m.set("planner.kind_magic", float64(kinds[planner.MagicSeeded]), n)
}

// closureEvalMetrics times the plan's closure over a pre-built seed —
// the eval layer alone, without core's planning, seed build or answer
// bookkeeping — and reads the paper's cost counts off the engine.
func closureEvalMetrics(ctx context.Context, c *closureSys, m metrics, kinds map[planner.Kind]int) error {
	a, err := c.sys.Analyze(c.goal.Pred)
	if err != nil {
		return err
	}
	db := c.sys.Snapshot().DB
	seed, err := a.Seed(c.sys.Engine, db)
	if err != nil {
		return err
	}
	const reps = 3
	name := "eval." + c.in.Name + "."
	med := map[int]float64{}
	for _, w := range closureWorkers {
		opts := planner.Options{Workers: w}
		plan := a.ChooseMulti(nil, opts)
		var times []float64
		var last *eval.Trace
		var stats eval.Stats
		for rep := 0; rep < reps; rep++ {
			etr := &eval.Tracer{}
			runtime.GC()
			start := time.Now()
			res, err := a.ExecuteSeeded(eval.WithTracer(ctx, etr), c.sys.Engine, db, plan, nil, opts, seed)
			times = append(times, float64(time.Since(start)))
			if err != nil {
				return err
			}
			if res.Answer.Len() != c.in.Want.N {
				return fmt.Errorf("closure over the seed has %d tuples, oracle %d", res.Answer.Len(), c.in.Want.N)
			}
			last, stats = etr.Trace(), res.Stats
		}
		med[w] = median(times)
		if w == 1 {
			kinds[plan.Kind]++
			m.set(name+"derivations", float64(stats.Derivations), 1)
			m.set(name+"duplicates", float64(stats.Duplicates), 1)
			m.set(name+"rounds", float64(stats.Iterations), 1)
			m.setDur(name+"closure_ms_w1", med[1], reps)
			m.set(name+"ns_per_derivation_w1", med[1]/float64(stats.Derivations), reps)
			continue
		}
		m.setDur(name+"closure_ms_w2", med[w], reps)
		m.set(name+"parallel_eff", med[1]/(float64(w)*med[w]), reps)
		// Over the rounds that were sharded: the slowest round, and how
		// uneven the shards were (largest ÷ mean emission count, weighted
		// by round size).
		var roundMax int64
		var maxRows, meanRows float64
		rounds := 0
		for _, p := range last.Phases {
			for _, r := range p.Rounds {
				rounds++
				if r.ElapsedUS > roundMax {
					roundMax = r.ElapsedUS
				}
				if len(r.ShardRows) > 0 {
					big, sum := 0, 0
					for _, s := range r.ShardRows {
						sum += s
						if s > big {
							big = s
						}
					}
					maxRows += float64(big)
					meanRows += float64(sum) / float64(len(r.ShardRows))
				}
			}
		}
		m.set(name+"round_ms_max", float64(roundMax)/1e3, rounds)
		m.set(name+"shard_imbalance", maxRows/meanRows, rounds)
	}
	return nil
}

// probeRel times the relation primitives the closure kernel is made of,
// over the tuples of the first program's closure.
func probeRel(m metrics, c *closureSys) {
	res, _, err := c.closure(context.Background(), 1)
	if err != nil {
		return
	}
	src := res.Answer
	n := src.Len()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heap := ms.HeapAlloc
	r := rel.NewRelation(2)
	start := time.Now()
	for i := 0; i < n; i++ {
		r.Insert(src.Row(i))
	}
	m.set("rel.insert_ns", float64(time.Since(start))/float64(n), n)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	m.set("rel.bytes_per_tuple", float64(ms.HeapAlloc-heap)/float64(n), n)

	start = time.Now()
	for i := 0; i < n; i++ {
		r.Insert(src.Row(i))
	}
	m.set("rel.insert_dup_ns", float64(time.Since(start))/float64(n), n)

	hits := 0
	start = time.Now()
	for i := 0; i < n; i++ {
		if r.Has(src.Row(i)) {
			hits++
		}
	}
	m.set("rel.has_ns", float64(time.Since(start))/float64(n), hits)

	start = time.Now()
	r.BuildIndex(1)
	m.setDur("rel.build_index_ms", float64(time.Since(start)), 1)

	probe := r.Prober(1)
	rows := 0
	start = time.Now()
	for i := 0; i < n; i++ {
		rows += len(probe(src.Row(i)[1]))
	}
	m.set("rel.probe_ns", float64(time.Since(start))/float64(n), n)
	runtime.KeepAlive(rows)
}

// probeApply times one application of one operator to one delta: the
// join kernel without the fixpoint around it.
func probeApply(m metrics, c *closureSys) {
	a, err := c.sys.Analyze(c.goal.Pred)
	if err != nil {
		return
	}
	db := c.sys.Snapshot().DB
	seed, err := a.Seed(c.sys.Engine, db)
	if err != nil {
		return
	}
	var per []float64
	var stats eval.Stats
	for rep := 0; rep < 5; rep++ {
		dst := rel.NewRelation(seed.Arity())
		stats = eval.Stats{}
		start := time.Now()
		c.sys.Engine.Apply(db, a.Ops[0], seed, dst, &stats)
		if stats.Derivations > 0 {
			per = append(per, float64(time.Since(start))/float64(stats.Derivations))
		}
	}
	m.set("eval.apply_ns_per_row", median(per), int(stats.Derivations))
}
