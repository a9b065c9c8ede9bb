package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"linrec"
	"linrec/internal/core"
	"linrec/internal/eval"
	"linrec/internal/parser"
	"linrec/internal/rel"
	"linrec/internal/segment"
)

// restartSizes scales restart_scan.
type restartSizes struct {
	preds, nodes  int // independent TC predicates of nodes-1 edges each
	chained       int // predicates that carry delta links
	links         int // delta links on each of those
	edgesPerLink  int
	firstQueries  int // cold predicates queried right after each boot
	traceBoots    int // iterations of the traced run
	firstQueryTop int // the bound node is this shape node (a moderate subtree)
}

var (
	restartFull  = restartSizes{preds: 64, nodes: 2001, chained: 16, links: 3, edgesPerLink: 8, firstQueries: 16, traceBoots: 10, firstQueryTop: 5}
	restartQuick = restartSizes{preds: 8, nodes: 301, chained: 2, links: 3, edgesPerLink: 4, firstQueries: 4, traceBoots: 2, firstQueryTop: 3}
)

// restartInput is the published database: per predicate its named edges
// (delta links included) and what its closure and first query must be.
type restartInput struct {
	sz      restartSizes
	rules   string
	oracles []*forest
	closure []answerSum // full closure of path<i>
	first   []request   // the first bound query on predicate i
	dataset int64       // bytes of segment files under the data dir
}

// restartRules builds the independent left-linear TC programs path<i> over
// edge<i>: each closure touches exactly one on-disk predicate, so the
// working set the budget juggles is one probe index per queried predicate.
func restartRules(preds int) string {
	var b strings.Builder
	for i := 0; i < preds; i++ {
		fmt.Fprintf(&b, "path%d(X,Y) :- edge%d(X,Y).\npath%d(X,Y) :- path%d(X,U), edge%d(U,Y).\n", i, i, i, i, i)
	}
	return b.String()
}

// publishRestart writes the database restart_scan boots from: a full
// publish of every predicate, then — on a recovered system, whose stores
// are on-disk segments — `links` small additions to each chained
// predicate, which publish as delta links.
func publishRestart(cfg config, dir string) (*restartInput, error) {
	sz := restartFull
	if cfg.quick {
		sz = restartQuick
	}
	in := &restartInput{sz: sz, rules: restartRules(sz.preds)}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	prog, err := parser.Parse(in.rules)
	if err != nil {
		return nil, err
	}
	rules := *prog
	var labs [][]int32
	for i := 0; i < sz.preds; i++ {
		parent := randomTree(newRNG(shapeSeed, fmt.Sprintf("restart_%d", i)), sz.nodes)
		lab := perm(newRNG(cfg.seed, fmt.Sprintf("restart_names_%d", i)), sz.nodes)
		edges := named(newRNG(cfg.seed, fmt.Sprintf("restart_order_%d", i)), lab, treeEdges(parent))
		for _, e := range edges {
			prog.Facts = append(prog.Facts, factAtom(fmt.Sprintf("edge%d", i), e))
		}
		labs = append(labs, lab)
		in.oracles = append(in.oracles, newForest(edges))
		in.first = append(in.first, request{Kind: kindSelect, Pred: fmt.Sprintf("path%d", i), Desc: true, A: lab[sz.firstQueryTop]})
	}
	store, err := linrec.OpenStorage(dir)
	if err != nil {
		return nil, err
	}
	if _, err := linrec.NewSystem(prog, linrec.Options{Persist: store}); err != nil {
		return nil, err
	}
	if store, err = linrec.OpenStorage(dir); err != nil {
		return nil, err
	}
	sys, err := linrec.NewSystem(&rules, linrec.Options{Persist: store})
	if err != nil {
		return nil, err
	}
	r := newRNG(shapeSeed, "restart_links")
	next := int32(sz.nodes)
	for link := 0; link < sz.links; link++ {
		for i := 0; i < sz.chained; i++ {
			var facts []linrec.Atom
			for k := 0; k < sz.edgesPerLink; k++ {
				e := pair{labs[i][r.intn(sz.nodes)], next}
				next++
				facts = append(facts, factAtom(fmt.Sprintf("edge%d", i), e))
				in.oracles[i].add(e)
			}
			if _, _, err := sys.AddFacts(facts); err != nil {
				return nil, err
			}
		}
	}
	for _, f := range in.oracles {
		var s answerSum
		for v := range f.parent {
			for a, ok := f.parent[v]; ok; a, ok = f.parent[a] {
				s.add(a, v)
			}
		}
		in.closure = append(in.closure, s)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		if st, err := os.Stat(f); err == nil {
			in.dataset += st.Size()
		}
	}
	if in.dataset == 0 {
		return nil, fmt.Errorf("no segment files under %s", dir)
	}
	return in, nil
}

// restartIteration is one boot-query-scan-drop cycle.
type restartIteration struct {
	boot    time.Duration
	first   []float64 // ns per first query
	scan    time.Duration
	tuples  int
	stats   segment.Stats
	sys     *core.System
	manager *segment.Manager
}

// boot opens the published database under a memory budget of a quarter of
// it and builds the system on it.
func (in *restartInput) boot(dir string, tr *tracer, out *outcome) (it restartIteration, ok bool) {
	prog, err := parser.Parse(in.rules)
	if err != nil {
		out.fatal("restart_scan: %v", err)
		return it, false
	}
	start := time.Now()
	o := tr.begin("segment.open")
	store, err := linrec.OpenStorage(dir)
	tr.end(o)
	if err != nil {
		out.fatal("restart_scan: open: %v", err)
		return it, false
	}
	store.SetMemBudget(in.dataset / 4)
	n := tr.begin("core.new_system")
	sys, err := linrec.NewSystem(prog, linrec.Options{Persist: timedPersister{store, &tr}})
	tr.end(n)
	it.boot = time.Since(start)
	if err != nil {
		out.fatal("restart_scan: boot: %v", err)
		return it, false
	}
	it.sys, it.manager = sys, store
	return it, true
}

// iterate is one cycle: boot, the first bound query on `firstQueries` cold
// predicates (alternately a chained one and a plain one), then the full
// closure of every predicate at 2 workers.  Every answer is verified;
// verifySums adds the closure checksums to the counts.
func (in *restartInput) iterate(dir string, tr *tracer, id int, out *outcome, verifySums bool) (restartIteration, bool) {
	ctx := context.Background()
	tr.request(id)
	top := tr.begin("restart.iteration")
	defer tr.end(top)
	it, ok := in.boot(dir, tr, out)
	if !ok {
		return it, false
	}
	sys := it.sys
	ids := nodeIDs(sys.Engine.Syms)

	query := func(span, goalText string, workers int) (*core.QueryResult, time.Duration) {
		goal, err := parser.ParseAtom(goalText)
		if err != nil {
			out.fatal("%s: %v", goalText, err)
			return nil, 0
		}
		qctx, etr := ctx, (*eval.Tracer)(nil)
		if tr != nil {
			etr = &eval.Tracer{}
			qctx = eval.WithTracer(ctx, etr)
		}
		sp := tr.begin(span)
		t := time.Now()
		res, err := sys.Evaluate(qctx, linrec.NewQueryRequest(goal, linrec.WithWorkers(workers)))
		d := time.Since(t)
		tr.end(sp)
		if err != nil {
			out.fatal("%s: %v", goalText, err)
			return nil, 0
		}
		tr.rows(sp, res.Answer.Len())
		tr.addEval(sp, etr.Trace())
		return res, d
	}

	for k := 0; k < in.sz.firstQueries; k++ {
		i := k / 2
		if k%2 == 1 {
			i = in.sz.preds - 1 - k/2
		}
		res, d := query("request.first_query", in.first[i].goal(), 1)
		if res == nil {
			return it, false
		}
		it.first = append(it.first, float64(d))
		out.attempted++
		if got, want := relationSum(res.Answer, ids), in.oracles[i].expect(in.first[i]); got != want {
			out.fail("%s: answer %+v, oracle %+v", in.first[i].goal(), got, want)
		}
	}
	for i := 0; i < in.sz.preds; i++ {
		res, d := query("request.closure", fmt.Sprintf("path%d(X,Y)", i), 2)
		if res == nil {
			return it, false
		}
		it.scan += d
		it.tuples += res.Answer.Len()
		out.attempted++
		if got := res.Answer.Len(); got != in.closure[i].N {
			out.fail("path%d closure: %d tuples, oracle %d", i, got, in.closure[i].N)
		} else if verifySums && relationSum(res.Answer, ids) != in.closure[i] {
			out.fail("path%d closure: right count, wrong tuples", i)
		}
	}
	it.stats = it.manager.Stats()
	return it, true
}

// restartLoad is the untraced restart_scan run.
func restartLoad(cfg config, seconds float64, setups int, out *outcome) {
	m := out.m
	dir := filepath.Join(cfg.work, "restart_scan-data")
	defer os.RemoveAll(dir)
	var in *restartInput
	var setupS []float64
	for i := 0; i < setups; i++ {
		start := time.Now()
		var err error
		if in, err = publishRestart(cfg, dir); err != nil {
			out.fatal("restart_scan: publishing: %v", err)
			return
		}
		setupS = append(setupS, since(start))
	}

	var boots, first, rates []float64
	iters := 0
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for iters == 0 || time.Now().Before(deadline) {
		runtime.GC()
		it, ok := in.iterate(dir, nil, iters, out, iters == 0)
		if !ok {
			return
		}
		boots = append(boots, float64(it.boot))
		first = append(first, it.first...)
		rates = append(rates, float64(it.tuples)/it.scan.Seconds())
		iters++
	}
	// The median iteration, not Σ tuples ÷ Σ time: segment mappings are
	// never unmapped, so a process that has booted the database sixty times
	// scans it slower than one that just started, which no real restart is.
	m.setDur("first_query_ms", median(first), len(first))
	m.set("paged_tuples_per_s", median(rates), iters)

	m.set("setup_s", median(setupS), len(setupS))
	m.setDur("boot_ms", median(boots), len(boots))
	m.set("throughput_per_s", median(rates), iters)
	// What a user waits for after a restart: the boot, then the first
	// answer from a predicate nothing has touched yet.
	m.setDur("latency_p50_ms", median(boots)+median(first), len(first))
}

// restartTrace is the traced restart_scan run: the same iterations with
// spans, then the segment and layered-store probes on a fresh boot.
func restartTrace(cfg config, out *outcome) *tracer {
	m := out.m
	dir := filepath.Join(cfg.work, "restart_scan-trace-data")
	defer os.RemoveAll(dir)
	in, err := publishRestart(cfg, dir)
	if err != nil {
		out.fatal("restart_scan: publishing: %v", err)
		return nil
	}
	run := func(tr *tracer) (time.Duration, restartIteration) {
		var last restartIteration
		start := time.Now()
		for i := 0; i < in.sz.traceBoots; i++ {
			it, ok := in.iterate(dir, tr, i, out, false)
			if !ok {
				break
			}
			last = it
		}
		return time.Since(start), last
	}
	untraced, _ := run(nil)
	tr := newTracer()
	traced, last := run(tr)
	if last.sys == nil {
		return tr
	}
	setOverhead(m, untraced, traced)

	open, boot := tr.durations("segment.open"), tr.durations("segment.boot")
	for i := range open {
		if i < len(boot) {
			open[i] += boot[i]
		}
	}
	m.setDur("segment.boot_ms", median(open), len(open))
	setMedian(m, tr, "core.evaluate_miss_us", "request.first_query")
	st := last.stats
	m.set("segment.lazy_loads", float64(st.LazyLoads), 1)
	m.set("segment.evictions", float64(st.Evictions), 1)
	m.set("segment.evicted_bytes", float64(st.EvictedBytes), 1)
	m.set("segment.resident_peak_bytes", float64(st.ResidentPeakBytes), 1)
	m.set("segment.delta_links", float64(in.sz.chained*in.sz.links), 1)

	probeSegment(m, in, dir, out)
	return tr
}

// probeSegment times the store operations a cold query and a scan are
// made of, on freshly booted (never touched) stores.
func probeSegment(m metrics, in *restartInput, dir string, out *outcome) {
	it, ok := in.boot(dir, nil, out)
	if !ok {
		return
	}
	db := it.sys.Snapshot().DB
	var coldMap, firstProbe, warm, scan, d1, d3 []float64
	preds := make([]string, 0, len(db))
	for p := range db {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	for _, p := range preds {
		store := db[p]
		rows := store.Len()
		if ly, chained := store.(*rel.Layered); chained {
			// A recovered delta chain: probes consult every layer.
			if ly.Depth() == in.sz.links {
				d3 = append(d3, probeLookups(store, rows))
			}
			continue
		}
		start := time.Now()
		first := store.Row(0) // maps the file and verifies its checksum
		coldMap = append(coldMap, float64(time.Since(start)))
		start = time.Now()
		store.Lookup(0, first[0]) // builds the column index
		firstProbe = append(firstProbe, float64(time.Since(start)))
		warm = append(warm, probeLookups(store, rows))
		n := 0
		start = time.Now()
		store.Each(func(rel.Tuple) { n++ })
		scan = append(scan, float64(time.Since(start))/float64(max(n, 1)))
		// One overlay of a few tuples over the segment, as one write adds.
		adds := rel.NewRelation(2)
		adds.Insert(rel.Tuple{first[0], first[1] + 1})
		d1 = append(d1, probeLookups(rel.NewLayered(store, adds, nil), rows))
	}
	m.setDur("segment.cold_map_us", median(coldMap), len(coldMap))
	m.setDur("segment.first_probe_us", median(firstProbe), len(firstProbe))
	m.set("segment.warm_probe_ns", median(warm), len(warm))
	m.set("segment.scan_ns_per_row", median(scan), len(scan))
	m.set("rel.layered_probe_ns_d1", median(d1), len(d1))
	m.set("rel.layered_probe_ns_d3", median(d3), len(d3))
}

// probeLookups returns the ns per Lookup over the first column values of
// the store's own rows.
func probeLookups(store rel.Store, rows int) float64 {
	keys := make([]rel.Value, 0, rows)
	for i := 0; i < rows; i++ {
		keys = append(keys, store.Row(i)[0])
	}
	hits := 0
	start := time.Now()
	for _, k := range keys {
		hits += len(store.Lookup(0, k))
	}
	d := time.Since(start)
	runtime.KeepAlive(hits)
	return float64(d) / float64(max(len(keys), 1))
}
