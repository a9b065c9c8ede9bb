package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"linrec"
	"linrec/internal/parser"
	"linrec/internal/rel"
	"linrec/internal/server"
)

// serveSizes scales the two serve workloads.
type serveSizes struct {
	nodes int // tree nodes; edges = nodes-1
	// Sub-pool sizes of serve_hot's pre-warmed goal pool (4096 in all).
	selects, points, limits, streams int
	// streamMin..streamMax bounds the answer size of a streamed goal.
	streamMin, streamMax int
	// churnRate is serve_churn's fixed read rate per second; one write is
	// due per churnWriteEvery reads.
	churnRate       float64
	churnWriteEvery int
	churnWarm       int // warm-up reads before the schedule starts
}

var (
	serveFull  = serveSizes{nodes: 60001, selects: 3072, points: 448, limits: 512, streams: 64, streamMin: 1000, streamMax: 8000, churnRate: 300, churnWriteEvery: 60, churnWarm: 200}
	serveQuick = serveSizes{nodes: 3001, selects: 96, points: 16, limits: 16, streams: 4, streamMin: 50, streamMax: 400, churnRate: 200, churnWriteEvery: 25, churnWarm: 20}
)

func (cfg config) serveSizes() serveSizes {
	if cfg.quick {
		return serveQuick
	}
	return serveFull
}

// serveInput is what both serve workloads share: the tree, the program
// file text linrecd loads, and the named edges the oracle starts from.
type serveInput struct {
	sz      serveSizes
	lab     []int32 // shape node → name
	edges   []pair  // named, in program-file order
	program string
	// small and big are the shape nodes whose descendant count is below,
	// or within, the streamed answer bounds.
	small, big []int32
}

func genServe(seed int64, sz serveSizes) serveInput {
	parent := randomTree(newRNG(shapeSeed, "serve_tree"), sz.nodes)
	in := serveInput{sz: sz, lab: perm(newRNG(seed, "serve_names"), sz.nodes)}
	in.edges = named(newRNG(seed, "serve_order"), in.lab, treeEdges(parent))
	var b strings.Builder
	b.WriteString(serveRules)
	for _, e := range in.edges {
		b.WriteString(factText("edge", e))
		b.WriteByte('\n')
	}
	in.program = b.String()
	size := make([]int, sz.nodes) // descendants; children have higher ids
	for v := sz.nodes - 1; v > 0; v-- {
		size[parent[v]] += size[v] + 1
	}
	for v, s := range size {
		switch {
		case s < sz.streamMin:
			in.small = append(in.small, int32(v))
		case s <= sz.streamMax:
			in.big = append(in.big, int32(v))
		}
	}
	return in
}

// goal draws one request of the given kind in shape space and names it.
// Buffered answers bind nodes with small subtrees; the large ones are
// what streams are for.
func (in serveInput) goal(r *rng, kind int) request {
	q := genGoal(r, kind, in.small)
	if kind == kindStream {
		q.A = in.big[r.intn(len(in.big))]
	}
	q.A, q.B = in.lab[q.A], in.lab[q.B]
	return q
}

// hotPool is serve_hot's goal pool: four sub-pools by request kind, laid
// out one after the other, each sampled by its own Zipf(1.1).
type hotPool struct {
	goals []request
	first [4]int // first index of each kind's sub-pool
	count [4]int
}

func genHotPool(in serveInput) hotPool {
	r := newRNG(shapeSeed, "hot_pool")
	p := hotPool{count: [4]int{in.sz.selects, in.sz.points, in.sz.limits, in.sz.streams}}
	for kind, n := range p.count {
		p.first[kind] = len(p.goals)
		for i := 0; i < n; i++ {
			p.goals = append(p.goals, in.goal(r, kind))
		}
	}
	return p
}

// picker returns the deterministic request sequence of one client: a kind
// by the 70/10/10/10 mix, then a Zipf rank within that kind's sub-pool.
func (p hotPool) picker(seed int64, client int) func() int {
	r := newRNG(seed, fmt.Sprintf("hot_client_%d", client))
	var z [4]*zipf
	for kind, n := range p.count {
		z[kind] = newZipf(n, 1.1)
	}
	return func() int {
		kind := kindOf(r.intn(100), true)
		return p.first[kind] + z[kind].sample(r)
	}
}

// checkReply verifies one read against the oracle's edges at the version
// the reply reports.  It counts the attempt.
func checkReply(out *outcome, f *forest, q request, o obs) {
	out.attempted++
	switch {
	case o.err != nil:
		out.fail("%s: %v", q.goal(), o.err)
		return
	case o.reply.status != http.StatusOK:
		// Shed (429/503) or failed: attempted and missed.
		out.fail("%s: HTTP %d", q.goal(), o.reply.status)
		return
	}
	want := f.expect(q)
	got := o.reply.sum
	switch q.Kind {
	case kindLimit:
		if got.N != min(want.N, 10) {
			out.fail("%s limit 10: %d rows of %d", q.goal(), got.N, want.N)
			return
		}
		for _, row := range o.reply.head[:got.N] {
			if !f.contains(q, row[0], row[1]) {
				out.fail("%s limit 10: row %v is not in the answer", q.goal(), row)
				return
			}
		}
	case kindStream:
		if !o.reply.done || got != want {
			out.fail("%s stream: done=%v answer %+v, oracle %+v", q.goal(), o.reply.done, got, want)
		}
	default:
		if got != want {
			out.fail("%s at version %d: answer %+v, oracle %+v", q.goal(), o.reply.version, got, want)
		}
	}
}

func isRead(k int) bool { return k == kindSelect || k == kindPoint }

// healthzFloor measures the HTTP round-trip floor against a child.
func healthzFloor(addr string, m metrics) {
	c := newConn(addr)
	defer c.close()
	var rtt []float64
	for i := 0; i < 300; i++ {
		t := time.Now()
		if r, err := c.do(http.MethodGet, "/healthz", ""); err == nil && r.status == http.StatusOK {
			rtt = append(rtt, float64(time.Since(t)))
		}
	}
	m.setDur("server.healthz_rtt_us", median(rtt), len(rtt))
}

// hotLoad is the untraced serve_hot run.
func hotLoad(cfg config, seconds float64, setups int, out *outcome) {
	m := out.m
	in := genServe(cfg.seed, cfg.serveSizes())
	pool := genHotPool(in)
	oracle := newForest(in.edges)
	progFile := filepath.Join(cfg.work, "serve_hot.dl")
	if _, err := buildLinrecd(cfg); err != nil {
		out.fatal("%v", err)
		return
	}

	var ch *child
	defer func() { ch.kill() }()
	var setupS, bootMS []float64
	for i := 0; i < setups; i++ {
		ch.kill()
		start := time.Now()
		if err := os.WriteFile(progFile, []byte(in.program), 0o644); err != nil {
			out.fatal("%v", err)
			return
		}
		var err error
		if ch, err = startChild(cfg, "serve_hot", "-program", progFile, "-workers", "2"); err != nil {
			out.fatal("serve_hot: %v", err)
			return
		}
		// Pre-warm: every pool goal's full answer, once, so that every
		// measured request (limits and streams included) is a cache hit.
		c := newConn(ch.addr)
		for _, q := range pool.goals {
			full := q
			if q.Kind != kindPoint {
				full.Kind = kindSelect
			}
			r, err := c.query(full)
			checkReply(out, oracle, full, obs{reply: r, err: err})
		}
		c.close()
		setupS = append(setupS, since(start))
		bootMS = append(bootMS, float64(ch.boot)/1e6)
	}
	healthzFloor(ch.addr, m)

	all := closedLoop(ch.addr, 2, seconds, pool.goals, func(cl int) func() int { return pool.picker(cfg.seed, cl) })
	rss := ch.rssPeakMB()
	ch.kill()
	ch = nil

	cached := 0
	var correct []obs
	for _, o := range all {
		q := pool.goals[o.idx]
		before := out.failed
		checkReply(out, oracle, q, o)
		if out.failed == before {
			correct = append(correct, o)
			if o.reply.version != 1 {
				out.fail("%s answered at version %d of a database that never changed", q.goal(), o.reply.version)
			}
			if o.reply.cached {
				cached++
			}
		}
	}
	reads := latencies(all, func(o obs) bool { return isRead(pool.goals[o.idx].Kind) })
	// Correct responses per second: the median half-second window.
	qps, windows := windowRate(correct, 500*time.Millisecond)
	m.set("qps", qps, windows)
	m.setDur("read_p50_ms", quantile(reads, 0.5), len(reads))
	m.setDur("read_p99_ms", cappedQuantile(reads, 0.99), len(reads))
	m.set("core.result_hit_ratio", float64(cached)/float64(max(len(correct), 1)), len(correct))
	m.set("bench.server_rss_peak_mb", rss, 1)

	m.set("setup_s", median(setupS), len(setupS))
	m.set("boot_ms", median(bootMS), len(bootMS))
	m.set("throughput_per_s", qps, windows)
	m.setDur("latency_p50_ms", quantile(reads, 0.5), len(reads))
}

// churnInput is serve_churn's schedule: the reads in tick order and the
// writes in due order.
type churnInput struct {
	reads  []request
	writes []write
}

func genChurn(in serveInput, seconds float64) churnInput {
	n := int(in.sz.churnRate * seconds)
	r := newRNG(shapeSeed, "churn_reads")
	c := churnInput{writes: genWrites(newRNG(shapeSeed, "churn_writes"), n/in.sz.churnWriteEvery, in.lab)}
	for i := 0; i < n; i++ {
		c.reads = append(c.reads, in.goal(r, kindOf(r.intn(100), false)))
	}
	return c
}

// applyWrite moves the oracle across one acknowledged write.
func applyWrite(f *forest, w write) {
	for _, e := range w.Edges {
		if w.Delete {
			f.remove(e)
		} else {
			f.add(e)
		}
	}
}

// churnLoad is the untraced serve_churn run.
func churnLoad(cfg config, seconds float64, setups int, out *outcome) {
	m := out.m
	in := genServe(cfg.seed, cfg.serveSizes())
	load := genChurn(in, seconds)
	progFile := filepath.Join(cfg.work, "serve_churn.dl")
	dataDir := filepath.Join(cfg.work, "serve_churn-data")
	if _, err := buildLinrecd(cfg); err != nil {
		out.fatal("%v", err)
		return
	}
	defer os.RemoveAll(dataDir)
	args := []string{"-program", progFile, "-data-dir", dataDir, "-compact-every", "2s", "-workers", "2"}

	var ch *child
	defer func() { ch.kill() }()
	var setupS, bootMS []float64
	for i := 0; i < setups; i++ {
		ch.kill()
		start := time.Now()
		if err := os.RemoveAll(dataDir); err != nil {
			out.fatal("%v", err)
			return
		}
		if err := os.WriteFile(progFile, []byte(in.program), 0o644); err != nil {
			out.fatal("%v", err)
			return
		}
		// First start loads the program and publishes the initial
		// snapshot; the measured server is a restart that recovers it, as
		// any server past its first day is: its relations are on-disk
		// segments, so writes chain deltas instead of rewriting them.
		var err error
		if ch, err = startChild(cfg, "serve_churn", args...); err != nil {
			out.fatal("serve_churn: %v", err)
			return
		}
		ch.kill()
		if ch, err = startChild(cfg, "serve_churn", args...); err != nil {
			out.fatal("serve_churn: %v", err)
			return
		}
		c := newConn(ch.addr)
		warm := newRNG(shapeSeed, "churn_warm")
		oracle := newForest(in.edges)
		for k := 0; k < in.sz.churnWarm; k++ {
			q := in.goal(warm, kindSelect)
			r, err := c.query(q)
			checkReply(out, oracle, q, obs{reply: r, err: err})
		}
		c.close()
		setupS = append(setupS, since(start))
		bootMS = append(bootMS, float64(ch.boot)/1e6)
	}
	healthzFloor(ch.addr, m)
	before, err := fetchStats(ch.addr)
	if err != nil {
		out.fatal("serve_churn: %v", err)
		return
	}

	started := time.Now()
	reads, writes := openLoop(ch.addr, in.sz.churnRate, load.reads, load.writes, in.sz.churnWriteEvery)
	elapsed := time.Since(started)

	after, err := fetchStats(ch.addr)
	if err != nil {
		out.fatal("serve_churn: %v", err)
		return
	}
	rss := ch.rssPeakMB()
	// SIGKILL after the last ack: what the reopen below finds is what was
	// durable when each write was acknowledged.
	ch.kill()
	ch = nil

	// Writes: each acknowledged one must have advanced the version by one.
	oracle := newForest(in.edges)
	version := before.SnapshotVersion
	type acked struct {
		version uint64
		w       write
	}
	var acks []acked
	var factBytes, factCount float64
	for _, o := range writes {
		out.attempted++
		w := load.writes[o.idx]
		switch {
		case o.err != nil:
			out.fail("write %d: %v", o.idx, o.err)
		case o.reply.status != http.StatusOK:
			out.fail("write %d: HTTP %d", o.idx, o.reply.status)
		case o.reply.version != version+1:
			out.fail("write %d acknowledged version %d after %d", o.idx, o.reply.version, version)
			version = o.reply.version
		default:
			version++
			acks = append(acks, acked{version, w})
			factBytes += float64(len(w.facts()))
			factCount += float64(len(w.Edges))
		}
	}

	// Reads, in version order, against the oracle moved to that version.
	order := make([]int, len(reads))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return reads[order[a]].reply.version < reads[order[b]].reply.version })
	next := 0
	var waits []float64
	floor := m["server.healthz_rtt_us"].Value / 1e3 // ms
	for _, i := range order {
		o := reads[i]
		for next < len(acks) && acks[next].version <= o.reply.version {
			applyWrite(oracle, acks[next].w)
			next++
		}
		checkReply(out, oracle, load.reads[o.idx], o)
		if o.err == nil && o.reply.status == http.StatusOK {
			// What the request spent in the server that was neither
			// evaluation nor the HTTP floor: admission wait, decode, encode.
			waits = append(waits, max(0, float64(o.lat-o.late)/1e6-o.reply.elapsedMS-floor))
		}
	}
	for ; next < len(acks); next++ {
		applyWrite(oracle, acks[next].w)
	}
	checkDurable(out, dataDir, oracle, version)

	readLat := latencies(reads, func(o obs) bool { return isRead(load.reads[o.idx].Kind) })
	writeLat := latencies(writes, func(o obs) bool { return true })
	late := make([]float64, 0, len(reads))
	for _, o := range reads {
		late = append(late, float64(o.late))
	}
	sort.Float64s(late)
	m.setDur("read_p50_ms", quantile(readLat, 0.5), len(readLat))
	m.setDur("read_p99_ms", cappedQuantile(readLat, 0.99), len(readLat))
	m.setDur("write_p50_ms", quantile(writeLat, 0.5), len(writeLat))
	m.setDur("bench.write_p95_ms", cappedQuantile(writeLat, 0.95), len(writeLat))
	m.setDur("bench.gen_late_p99_ms", cappedQuantile(late, 0.99), len(late))
	offered := in.sz.churnRate
	m.set("bench.achieved_over_offered", float64(len(reads))/elapsed.Seconds()/offered, len(reads))
	m.set("bench.server_rss_peak_mb", rss, 1)
	m.set("server.shed", float64(after.Shed429+after.Shed503-before.Shed429-before.Shed503), len(reads))
	m.set("server.queue_wait_ms", median(waits), len(waits))
	if after.Persist != nil && before.Persist != nil && factBytes > 0 {
		m.set("write_amp", float64(after.Persist.BytesWritten-before.Persist.BytesWritten)/factBytes, len(acks))
	}

	m.set("setup_s", median(setupS), len(setupS))
	m.set("boot_ms", median(bootMS), len(bootMS))
	// The reads arrive at a fixed rate whatever the server does; what the
	// server decides is how fast the one writer gets its facts in: facts
	// per acknowledged write over the median time to the acknowledgement.
	m.set("throughput_per_s", factCount/float64(max(len(acks), 1))/(quantile(writeLat, 0.5)/1e9), len(acks))
	m.setDur("latency_p50_ms", quantile(readLat, 0.5), len(readLat))
}

func fetchStats(addr string) (server.StatsReport, error) {
	var rep server.StatsReport
	resp, err := http.Get("http://" + addr + "/v1/stats")
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	return rep, json.NewDecoder(resp.Body).Decode(&rep)
}

// checkDurable reopens the killed server's data directory in process: the
// recovered snapshot must be the last acknowledged version and hold every
// acknowledged add that was not retracted and no acknowledged retraction.
func checkDurable(out *outcome, dataDir string, oracle *forest, version uint64) {
	out.attempted++
	store, err := linrec.OpenStorage(dataDir)
	if err != nil {
		out.fail("reopen: %v", err)
		return
	}
	prog, err := parser.Parse(serveRules)
	if err != nil {
		out.fail("reopen: %v", err)
		return
	}
	sys, err := linrec.NewSystem(prog, linrec.Options{Persist: store})
	if err != nil {
		out.fail("reopen: %v", err)
		return
	}
	snap := sys.Snapshot()
	if snap.Version != version {
		out.fail("reopen: recovered version %d, last acknowledged %d", snap.Version, version)
	}
	edges := snap.DB.Probe("edge")
	ids := nodeIDs(sys.Engine.Syms)
	got := answerSum{}
	edges.Each(func(t rel.Tuple) { got.add(ids[t[0]], ids[t[1]]) })
	want := answerSum{}
	for c, p := range oracle.parent {
		want.add(p, c)
	}
	if got != want {
		out.fail("reopen: recovered edges %+v, acknowledged state %+v", got, want)
	}
}
