package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"linrec/internal/parser"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{99, 0, false}, {100, 0.90, true}, {199, 0.90, true}, {200, 0.95, true},
		{999, 0.95, true}, {1000, 0.99, true}, {10000, 0.999, true}, {100000, 0.9999, true},
	} {
		q, ok := tailQuantile(c.n)
		if ok != c.ok || q != c.want {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.want, c.ok)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := quantile(xs, 0.5); got != 500 {
		t.Errorf("median of 1..1000 by nearest rank = %v, want 500", got)
	}
	if got := quantile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond)", got)
	}
	// 150 samples may name p90 but not p99: the request is lowered.
	if got := cappedQuantile(xs[:150], 0.99); got != 135 {
		t.Errorf("capped p99 of 150 samples = %v, want their p90 = 135", got)
	}
	if got := cappedQuantile(xs[:50], 0.99); got != 25 {
		t.Errorf("capped p99 of 50 samples = %v, want their median = 25", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// The acceptance rule is stated in Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}

func TestSchedule(t *testing.T) {
	for i := 0; i < 5000; i++ {
		if got, want := schedule(i, 1000), time.Duration(i)*time.Millisecond; got != want {
			t.Fatalf("tick %d at 1000/s due at %v, want %v", i, got, want)
		}
	}
	if schedule(7, 300) >= schedule(8, 300) {
		t.Error("schedule is not increasing")
	}
}

// A stalled server must delay, never drop, the ticks behind the stall, and
// the delay must show in latencies taken from the due time.
func TestOpenLoopCountsStallFromDueTime(t *testing.T) {
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/query" && served.Add(1) == 10 {
			time.Sleep(100 * time.Millisecond)
		}
		fmt.Fprint(w, `{"rows":[["n1","n2"]],"row_count":1,"snapshot_version":7,"elapsed_ms":0.5}`)
	}))
	defer srv.Close()
	reads := make([]request, 60)
	for i := range reads {
		reads[i] = request{Kind: kindSelect, Pred: "path", Desc: true, A: 1}
	}
	writes := []write{{Edges: []pair{{1, 2}}}, {Delete: true, Edges: []pair{{1, 2}}}}
	r, w := openLoop(srv.Listener.Addr().String(), 500, reads, writes, 20)
	if len(r) != len(reads) || len(w) != len(writes) {
		t.Fatalf("sent %d reads and %d writes, scheduled %d and %d", len(r), len(w), len(reads), len(writes))
	}
	for i, o := range r {
		if o.err != nil || o.reply.status != 200 || o.reply.sum.N != 1 || o.reply.version != 7 {
			t.Fatalf("read %d: %+v", i, o)
		}
	}
	// Tick 9 stalls 100 ms; tick 10 was due 2 ms after it and could not
	// start until the stall ended.
	if late := time.Duration(r[10].late); late < 80*time.Millisecond {
		t.Errorf("tick behind the stall started %v late, want ~98ms", late)
	}
	if lat := time.Duration(r[10].lat); lat < time.Duration(r[10].late) {
		t.Errorf("latency %v is not taken from the due time (late %v)", lat, time.Duration(r[10].late))
	}
	if late := time.Duration(r[59].late); late > 20*time.Millisecond {
		t.Errorf("generator never caught up: last tick %v late", late)
	}
}

func TestScanBody(t *testing.T) {
	var r reply
	scanBody([]byte(`{"rows":[["n5","n17"],["n5","n3"]],"row_count":2,"plan":"x","why":"σ[0] binds","snapshot_version":12,"cached":true,"elapsed_ms":1.25}`), &r)
	var want answerSum
	want.add(5, 17)
	want.add(5, 3)
	if r.sum != want || r.version != 12 || !r.cached || r.elapsedMS != 1.25 || r.head[1] != (pair{5, 3}) {
		t.Errorf("JSON body scanned as %+v", r)
	}
	r = reply{}
	scanBody([]byte("[\"n5\",\"n17\"]\n[\"n5\",\"n3\"]\n{\"done\":true,\"row_count\":2,\"snapshot_version\":3}\n"), &r)
	if r.sum != want || !r.done || r.version != 3 {
		t.Errorf("NDJSON body scanned as %+v", r)
	}
}

func TestNaiveEvaluator(t *testing.T) {
	prog, err := parser.Parse(tcRules)
	if err != nil {
		t.Fatal(err)
	}
	got := naiveEval(prog.Rules, map[string][]pair{"edge": {{0, 1}, {1, 2}, {2, 3}}})["path"]
	if len(got) != 6 || !got[pair{0, 3}] || got[pair{3, 0}] {
		t.Errorf("closure of a 4-chain = %v", got)
	}
	// Engine, naive evaluator and oracle agree on all four programs.
	out := &outcome{m: metrics{}}
	checkNaive(1, out)
	if out.failed != 0 {
		t.Error(out.problems)
	}
}

// inputDigest hashes every generated input of every workload.
func inputDigest(seed int64) [32]byte {
	h := sha256.New()
	for _, c := range genClosure(seed, closureQuick) {
		fmt.Fprintln(h, c.Name, c.Rules, c.Goal, c.facts())
	}
	in := genServe(seed, serveQuick)
	fmt.Fprint(h, in.program)
	pool := genHotPool(in)
	for _, q := range pool.goals {
		fmt.Fprintln(h, q.body(), q.Kind)
	}
	for cl := 0; cl < 2; cl++ {
		pick := pool.picker(seed, cl)
		for i := 0; i < 500; i++ {
			fmt.Fprintln(h, pick())
		}
	}
	churn := genChurn(in, 2)
	for _, q := range churn.reads {
		fmt.Fprintln(h, q.body())
	}
	for _, w := range churn.writes {
		fmt.Fprintln(h, w.Delete, w.body())
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	if inputDigest(1) != inputDigest(1) {
		t.Error("same seed, different inputs")
	}
	if inputDigest(1) == inputDigest(2) {
		t.Error("different seeds, same inputs")
	}
}

func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	file, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from `go run -C bench . -describe`; regenerate it")
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(file, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if len(doc.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, limit 128", len(doc.PerLayer))
	}
}

// quickConfig runs a workload at test sizes in a scratch directory.
func quickConfig(t *testing.T, seed int64) config {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	return config{seed: seed, quick: true, root: root, work: t.TempDir()}
}

// Every workload, untraced and traced, must answer correctly and emit
// exactly the declared metrics, each with its declared unit.
func TestEveryWorkloadEmitsTheDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("starts linrecd children")
	}
	cfg := quickConfig(t, 1)
	for _, w := range workloads {
		for traced, list := range [][]metricDef{endToEnd, perLayer} {
			rec, problems := runOne(cfg, w, traced, 1)
			if !rec.Correct || rec.Comparable {
				t.Errorf("%s trace=%d: correct=%v comparable=%v %v", w.name, traced, rec.Correct, rec.Comparable, problems)
			}
			if len(rec.Metrics) != len(list) {
				t.Errorf("%s trace=%d: %d metrics, %d declared", w.name, traced, len(rec.Metrics), len(list))
			}
			for _, d := range list {
				s, ok := rec.Metrics[d.Name]
				if !ok || s.Unit != d.Unit {
					t.Errorf("%s trace=%d: %s = %+v, want unit %q", w.name, traced, d.Name, s, d.Unit)
				}
				if traced == 0 && !(s.Value > 0) {
					t.Errorf("%s: end-to-end %s = %v, must never be 0", w.name, d.Name, s.Value)
				}
			}
		}
	}
}

// The '#' counters are the only per-layer numbers a later claim may rest
// on, so they must be a function of the seed alone.
func TestExactCountersRepeat(t *testing.T) {
	counters := func() map[string]float64 {
		out := map[string]float64{}
		for _, w := range workloads {
			o := &outcome{m: metrics{}}
			w.trace(quickConfig(t, 1), o)
			if o.failed != 0 {
				t.Fatalf("%s: %v", w.name, o.problems)
			}
			for _, d := range perLayer {
				if s, ok := o.m[d.Name]; ok && d.Exact {
					out[w.name+"/"+d.Name] = s.Value
				}
			}
		}
		return out
	}
	a, b := counters(), counters()
	if len(a) < 20 {
		t.Errorf("only %d exact counters reported", len(a))
	}
	for k, v := range a {
		if b[k] != v {
			t.Errorf("%s: %v then %v", k, v, b[k])
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_per_s", Better: "higher", Bound: 0.10}
	steady := func(center float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = center * (1 + 0.002*float64(i-5))
		}
		return out
	}
	for _, c := range []struct {
		d          metricDef
		base, head []float64
		want       string
	}{
		{lower, steady(100), steady(100.5), "unchanged"},
		{lower, steady(100), steady(115), "worse"},
		{lower, steady(100), steady(90), "better"},
		{higher, steady(100), steady(85), "worse"},
		{higher, steady(100), steady(108), "better"},
		{lower, []float64{80, 100, 120, 90, 130, 70, 100, 110, 95, 105}, steady(100), "unresolved"},
	} {
		if got := judge(c.d, c.base, c.head); got.verdict != c.want {
			t.Errorf("%s %v → %v: %s, want %s (%+v)", c.d.Name, c.base[0], c.head[0], got.verdict, c.want, got)
		}
	}
	if j := judge(lower, steady(100), steady(100)); math.Abs(j.head/j.base-1) > 1e-9 {
		t.Errorf("identical sides: ratio %v", j.head/j.base)
	}
}
