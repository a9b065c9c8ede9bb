// Command bench is linrec's performance ledger: four seeded workloads,
// each run untraced for the end-to-end metrics and traced for the
// per-layer ones, with every answer checked.  BENCHMARK.json at the
// repository root declares the metrics; README.md here explains them.
//
//	go run -C bench .                                  every workload, untraced then traced
//	go run -C bench . -workload serve_hot -trace 0     one untraced run
//	go run -C bench . -compare a.jsonl b.jsonl         judge two sets of -out records
//
// The last line of standard output is the JSON result of the last run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// config is what every workload gets: the seed its inputs come from, the
// size class, and where the repository and the scratch directory are.
type config struct {
	seed  int64
	quick bool
	root  string // repository root (holds go.mod and cmd/linrecd)
	work  string // <root>/.bench_build: binaries, data dirs, trace files
}

// outcome accumulates a run's verdicts and metrics.
type outcome struct {
	attempted, failed int64
	problems          []string
	m                 metrics
}

// fail records one operation that failed, was refused or answered wrong.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 10 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// fatal records a failure that ends the run (set-up could not complete).
func (o *outcome) fatal(format string, args ...any) {
	o.attempted++
	o.fail(format, args...)
}

// workload is one entry of the ledger.  load is the untraced run: it sets
// up `setups` times (the last instance is measured), drives the load for
// about `seconds` and verifies every answer.  trace replays a prefix of
// the same inputs in process with spans and runs the layer probes.
type workload struct {
	name  string
	why   string
	load  func(cfg config, seconds float64, setups int, out *outcome)
	trace func(cfg config, out *outcome) *tracer
}

var workloads = []workload{
	{
		name: "closure_batch",
		why:  "in-process cold full closures of four graph shapes at 1 and 2 workers: eval and rel do all the work, server, segment and caches none",
		load: closureLoad, trace: closureTrace,
	},
	{
		name: "serve_hot",
		why:  "linrecd child, closed loop of 2 clients over a pre-warmed Zipf goal pool: ~100% result-cache hits, so server, parser and core are the whole request and eval is idle",
		load: hotLoad, trace: hotTrace,
	},
	{
		name: "serve_churn",
		why:  "linrecd child on a data dir, open loop of uniform reads at a fixed rate with count-paced fact writes: miss-path evaluation, cache maintenance, segment publish and compaction compete",
		load: churnLoad, trace: churnTrace,
	},
	{
		name: "restart_scan",
		why:  "in-process boots of a 64-predicate on-disk database under a memory budget of a quarter of it, cold first queries, then every closure: segment mapping, index build and eviction do the work",
		load: restartLoad, trace: restartTrace,
	},
}

// setupRepeats is how many times an untraced run sets up; setup_s and
// boot_ms are medians over them.
const setupRepeats = 5

// record is one run as -out stores it and -compare reads it.
type record struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      int     `json:"trace"`
	Seconds    float64 `json:"seconds"`
	Comparable bool    `json:"comparable"` // false for -quick sizes
	Correct    bool    `json:"correct"`
	Attempted  int64   `json:"attempted"`
	Failed     int64   `json:"failed"`
	Metrics    metrics `json:"metrics"`
	Go         string  `json:"go"`
	NProc      int     `json:"nproc"`
	Commit     string  `json:"commit,omitempty"`
}

func main() {
	var (
		names    = flag.String("workload", "", "workloads to run, comma-separated (default: all)")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", runSeconds, "measured time of one untraced run")
		traceArg = flag.Int("trace", 2, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; 2: both")
		quick    = flag.Bool("quick", false, "small inputs for tests; results are marked non-comparable")
		outFile  = flag.String("out", "", "append each run's record to this file as a JSON line")
		describe = flag.Bool("describe", false, "print BENCHMARK.json as the metric tables here define it, and exit")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments instead of running")
		repeat   = flag.Int("repeat", 0, "with -compare: first run -base and -head N times each, alternating which goes first, into the two files")
		baseDir  = flag.String("base", "", "with -compare -repeat: checkout whose benchmark fills the first file")
		headDir  = flag.String("head", "", "with -compare -repeat: checkout whose benchmark fills the second file")
	)
	flag.Parse()
	if *describe {
		os.Stdout.Write(benchmarkJSON())
		return
	}
	if *compare {
		os.Exit(compareMain(flag.Args(), *repeat, *baseDir, *headDir, *names, *seed, *seconds))
	}

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	cfg := config{seed: *seed, quick: *quick, root: root, work: filepath.Join(root, ".bench_build")}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	selected, err := selectWorkloads(*names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}

	ok := true
	for _, w := range selected {
		for _, traced := range []int{0, 1} {
			if *traceArg != 2 && *traceArg != traced {
				continue
			}
			rec, problems := runOne(cfg, w, traced, *seconds)
			printRun(rec, problems)
			ok = ok && rec.Correct
			if *outFile != "" {
				if err := appendRecord(*outFile, rec); err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					os.Exit(2)
				}
			}
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne runs one workload traced or untraced and returns its record and
// the first few failures.
func runOne(cfg config, w workload, traced int, seconds float64) (record, []string) {
	out := &outcome{m: metrics{}}
	list := endToEnd
	if traced == 0 {
		w.load(cfg, seconds, setupRepeats, out)
	} else {
		list = perLayer
		// The traced run starts with a shorter load run, which gives the
		// workload-specific user-visible numbers their per-layer rows, and
		// then replays a prefix of the same inputs with spans.
		w.load(cfg, seconds/2, 1, out)
		if tr := w.trace(cfg, out); tr != nil {
			path := filepath.Join(cfg.work, "trace-"+w.name+".json")
			if err := tr.write(path, w.name, cfg.seed, out.m); err != nil {
				out.fatal("writing %s: %v", path, err)
			}
		}
		out.m.set("fail_ratio", float64(out.failed)/float64(max(out.attempted, 1)), int(out.attempted))
	}
	if out.attempted == 0 {
		out.fatal("%s attempted nothing", w.name)
	}

	// Exactly the declared list: a per-layer metric the workload does not
	// exercise reads 0 with n=0; a missing end-to-end metric is a failure.
	final := metrics{}
	for _, d := range list {
		s, have := out.m[d.Name]
		if !have {
			if traced == 0 {
				out.fatal("%s did not report %s", w.name, d.Name)
			}
			s = sample{Unit: d.Unit}
		}
		final[d.Name] = s
	}
	return record{
		Workload: w.name, Seed: cfg.seed, Trace: traced, Seconds: seconds, Comparable: !cfg.quick,
		Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: final,
		Go: runtime.Version(), NProc: runtime.NumCPU(), Commit: commitOf(cfg.root),
	}, out.problems
}

// printRun prints a run's metrics by name, with unit and sample count, and
// then the result line the driver reads.
func printRun(rec record, problems []string) {
	fmt.Printf("== %s seed=%d trace=%d: attempted %d, succeeded %d, failed %d\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Attempted, rec.Attempted-rec.Failed, rec.Failed)
	for _, p := range problems {
		fmt.Printf("  FAIL %s\n", p)
	}
	list := endToEnd
	if rec.Trace == 1 {
		list = perLayer
	}
	fmt.Print(metricTable(list, rec.Metrics))
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]value{}}
	for name, s := range rec.Metrics {
		line.Metrics[name] = value{s.Value, s.Unit}
	}
	b, _ := json.Marshal(line)
	fmt.Println(string(b))
}

// runSeconds is BENCHMARK.json's run_seconds: how long the driver's runs
// measure.  With set-up, checking and the traced replay a run stays near
// 30 s of wall time, which is what 4 + 22×4 runs in 3420 s allow.
const runSeconds = 20

// benchmarkJSON renders BENCHMARK.json from the tables in metrics.go and
// the workload list, the one place both are declared.
func benchmarkJSON() []byte {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string  `json:"command"`
		Paths      []string  `json:"paths"`
		RunSeconds int       `json:"run_seconds"`
		Workloads  []named   `json:"workloads"`
		EndToEnd   []bounded `json:"end_to_end"`
		PerLayer   []layer   `json:"per_layer"`
	}{Command: []string{"go", "run", "-C", "bench", "."}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, named{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, bounded{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, _ := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n')
}

func selectWorkloads(names string) ([]workload, error) {
	if names == "" {
		return workloads, nil
	}
	var out []workload
	for _, n := range strings.Split(names, ",") {
		found := false
		for _, w := range workloads {
			if w.name == n {
				out, found = append(out, w), true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
	}
	return out, nil
}

// findRoot walks up from the working directory to the linrec module: the
// benchmark builds linrecd from it and keeps its scratch files under it.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "linrecd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no linrec repository above the working directory")
		}
		dir = parent
	}
}

// commitOf names the commit for the record; empty outside a git checkout.
func commitOf(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// since returns the seconds elapsed from start, for set-up timing.
func since(start time.Time) float64 { return time.Since(start).Seconds() }
