// Command linrecd is the linrec query server: it loads a Datalog program
// once, keeps the compiled analyses and plans warm, and serves
// linear-recursion queries to many concurrent clients over HTTP+JSON.
//
//	linrecd -program examples/server/paths.dl -addr 127.0.0.1:8080
//	linrecd -gen tree:240001 -workers 8        # synthetic 240k-edge TC workload
//	linrecd -program p.dl -data-dir /var/lib/linrec  # durable snapshots, recovered on restart
//
// Endpoints:
//
//	POST /v1/query  {"query":"path(a,Y)","timeout_ms":1000,"workers":2}
//	POST /v1/facts  {"facts":"edge(c,d). edge(d,e)."}   (snapshot swap)
//	GET  /v1/stats
//	GET  /healthz
//
// Facts pushed while queries are in flight swap in atomically
// (copy-on-write snapshots); per-query timeouts cancel the engine's
// closure rounds; a global worker budget with a bounded admission queue
// sheds overload with 429/503.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"linrec/internal/core"
	"linrec/internal/parser"
	"linrec/internal/segment"
	"linrec/internal/server"
	"linrec/internal/workload"
)

// genProgram is the rule set of the synthetic -gen workload: transitive
// closure with a commuting left/right-linear pair, so selection queries
// run the paper's separable algorithm instead of a full closure.
const genProgram = `
path(X,Y) :- edge(X,Y).
path(X,Y) :- path(X,U), edge(U,Y).
path(X,Y) :- edge(X,U), path(U,Y).
`

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		program      = flag.String("program", "", "Datalog program file (rules + facts)")
		gen          = flag.String("gen", "", "synthetic workload instead of -program: tree:<nodes>[:seed] generates a random recursive tree under 'edge' with transitive-closure rules over 'path'")
		workers      = flag.Int("workers", 0, "global closure-worker budget (0 = GOMAXPROCS)")
		queryWorkers = flag.Int("query-workers", 1, "default per-query worker grant")
		queue        = flag.Int("queue", 0, "admission queue bound (0 = 4x workers)")
		timeout      = flag.Duration("timeout", 30*time.Second, "default per-query timeout")
		maxTimeout   = flag.Duration("max-timeout", 120*time.Second, "cap on requested per-query timeouts")
		maxRows      = flag.Int("max-rows", 1_000_000, "reject answers larger than this with 413 (0 = unlimited)")
		cacheRows    = flag.Int("cache-rows", 0, "goal-level result cache capacity in total cached answer rows (0 = engine default, negative disables)")
		dataDir      = flag.String("data-dir", "", "durable storage directory: snapshots persist as on-disk segments and the newest one is recovered at boot instead of reloading -program facts")
		memBudget    = flag.String("mem-budget", "", "out-of-core mode (requires -data-dir): cap heap spent on segment probe indexes at this many bytes (suffixes k/m/g), evicting cold segments back to mmap-only so the database may exceed resident memory")
		compactEvery = flag.Duration("compact-every", 30*time.Second, "background compaction interval for on-disk delta chains (requires -data-dir; 0 disables)")
		portFile     = flag.String("port-file", "", "write the bound listen address to this file (for scripts wrapping -addr :0)")
		withPprof    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (CPU, heap, goroutine profiles)")
		slowQueryMS  = flag.Int64("slow-query-ms", 0, "log the full trace of any query slower than this many milliseconds (0 = off)")
	)
	flag.Parse()

	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	budgetBytes, err := parseSize(*memBudget)
	if err != nil {
		fmt.Fprintf(os.Stderr, "linrecd: -mem-budget: %v\n", err)
		os.Exit(1)
	}
	if budgetBytes > 0 && *dataDir == "" {
		fmt.Fprintf(os.Stderr, "linrecd: -mem-budget requires -data-dir\n")
		os.Exit(1)
	}
	sys, desc, mgr, err := loadSystem(*program, *gen, *dataDir, *cacheRows, budgetBytes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "linrecd: %v\n", err)
		os.Exit(1)
	}
	if mgr != nil {
		st := mgr.Stats()
		log.Info("durable storage attached", "dir", mgr.Dir(),
			"recovered", st.Recovered, "generation", st.Generation,
			"snapshot_version", st.SnapshotVersion,
			"preds", st.RecoveredPreds, "rows", st.RecoveredRows,
			"boot_ms", st.BootMillis, "mem_budget", budgetBytes)
		if *compactEvery > 0 {
			stopCompactor := mgr.StartCompactor(*compactEvery)
			defer stopCompactor()
		}
	}

	srv := server.New(server.Config{
		System:         sys,
		Persist:        mgr,
		TotalWorkers:   *workers,
		QueryWorkers:   *queryWorkers,
		MaxQueue:       *queue,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxRows:        *maxRows,
		Logger:         log,
		SlowQuery:      time.Duration(*slowQueryMS) * time.Millisecond,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "linrecd: listen %s: %v\n", *addr, err)
		os.Exit(1)
	}
	bound := ln.Addr().String()
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(bound+"\n"), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "linrecd: port file: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Printf("linrecd: serving %s on http://%s\n", desc, bound)

	handler := srv.Handler()
	if *withPprof {
		// Opt-in only: the profiling endpoints expose stacks and heap
		// contents, so they never mount by default.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		log.Info("pprof enabled", "path", "/debug/pprof/")
	}

	hs := &http.Server{
		Handler: handler,
		// Slow or stalled clients must not pin server resources: header
		// and body reads are bounded, idle keep-alives are reaped.  No
		// WriteTimeout — large streamed answers may take a while, and the
		// worker budget is released before serialization starts.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "linrecd: %v\n", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		fmt.Println("linrecd: shutting down")
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(shCtx)
	}
}

// loadSystem builds the served System from -program or -gen.  With a
// data directory the system runs on durable segment storage: the newest
// published snapshot is recovered when one exists (the -program facts
// and -gen generation are skipped — the disk is the source of truth),
// otherwise the initial snapshot is published before serving starts.
func loadSystem(program, gen, dataDir string, cacheRows int, budgetBytes int64) (*core.System, string, *segment.Manager, error) {
	opts := core.Options{ResultCacheRows: cacheRows}
	var mgr *segment.Manager
	if dataDir != "" {
		var err error
		if mgr, err = segment.Open(dataDir); err != nil {
			return nil, "", nil, err
		}
		// The budget must attach before Boot: recovery hands it to every
		// lazy store, which charges its probe artifacts to it.
		mgr.SetMemBudget(budgetBytes)
	}
	switch {
	case program != "" && gen != "":
		return nil, "", nil, fmt.Errorf("-program and -gen are mutually exclusive")
	case program != "":
		src, err := os.ReadFile(program)
		if err != nil {
			return nil, "", nil, err
		}
		if mgr != nil {
			opts.Persist = mgr
		}
		prog, err := parser.Parse(string(src))
		if err != nil {
			return nil, "", nil, fmt.Errorf("%s: %w", program, err)
		}
		sys, err := core.NewSystem(prog, opts)
		if err != nil {
			return nil, "", nil, fmt.Errorf("%s: %w", program, err)
		}
		return sys, program, mgr, nil
	case gen != "":
		nodes, seed, err := parseGen(gen)
		if err != nil {
			return nil, "", nil, err
		}
		desc := fmt.Sprintf("synthetic tree TC (%d edges)", nodes-1)
		prog, err := parser.Parse(genProgram)
		if err != nil {
			return nil, "", nil, err
		}
		if mgr != nil && mgr.HasSnapshot() {
			// A previous run already generated and published the workload:
			// recover it instead of regenerating, preserving any facts
			// pushed since.
			opts.Persist = mgr
			sys, err := core.NewSystem(prog, opts)
			if err != nil {
				return nil, "", nil, err
			}
			return sys, desc + " [recovered]", mgr, nil
		}
		sys, err := core.NewSystem(prog, opts)
		if err != nil {
			return nil, "", nil, err
		}
		// Bulk-load the generated edges straight into the initial snapshot;
		// the System is not shared yet, so this pre-serve mutation is safe.
		// Persistence attaches only afterwards so the published initial
		// snapshot includes the generated edges.
		workload.RandomTree(sys.Engine, sys.DB(), "edge", nodes, seed)
		if mgr != nil {
			snap := sys.Snapshot()
			if err := mgr.Publish(snap.Version, snap.DB, sys.Engine.Syms); err != nil {
				return nil, "", nil, fmt.Errorf("publishing generated snapshot: %w", err)
			}
			sys.Opts.Persist = mgr
		}
		return sys, desc, mgr, nil
	default:
		return nil, "", nil, fmt.Errorf("one of -program or -gen is required")
	}
}

// parseSize parses a human-friendly byte size: a plain integer, or one
// with a k/m/g suffix (powers of 1024, case-insensitive, optional
// trailing 'b').  Empty means 0 (unbudgeted).
func parseSize(s string) (int64, error) {
	s = strings.TrimSpace(strings.ToLower(s))
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	s = strings.TrimSuffix(s, "b")
	switch {
	case strings.HasSuffix(s, "k"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "m"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "g"):
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad size %q (want e.g. 64m, 512k, 1g)", s)
	}
	return n * mult, nil
}

// parseGen parses "tree:<nodes>[:seed]".
func parseGen(gen string) (nodes int, seed int64, err error) {
	parts := strings.Split(gen, ":")
	if parts[0] != "tree" || len(parts) < 2 || len(parts) > 3 {
		return 0, 0, fmt.Errorf("bad -gen %q (want tree:<nodes>[:seed])", gen)
	}
	nodes, err = strconv.Atoi(parts[1])
	if err != nil || nodes < 2 {
		return 0, 0, fmt.Errorf("bad -gen node count %q", parts[1])
	}
	seed = 47
	if len(parts) == 3 {
		seed, err = strconv.ParseInt(parts[2], 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("bad -gen seed %q", parts[2])
		}
	}
	return nodes, seed, nil
}
