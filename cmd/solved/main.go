// Command solved is the solver-as-a-service daemon: a long-lived HTTP
// process serving FT-GMRES / GMRES / CG solve jobs through the
// internal/service engine — bounded queue, worker pool, per-job wall-clock
// budgets, sandbox isolation, Prometheus metrics, and graceful drain on
// SIGINT/SIGTERM.
//
// Usage:
//
//	solved [-addr :8080] [-workers N] [-queue 64] [-budget 30s]
//	       [-max-budget 5m] [-retain 1024] [-drain-timeout 30s] [-pprof]
//	       [-campaign-dir DIR] [-store-dir DIR] [-qos-config qos.json]
//	       [-max-campaigns N] [-memo-bytes N] [-memo-warm]
//	       [-log-level info] [-log-format text] [-log-ring 1024]
//
// Every mode logs through the internal/obs structured logger: records
// carry a correlation ID minted (or adopted from X-Correlation-ID) at the
// service boundary, every /v1/* route feeds RED metrics on /metrics, and
// GET /v1/debug/status serves a JSON self-report — build info, runtime
// gauges, subsystem snapshots, and the last -log-ring log records (also
// queryable by correlation ID via GET /v1/debug/logs, which is what
// `solvectl tail` polls).
//
// With -memo-bytes set, the daemon keeps an in-process content-addressed
// solve cache (internal/memo): a repeated job spec or campaign unit is
// answered from the cache — before QoS admission, spending no queue slot,
// token or worker — with a byte-identical record; concurrent identical
// jobs collapse to one execution. -memo-warm preloads the cache from the
// -store-dir warehouse on startup. /metrics gains the solved_memo_*
// series and /healthz a "memo" block. Without the flag nothing changes.
//
// The engine's admission queue is the internal/qos scheduler. With
// -qos-config set it is multi-tenant: per-tenant token-bucket rate limits,
// weighted-fair queuing, priority classes ("interactive" | "batch" |
// "background") with starvation-proof aging, deadline-aware shedding, and
// per-tenant circuit breakers. Tenants are named by the job spec's
// "tenant" field or the X-Tenant request header; rejected submissions get
// 429 with Retry-After. Without the flag it is one flat FIFO of -queue
// jobs that ignores tenants, classes and deadlines, with the same 429 when
// full.
//
// Submit a job:
//
//	curl -s -X POST localhost:8080/v1/jobs -d '{
//	  "matrix": {"kind": "poisson", "n": 64},
//	  "solver": {"kind": "ftgmres", "detector": true, "response": "restart"},
//	  "fault":  {"class": "large", "at": 30}
//	}'
//
// then poll GET /v1/jobs/<id> for the result and GET /metrics for the
// service counters.
//
// Durable fault-injection campaigns (journaled under -campaign-dir; a
// canceled or crashed campaign resumes when its manifest is resubmitted):
//
//	curl -s -X POST localhost:8080/v1/campaigns -d '{
//	  "name": "poisson-sweep",
//	  "problems": [{"kind": "poisson", "n": 32, "inner_iters": 10, "target_outer": 8}],
//	  "models": ["large", "slight"], "steps": ["first", "last"]
//	}'
//
// then poll GET /v1/campaigns/<id> for progress (done/total, ETA,
// per-problem failures).
//
// With -store-dir set, every campaign record also lands in the embedded
// results warehouse (internal/store): POST /v1/results/query pages raw
// records, GET /v1/campaigns/<id>/stats serves the paper statistics
// (confusion matrices, overhead quantiles, per-site heatmaps; add
// ?diff=<campaign> for a bootstrap-CI comparison), and the sdcreport CLI
// reads the same directory offline. Both endpoints honor
// Accept-Encoding: gzip.
//
// # Distributed campaigns
//
// A solved process can also take either side of a distributed campaign
// (internal/dist). Worker mode joins a coordinator's fleet — any number of
// workers, joined or killed at any time:
//
//	solved -worker -coordinator=http://host:8080 [-worker-name w1] [-workers N]
//
// Coordinator mode serves one manifest to a worker fleet, journals and
// aggregates the results, writes the series CSVs, and exits:
//
//	solved -coordinate manifest.json [-addr :8080] [-lease-ttl 30s]
//	       [-batch 8] [-dist-out DIR]
//
// The coordinator's /healthz reports mode and lease backlog; /metrics adds
// the dist_* lease counters and per-worker unit latency histograms.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"sdcgmres/internal/campaign"
	"sdcgmres/internal/dist"
	"sdcgmres/internal/memo"
	"sdcgmres/internal/obs"
	"sdcgmres/internal/qos"
	"sdcgmres/internal/service"
	"sdcgmres/internal/store"
)

// cliConfig is the flag-settable daemon configuration.
type cliConfig struct {
	addr          string
	workers       int
	queueDepth    int
	budget        time.Duration
	maxBudget     time.Duration
	retain        int
	drainTimeout  time.Duration
	pprof         bool
	campaignDir   string
	traceCap      int
	kernelWorkers int

	// Distributed-campaign modes.
	worker      bool
	coordinator string
	workerName  string
	coordinate  string
	leaseTTL    time.Duration
	batch       int
	distOut     string

	// Results warehouse (internal/store).
	storeDir string

	// Multi-tenant QoS (internal/qos).
	qosConfig    string
	maxCampaigns int
	// qos is the parsed -qos-config document (nil = one flat FIFO). Resolved
	// by loadQoS before setup; tests may set it directly.
	qos *qos.Config

	// Content-addressed solve cache (internal/memo).
	memoBytes int64
	memoWarm  bool
	// memo is the cache built from -memo-bytes (nil = memoization off).
	// Resolved by buildMemo before setup; tests may set it directly.
	memo *memo.Cache

	// Observability (internal/obs).
	logLevel  string
	logFormat string
	logRing   int
	// log and intro are resolved by buildObs before setup; tests that
	// call setup directly get a nil logger (logging disabled) and no
	// introspector, which every path tolerates.
	log   *obs.Logger
	intro *obs.Introspector
}

// buildObs resolves the -log-* flags into the process logger and runtime
// introspector.
func (cfg *cliConfig) buildObs() error {
	lvl, err := obs.ParseLevel(cfg.logLevel)
	if err != nil {
		return err
	}
	cfg.log = obs.NewLogger(obs.Options{Level: lvl, Format: cfg.logFormat, Ring: cfg.logRing})
	cfg.intro = obs.NewIntrospector(cfg.log)
	return nil
}

// fatal logs one error record and exits. The logger may be nil (flag
// parsing failed before buildObs ran): fall back to stderr.
func (cfg *cliConfig) fatal(msg string, err error) {
	if cfg.log != nil {
		cfg.log.Error(context.Background(), msg, "error", err)
	} else {
		fmt.Fprintf(os.Stderr, "solved: %s: %v\n", msg, err)
	}
	os.Exit(1)
}

// buildMemo resolves -memo-bytes into cfg.memo. No flag, no cache: every
// execution path keeps its single nil-pointer check.
func (cfg *cliConfig) buildMemo() {
	if cfg.memoBytes > 0 && cfg.memo == nil {
		cfg.memo = memo.New(memo.Config{MaxBytes: cfg.memoBytes})
	}
}

// warmMemo preloads the cache from the results warehouse when both are
// configured and -memo-warm is set.
func (cfg *cliConfig) warmMemo(st *store.Store) {
	if !cfg.memoWarm || cfg.memo == nil || st == nil {
		return
	}
	n := st.WarmMemo(cfg.memo)
	cfg.log.Info(context.Background(), "memo warmed from store",
		"records", n, "dir", cfg.storeDir)
}

// loadQoS resolves -qos-config into cfg.qos. No flag, no config: the
// engine's scheduler runs as one flat FIFO.
func (cfg *cliConfig) loadQoS() error {
	if cfg.qosConfig == "" {
		return nil
	}
	c, err := qos.LoadConfig(cfg.qosConfig)
	if err != nil {
		return err
	}
	cfg.qos = &c
	return nil
}

func parseFlags(args []string) (cliConfig, error) {
	fs := flag.NewFlagSet("solved", flag.ContinueOnError)
	cfg := cliConfig{}
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.IntVar(&cfg.workers, "workers", 0, "worker pool size (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.queueDepth, "queue", 64, "admission queue depth")
	fs.DurationVar(&cfg.budget, "budget", 30*time.Second, "default per-job wall-clock budget")
	fs.DurationVar(&cfg.maxBudget, "max-budget", 5*time.Minute, "maximum per-job wall-clock budget")
	fs.IntVar(&cfg.retain, "retain", 1024, "finished jobs kept queryable")
	fs.DurationVar(&cfg.drainTimeout, "drain-timeout", 30*time.Second, "graceful shutdown drain budget")
	fs.BoolVar(&cfg.pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/")
	fs.StringVar(&cfg.campaignDir, "campaign-dir", ".", "directory for campaign journals")
	fs.IntVar(&cfg.traceCap, "trace-cap", 0, "per-job/per-campaign flight-recorder capacity in events (0 = tracing off)")
	fs.IntVar(&cfg.kernelWorkers, "kernel-workers", 0, "total shared-memory kernel budget, split across job/unit workers so concurrency x pool width <= the budget; results are byte-identical for every value (0 = sequential kernels)")
	fs.BoolVar(&cfg.worker, "worker", false, "join a distributed campaign fleet (requires -coordinator)")
	fs.StringVar(&cfg.coordinator, "coordinator", "", "coordinator base URL for -worker mode")
	fs.StringVar(&cfg.workerName, "worker-name", "", "worker identity (default hostname-pid)")
	fs.StringVar(&cfg.coordinate, "coordinate", "", "serve this campaign manifest to a worker fleet, then exit")
	fs.DurationVar(&cfg.leaseTTL, "lease-ttl", 30*time.Second, "distributed lease time-to-live")
	fs.IntVar(&cfg.batch, "batch", 8, "units per distributed lease")
	fs.StringVar(&cfg.distOut, "dist-out", "", "coordinator output directory (default -campaign-dir)")
	fs.StringVar(&cfg.storeDir, "store-dir", "", "results warehouse directory; enables /v1/results/query and /v1/campaigns/{id}/stats (empty = store off)")
	fs.StringVar(&cfg.qosConfig, "qos-config", "", "multi-tenant QoS config file (JSON): per-tenant rate limits, weighted-fair queuing, priority classes, deadline shedding, circuit breakers; empty runs the scheduler as one flat FIFO of -queue jobs that ignores tenant, class and deadline")
	fs.IntVar(&cfg.maxCampaigns, "max-campaigns", 0, "concurrently active campaigns before POST /v1/campaigns answers 429 (0 = unlimited)")
	fs.Int64Var(&cfg.memoBytes, "memo-bytes", 0, "content-addressed solve cache byte budget; repeated jobs and campaign units are answered from the cache with byte-identical records (0 = memoization off)")
	fs.BoolVar(&cfg.memoWarm, "memo-warm", false, "preload the solve cache from the -store-dir warehouse on startup (requires -memo-bytes and -store-dir)")
	fs.StringVar(&cfg.logLevel, "log-level", "info", "minimum log level: debug|info|warn|error")
	fs.StringVar(&cfg.logFormat, "log-format", "text", "log rendering: text|json")
	fs.IntVar(&cfg.logRing, "log-ring", 1024, "log records kept in memory for GET /v1/debug/logs and solvectl tail (0 = ring off)")
	err := fs.Parse(args)
	return cfg, err
}

// setup wires the engine, campaign manager and HTTP handler from a
// cliConfig; split from main so tests can drive the exact production wiring
// in-process. The campaign manager shares the engine's metrics registry so
// GET /metrics covers both.
func setup(cfg cliConfig) (*service.Engine, *service.CampaignManager, http.Handler) {
	return setupDist(cfg, nil, nil)
}

// openStore opens the results warehouse named by -store-dir, or returns
// (nil, nil) when the flag is unset (store off).
func openStore(cfg cliConfig) (*store.Store, error) {
	if cfg.storeDir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(cfg.storeDir, 0o755); err != nil {
		return nil, err
	}
	return store.Open(cfg.storeDir, store.Options{})
}

// setupDist is setup plus an optional dist.Host and results store: a host
// mounts the lease wire protocol, reports mode "coordinator" with the lease
// backlog on /healthz, and appends the dist registry to /metrics; a store
// feeds every campaign record into the warehouse and mounts the results
// query and stats endpoints.
func setupDist(cfg cliConfig, host *dist.Host, st *store.Store) (*service.Engine, *service.CampaignManager, http.Handler) {
	engine := service.NewEngine(service.Config{
		Workers:       cfg.workers,
		QueueDepth:    cfg.queueDepth,
		DefaultBudget: cfg.budget,
		MaxBudget:     cfg.maxBudget,
		Retain:        cfg.retain,
		TraceCapacity: cfg.traceCap,
		KernelWorkers: cfg.kernelWorkers,
		QoS:           cfg.qos,
		Memo:          cfg.memo,
		Log:           cfg.log,
	})
	campaigns := service.NewCampaignManager(service.CampaignManagerConfig{
		Dir:           cfg.campaignDir,
		Workers:       cfg.workers,
		KernelWorkers: cfg.kernelWorkers,
		Metrics:       engine.Metrics(),
		TraceCapacity: cfg.traceCap,
		Store:         st,
		MaxActive:     cfg.maxCampaigns,
		Memo:          cfg.memo,
		Log:           cfg.log,
	})
	opts := service.ServerOptions{
		EnablePprof:  cfg.pprof,
		Campaigns:    campaigns,
		Store:        st,
		Log:          cfg.log,
		Introspector: cfg.intro,
	}
	if host != nil {
		opts.Mode = "coordinator"
		opts.Dist = host
		opts.LeaseBacklog = host.Backlog
		opts.ExtraMetrics = []func(io.Writer){host.Metrics().WritePrometheus, host.RED().WritePrometheus}
	}
	registerSections(cfg.intro, engine, st, host)
	handler := service.NewServer(engine, opts)
	return engine, campaigns, handler
}

// registerSections wires the daemon's subsystems into the runtime
// introspector: each snapshot becomes a section of GET /v1/debug/status
// and the depth gauges join the /metrics exposition.
func registerSections(intro *obs.Introspector, engine *service.Engine, st *store.Store, host *dist.Host) {
	if intro == nil {
		return
	}
	intro.Register("engine", func() any {
		return map[string]any{
			"workers":  engine.Workers(),
			"queue":    engine.QueueLen(),
			"draining": engine.Draining(),
			"counters": engine.Metrics().Snapshot(),
		}
	})
	intro.Register("kernel", func() any { return engine.KernelStats() })
	if engine.QoSEnabled() {
		intro.Register("qos", func() any { return engine.QoSState() })
	}
	if engine.MemoEnabled() {
		intro.Register("memo", func() any { return engine.MemoStats() })
	}
	if st != nil {
		intro.Register("store", func() any { return st.Stats() })
	}
	if host != nil {
		intro.Register("leases", func() any { return host.Status() })
	}
	intro.RegisterGauge("solved_queue_depth",
		"Jobs waiting in the admission queue.",
		func() float64 { return float64(engine.QueueLen()) })
	intro.RegisterGauge("solved_worker_pool_size",
		"Solve worker pool size.",
		func() float64 { return float64(engine.Workers()) })
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	if err := cfg.buildObs(); err != nil {
		cfg.fatal("bad log flags", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	switch {
	case cfg.worker:
		if err := runWorker(ctx, cfg); err != nil && ctx.Err() == nil {
			cfg.fatal("worker failed", err)
		}
		return
	case cfg.coordinate != "":
		if err := runCoordinate(ctx, cfg); err != nil && ctx.Err() == nil {
			cfg.fatal("coordinate failed", err)
		}
		return
	}
	runDaemon(ctx, stop, cfg)
}

func runDaemon(ctx context.Context, stop context.CancelFunc, cfg cliConfig) {
	lg := cfg.log.Named("solved")
	bg := context.Background()
	st, err := openStore(cfg)
	if err != nil {
		cfg.fatal("open store", err)
	}
	if err := cfg.loadQoS(); err != nil {
		cfg.fatal("load qos config", err)
	}
	cfg.buildMemo()
	cfg.warmMemo(st)
	engine, campaigns, handler := setupDist(cfg, nil, st)
	engine.Start()
	if st != nil {
		lg.Info(bg, "results store open", "dir", cfg.storeDir)
	}
	if cfg.memo != nil {
		lg.Info(bg, "solve memoization on", "budget_bytes", cfg.memoBytes)
	}
	if cfg.qos != nil {
		lg.Info(bg, "qos scheduler on", "config", cfg.qosConfig, "tenants", len(cfg.qos.Tenants))
	}

	srv := &http.Server{
		Addr:              cfg.addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	b := obs.BuildInfo()
	lg.Info(bg, "listening", "addr", cfg.addr, "workers", engine.Workers(),
		"queue", cfg.queueDepth, "budget", cfg.budget.String(),
		"version", b.Version, "revision", b.Revision, "go", b.GoVersion)

	select {
	case err := <-errc:
		cfg.fatal("server failed", err)
	case <-ctx.Done():
	}
	stop()

	lg.Info(bg, "draining", "budget", cfg.drainTimeout.String(), "queued", engine.QueueLen())
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	if err := campaigns.Shutdown(drainCtx); err != nil {
		lg.Warn(bg, "campaign drain incomplete (journals retain finished units)", "error", err)
	}
	if err := engine.Shutdown(drainCtx); err != nil {
		lg.Warn(bg, "drain incomplete, running jobs aborted", "error", err)
	} else {
		lg.Info(bg, "drained cleanly")
	}
	httpCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := srv.Shutdown(httpCtx); err != nil {
		lg.Warn(bg, "http shutdown", "error", err)
	}
	if st != nil {
		if err := st.Close(); err != nil {
			lg.Warn(bg, "store close", "error", err)
		}
	}
	fmt.Println("solved: bye")
}

// newFleetWorker builds the dist worker for -worker mode, returning the
// resolved worker identity alongside it.
func newFleetWorker(cfg cliConfig) (*dist.Worker, string, error) {
	if cfg.coordinator == "" {
		return nil, "", fmt.Errorf("-worker requires -coordinator=URL")
	}
	name := cfg.workerName
	if name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	conc := cfg.workers
	if conc <= 0 {
		conc = runtime.GOMAXPROCS(0)
	}
	w := dist.NewWorker(dist.WorkerConfig{
		Coordinator:   strings.TrimRight(cfg.coordinator, "/"),
		Name:          name,
		Concurrency:   conc,
		KernelWorkers: cfg.kernelWorkers,
		Log:           cfg.log,
	})
	return w, name, nil
}

// workerHandler is the worker-mode observability surface: /healthz reports
// the mode and identity, /metrics the worker's lifetime counters plus the
// build gauge and runtime gauges, and /v1/debug/status the same
// introspector self-report the daemon serves. All routes run through the
// standard telemetry middleware, so even a bare worker propagates
// correlation IDs and exports worker_http_* RED families.
func workerHandler(w *dist.Worker, name, coordinator string, cfg cliConfig) http.Handler {
	mux := http.NewServeMux()
	red := obs.NewRED("worker")
	handle := func(pattern, route string, hf http.HandlerFunc) {
		mux.Handle(pattern, obs.Instrument(red, cfg.log, route, hf))
	}
	handle("GET /healthz", "/healthz", func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(rw).Encode(map[string]any{
			"status":      "ok",
			"mode":        "worker",
			"worker":      name,
			"coordinator": coordinator,
			"stats":       w.Stats(),
			"build":       obs.BuildInfo(),
		})
	})
	reg := obs.NewRegistry()
	var s dist.WorkerStats
	reg.OnScrape(func() { s = w.Stats() })
	reg.CounterFunc("dist_worker_leases_claimed_total", "Leases claimed by this worker.", func() float64 { return float64(s.LeasesClaimed) })
	reg.CounterFunc("dist_worker_leases_lost_total", "Leases lost to heartbeat expiry.", func() float64 { return float64(s.LeasesLost) })
	reg.CounterFunc("dist_worker_units_executed_total", "Campaign units executed.", func() float64 { return float64(s.UnitsExecuted) })
	reg.CounterFunc("dist_worker_records_posted_total", "Records accepted by the coordinator.", func() float64 { return float64(s.RecordsPosted) })
	reg.CounterFunc("dist_worker_retries_total", "Coordinator round-trip retries.", func() float64 { return float64(s.Retries) })
	handle("GET /metrics", "/metrics", func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(rw)
		red.WritePrometheus(rw)
		cfg.intro.WritePrometheus(rw)
		obs.WriteBuildMetric(rw)
	})
	handle("GET /v1/debug/status", "/v1/debug/status", func(rw http.ResponseWriter, r *http.Request) {
		n := 50
		if v := r.URL.Query().Get("logs"); v != "" {
			fmt.Sscanf(v, "%d", &n)
		}
		st := cfg.intro.Status(n)
		rw.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(rw).Encode(st)
	})
	return mux
}

// runWorker joins a coordinator's fleet until the coordinator closes or the
// process is signaled; a signal drains gracefully (finished units of the
// current lease are still reported).
func runWorker(ctx context.Context, cfg cliConfig) error {
	lg := cfg.log.Named("solved")
	bg := context.Background()
	w, name, err := newFleetWorker(cfg)
	if err != nil {
		return err
	}
	if cfg.intro != nil {
		cfg.intro.Register("worker", func() any { return w.Stats() })
	}
	srv := &http.Server{Addr: cfg.addr, Handler: workerHandler(w, name, cfg.coordinator, cfg), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			lg.Warn(bg, "worker http server failed", "error", err)
		}
	}()
	defer srv.Close()
	lg.Info(bg, "worker joining fleet", "coordinator", cfg.coordinator, "addr", cfg.addr, "worker", name)
	err = w.Run(ctx)
	s := w.Stats()
	lg.Info(bg, "worker done", "leases", s.LeasesClaimed, "units", s.UnitsExecuted,
		"records", s.RecordsPosted, "retries", s.Retries)
	if ctx.Err() != nil {
		return nil // signaled: the drain already reported finished work
	}
	return err
}

// runCoordinate serves one campaign manifest to a worker fleet: it compiles
// the manifest (calibrating problems locally), opens — and resumes, if
// non-empty — the journal <dist-out>/<slug>-<hash>.jsonl, exposes the lease
// protocol through the full service server, blocks until the fleet finishes
// every unit, writes each series CSV, and exits.
func runCoordinate(ctx context.Context, cfg cliConfig) error {
	lg := cfg.log.Named("solved")
	bg := context.Background()
	man, err := campaign.LoadManifest(cfg.coordinate)
	if err != nil {
		return err
	}
	lg.Info(bg, "coordinating campaign, calibrating problems", "campaign", man.Name)
	compiled, err := campaign.Compile(man)
	if err != nil {
		return err
	}
	outdir := cfg.distOut
	if outdir == "" {
		outdir = cfg.campaignDir
	}
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return err
	}
	journal, have, err := campaign.OpenJournal(filepath.Join(outdir, man.JournalName()))
	if err != nil {
		return err
	}
	defer journal.Close()
	if len(have) > 0 {
		lg.Info(bg, "resuming from journal", "have", len(have), "total", len(compiled.Units))
	}

	st, err := openStore(cfg)
	if err != nil {
		return fmt.Errorf("open store: %w", err)
	}
	if err := cfg.loadQoS(); err != nil {
		return fmt.Errorf("load qos config: %w", err)
	}
	cfg.buildMemo()
	cfg.warmMemo(st)
	if st != nil {
		defer st.Close()
		// Backfill resumed units so the warehouse matches the journal from
		// the start; content-derived IDs make replays a no-op.
		if _, err := st.IngestAll(man.Name, have); err != nil {
			lg.Warn(bg, "store backfill failed", "error", err)
		}
		lg.Info(bg, "results store open", "dir", cfg.storeDir)
	}

	host := dist.NewHost(nil, cfg.log)
	engine, campaigns, handler := setupDist(cfg, host, st)
	engine.Start()
	defer engine.Shutdown(context.Background())
	defer campaigns.Shutdown(context.Background())
	srv := &http.Server{Addr: cfg.addr, Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			lg.Warn(bg, "coordinator http server failed", "error", err)
		}
	}()
	defer srv.Close()
	join := cfg.addr
	if strings.HasPrefix(join, ":") {
		join = "<this-host>" + join
	}
	lg.Info(bg, "coordinator up", "addr", cfg.addr,
		"join", "solved -worker -coordinator=http://"+join)

	distCfg := campaign.CoordinatorConfig{
		LeaseTTL:  cfg.leaseTTL,
		BatchSize: cfg.batch,
		Memo:      cfg.memo,
	}
	if st != nil {
		// Executed and memo-served records alike reach the store.
		distCfg.OnRecord = func(rec campaign.Record) {
			if _, err := st.Ingest(man.Name, rec); err != nil {
				lg.Warn(bg, "store ingest failed", "record", rec.ID, "error", err)
			}
		}
		distCfg.OnMemo = distCfg.OnRecord
	}
	recs, runErr := host.RunCampaign(ctx, compiled, journal, have, distCfg)
	host.Close()
	// Keep serving until the fleet has heard the closed state, so workers
	// exit cleanly instead of retrying a dead listener.
	defer func() {
		host.WaitClosed()
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx) // bounded by sctx; Close follows
	}()
	snap := host.Metrics().Snapshot()
	lg.Info(bg, "fleet stats", "granted", snap["leases_granted"],
		"completed", snap["leases_completed"], "expired", snap["leases_expired"],
		"requeued", snap["units_requeued"])
	if runErr != nil {
		return fmt.Errorf("campaign %q: %w (journal %s resumes it)", man.Name, runErr, journal.Path())
	}

	series, err := compiled.Aggregate(recs)
	if err != nil {
		return err
	}
	for _, sr := range series {
		name := sr.Key.FileName(man.Name)
		f, err := os.Create(filepath.Join(outdir, name))
		if err != nil {
			return err
		}
		if err := sr.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		f.Close()
		lg.Info(bg, "wrote series CSV", "path", filepath.Join(outdir, name))
	}
	return nil
}
