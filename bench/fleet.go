package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sdcgmres/internal/campaign"
	"sdcgmres/internal/dist"
	"sdcgmres/internal/obs"
	"sdcgmres/internal/service"
	"sdcgmres/internal/store"
	"sdcgmres/internal/trace"
)

const (
	fleetWorkers = 2
	// fleetPoll paces every idle wait of a fleet worker: the campaign
	// re-poll and the lease backoff base. Units take 5-50 ms.
	fleetPoll = 2 * time.Millisecond
	// fleetBatch is solved's default lease size (-batch 8).
	fleetBatch = 8
)

// fleetManifest is a tiny-profile copy of the paper's Figs 3-4 campaign:
// Poisson 32/10/8 plus circuit 2000/10/20 under the three paper fault
// classes and two seeded models, first/last MGS step, detector off and
// on/frobenius/restart.
func fleetManifest(o options) campaign.Manifest {
	bit, scale := seededModels(o)
	m := campaign.Manifest{
		Name: "sweep-fleet",
		Problems: []campaign.ProblemSpec{
			{Kind: "poisson", N: 32, InnerIters: 10, TargetOuter: 8},
			{Kind: "circuit", N: 2000, InnerIters: 10, TargetOuter: 20},
		},
		Models:    []string{"large", "slight", "tiny", bit, scale},
		Steps:     []string{"first", "last"},
		Detectors: []campaign.DetectorSpec{{}, {Enabled: true, Bound: "frobenius", Response: "restart"}},
		Stride:    40,
	}
	if o.tiny {
		m.Stride = 80
	}
	return m
}

// fleet is one coordinator and its workers, wired the way `solved
// -coordinate -store-dir` wires them: a dist.Host mounted in the full
// service.Server, the journal owned by the coordinator, and every
// journaled record ingested into a store.Store from OnRecord. The workers
// are in-process dist.Workers talking to it over loopback HTTP.
type fleet struct {
	dir       string
	base      campaign.Manifest
	compiled  *campaign.Compiled
	calibrate time.Duration

	st        *store.Store
	engine    *service.Engine
	campaigns *service.CampaignManager
	host      *dist.Host
	srv       *http.Server
	served    chan struct{}
	url       string

	workers []*dist.Worker
	rts     []*timingRT       // traced only
	recs    []*trace.Recorder // traced only
	wg      sync.WaitGroup
	cancel  context.CancelFunc
	errs    chan error

	mu         sync.Mutex
	ingest     []float64 // Store.Ingest microseconds (traced only)
	ingestErrs int

	closeOnce sync.Once
}

func startFleet(ctx context.Context, o options, name string, traced bool) (*fleet, error) {
	f := &fleet{dir: filepath.Join(o.dir, name), base: fleetManifest(o), served: make(chan struct{}),
		errs: make(chan error, fleetWorkers)}
	t := time.Now()
	c, err := campaign.Compile(f.base)
	if err != nil {
		return nil, err
	}
	f.calibrate, f.compiled = time.Since(t), c

	storeDir := filepath.Join(f.dir, "store")
	if err := os.MkdirAll(storeDir, 0o755); err != nil {
		return nil, err
	}
	if f.st, err = store.Open(storeDir, store.Options{}); err != nil {
		return nil, err
	}
	f.host = dist.NewHost(nil, nil)
	f.engine = service.NewEngine(service.Config{})
	f.campaigns = service.NewCampaignManager(service.CampaignManagerConfig{
		Dir: filepath.Join(f.dir, "campaigns"), Metrics: f.engine.Metrics(), Store: f.st})
	handler := service.NewServer(f.engine, service.ServerOptions{
		Campaigns:    f.campaigns,
		Store:        f.st,
		Mode:         "coordinator",
		Dist:         f.host,
		LeaseBacklog: f.host.Backlog,
		ExtraMetrics: []func(io.Writer){f.host.Metrics().WritePrometheus, f.host.RED().WritePrometheus},
	})
	f.engine.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	f.srv = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(f.served)
		_ = f.srv.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	f.url = "http://" + ln.Addr().String()

	// The workers share the coordinator's calibrated problems, as
	// paperfigs -fleet seeds its in-process workers.
	pc := dist.NewProblemCache()
	for k, p := range c.Problems {
		pc.Put(k, p)
	}
	wctx, cancel := context.WithCancel(ctx)
	f.cancel = cancel
	for i := 0; i < fleetWorkers; i++ {
		var rt http.RoundTripper = loopbackTransport()
		var rec *trace.Recorder
		if traced {
			trt := newTimingRT(rt, distRoute)
			f.rts = append(f.rts, trt)
			rt = trt
			rec = trace.NewRecorder(1 << 16)
			f.recs = append(f.recs, rec)
		}
		w := dist.NewWorker(dist.WorkerConfig{
			Coordinator: f.url,
			Name:        fmt.Sprintf("bench-worker-%d", i),
			Client:      &http.Client{Timeout: 30 * time.Second, Transport: rt},
			Concurrency: 1,
			Poll:        fleetPoll,
			Backoff:     dist.Backoff{Base: fleetPoll, Max: 10 * fleetPoll},
			Problems:    pc,
			Recorder:    rec,
		})
		f.workers = append(f.workers, w)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			if err := w.Run(wctx); err != nil && wctx.Err() == nil {
				f.errs <- err
			}
		}()
	}

	// Warm-up: one unit of every class (problem × detector policy).
	warm := f.base
	warm.Name = "warm-up"
	warm.Models = warm.Models[:1]
	warm.Steps = warm.Steps[:1]
	warm.Stride = 1 << 20
	if _, err := f.runCampaign(ctx, warm); err != nil {
		f.close()
		return nil, fmt.Errorf("warm-up campaign: %w", err)
	}
	return f, nil
}

// runCampaign serves one manifest to the fleet with a fresh journal and
// returns the journal's path once every unit is journaled.
func (f *fleet) runCampaign(ctx context.Context, m campaign.Manifest) (string, error) {
	c, err := campaign.CompileWith(m, f.compiled.Problems)
	if err != nil {
		return "", err
	}
	path := filepath.Join(f.dir, "journals", m.Name+".jsonl")
	j, have, err := campaign.OpenJournal(path)
	if err != nil {
		return "", err
	}
	name := m.Name
	traced := f.recs != nil
	cfg := dist.CoordinatorConfig{
		LeaseTTL:  30 * time.Second,
		BatchSize: fleetBatch,
		OnRecord: func(rec campaign.Record) {
			t := time.Now()
			_, err := f.st.Ingest(name, rec)
			d := time.Since(t)
			f.mu.Lock()
			if traced {
				f.ingest = append(f.ingest, us(d))
			}
			if err != nil {
				f.ingestErrs++
			}
			f.mu.Unlock()
		},
	}
	_, runErr := f.host.RunCampaign(ctx, c, j, have, cfg)
	if err := j.Close(); err != nil && runErr == nil {
		runErr = err
	}
	select {
	case err := <-f.errs:
		return "", fmt.Errorf("fleet worker: %w", err)
	default:
	}
	return path, runErr
}

// window runs whole campaigns back to back, starting new ones until the
// window has elapsed, and returns their journals and one part per
// campaign.
func (f *fleet) window(ctx context.Context, o options) ([]string, []part, error) {
	var journals []string
	var parts []part
	probe := startProbe()
	defer probe.stop()
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < o.window; k++ {
		m := f.base
		m.Name = fmt.Sprintf("sweep-fleet-%d", k)
		clk := startClock()
		path, err := f.runCampaign(ctx, m)
		if err != nil {
			return nil, nil, err
		}
		journals = append(journals, path)
		parts = append(parts, probe.part(clk, startClock(), len(f.compiled.Units)))
	}
	return journals, parts, nil
}

// close drains the fleet: the host closes, workers observe it and exit,
// then the server, engine and store shut down.
func (f *fleet) close() {
	f.closeOnce.Do(func() {
		if f.host != nil {
			f.host.Close()
		}
		done := make(chan struct{})
		go func() { f.wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			f.cancel()
			<-done
		}
		if f.cancel != nil {
			f.cancel()
		}
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if f.srv != nil {
			_ = f.srv.Shutdown(sctx) // bounded by sctx; Close follows
			_ = f.srv.Close()
			<-f.served
		}
		if f.campaigns != nil {
			_ = f.campaigns.Shutdown(sctx) // no campaigns were submitted to it
		}
		if f.engine != nil {
			_ = f.engine.Shutdown(sctx) // no jobs were submitted to it
		}
		if f.st != nil {
			_ = f.st.Close() // the store is scratch; the journals are what the gate reads
		}
	})
}

// workerStats sums the workers' lifetime counters.
func (f *fleet) workerStats() dist.WorkerStats {
	var s dist.WorkerStats
	for _, w := range f.workers {
		ws := w.Stats()
		s.LeasesClaimed += ws.LeasesClaimed
		s.LeasesLost += ws.LeasesLost
		s.UnitsExecuted += ws.UnitsExecuted
		s.Retries += ws.Retries
	}
	return s
}

func runSweepFleet(ctx context.Context, o options, rep *report) error {
	rep.note("sweep-fleet: %d in-process dist workers x 1 slot over loopback HTTP, sequential kernels, lease batch %d; idle waits: worker poll %v, lease backoff %v..%v",
		fleetWorkers, fleetBatch, fleetPoll, fleetPoll, 10*fleetPoll)
	f, err := setUp(o, rep, func(i int) (*fleet, error) {
		return startFleet(ctx, o, fmt.Sprintf("fleet-%d", i), false)
	}, (*fleet).close)
	if err != nil {
		return err
	}
	defer f.close()
	rep.set("campaign.calibrate_s", f.calibrate.Seconds(), 1)
	rep.note("manifest: %s", f.compiled.Describe())

	tw := startWindow()
	journals, parts, err := f.window(ctx, o)
	ops := len(journals) * len(f.compiled.Units)
	tw.end(rep, ops)
	if err != nil {
		return err
	}
	perCPU := rep.throughput(parts, "campaign")
	f.close()

	if o.trace {
		tj, err := tracedFleetWindow(ctx, o, rep, perCPU)
		if err != nil {
			return err
		}
		journals = append(journals, tj...)
	}

	f.mu.Lock()
	ingestErrs := f.ingestErrs
	f.mu.Unlock()
	rep.fail(ingestErrs, "%d store ingests failed", ingestErrs)

	ref, refCSV, err := referenceRun(ctx, f.compiled, filepath.Join(o.dir, "reference.jsonl"))
	if err != nil {
		return err
	}
	recs, err := gateSweep(rep, f.compiled, ref, refCSV, journals)
	if err != nil {
		return err
	}
	outerItersPerUnit(rep, recs)
	if !o.trace {
		return nil
	}
	n := 24
	if o.tiny {
		n = 4
	}
	if err := probeUnits(ctx, rep, f.compiled, sampleUnits(o, f.compiled, n)); err != nil {
		return err
	}
	if err := probeJournal(rep, o.dir, recs); err != nil {
		return err
	}
	// Circuit units dominate the fleet's time: probe its matrix with the
	// fleet's sequential kernels.
	circuit := f.compiled.Problems[f.base.Problems[1].Key()]
	return probeKernels(rep, circuit.A, f.base.Problems[1].InnerIters)
}

// tracedFleetWindow repeats the window on a fresh fleet with the worker
// flight recorders and a timing round-tripper on, and books the dist,
// campaign, store and obs per-layer metrics from them.
func tracedFleetWindow(ctx context.Context, o options, rep *report, untracedPerCPU float64) ([]string, error) {
	f, err := startFleet(ctx, o, "fleet-traced", true)
	if err != nil {
		return nil, err
	}
	defer f.close()
	f.mu.Lock()
	f.ingest = nil
	f.mu.Unlock()
	ws0, hs0 := f.workerStats(), f.host.Metrics().Snapshot()
	t0 := time.Now()
	journals, parts, err := f.window(ctx, o)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	ops := len(journals) * len(f.compiled.Units)
	ws1, hs1 := f.workerStats(), f.host.Metrics().Snapshot()
	rep.traceOverhead(untracedPerCPU, parts)

	lo, hi := t0.UnixNano(), t1.UnixNano()
	var units []span
	var busy, covered int64
	var claims, completes []float64
	calls := 0
	for i := range f.workers {
		var mine []span
		for _, s := range unitSpans(f.recs[i].Events()) {
			if s.start >= lo {
				mine = append(mine, s)
			}
		}
		units = append(units, mine...)
		busy += totalNS(mine)
		all := append([]span(nil), mine...)
		for _, c := range f.rts[i].since(lo) {
			calls++
			all = append(all, c.span)
			switch c.route {
			case "claim":
				claims = append(claims, float64(c.end-c.start)/1e6)
			case "complete":
				completes = append(completes, float64(c.end-c.start)/1e6)
			}
		}
		covered += unionNS(all, lo, hi)
	}
	slots := float64(fleetWorkers) * float64(hi-lo)
	um := spanMS(units)
	rep.pct("campaign.unit_p50_ms", um, 50)
	rep.pct("campaign.unit_p90_ms", um, 90)
	rep.pct("dist.claim_p50_ms", claims, 50)
	rep.pct("dist.complete_p50_ms", completes, 50)
	rep.set("dist.calls_per_unit", float64(calls)/float64(ops), ops)
	if leases := ws1.LeasesClaimed - ws0.LeasesClaimed; leases > 0 {
		rep.set("dist.units_per_lease", float64(ops)/float64(leases), int(leases))
	}
	rep.set("dist.retries", float64(ws1.Retries-ws0.Retries), 1)
	lost := (ws1.LeasesLost - ws0.LeasesLost) + (hs1["leases_expired"] - hs0["leases_expired"])
	rep.set("dist.leases_lost", float64(lost), 1)
	rep.set("dist.worker_idle_frac", 1-float64(busy)/slots, len(units))
	rep.set("trace.coverage_frac", float64(covered)/slots, len(units)+calls)
	f.mu.Lock()
	ingest := append([]float64(nil), f.ingest...)
	ingestErrs := f.ingestErrs
	f.mu.Unlock()
	rep.pct("store.ingest_us", ingest, 50)
	rep.fail(ingestErrs, "%d store ingests failed in the traced window", ingestErrs)
	rep.note("traced window: %d units in %.3f s; spans: unit start/end from WorkerConfig.Recorder, dist calls from a timing RoundTripper, store ingest timed in OnRecord", ops, t1.Sub(t0).Seconds())
	if err := scrapeMetrics(ctx, rep, f.url); err != nil {
		return nil, err
	}
	return journals, nil
}

// scrapeMetrics times one GET /metrics and lints the exposition.
func scrapeMetrics(ctx context.Context, rep *report, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return err
	}
	t := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return errors.New("GET /metrics: " + resp.Status)
	}
	rep.set("obs.scrape_ms", ms(d), 1)
	problems := obs.LintPrometheus(bytes.NewReader(body))
	ok := 0.0
	if len(problems) == 0 {
		ok = 1
	}
	rep.set("obs.lint_ok", ok, 1)
	for i, p := range problems {
		if i == 5 {
			break
		}
		rep.note("metrics lint: %v", p)
	}
	return nil
}
