package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sync"
	"time"

	"sdcgmres/internal/campaign"
	"sdcgmres/internal/kernel"
	"sdcgmres/internal/obs"
	"sdcgmres/internal/trace"
)

// WorkerConfig parameterizes a Worker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL, e.g. "http://host:8080".
	Coordinator string
	// Name identifies this worker in leases, logs and metrics.
	Name string
	// Client is the HTTP client (default: a client with a 30s timeout).
	Client *http.Client
	// Concurrency is how many units run at once within a lease (default 1).
	Concurrency int
	// MaxBatch caps the units requested per lease (0 = coordinator's
	// batch size).
	MaxBatch int
	// UnitBudget overrides the per-unit wall clock (0 = manifest's).
	UnitBudget time.Duration
	// Poll is the idle re-poll interval (default 500ms).
	Poll time.Duration
	// Backoff paces retries of failed coordinator round-trips.
	Backoff Backoff
	// MaxRetries bounds consecutive failures of one round-trip before the
	// worker gives up and exits (default 8 — with the default backoff
	// that's ~20s of coordinator outage).
	MaxRetries int
	// Problems is the calibration cache (default: a fresh one).
	Problems *campaign.Problems
	// Recorder, when non-nil, receives unit-lifecycle trace events for
	// every unit this worker executes (via campaign.ExecuteUnitPooled).
	Recorder *trace.Recorder
	// KernelWorkers is the total shared-memory kernel budget for this
	// worker process (0 = sequential kernels). Each of the Concurrency
	// execution slots gets a persistent pool of max(1,
	// KernelWorkers/Concurrency) kernel workers, so slot concurrency
	// times pool width never oversubscribes the budget. Kernels are
	// bitwise deterministic: the records posted are identical for every
	// KernelWorkers value.
	KernelWorkers int
	// Log receives progress records (nil = disabled). Every record
	// carries the worker name; once a campaign is adopted they also carry
	// its correlation ID, joining this worker's lines to the
	// coordinator's.
	Log *obs.Logger
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 1
	}
	if c.Poll <= 0 {
		c.Poll = 500 * time.Millisecond
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 8
	}
	if c.Problems == nil {
		c.Problems = campaign.NewProblems()
	}
	c.Backoff = c.Backoff.withDefaults()
	return c
}

// WorkerStats counts a worker's lifetime activity.
type WorkerStats struct {
	LeasesClaimed int64 `json:"leases_claimed"`
	LeasesLost    int64 `json:"leases_lost"`
	UnitsExecuted int64 `json:"units_executed"`
	RecordsPosted int64 `json:"records_posted"`
	Retries       int64 `json:"retries"`
}

// Worker joins a coordinator's fleet: it polls for a campaign, compiles the
// manifest locally, claims unit leases, executes them under the sandbox via
// campaign.ExecuteUnitPooled, heartbeats while working, and reports records back.
// It survives coordinator restarts and campaign generation changes, and
// exits cleanly when the coordinator closes.
type Worker struct {
	cfg WorkerConfig
	log *obs.Logger

	leasesClaimed obs.Counter
	leasesLost    obs.Counter
	unitsExecuted obs.Counter
	recordsPosted obs.Counter
	retries       obs.Counter

	// compiled caches the current generation's compilation.
	gen      int
	compiled *campaign.Compiled

	// cid is the adopted campaign correlation ID; lctx carries it (and
	// the worker identity) for log records. Written only by Run's poll
	// loop, read by the lease machinery it spawns.
	cid  string
	lctx context.Context

	// pools holds one persistent kernel pool per execution slot (nil
	// entries mean sequential kernels). Built by Run, closed when it
	// returns.
	pools []*kernel.Pool
}

// NewWorker builds a worker. Run does the work.
func NewWorker(cfg WorkerConfig) *Worker {
	cfg = cfg.withDefaults()
	return &Worker{
		cfg:  cfg,
		log:  cfg.Log.Named("worker"),
		lctx: obs.With(context.Background(), obs.Correlation{Worker: cfg.Name}),
	}
}

// Stats snapshots the worker's counters.
func (w *Worker) Stats() WorkerStats {
	return WorkerStats{
		LeasesClaimed: w.leasesClaimed.Value(),
		LeasesLost:    w.leasesLost.Value(),
		UnitsExecuted: w.unitsExecuted.Value(),
		RecordsPosted: w.recordsPosted.Value(),
		Retries:       w.retries.Value(),
	}
}

// Run serves the coordinator until it closes (nil), the context ends
// (ctx.Err()), or the coordinator stays unreachable past the retry budget.
func (w *Worker) Run(ctx context.Context) error {
	w.pools = kernel.Split(w.cfg.KernelWorkers, w.cfg.Concurrency)
	for _, p := range w.pools {
		defer p.Close()
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var info CampaignInfo
		// Naming the worker lets a closing host count it as told.
		if err := w.callRetry(ctx, http.MethodGet, "/v1/dist/campaign?worker="+url.QueryEscape(w.cfg.Name), nil, &info); err != nil {
			return fmt.Errorf("dist: worker %s: fetch campaign: %w", w.cfg.Name, err)
		}
		switch {
		case info.State == StateClosed:
			w.log.Info(w.lctx, "coordinator closed, exiting")
			return nil
		case info.State != StateRunning || info.Manifest == nil:
			if err := sleepCtx(ctx, w.cfg.Poll); err != nil {
				return err
			}
			continue
		}
		// Adopt the campaign's correlation ID: stamp it on this worker's
		// log records, outbound wire calls (X-Correlation-ID), and trace
		// stream, so one ID joins the coordinator's and the fleet's view
		// of the same campaign.
		if info.CorrelationID != "" && info.CorrelationID != w.cid {
			w.cid = info.CorrelationID
			w.lctx = obs.With(context.Background(),
				obs.Correlation{ID: w.cid, Worker: w.cfg.Name})
			w.cfg.Recorder.Correlate(w.cid)
		}
		if w.compiled == nil || w.gen != info.Generation {
			c, err := w.cfg.Problems.Compile(*info.Manifest)
			if err != nil {
				return fmt.Errorf("dist: worker %s: compile generation %d: %w", w.cfg.Name, info.Generation, err)
			}
			w.gen = info.Generation
			w.compiled = c
			w.log.Info(w.lctx, "compiled campaign generation",
				"generation", info.Generation, "units", len(c.Units))
		}
		if err := w.runGeneration(ctx, info); err != nil {
			return err
		}
	}
}

// runGeneration claims and executes leases until the generation completes,
// moves on, or the coordinator closes — then returns to the poll loop.
func (w *Worker) runGeneration(ctx context.Context, info CampaignInfo) error {
	idle := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var resp ClaimResponse
		req := ClaimRequest{Worker: w.cfg.Name, Generation: info.Generation, Max: w.cfg.MaxBatch}
		if err := w.callRetry(ctx, http.MethodPost, "/v1/leases", req, &resp); err != nil {
			return fmt.Errorf("dist: worker %s: claim: %w", w.cfg.Name, err)
		}
		switch {
		case resp.Closed, resp.Generation != info.Generation, resp.Done && resp.Lease == nil:
			// Over for this generation one way or another; re-poll the
			// campaign (paced, so a finished-but-still-exposed generation
			// isn't hammered).
			return sleepCtx(ctx, w.cfg.Poll)
		case resp.Lease == nil:
			// Backlog fully leased out or draining: back off and retry.
			if err := w.cfg.Backoff.Sleep(ctx, idle); err != nil {
				return err
			}
			idle++
			continue
		}
		idle = 0
		w.leasesClaimed.Inc()
		if err := w.executeLease(ctx, info, resp.Lease); err != nil {
			return err
		}
	}
}

// executeLease runs a lease's units, heartbeating in the background, and
// reports the finished records in one completion call. Losing the lease
// (410 on heartbeat) stops execution early but still reports what finished:
// completion is idempotent, and the coordinator keeps first-arriving valid
// records even from expired leases. On drain (ctx canceled) the report goes
// out on a short detached context so finished work isn't thrown away.
func (w *Worker) executeLease(ctx context.Context, info CampaignInfo, l *campaign.Lease) error {
	ttl := time.Duration(l.TTLMS) * time.Millisecond
	hbCtx, lost := context.WithCancel(ctx)
	defer lost()
	var hb sync.WaitGroup
	hb.Add(1)
	go func() {
		defer hb.Done()
		t := time.NewTicker(ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
			}
			var resp HeartbeatResponse
			err := w.call(hbCtx, http.MethodPost, "/v1/leases/"+l.ID+"/heartbeat", HeartbeatRequest{Worker: w.cfg.Name}, &resp)
			if errors.Is(err, campaign.ErrLeaseGone) {
				w.leasesLost.Inc()
				w.log.Warn(w.lctx, "lease gone, abandoning batch", "lease", l.ID)
				lost()
				return
			}
			// Transient heartbeat failures are ignored: the next tick
			// retries, and TTL/3 pacing gives two more chances per TTL.
		}
	}()

	var (
		mu   sync.Mutex
		recs []campaign.Record
		next = make(chan campaign.Unit)
		wg   sync.WaitGroup
	)
	for i := 0; i < w.cfg.Concurrency; i++ {
		pool := w.pools[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range next {
				rec, ran := campaign.ExecuteUnitPooled(hbCtx, w.compiled, u, w.cfg.UnitBudget, w.cfg.Recorder, pool)
				if !ran {
					continue
				}
				w.unitsExecuted.Inc()
				if w.log.Enabled(slog.LevelDebug) {
					w.log.Debug(w.lctx, "unit executed",
						"lease", l.ID, "unit", u.ID, "outcome", rec.Outcome, "elapsed_ms", rec.ElapsedMS)
				}
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
feed:
	for _, u := range l.Units {
		select {
		case next <- u:
		case <-hbCtx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	lost()
	hb.Wait()

	if len(recs) == 0 {
		return ctx.Err()
	}
	postCtx := ctx
	if ctx.Err() != nil {
		// Draining: give the final report a short detached deadline.
		var cancel context.CancelFunc
		postCtx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
	}
	var resp campaign.CompleteResponse
	req := CompleteRequest{Worker: w.cfg.Name, Records: recs}
	if err := w.callRetry(postCtx, http.MethodPost, "/v1/leases/"+l.ID+"/records", req, &resp); err != nil {
		// The records are lost to this worker but not to the campaign:
		// the lease expires and the units are requeued.
		w.log.Warn(w.lctx, "lease report failed", "lease", l.ID, "error", err)
		return ctx.Err()
	}
	w.recordsPosted.Add(int64(resp.Accepted))
	w.log.Info(w.lctx, "lease reported",
		"lease", l.ID, "accepted", resp.Accepted, "rejected", resp.Rejected)
	return ctx.Err()
}

// statusError is a non-2xx coordinator reply.
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("coordinator replied %d: %s", e.status, e.msg)
}

// retryable reports whether an attempt error is worth retrying: transport
// failures and 5xx yes, 4xx no (the request itself is wrong).
func retryable(err error) bool {
	var se *statusError
	if errors.As(err, &se) {
		return se.status >= 500
	}
	return !errors.Is(err, campaign.ErrLeaseGone) && !errors.Is(err, context.Canceled) &&
		!errors.Is(err, context.DeadlineExceeded)
}

// call performs one coordinator round-trip.
func (w *Worker) call(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, w.cfg.Coordinator+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Propagate the adopted campaign correlation across the HTTP hop so
	// the coordinator's request logs join this worker's under one ID.
	if w.cid != "" {
		req.Header.Set(obs.Header, w.cid)
	}
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusGone {
		io.Copy(io.Discard, resp.Body)
		return campaign.ErrLeaseGone
	}
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&e)
		return &statusError{status: resp.StatusCode, msg: e.Error}
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// callRetry performs a round-trip with backoff across transient failures.
func (w *Worker) callRetry(ctx context.Context, method, path string, in, out any) error {
	var last error
	for attempt := 0; attempt <= w.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			w.retries.Inc()
			if err := w.cfg.Backoff.Sleep(ctx, attempt-1); err != nil {
				return err
			}
		}
		last = w.call(ctx, method, path, in, out)
		if last == nil {
			return nil
		}
		if !retryable(last) {
			return last
		}
		w.log.Warn(w.lctx, "coordinator call failed, retrying",
			"method", method, "path", path, "attempt", attempt+1, "error", last)
	}
	return last
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
