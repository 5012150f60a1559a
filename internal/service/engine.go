package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sdcgmres/internal/kernel"
	"sdcgmres/internal/memo"
	"sdcgmres/internal/obs"
	"sdcgmres/internal/qos"
	"sdcgmres/internal/sandbox"
	"sdcgmres/internal/trace"
)

// Engine API errors.
var (
	// ErrDraining: the engine is shutting down and admits no new work.
	ErrDraining = errors.New("service: engine draining")
	// ErrUnknownJob: no job with that ID (possibly evicted by retention).
	ErrUnknownJob = errors.New("service: unknown job")
	// ErrNotCancelable: the job already reached a terminal state.
	ErrNotCancelable = errors.New("service: job already terminal")
	// ErrNoTrace: tracing is disabled, or the job has no recorder yet.
	ErrNoTrace = errors.New("service: no trace for job")
)

// Runner executes one validated job spec. The engine calls it inside the
// sandbox with a deadline-carrying context, so a Runner may hang or panic
// without harming the process. rec is the job's flight recorder — nil
// unless the engine was configured with a TraceCapacity — and a Runner
// must tolerate nil (every trace.Recorder method is nil-safe, so passing
// it through unconditionally is fine). pool is the engine worker's
// persistent kernel pool — nil when the engine has no kernel budget — and
// a Runner must tolerate nil too (a nil pool means sequential kernels,
// with bit-identical results).
type Runner func(ctx context.Context, spec *JobSpec, rec *trace.Recorder, pool *kernel.Pool) (*SolveRecord, error)

// Config parameterizes an Engine. The zero value is usable: every field
// has a production default.
type Config struct {
	// Workers is the worker pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue (default 64).
	QueueDepth int
	// DefaultBudget is the per-job wall-clock budget when the spec names
	// none (default 30s).
	DefaultBudget time.Duration
	// MaxBudget clamps spec-requested budgets (default 5m).
	MaxBudget time.Duration
	// Retain bounds how many terminal jobs stay queryable before the
	// oldest are evicted (default 1024).
	Retain int
	// Metrics receives the engine's observations (default: a fresh
	// registry, available via Engine.Metrics).
	Metrics *Metrics
	// Runner executes solves. The default runs RunSpec's solve on an
	// operator from the engine's operator cache, so jobs that repeat a
	// matrix build it once. Tests substitute stubs.
	Runner Runner
	// TraceCapacity, when positive, gives every job a flight recorder
	// ring of that many events, queryable via JobTrace while the job runs
	// and after it finishes (until retention evicts it). Zero disables
	// tracing: runners receive a nil recorder and pay one pointer check
	// per event site.
	TraceCapacity int
	// KernelWorkers is the process's total shared-memory kernel budget
	// (0 = sequential kernels). Each engine worker gets a persistent pool
	// of max(1, KernelWorkers/Workers) kernel workers, so job concurrency
	// times pool width never oversubscribes the budget. Kernels are
	// bitwise deterministic: solve records are identical for every
	// KernelWorkers value.
	KernelWorkers int
	// QoS, when non-nil, replaces the flat FIFO at the engine's
	// backpressure point with the internal/qos multi-tenant scheduler:
	// per-tenant rate limits, weighted-fair queuing, priority classes with
	// aging, deadline shedding, and circuit breakers. Nil preserves
	// today's single-queue FIFO semantics exactly. The config must be
	// valid (qos.ParseConfig and qos.LoadConfig validate); NewEngine
	// panics on one that is not.
	QoS *qos.Config
	// QoSClock injects the scheduler's clock (nil = time.Now). Tests use
	// a deterministic clock so scheduling assertions never sleep.
	QoSClock func() time.Time
	// Memo, when non-nil, is the content-addressed solve cache. The
	// engine consults it at submission — before any QoS admission, so a
	// hit never spends a token-bucket token or a worker — and collapses
	// concurrent identical in-flight jobs onto one execution via its
	// singleflight. Nil disables memoization at the cost of one pointer
	// check per submit; every output is byte-for-byte what it was
	// without a cache.
	Memo *memo.Cache
	// Log receives the engine's structured lifecycle records (job
	// accepted / started / terminal / shed), each stamped with the job's
	// correlation ID. Nil disables logging at the cost of one pointer
	// check per site — the same "free when off" contract as the trace
	// recorder.
	Log *obs.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.DefaultBudget <= 0 {
		c.DefaultBudget = 30 * time.Second
	}
	if c.MaxBudget <= 0 {
		c.MaxBudget = 5 * time.Minute
	}
	if c.Retain <= 0 {
		c.Retain = 1024
	}
	if c.Metrics == nil {
		c.Metrics = NewMetrics()
	}
	return c
}

// Engine is the solver job engine: a bounded queue feeding a worker pool
// that runs each solve inside the sandbox reliability model. It is the
// reliable host of the paper's Section IV contract, with every job as an
// unreliable guest.
type Engine struct {
	cfg   Config
	queue *FIFO[*Job]
	// sched is the QoS scheduler when Config.QoS is set; nil otherwise.
	// Exactly one of the two queue paths is in use for the engine's whole
	// lifetime.
	sched   *qos.Scheduler[*Job]
	wg      sync.WaitGroup
	started atomic.Bool
	drain   atomic.Bool
	nextID  atomic.Int64

	// baseCtx parents every job context; hardCancel aborts all running
	// jobs when a shutdown deadline expires.
	baseCtx    context.Context
	hardCancel context.CancelFunc

	// pools holds one persistent kernel pool per engine worker (nil
	// entries mean sequential kernels). Built by Start, closed by
	// Shutdown after the drain completes.
	pools []*kernel.Pool

	// ops caches built operators for the default runner; nil when the
	// config supplies its own Runner.
	ops *opCache

	mu   sync.Mutex
	jobs map[string]*Job
	done []string // terminal job IDs in completion order, for eviction
}

// NewEngine builds an engine; call Start to launch the worker pool.
func NewEngine(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		cfg:        cfg,
		queue:      NewFIFO[*Job](cfg.QueueDepth),
		baseCtx:    ctx,
		hardCancel: cancel,
		jobs:       make(map[string]*Job),
	}
	if cfg.Runner == nil {
		e.ops = newOpCache(maxOperatorBytes, cfg.Metrics)
		e.cfg.Runner = e.runCached
	}
	if cfg.QoS != nil {
		sched, err := qos.New[*Job](*cfg.QoS, qos.Options[*Job]{
			Now:         cfg.QoSClock,
			Workers:     cfg.Workers,
			ServiceTime: cfg.Metrics.MeanServiceTime,
			OnShed:      e.shedExpired,
			TraceOf: func(j *Job) *trace.Recorder {
				j.mu.Lock()
				defer j.mu.Unlock()
				return j.trace
			},
		})
		if err != nil {
			panic(fmt.Sprintf("service: invalid QoS config: %v", err))
		}
		e.sched = sched
	}
	return e
}

// Metrics returns the engine's registry.
func (e *Engine) Metrics() *Metrics { return e.cfg.Metrics }

// Workers returns the worker pool size.
func (e *Engine) Workers() int { return e.cfg.Workers }

// QueueLen returns the number of jobs waiting for a worker.
func (e *Engine) QueueLen() int {
	if e.sched != nil {
		return e.sched.Len()
	}
	return e.queue.Len()
}

// QoSEnabled reports whether the engine runs the multi-tenant QoS
// scheduler instead of the flat FIFO.
func (e *Engine) QoSEnabled() bool { return e.sched != nil }

// QoSState snapshots the scheduler's per-tenant state for /healthz.
// Nil when the engine runs without QoS.
func (e *Engine) QoSState() []qos.TenantState {
	if e.sched == nil {
		return nil
	}
	return e.sched.State()
}

// WriteQoSMetrics appends the per-tenant solved_qos_* series to a
// /metrics response. No-op without a QoS scheduler.
func (e *Engine) WriteQoSMetrics(w io.Writer) {
	if e.sched != nil {
		e.sched.WritePrometheus(w)
	}
}

// RetryAfter estimates how many whole seconds a rejected submitter should
// wait before retrying: live queue depth × the mean observed service time
// ÷ worker count, ceiling, minimum 1.
func (e *Engine) RetryAfter() int {
	wait := float64(e.QueueLen()) * e.cfg.Metrics.MeanServiceTime().Seconds() / float64(e.cfg.Workers)
	s := int(math.Ceil(wait))
	if s < 1 {
		s = 1
	}
	return s
}

// Draining reports whether shutdown has begun.
func (e *Engine) Draining() bool { return e.drain.Load() }

// Start launches the worker pool. Safe to call once.
func (e *Engine) Start() {
	if !e.started.CompareAndSwap(false, true) {
		return
	}
	perWorker := 0
	if e.cfg.KernelWorkers > 0 {
		perWorker = e.cfg.KernelWorkers / e.cfg.Workers
		if perWorker < 1 {
			perWorker = 1
		}
	}
	e.pools = make([]*kernel.Pool, e.cfg.Workers)
	if perWorker > 1 {
		for i := range e.pools {
			e.pools[i] = kernel.New(perWorker)
		}
	}
	e.wg.Add(e.cfg.Workers)
	for i := 0; i < e.cfg.Workers; i++ {
		go e.worker(e.pools[i])
	}
}

// KernelStats sums kernel-pool activity across the engine's workers.
// All-zero when the engine runs sequential kernels.
func (e *Engine) KernelStats() kernel.Stats {
	var total kernel.Stats
	for _, p := range e.pools {
		total.Add(p.Stats())
	}
	return total
}

// Submit validates and enqueues a job with a fresh correlation ID; see
// SubmitCtx.
func (e *Engine) Submit(spec JobSpec) (JobView, error) {
	return e.SubmitCtx(context.Background(), spec)
}

// SubmitCtx validates and enqueues a job, adopting the correlation ID
// carried by ctx (minting one when absent) so the job's logs and trace
// join the submitting request. It returns ErrDraining during shutdown,
// ErrQueueFull when the FIFO rejects the job, a *qos.ShedError when the
// QoS scheduler rejects it (carrying the reason and retry advice), or
// the spec's validation error.
func (e *Engine) SubmitCtx(ctx context.Context, spec JobSpec) (JobView, error) {
	if e.drain.Load() {
		return JobView{}, ErrDraining
	}
	if err := spec.Validate(); err != nil {
		return JobView{}, err
	}
	cid := obs.FromContext(ctx).ID
	if cid == "" {
		cid = obs.NewID()
	}
	// Cache lookup precedes every admission decision: a memoized solve
	// is served without touching the FIFO or the QoS scheduler.
	var memoKey string
	if e.cfg.Memo != nil {
		memoKey = memo.JobKey(SpecDigest(&spec))
		if raw, ok := e.cfg.Memo.Get(memoKey); ok {
			if view, done := e.completeFromMemo(spec, cid, memoKey, raw); done {
				return view, nil
			}
		}
	}
	j := &Job{
		id:        fmt.Sprintf("job-%06d", e.nextID.Add(1)),
		spec:      spec,
		cid:       cid,
		memoKey:   memoKey,
		state:     StateQueued,
		submitted: time.Now(),
	}
	e.mu.Lock()
	e.jobs[j.id] = j
	e.mu.Unlock()
	// Once enqueued, a worker may start or even finish the job; the
	// caller is told what it submitted, a queued job.
	view := j.View()
	if err := e.enqueue(j); err != nil {
		e.mu.Lock()
		delete(e.jobs, j.id)
		e.mu.Unlock()
		if l := e.cfg.Log; l != nil {
			l.Warn(e.jobCtx(j), "job rejected", "reason", err.Error())
		}
		if errors.Is(err, ErrQueueClosed) || errors.Is(err, qos.ErrClosed) {
			return JobView{}, ErrDraining
		}
		e.cfg.Metrics.JobsRejected.Inc()
		return JobView{}, err
	}
	e.cfg.Metrics.JobsAccepted.Inc()
	if l := e.cfg.Log; l != nil {
		l.Info(e.jobCtx(j), "job accepted", "solver", j.spec.SolverKind())
	}
	return view, nil
}

// jobCtx builds the logging context carrying a job's correlation
// identity.
func (e *Engine) jobCtx(j *Job) context.Context {
	return obs.With(context.Background(), obs.Correlation{ID: j.cid, Job: j.id, Tenant: j.spec.Tenant})
}

// enqueue hands a job to whichever queue path the engine runs.
func (e *Engine) enqueue(j *Job) error {
	if e.sched == nil {
		return e.queue.Push(j)
	}
	// The QoS path gives the job its flight recorder at admission, so the
	// qos-admit/qos-shed events land on its own trace. The FIFO path keeps
	// creating it at run start, unchanged.
	var tr *trace.Recorder
	if e.cfg.TraceCapacity > 0 {
		tr = trace.NewRecorder(e.cfg.TraceCapacity)
		tr.Correlate(j.cid)
		j.mu.Lock()
		j.trace = tr
		j.mu.Unlock()
	}
	// The scheduler records the qos-admit event itself (via the TraceOf
	// hook, under its lock) so it lands on the trace before any worker
	// can pop the job and record run events.
	spec := &j.spec
	return e.sched.Push(spec.Tenant, spec.QoSClass(), spec.Deadline(), j)
}

// qosTenant is the spec's tenant as the scheduler accounts it.
func qosTenant(spec *JobSpec) string {
	if spec.Tenant == "" {
		return qos.DefaultTenant
	}
	return spec.Tenant
}

// shedExpired is the scheduler's OnShed callback: the job's deadline
// expired while it was queued, and it will never reach a worker.
func (e *Engine) shedExpired(tenant string, j *Job) {
	// The job dies without reporting an outcome; free the half-open probe
	// slot it may hold before it turns visibly terminal, or a lost probe
	// would lock the tenant out.
	e.sched.ReleaseProbe(tenant)
	j.mu.Lock()
	if j.state.Terminal() { // e.g. canceled while queued; already retired
		j.mu.Unlock()
		return
	}
	j.state = StateShed
	j.err = "deadline expired while queued"
	j.finished = time.Now()
	waited := j.finished.Sub(j.submitted)
	tr := j.trace
	j.mu.Unlock()
	tr.QoSShed(tenant, string(qos.ReasonExpired), float64(waited.Milliseconds()), 0)
	e.cfg.Metrics.JobsShed.Inc()
	if l := e.cfg.Log; l != nil {
		l.Warn(e.jobCtx(j), "job shed", "reason", "deadline expired while queued",
			"waited_ms", waited.Milliseconds())
	}
	e.retire(j)
}

// Job returns a snapshot of the job with the given ID.
func (e *Engine) Job(id string) (JobView, bool) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	e.mu.Unlock()
	if !ok {
		return JobView{}, false
	}
	return j.View(), true
}

// JobTrace returns the recorded flight-recorder events of a job,
// oldest-first. It returns ErrUnknownJob for unknown (or evicted) IDs and
// ErrNoTrace when tracing is disabled or the job has not started yet.
func (e *Engine) JobTrace(id string) ([]trace.Event, error) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	e.mu.Unlock()
	if !ok {
		return nil, ErrUnknownJob
	}
	j.mu.Lock()
	tr := j.trace
	j.mu.Unlock()
	if tr == nil {
		return nil, ErrNoTrace
	}
	return tr.Events(), nil
}

// Jobs snapshots every tracked job in submission order.
func (e *Engine) Jobs() []JobView {
	e.mu.Lock()
	all := make([]*Job, 0, len(e.jobs))
	for _, j := range e.jobs {
		all = append(all, j)
	}
	e.mu.Unlock()
	views := make([]JobView, len(all))
	for i, j := range all {
		views[i] = j.View()
	}
	// Submission order == ID order by construction.
	for i := 1; i < len(views); i++ {
		for k := i; k > 0 && views[k].ID < views[k-1].ID; k-- {
			views[k], views[k-1] = views[k-1], views[k]
		}
	}
	return views
}

// Cancel aborts a queued or running job. Queued jobs turn terminal
// immediately and are skipped when a worker reaches them; running jobs get
// their context canceled and the abandoned guest is left to the sandbox.
func (e *Engine) Cancel(id string) (JobView, error) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	e.mu.Unlock()
	if !ok {
		return JobView{}, ErrUnknownJob
	}
	j.mu.Lock()
	switch {
	case j.state == StateQueued:
		j.state = StateCanceled
		j.err = "canceled while queued"
		j.finished = time.Now()
		j.mu.Unlock()
		e.cfg.Metrics.JobsCanceled.Inc()
		e.retire(j)
	case j.state == StateRunning && j.cancel != nil:
		j.cancel()
		j.mu.Unlock()
	default:
		j.mu.Unlock()
		return j.View(), ErrNotCancelable
	}
	return j.View(), nil
}

// Shutdown drains the engine: admission stops immediately, queued jobs are
// still executed, and Shutdown returns when every worker has finished. If
// ctx ends before the drain completes, all running jobs are hard-canceled
// (their guests abandoned) and Shutdown waits for the workers to observe
// that, then returns ctx's error.
func (e *Engine) Shutdown(ctx context.Context) error {
	e.drain.Store(true)
	e.queue.Close()
	if e.sched != nil {
		e.sched.Close()
	}
	drained := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		e.hardCancel()
		<-drained
		err = ctx.Err()
	}
	for _, p := range e.pools {
		p.Close()
	}
	return err
}

// worker pops jobs until the queue closes and drains. pool is this
// worker's persistent kernel pool (nil = sequential kernels).
func (e *Engine) worker(pool *kernel.Pool) {
	defer e.wg.Done()
	for {
		var j *Job
		var ok bool
		if e.sched != nil {
			j, ok = e.sched.Pop()
		} else {
			j, ok = e.queue.Pop()
		}
		if !ok {
			return
		}
		e.run(j, pool)
	}
}

// budget resolves a job's effective wall-clock budget.
func (e *Engine) budget(spec *JobSpec) time.Duration {
	b := spec.Budget()
	if b <= 0 {
		b = e.cfg.DefaultBudget
	}
	if b > e.cfg.MaxBudget {
		b = e.cfg.MaxBudget
	}
	return b
}

// run executes one job under the sandbox contract and records its fate.
func (e *Engine) run(j *Job, pool *kernel.Pool) {
	m := e.cfg.Metrics

	j.mu.Lock()
	if j.state.Terminal() { // canceled while queued; already retired
		j.mu.Unlock()
		if e.sched != nil {
			// The admitted job dies without running, so it will never
			// report an outcome; free the probe slot it may hold.
			e.sched.ReleaseProbe(qosTenant(&j.spec))
		}
		return
	}
	ctx, cancel := context.WithTimeout(e.baseCtx, e.budget(&j.spec))
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	j.mu.Unlock()
	defer cancel()

	var tr *trace.Recorder
	if e.cfg.TraceCapacity > 0 {
		j.mu.Lock()
		tr = j.trace // the QoS path created it at admission
		if tr == nil {
			tr = trace.NewRecorder(e.cfg.TraceCapacity)
			tr.Correlate(j.cid)
			j.trace = tr
		}
		j.mu.Unlock()
	}
	if l := e.cfg.Log; l != nil {
		l.Debug(e.jobCtx(j), "job started", "solver", j.spec.SolverKind())
	}

	var rec *SolveRecord
	var rep sandbox.Report
	executed := false
	exec := func() ([]byte, error) {
		executed = true
		rep = sandbox.RunCtx(ctx, 0, func() error {
			r, err := e.cfg.Runner(ctx, &j.spec, tr, pool)
			if err != nil {
				return err
			}
			rec = r
			return nil
		})
		if rep.Outcome == sandbox.OK && rec != nil {
			return json.Marshal(rec)
		}
		if rep.Err != nil {
			return nil, rep.Err
		}
		return nil, errNoResult
	}
	fromMemo := false
	if e.cfg.Memo != nil && j.memoKey != "" {
		// Singleflight: identical jobs already in flight on another
		// worker become one execution; followers wait on the leader's
		// result instead of recomputing it. Only a successful leader is
		// shared — if it fails, each follower takes its own turn (the
		// exec closure runs, and the classification below sees its own
		// sandbox report). A follower's wait is bounded by the leader's
		// wall-clock budget.
		raw, how, _ := e.cfg.Memo.Do(j.memoKey, exec)
		if !executed {
			cached := new(SolveRecord)
			if err := json.Unmarshal(raw, cached); err == nil {
				rec = cached
				rep = sandbox.Report{Outcome: sandbox.OK}
				fromMemo = true
				tr.MemoHit(j.memoKey, memoHow(how), len(raw))
			} else {
				// Undecodable payload (defensive): run fresh.
				exec()
			}
		}
	} else {
		exec()
	}

	j.mu.Lock()
	j.cancel = nil
	j.fromMemo = fromMemo
	j.finished = time.Now()
	elapsed := j.finished.Sub(j.started)
	switch {
	case rep.Outcome == sandbox.OK && rec != nil:
		j.state = StateDone
		j.result = rec
	case isDeadline(rep.Err):
		j.state = StateTimedOut
		j.err = fmt.Sprintf("wall-clock budget exceeded after %v", elapsed.Round(time.Millisecond))
	case isCancel(rep.Err):
		j.state = StateCanceled
		j.err = "canceled while running"
	default:
		// Runner error, panic, or an OK report with no record (a guest
		// that lied) — all are failures the host absorbs.
		j.state = StateFailed
		if rep.Err != nil {
			j.err = rep.Err.Error()
		} else {
			j.err = "runner returned no result"
		}
	}
	state := j.state
	j.mu.Unlock()

	switch state {
	case StateDone:
		m.JobsCompleted.Inc()
		// Memo-satisfied jobs skip the latency histograms (no solve ran
		// here, and Retry-After must keep estimating real executions)
		// and the detector/fault aggregates (that work happened in the
		// execution that populated the cache).
		if !fromMemo {
			m.ObserveSolve(j.spec.SolverKind(), elapsed)
			m.DetectorFirings.Add(int64(rec.Detections))
			m.SandboxFailures.Add(int64(rec.SandboxFailures))
			if rec.FaultFired {
				m.FaultInjections.Inc()
			}
		}
	case StateTimedOut:
		m.JobsTimedOut.Inc()
	case StateCanceled:
		m.JobsCanceled.Inc()
	default:
		m.JobsFailed.Inc()
	}
	if e.sched != nil {
		// Feed the tenant's circuit breaker: a panic or a blown wall-clock
		// budget is the guest misbehaving; everything else (including a
		// plain error or a caller cancel) is not.
		good := rep.Outcome != sandbox.Panicked && rep.Outcome != sandbox.TimedOut
		e.sched.ReportOutcome(j.spec.Tenant, good)
	}
	if l := e.cfg.Log; l != nil {
		lctx := e.jobCtx(j)
		if state == StateDone {
			l.Info(lctx, "job done", "elapsed_ms", elapsed.Milliseconds(), "from_memo", fromMemo)
		} else {
			j.mu.Lock()
			errMsg := j.err
			j.mu.Unlock()
			l.Warn(lctx, "job terminal", "state", string(state),
				"elapsed_ms", elapsed.Milliseconds(), "error", errMsg)
		}
	}
	e.retire(j)
}

// retire records a terminal job and evicts the oldest beyond the retention
// cap, bounding the engine's memory under sustained traffic.
func (e *Engine) retire(j *Job) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.done = append(e.done, j.id)
	for len(e.done) > e.cfg.Retain {
		delete(e.jobs, e.done[0])
		e.done = e.done[1:]
	}
}

func isDeadline(err error) bool { return errors.Is(err, context.DeadlineExceeded) }
func isCancel(err error) bool   { return errors.Is(err, context.Canceled) }

// errNoResult marks an OK sandbox report with no record (a guest that
// lied); it keeps such runs out of the memo cache.
var errNoResult = errors.New("service: runner returned no result")
