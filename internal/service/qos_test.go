package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sdcgmres/internal/kernel"
	"sdcgmres/internal/qos"
	"sdcgmres/internal/trace"
)

// qosClock is the deterministic scheduler clock for engine QoS tests.
type qosClock struct {
	mu sync.Mutex
	t  time.Time
}

func newQoSClock() *qosClock {
	return &qosClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *qosClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *qosClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// orderRunner records the tenants of jobs it executes in pop order. Jobs
// with matrix N == 9 block until the gate closes (or their context ends),
// letting tests build a saturated backlog behind a single worker.
type orderRunner struct {
	mu    sync.Mutex
	order []string
	gate  chan struct{}
}

func newOrderRunner() *orderRunner {
	return &orderRunner{gate: make(chan struct{})}
}

func (o *orderRunner) served() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]string(nil), o.order...)
}

func (o *orderRunner) run(ctx context.Context, spec *JobSpec, _ *trace.Recorder, _ *kernel.Pool) (*SolveRecord, error) {
	if spec.Matrix.N == 9 {
		select {
		case <-o.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &SolveRecord{Problem: "gate", Solver: spec.SolverKind(), Converged: true}, nil
	}
	o.mu.Lock()
	o.order = append(o.order, spec.Tenant)
	o.mu.Unlock()
	return &SolveRecord{Problem: "stub", Solver: spec.SolverKind(), Converged: true}, nil
}

func tenantJob(tenant string) JobSpec {
	s := PoissonJob(8)
	s.Tenant = tenant
	return s
}

// TestEngineQoSWeightSplit drives the acceptance scenario through the real
// engine: one worker, a 3:1 weight config, both tenants saturated; the
// completion order splits 3:1.
func TestEngineQoSWeightSplit(t *testing.T) {
	run := newOrderRunner()
	e := NewEngine(Config{
		Workers: 1,
		QoS: &qos.Config{
			Tenants:    map[string]qos.TenantConfig{"alpha": {Weight: 3}, "beta": {Weight: 1}},
			QueueDepth: 64,
		},
		Runner: run.run,
	})
	e.Start()
	defer e.Shutdown(context.Background())

	// The gate job saturates the single worker while the backlog builds.
	gate, err := e.Submit(PoissonJob(9))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, e, gate.ID, 5*time.Second)
	ids := []string{}
	for i := 0; i < 8; i++ {
		va, err := e.Submit(tenantJob("alpha"))
		if err != nil {
			t.Fatal(err)
		}
		vb, err := e.Submit(tenantJob("beta"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, va.ID, vb.ID)
	}
	close(run.gate)
	waitTerminal(t, e, gate.ID, 5*time.Second)
	for _, id := range ids {
		waitTerminal(t, e, id, 5*time.Second)
	}

	// With a single worker the pop order is the WFQ order: the first 8
	// completions split exactly 6 alpha / 2 beta (3:1, well inside the
	// issue's ±10% band).
	order := run.served()
	if len(order) != 16 {
		t.Fatalf("served %d jobs, want 16", len(order))
	}
	alpha := 0
	for _, tn := range order[:8] {
		if tn == "alpha" {
			alpha++
		}
	}
	if alpha != 6 {
		t.Fatalf("first 8 completions: %d alpha, want 6 (order %v)", alpha, order[:8])
	}
}

// TestEngineQoSDeadlineShedExpired: a job whose deadline expires while
// queued turns terminal as "shed" without ever reaching the runner, and
// its flight recorder holds the qos-admit and qos-shed events.
func TestEngineQoSDeadlineShedExpired(t *testing.T) {
	clk := newQoSClock()
	run := newOrderRunner()
	e := NewEngine(Config{
		Workers:       1,
		QoS:           &qos.Config{},
		QoSClock:      clk.Now,
		Runner:        run.run,
		TraceCapacity: 64,
	})
	e.Start()
	defer e.Shutdown(context.Background())

	gate, err := e.Submit(PoissonJob(9))
	if err != nil {
		t.Fatal(err)
	}
	spec := tenantJob("victim")
	spec.DeadlineMS = 50
	victim, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	clk.Advance(100 * time.Millisecond) // the deadline passes in the queue
	close(run.gate)

	v := waitTerminal(t, e, victim.ID, 5*time.Second)
	if v.State != StateShed {
		t.Fatalf("victim state = %s, want shed", v.State)
	}
	if !strings.Contains(v.Error, "deadline expired") {
		t.Fatalf("victim error = %q", v.Error)
	}
	waitTerminal(t, e, gate.ID, 5*time.Second)
	for _, tn := range run.served() {
		if tn == "victim" {
			t.Fatal("shed job reached the runner")
		}
	}
	if got := e.Metrics().JobsShed.Value(); got != 1 {
		t.Fatalf("JobsShed = %d, want 1", got)
	}
	events, err := e.JobTrace(victim.ID)
	if err != nil {
		t.Fatalf("JobTrace: %v", err)
	}
	var kinds []string
	for _, ev := range events {
		kinds = append(kinds, ev.Kind.String())
	}
	want := map[string]bool{"qos-admit": false, "qos-shed": false}
	for _, k := range kinds {
		if _, ok := want[k]; ok {
			want[k] = true
		}
	}
	for k, seen := range want {
		if !seen {
			t.Fatalf("trace missing %s event (got %v)", k, kinds)
		}
	}
}

// TestEngineQoSBreakerTripsOnPanics: a tenant whose jobs keep panicking
// trips its circuit breaker; further submissions shed with reason
// "breaker" while other tenants are untouched.
func TestEngineQoSBreakerTripsOnPanics(t *testing.T) {
	panicRunner := func(ctx context.Context, spec *JobSpec, _ *trace.Recorder, _ *kernel.Pool) (*SolveRecord, error) {
		if spec.Matrix.N == 7 {
			panic("hostile guest")
		}
		return &SolveRecord{Problem: "stub", Solver: spec.SolverKind(), Converged: true}, nil
	}
	e := NewEngine(Config{
		Workers: 1,
		QoS: &qos.Config{
			BreakerThreshold: 2,
			BreakerCooldown:  qos.Duration(time.Hour),
		},
		Runner: panicRunner,
	})
	e.Start()
	defer e.Shutdown(context.Background())

	for i := 0; i < 2; i++ {
		spec := PoissonJob(7)
		spec.Tenant = "hostile"
		v, err := e.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := waitTerminal(t, e, v.ID, 5*time.Second); got.State != StateFailed {
			t.Fatalf("panicking job state = %s, want failed", got.State)
		}
	}
	_, err := e.Submit(tenantJob("hostile"))
	var shed *qos.ShedError
	if !errors.As(err, &shed) || shed.Reason != qos.ReasonBreaker {
		t.Fatalf("submit after breaker trip = %v, want breaker shed", err)
	}
	if _, err := e.Submit(tenantJob("friendly")); err != nil {
		t.Fatalf("friendly tenant rejected: %v", err)
	}
	if got := e.Metrics().JobsRejected.Value(); got != 1 {
		t.Fatalf("JobsRejected = %d, want 1", got)
	}
}

// TestEngineQoSBreakerTripsOnTimeouts: a tenant whose jobs keep blowing
// their wall-clock budget trips its breaker, as one whose jobs panic does.
// The budget rides on the job's context, so the sandbox reports the
// guest's context error, never TimedOut; the job's state is what counts.
func TestEngineQoSBreakerTripsOnTimeouts(t *testing.T) {
	waitRunner := func(ctx context.Context, _ *JobSpec, _ *trace.Recorder, _ *kernel.Pool) (*SolveRecord, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	e := NewEngine(Config{
		Workers:       1,
		DefaultBudget: 20 * time.Millisecond,
		QoS: &qos.Config{
			BreakerThreshold: 2,
			BreakerCooldown:  qos.Duration(time.Hour),
		},
		Runner: waitRunner,
	})
	e.Start()
	defer e.Shutdown(context.Background())

	for i := 0; i < 2; i++ {
		v, err := e.Submit(tenantJob("slow"))
		if err != nil {
			t.Fatal(err)
		}
		if got := waitTerminal(t, e, v.ID, 5*time.Second); got.State != StateTimedOut {
			t.Fatalf("job state = %s, want timed-out", got.State)
		}
	}
	// The outcome reaches the breaker just after the job turns terminal.
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if breakerOf(e.QoSState(), "slow") == qos.BreakerOpen {
			break
		}
	}
	_, err := e.Submit(tenantJob("slow"))
	var shed *qos.ShedError
	if !errors.As(err, &shed) || shed.Reason != qos.ReasonBreaker {
		t.Fatalf("submit after two timed-out jobs = %v, want breaker shed", err)
	}
}

// breakerOf returns a tenant's breaker state, or "" when it has none.
func breakerOf(states []qos.TenantState, tenant string) string {
	for _, st := range states {
		if st.Tenant == tenant {
			return st.Breaker
		}
	}
	return ""
}

// waitRunning polls until a job reaches StateRunning.
func waitRunning(t *testing.T, e *Engine, id string, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if v, ok := e.Job(id); ok && v.State == StateRunning {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s not running within %v", id, within)
}

// probeRunner panics on matrix N == 7 and gates on N == 9; everything
// else completes instantly.
func probeRunner(gate chan struct{}) Runner {
	return func(ctx context.Context, spec *JobSpec, _ *trace.Recorder, _ *kernel.Pool) (*SolveRecord, error) {
		switch spec.Matrix.N {
		case 7:
			panic("hostile guest")
		case 9:
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return &SolveRecord{Problem: "stub", Solver: spec.SolverKind(), Converged: true}, nil
	}
}

// tripHostileBreaker runs one panicking "hostile" job so the tenant's
// threshold-1 breaker opens.
func tripHostileBreaker(t *testing.T, e *Engine) {
	t.Helper()
	spec := PoissonJob(7)
	spec.Tenant = "hostile"
	v, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, e, v.ID, 5*time.Second); got.State != StateFailed {
		t.Fatalf("panicking job state = %s, want failed", got.State)
	}
}

// TestEngineQoSProbeCanceledWhileQueuedReleasesSlot is the tenant-lockout
// regression: the half-open probe job is canceled while queued, the
// worker skips it at dequeue without reporting an outcome, and the probe
// slot must be released so the tenant's next job can probe instead of
// being breaker-shed forever.
func TestEngineQoSProbeCanceledWhileQueuedReleasesSlot(t *testing.T) {
	clk := newQoSClock()
	gate := make(chan struct{})
	e := NewEngine(Config{
		Workers:  1,
		QoS:      &qos.Config{BreakerThreshold: 1, BreakerCooldown: qos.Duration(time.Hour)},
		QoSClock: clk.Now,
		Runner:   probeRunner(gate),
	})
	e.Start()
	defer e.Shutdown(context.Background())

	tripHostileBreaker(t, e)
	clk.Advance(time.Hour) // cooldown over: half-open

	// Saturate the worker, then queue the hostile probe behind it and
	// cancel it before it runs.
	gateJob, err := e.Submit(PoissonJob(9))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, e, gateJob.ID, 5*time.Second)
	probe, err := e.Submit(tenantJob("hostile"))
	if err != nil {
		t.Fatalf("probe not admitted: %v", err)
	}
	if _, err := e.Cancel(probe.ID); err != nil {
		t.Fatal(err)
	}
	close(gate)
	waitTerminal(t, e, gateJob.ID, 5*time.Second)
	// A friendly job behind the canceled probe proves the worker passed
	// the skip path (and its release) before we re-probe.
	after, err := e.Submit(tenantJob("friendly"))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, e, after.ID, 5*time.Second)

	if _, err := e.Submit(tenantJob("hostile")); err != nil {
		t.Fatalf("probe slot leaked: tenant locked out: %v", err)
	}
}

// TestEngineQoSProbeExpiredInQueueReleasesSlot: same lockout regression
// through the other no-outcome path — the probe's deadline expires while
// queued and the shed callback must release the slot.
func TestEngineQoSProbeExpiredInQueueReleasesSlot(t *testing.T) {
	clk := newQoSClock()
	gate := make(chan struct{})
	e := NewEngine(Config{
		Workers:  1,
		QoS:      &qos.Config{BreakerThreshold: 1, BreakerCooldown: qos.Duration(time.Hour)},
		QoSClock: clk.Now,
		Runner:   probeRunner(gate),
	})
	e.Start()
	defer e.Shutdown(context.Background())

	tripHostileBreaker(t, e)
	clk.Advance(time.Hour) // cooldown over: half-open

	gateJob, err := e.Submit(PoissonJob(9))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, e, gateJob.ID, 5*time.Second)
	spec := tenantJob("hostile")
	spec.DeadlineMS = 50
	probe, err := e.Submit(spec)
	if err != nil {
		t.Fatalf("probe not admitted: %v", err)
	}
	clk.Advance(100 * time.Millisecond) // the probe's deadline passes in the queue
	close(gate)
	waitTerminal(t, e, gateJob.ID, 5*time.Second)
	if v := waitTerminal(t, e, probe.ID, 5*time.Second); v.State != StateShed {
		t.Fatalf("probe state = %s, want shed", v.State)
	}

	if _, err := e.Submit(tenantJob("hostile")); err != nil {
		t.Fatalf("probe slot leaked: tenant locked out: %v", err)
	}
}

// TestEngineQoSAdmitEventFirstInTrace: the qos-admit event is recorded
// under the scheduler lock at admission, so it is always the job's first
// scheduling trace event — never reordered after run/solve events by a
// fast worker. Only the correlation stamp, emitted when the recorder is
// created (before the job is ever pushed), may precede it.
func TestEngineQoSAdmitEventFirstInTrace(t *testing.T) {
	e := NewEngine(Config{
		Workers:       1,
		QoS:           &qos.Config{},
		Runner:        stubRunner(-1, 0),
		TraceCapacity: 64,
	})
	e.Start()
	defer e.Shutdown(context.Background())

	v, err := e.Submit(tenantJob("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, e, v.ID, 5*time.Second)
	events, err := e.JobTrace(v.ID)
	if err != nil {
		t.Fatalf("JobTrace: %v", err)
	}
	if len(events) == 0 || events[0].Kind.String() != "correlation" {
		t.Fatalf("first trace event = %+v, want correlation", events)
	}
	if len(events) < 2 || events[1].Kind.String() != "qos-admit" {
		t.Fatalf("first scheduling event = %+v, want qos-admit", events)
	}
	admits := 0
	for _, ev := range events {
		if ev.Kind.String() == "qos-admit" {
			admits++
		}
	}
	if admits != 1 {
		t.Fatalf("qos-admit recorded %d times, want 1", admits)
	}
}

// testCancelQueuedNeverRuns is the regression for DELETEd-while-queued
// jobs: under a saturated pool the canceled job finishes as canceled
// without ever occupying a worker. Runs against both queue paths.
func testCancelQueuedNeverRuns(t *testing.T, qosCfg *qos.Config) {
	run := newOrderRunner()
	e := NewEngine(Config{Workers: 1, QueueDepth: 8, QoS: qosCfg, Runner: run.run})
	e.Start()
	defer e.Shutdown(context.Background())

	gate, err := e.Submit(PoissonJob(9))
	if err != nil {
		t.Fatal(err)
	}
	victim, err := e.Submit(tenantJob("victim"))
	if err != nil {
		t.Fatal(err)
	}
	v, err := e.Cancel(victim.ID)
	if err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if v.State != StateCanceled || !strings.Contains(v.Error, "canceled while queued") {
		t.Fatalf("canceled view = %s %q", v.State, v.Error)
	}
	close(run.gate)
	waitTerminal(t, e, gate.ID, 5*time.Second)
	if err := e.Shutdown(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, tn := range run.served() {
		if tn == "victim" {
			t.Fatal("canceled job occupied a worker")
		}
	}
	if got := e.Metrics().JobsCanceled.Value(); got != 1 {
		t.Fatalf("JobsCanceled = %d, want 1", got)
	}
}

func TestCancelQueuedNeverRunsFIFO(t *testing.T) {
	testCancelQueuedNeverRuns(t, nil)
}

func TestCancelQueuedNeverRunsQoS(t *testing.T) {
	testCancelQueuedNeverRuns(t, &qos.Config{})
}

// TestEngineNoQoSIgnoresTenantFields: without a scheduler, specs carrying
// tenant/class/deadline fields behave exactly like plain jobs — the
// unconfigured path stays byte-for-byte FIFO.
func TestEngineNoQoSIgnoresTenantFields(t *testing.T) {
	e := NewEngine(Config{Workers: 1, Runner: stubRunner(-1, 0)})
	e.Start()
	defer e.Shutdown(context.Background())

	spec := tenantJob("someone")
	spec.Class = "interactive"
	spec.DeadlineMS = 1 // would shed instantly under QoS with a full queue
	v, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, e, v.ID, 5*time.Second); got.State != StateDone {
		t.Fatalf("state = %s, want done", got.State)
	}
	if e.QoSEnabled() {
		t.Fatal("QoSEnabled without config")
	}
	if e.QoSState() != nil {
		t.Fatal("QoSState without config should be nil")
	}
}

// TestEngineFlatAdmitEventFirstInTrace is the unconfigured twin of
// TestEngineQoSAdmitEventFirstInTrace: without a QoS config the engine
// queues on the same scheduler, so a job's trace starts with its qos-admit
// event too, under the default tenant whatever the spec names.
func TestEngineFlatAdmitEventFirstInTrace(t *testing.T) {
	e := NewEngine(Config{
		Workers:       1,
		Runner:        stubRunner(-1, 0),
		TraceCapacity: 64,
	})
	e.Start()
	defer e.Shutdown(context.Background())

	v, err := e.Submit(tenantJob("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, e, v.ID, 5*time.Second)
	events, err := e.JobTrace(v.ID)
	if err != nil {
		t.Fatalf("JobTrace: %v", err)
	}
	if len(events) == 0 || events[0].Kind.String() != "correlation" {
		t.Fatalf("first trace event = %+v, want correlation", events)
	}
	if len(events) < 2 || events[1].Kind.String() != "qos-admit" || events[1].Label != qos.DefaultTenant {
		t.Fatalf("first scheduling event = %+v, want qos-admit for %q", events, qos.DefaultTenant)
	}
	admits := 0
	for _, ev := range events {
		if ev.Kind.String() == "qos-admit" {
			admits++
		}
	}
	if admits != 1 {
		t.Fatalf("qos-admit recorded %d times, want 1", admits)
	}
}

// TestEngineFlatKeepsOneTenant: without a QoS config the spec's tenant,
// class and deadline never reach the scheduler. Jobs from 300 distinct
// tenants in the background class with a 1 ms deadline are all admitted
// and run although their deadline passes in the queue, and the scheduler
// knows only the default tenant before and after they run, so a client
// cycling X-Tenant names cannot grow its state.
func TestEngineFlatKeepsOneTenant(t *testing.T) {
	const jobs = 300
	clk := newQoSClock()
	e := NewEngine(Config{Workers: 2, QueueDepth: jobs, QoSClock: clk.Now, Runner: stubRunner(-1, 0)})
	onlyDefault := func(when string, queued int) {
		t.Helper()
		st := e.sched.State()
		if len(st) != 1 || st[0].Tenant != qos.DefaultTenant || st[0].Queued != queued {
			t.Fatalf("%s: scheduler state %+v, want only %q with %d queued", when, st, qos.DefaultTenant, queued)
		}
	}
	ids := make([]string, jobs)
	for i := range ids {
		spec := tenantJob(fmt.Sprintf("tenant-%03d", i))
		spec.Class = "background"
		spec.DeadlineMS = 1
		v, err := e.Submit(spec)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		ids[i] = v.ID
	}
	onlyDefault("before the jobs run", jobs)

	clk.Advance(time.Second) // every deadline passes in the queue
	e.Start()
	defer e.Shutdown(context.Background())
	for _, id := range ids {
		if v := waitTerminal(t, e, id, 5*time.Second); v.State != StateDone {
			t.Fatalf("job %s ended %s (%s), want done", id, v.State, v.Error)
		}
	}
	onlyDefault("after the jobs ran", 0)
}

// postJobTenant submits a spec with an X-Tenant header.
func postJobTenant(t *testing.T, url, tenant string, spec JobSpec) *http.Response {
	t.Helper()
	body, _ := json.Marshal(spec)
	req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	io.Copy(io.Discard, resp.Body)
	return resp
}

// TestServerQoSThrottleAndObservability: over HTTP, a rate-limited tenant
// named by the X-Tenant header gets 429 + Retry-After once its burst is
// spent, /metrics grows per-tenant solved_qos_* series, and /healthz
// reports scheduler state.
func TestServerQoSThrottleAndObservability(t *testing.T) {
	e := NewEngine(Config{
		Workers: 1,
		QoS: &qos.Config{
			Tenants: map[string]qos.TenantConfig{"slow": {Rate: 0.001, Burst: 1}},
		},
		Runner: stubRunner(-1, 0),
	})
	e.Start()
	defer e.Shutdown(context.Background())
	ts := httptest.NewServer(NewServer(e, ServerOptions{}))
	defer ts.Close()

	if resp := postJobTenant(t, ts.URL, "slow", PoissonJob(8)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d", resp.StatusCode)
	}
	resp := postJobTenant(t, ts.URL, "slow", PoissonJob(8))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit: status %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want integer >= 1", resp.Header.Get("Retry-After"))
	}

	metrics, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metrics.Body.Close()
	raw, _ := io.ReadAll(metrics.Body)
	for _, want := range []string{
		`solved_qos_admitted_total{tenant="slow"} 1`,
		`solved_qos_throttled_total{tenant="slow"} 1`,
		`solved_qos_shed_total{tenant="slow",reason="throttled"} 1`,
		`solved_qos_queue_depth{tenant="slow"}`,
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	health, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer health.Body.Close()
	var body struct {
		QoS []qos.TenantState `json:"qos"`
	}
	if err := json.NewDecoder(health.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, st := range body.QoS {
		if st.Tenant == "slow" && st.Breaker == qos.BreakerClosed {
			found = true
		}
	}
	if !found {
		t.Fatalf("healthz qos state missing tenant slow: %+v", body.QoS)
	}
}

// TestServerSpecTenantWinsOverHeader: an explicit spec tenant is not
// overridden by X-Tenant.
func TestServerSpecTenantWinsOverHeader(t *testing.T) {
	e := NewEngine(Config{Workers: 1, QoS: &qos.Config{}, Runner: stubRunner(-1, 0)})
	e.Start()
	defer e.Shutdown(context.Background())
	ts := httptest.NewServer(NewServer(e, ServerOptions{}))
	defer ts.Close()

	if resp := postJobTenant(t, ts.URL, "header-tenant", tenantJob("spec-tenant")); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	metrics, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metrics.Body.Close()
	raw, _ := io.ReadAll(metrics.Body)
	if !strings.Contains(string(raw), `solved_qos_admitted_total{tenant="spec-tenant"} 1`) {
		t.Fatal("spec tenant not accounted")
	}
	if strings.Contains(string(raw), `solved_qos_admitted_total{tenant="header-tenant"} 1`) {
		t.Fatal("header tenant overrode the spec field")
	}
}

// TestServerRetryAfterComputedFIFO: the FIFO path's 429 carries a
// Retry-After computed from live queue depth × observed mean service time,
// not the old constant.
func TestServerRetryAfterComputedFIFO(t *testing.T) {
	run := newOrderRunner()
	e := NewEngine(Config{Workers: 1, QueueDepth: 2, Runner: run.run, DefaultBudget: time.Minute})
	e.Start()
	defer e.Shutdown(context.Background())
	defer close(run.gate) // let the backlog drain instantly at teardown
	// Seed the service-time estimate: mean 2s across completed solves.
	e.Metrics().ObserveSolve("ftgmres", 2*time.Second)
	ts := httptest.NewServer(NewServer(e, ServerOptions{}))
	defer ts.Close()

	// Occupy the single worker, then fill the queue exactly.
	resp, running := postJob(t, ts.URL, PoissonJob(9))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v := getJob(t, ts.URL, running.ID); v.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	for i := 0; i < 2; i++ {
		if resp, _ := postJob(t, ts.URL, PoissonJob(9)); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fill %d: status %d", i, resp.StatusCode)
		}
	}
	resp, _ = postJob(t, ts.URL, PoissonJob(9))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow: status %d, want 429", resp.StatusCode)
	}
	// 2 queued × 2s mean ÷ 1 worker = 4 seconds.
	if got := resp.Header.Get("Retry-After"); got != "4" {
		t.Fatalf("Retry-After = %q, want 4", got)
	}
}

// TestServerCampaignBusyRetryAfter: POST /v1/campaigns answers 429 with a
// Retry-After header at the active-campaign cap.
func TestServerCampaignBusyRetryAfter(t *testing.T) {
	e := NewEngine(Config{Workers: 1, Runner: stubRunner(-1, 0)})
	e.Start()
	defer e.Shutdown(context.Background())
	m := NewCampaignManager(CampaignManagerConfig{Dir: t.TempDir(), Workers: 1, MaxActive: 1})
	defer m.Shutdown(context.Background())
	// Pin an active campaign so the cap is deterministically reached.
	m.mu.Lock()
	m.campaigns["cmp-pinned"] = &managedCampaign{id: "cmp-pinned", state: CampaignRunning}
	m.order = append(m.order, "cmp-pinned")
	m.mu.Unlock()
	ts := httptest.NewServer(NewServer(e, ServerOptions{Campaigns: m}))
	defer ts.Close()

	body, _ := json.Marshal(testCampaignManifest())
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want integer >= 1", resp.Header.Get("Retry-After"))
	}
}
