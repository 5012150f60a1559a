package service

import (
	"context"
	"encoding/json"
	"errors"
	"slices"
	"testing"
	"time"

	"sdcgmres/internal/kernel"
	"sdcgmres/internal/memo"
	"sdcgmres/internal/trace"
)

// stubRunner returns a Runner with behaviour keyed on the spec's matrix
// size: N == hangN blocks until the job context ends; anything else sleeps
// briefly and succeeds.
func stubRunner(hangN int, delay time.Duration) Runner {
	return func(ctx context.Context, spec *JobSpec, _ *trace.Recorder, _ *kernel.Pool) (*SolveRecord, error) {
		if spec.Matrix.N == hangN {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &SolveRecord{Problem: "stub", Solver: spec.SolverKind(), Converged: true}, nil
	}
}

func waitTerminal(t *testing.T, e *Engine, id string, within time.Duration) JobView {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		v, ok := e.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if v.State.Terminal() {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s not terminal within %v", id, within)
	return JobView{}
}

func TestEngineCompletesJob(t *testing.T) {
	e := NewEngine(Config{Workers: 2, Runner: stubRunner(-1, time.Millisecond)})
	e.Start()
	defer e.Shutdown(context.Background())

	v, err := e.Submit(PoissonJob(8))
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateQueued {
		t.Fatalf("state after submit: %s", v.State)
	}
	v = waitTerminal(t, e, v.ID, time.Second)
	if v.State != StateDone || v.Result == nil || !v.Result.Converged {
		t.Fatalf("job: %+v", v)
	}
	if v.StartedAt == nil || v.FinishedAt == nil {
		t.Fatalf("timestamps missing: %+v", v)
	}
	if got := e.Metrics().JobsCompleted.Value(); got != 1 {
		t.Fatalf("completed counter = %d", got)
	}
}

func TestEngineRejectsInvalidSpec(t *testing.T) {
	e := NewEngine(Config{Workers: 1, Runner: stubRunner(-1, 0)})
	e.Start()
	defer e.Shutdown(context.Background())
	if _, err := e.Submit(JobSpec{}); err == nil {
		t.Fatal("invalid spec must be rejected")
	}
	if e.Metrics().JobsAccepted.Value() != 0 {
		t.Fatal("invalid spec must not count as accepted")
	}
}

func TestEngineTimeoutDoesNotKillNeighbors(t *testing.T) {
	e := NewEngine(Config{Workers: 2, DefaultBudget: 40 * time.Millisecond, Runner: stubRunner(9, time.Millisecond)})
	e.Start()
	defer e.Shutdown(context.Background())

	hung, err := e.Submit(PoissonJob(9)) // stub hangs on N == 9
	if err != nil {
		t.Fatal(err)
	}
	good, err := e.Submit(PoissonJob(8))
	if err != nil {
		t.Fatal(err)
	}
	gv := waitTerminal(t, e, good.ID, time.Second)
	if gv.State != StateDone {
		t.Fatalf("neighbor: %+v", gv)
	}
	hv := waitTerminal(t, e, hung.ID, time.Second)
	if hv.State != StateTimedOut {
		t.Fatalf("hung job: %+v", hv)
	}
	if e.Metrics().JobsTimedOut.Value() != 1 {
		t.Fatalf("timed-out counter = %d", e.Metrics().JobsTimedOut.Value())
	}
}

func TestEnginePanicIsolated(t *testing.T) {
	e := NewEngine(Config{Workers: 1, Runner: func(ctx context.Context, spec *JobSpec, _ *trace.Recorder, _ *kernel.Pool) (*SolveRecord, error) {
		panic("solver exploded")
	}})
	e.Start()
	defer e.Shutdown(context.Background())
	v, err := e.Submit(PoissonJob(8))
	if err != nil {
		t.Fatal(err)
	}
	v = waitTerminal(t, e, v.ID, time.Second)
	if v.State != StateFailed {
		t.Fatalf("panicked job: %+v", v)
	}
	// The engine survived: submit another.
	if _, err := e.Submit(PoissonJob(8)); err != nil {
		t.Fatalf("engine died with the guest: %v", err)
	}
}

func TestEngineCancelQueuedAndRunning(t *testing.T) {
	e := NewEngine(Config{Workers: 1, QueueDepth: 8, DefaultBudget: time.Minute, Runner: stubRunner(9, time.Millisecond)})
	e.Start()
	defer e.Shutdown(context.Background())

	running, err := e.Submit(PoissonJob(9)) // occupies the only worker
	if err != nil {
		t.Fatal(err)
	}
	queued, err := e.Submit(PoissonJob(8))
	if err != nil {
		t.Fatal(err)
	}
	// Cancel the queued job before a worker reaches it.
	if _, err := e.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	// Cancel the running job; its guest is abandoned.
	for {
		v, _ := e.Job(running.ID)
		if v.State == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := e.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	rv := waitTerminal(t, e, running.ID, time.Second)
	if rv.State != StateCanceled {
		t.Fatalf("running job after cancel: %+v", rv)
	}
	qv := waitTerminal(t, e, queued.ID, time.Second)
	if qv.State != StateCanceled {
		t.Fatalf("queued job after cancel: %+v", qv)
	}
	if _, err := e.Cancel(running.ID); !errors.Is(err, ErrNotCancelable) {
		t.Fatalf("double cancel: %v", err)
	}
	if _, err := e.Cancel("job-999999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown cancel: %v", err)
	}
}

func TestEngineShutdownDrainsQueue(t *testing.T) {
	e := NewEngine(Config{Workers: 2, QueueDepth: 32, Runner: stubRunner(-1, 5*time.Millisecond)})
	e.Start()
	var ids []string
	for i := 0; i < 10; i++ {
		v, err := e.Submit(PoissonJob(8))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	if err := e.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		v, ok := e.Job(id)
		if !ok || v.State != StateDone {
			t.Fatalf("job %s not drained: %+v", id, v)
		}
	}
	if _, err := e.Submit(PoissonJob(8)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after shutdown: %v", err)
	}
}

func TestEngineShutdownDeadlineAbortsRunning(t *testing.T) {
	e := NewEngine(Config{Workers: 1, DefaultBudget: time.Minute, Runner: stubRunner(9, 0)})
	e.Start()
	v, err := e.Submit(PoissonJob(9)) // hangs until its context dies
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := e.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown: %v", err)
	}
	jv, _ := e.Job(v.ID)
	if !jv.State.Terminal() {
		t.Fatalf("hung job after hard shutdown: %+v", jv)
	}
}

func TestEngineRetentionEvicts(t *testing.T) {
	e := NewEngine(Config{Workers: 1, Retain: 3, QueueDepth: 32, Runner: stubRunner(-1, 0)})
	e.Start()
	var ids []string
	for i := 0; i < 8; i++ {
		v, err := e.Submit(PoissonJob(8))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
		waitTerminal(t, e, v.ID, time.Second)
	}
	e.Shutdown(context.Background())
	if _, ok := e.Job(ids[0]); ok {
		t.Fatal("oldest job should have been evicted")
	}
	if _, ok := e.Job(ids[len(ids)-1]); !ok {
		t.Fatal("newest job should be retained")
	}
	if len(e.Jobs()) != 3 {
		t.Fatalf("retained %d jobs, want 3", len(e.Jobs()))
	}
}

// TestEngineJobsSubmissionOrderPastSixDigits: Jobs lists in submission
// order even once IDs outgrow their six-digit padding, where string order
// would put "job-1000000" before "job-999999".
func TestEngineJobsSubmissionOrderPastSixDigits(t *testing.T) {
	e := NewEngine(Config{Workers: 1, Runner: stubRunner(-1, 0)})
	e.nextID.Store(999_998)
	for i := 0; i < 3; i++ {
		if _, err := e.Submit(PoissonJob(8)); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for _, v := range e.Jobs() {
		got = append(got, v.ID)
	}
	if want := []string{"job-999999", "job-1000000", "job-1000001"}; !slices.Equal(got, want) {
		t.Fatalf("Jobs order %v, want %v", got, want)
	}
}

// TestEngineRecorderFromSubmission: a job gets its flight recorder when it
// is submitted, before it is published. A memo hit's trace holds its
// memo-hit event, and a job still queued already holds its qos-admit.
func TestEngineRecorderFromSubmission(t *testing.T) {
	cache := memo.New(memo.Config{})
	e := NewEngine(Config{Workers: 1, Runner: stubRunner(-1, 0), Memo: cache, TraceCapacity: 64})
	// Never started, so the second job stays queued.
	spec := smallSpec()
	raw, err := json.Marshal(&SolveRecord{Problem: "stub", Solver: spec.SolverKind(), Converged: true})
	if err != nil {
		t.Fatal(err)
	}
	cache.Put(memo.JobKey(SpecDigest(&spec)), raw)
	hit, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.FromMemo || hit.State != StateDone {
		t.Fatalf("memo hit view = %+v", hit)
	}
	queued, err := e.Submit(PoissonJob(8))
	if err != nil {
		t.Fatal(err)
	}
	if queued.State != StateQueued {
		t.Fatalf("queued view = %+v", queued)
	}
	for id, want := range map[string]trace.Kind{hit.ID: trace.KindMemoHit, queued.ID: trace.KindQoSAdmit} {
		events, err := e.JobTrace(id)
		if err != nil {
			t.Fatalf("%s: JobTrace: %v", id, err)
		}
		if len(events) != 2 || events[0].Kind != trace.KindCorrelation || events[1].Kind != want {
			t.Fatalf("%s: trace %+v, want correlation then %s", id, events, want)
		}
	}
}
