package service

import (
	"context"
	"sync"
	"time"

	"sdcgmres/internal/trace"
)

// State is a job's lifecycle position.
type State string

const (
	// StateQueued: admitted, waiting for a worker.
	StateQueued State = "queued"
	// StateRunning: a worker is executing the solve.
	StateRunning State = "running"
	// StateDone: the solve returned a record (converged or not — see the
	// record; "done" means the guest completed, not that it succeeded
	// numerically).
	StateDone State = "done"
	// StateFailed: the solve returned an error or panicked.
	StateFailed State = "failed"
	// StateTimedOut: the job's wall-clock budget expired; the guest was
	// abandoned per the sandbox contract.
	StateTimedOut State = "timed-out"
	// StateCanceled: canceled by the caller or by engine shutdown before
	// completing.
	StateCanceled State = "canceled"
	// StateShed: the QoS scheduler dropped the job because its deadline
	// expired while it was still queued; it never occupied a worker.
	StateShed State = "shed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateTimedOut, StateCanceled, StateShed:
		return true
	}
	return false
}

// Job is one tracked unit of work inside the engine. All mutable fields are
// guarded by mu; external observers read consistent snapshots via View.
type Job struct {
	// seq is the job's submission sequence number, the N of its
	// "job-%06d" ID; Jobs lists in seq order.
	seq  int64
	id   string
	spec JobSpec
	// cid is the observability correlation ID minted (or adopted from the
	// request) at submission; it joins this job's log records, trace
	// events and API view. Immutable after construction.
	cid string
	// tenant is the scheduler tenant the job is queued and accounted
	// under: the spec's tenant (or the default) with a QoS config, and
	// always qos.DefaultTenant without one. Immutable after construction.
	tenant string
	// The fields below are set before the job is published, immutable
	// afterwards. memoKey is the job's content-addressed cache key (""
	// when the engine runs without a memo cache); trace is its flight
	// recorder (nil when the engine runs without a TraceCapacity).
	memoKey string
	trace   *trace.Recorder

	mu    sync.Mutex
	state State
	err   string
	// fromMemo marks a job satisfied from the solve cache (at
	// submission or via singleflight) instead of a fresh execution.
	fromMemo  bool
	result    *SolveRecord
	submitted time.Time
	started   time.Time
	finished  time.Time
	// cancel aborts the running solve's context; non-nil only while
	// running.
	cancel context.CancelFunc
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// JobView is an immutable snapshot of a job, also its JSON wire form.
type JobView struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// CID is the correlation ID stamped on every log record and trace
	// event this job produced — the grep key that joins them.
	CID string `json:"cid,omitempty"`
	// Budget is the effective wall-clock budget in milliseconds (0 until
	// the engine resolves the default at start).
	Spec   JobSpec      `json:"spec"`
	Error  string       `json:"error,omitempty"`
	Result *SolveRecord `json:"result,omitempty"`
	// FromMemo marks a result served from the content-addressed solve
	// cache; the record is byte-identical to a fresh execution's.
	// Absent (false) whenever the daemon runs without a cache, keeping
	// the wire form unchanged.
	FromMemo    bool       `json:"from_memo,omitempty"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// View snapshots the job under its lock.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:          j.id,
		State:       j.state,
		CID:         j.cid,
		Spec:        j.spec,
		Error:       j.err,
		Result:      j.result,
		FromMemo:    j.fromMemo,
		SubmittedAt: j.submitted,
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	return v
}
