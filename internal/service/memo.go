package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"sdcgmres/internal/memo"
	"sdcgmres/internal/trace"
)

// SpecDigest returns the canonical content digest of the solve a job
// spec describes: sha256 over the normalized matrix, solver, and fault
// coordinates, truncated to 16 hex characters like campaign unit IDs.
//
// Two specs share a digest exactly when they provably produce the same
// SolveRecord, so the digest is a safe memoization key: every default
// is normalized to its resolved value (an empty ortho and "mgs" hash
// identically), inline Matrix Market payloads hash by content, and
// detector-dependent knobs collapse when the detector is off. Fields
// that only steer scheduling — tenant, class, deadline, time budget —
// are deliberately excluded: they change when a solve runs, never what
// it computes.
func SpecDigest(spec *JobSpec) string {
	h := sha256.New()
	io.WriteString(h, "v1|"+matrixKey(spec.Matrix))
	s := spec.Solver
	ortho := s.Ortho
	if ortho == "" {
		ortho = "mgs"
	}
	policy := s.Policy
	if policy == "" {
		policy = "fallback"
	}
	pre := s.Precond
	if pre == "" {
		pre = "none"
	}
	bound, resp := s.Bound, s.Response
	if bound == "" {
		bound = "frobenius"
	}
	if resp == "" {
		resp = "warn"
	}
	if !s.Detector {
		bound, resp = "-", "-"
	}
	fmt.Fprintf(h, "%s|inner=%d|outer=%d|tol=%g|%s|%s|det=%t|%s|%s|%s|robust=%t|",
		spec.SolverKind(),
		defaultInt(s.InnerIters, 25), defaultInt(s.MaxOuter, 60), defaultFloat(s.Tol, 1e-8),
		ortho, policy, s.Detector, bound, resp, pre, s.RobustFirstSolve)
	if f := spec.Fault; f != nil {
		step := f.Step
		if step == "" {
			step = "first"
		}
		fmt.Fprintf(h, "fault=%s|at=%d|%s", f.Class, f.At, step)
	} else {
		io.WriteString(h, "fault=-")
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// MemoEnabled reports whether the engine consults a solve cache.
func (e *Engine) MemoEnabled() bool { return e.cfg.Memo != nil }

// MemoStats snapshots the solve cache counters (zeros without a cache).
func (e *Engine) MemoStats() memo.Stats { return e.cfg.Memo.Stats() }

// WriteMemoMetrics appends the solved_memo_* series to a /metrics
// response. No-op without a cache.
func (e *Engine) WriteMemoMetrics(w io.Writer) { e.cfg.Memo.WritePrometheus(w) }

// completeFromMemo turns a submission-time cache hit into a terminal
// job: the cached SolveRecord is decoded and the job is born StateDone,
// never entering a queue — so a hit spends no QoS token-bucket token
// and no worker, the property the admission-before-cache ordering
// exists to guarantee. Returns ok=false on an undecodable payload, in
// which case the caller falls through to a fresh execution.
func (e *Engine) completeFromMemo(spec JobSpec, cid, key string, raw []byte) (JobView, bool) {
	rec := new(SolveRecord)
	if err := json.Unmarshal(raw, rec); err != nil {
		return JobView{}, false
	}
	now := time.Now()
	j := &Job{
		id:        fmt.Sprintf("job-%06d", e.nextID.Add(1)),
		spec:      spec,
		cid:       cid,
		memoKey:   key,
		state:     StateDone,
		result:    rec,
		fromMemo:  true,
		submitted: now,
		finished:  now,
	}
	if e.cfg.TraceCapacity > 0 {
		tr := trace.NewRecorder(e.cfg.TraceCapacity)
		tr.Correlate(cid)
		tr.MemoHit(key, "hit", len(raw))
		j.trace = tr
	}
	e.mu.Lock()
	e.jobs[j.id] = j
	e.mu.Unlock()
	// A memoized job is accepted and completed; it does not feed the
	// solve-latency histograms (no solve ran, and Retry-After advice
	// must keep estimating real executions) nor the detector/fault
	// aggregates (no detector work happened in this process).
	e.cfg.Metrics.JobsAccepted.Inc()
	e.cfg.Metrics.JobsCompleted.Inc()
	if l := e.cfg.Log; l != nil {
		l.Info(e.jobCtx(j), "job served from memo cache", "key", key, "bytes", len(raw))
	}
	e.retire(j)
	return j.View(), true
}

// memoHow renders a memo outcome for trace events and job views.
func memoHow(o memo.Outcome) string {
	if o == memo.Shared {
		return "shared"
	}
	return "hit"
}
