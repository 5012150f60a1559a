package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sdcgmres/internal/expt"
	"sdcgmres/internal/kernel"
	"sdcgmres/internal/memo"
	"sdcgmres/internal/sandbox"
	"sdcgmres/internal/trace"
)

// Options parameterizes a campaign run.
type Options struct {
	// Workers bounds concurrent units (default GOMAXPROCS).
	Workers int
	// UnitBudget is the per-unit wall-clock deadline (default 2 minutes,
	// overridden by the manifest's unit_budget_ms when set).
	UnitBudget time.Duration
	// OnRecord, when non-nil, observes every record as it is journaled
	// (metrics, progress logging). Called from worker goroutines.
	OnRecord func(Record)
	// OnSkip, when non-nil, observes every unit skipped because the journal
	// already holds it.
	OnSkip func(Unit)
	// Recorder, when non-nil, receives unit-lifecycle trace events
	// (UnitStart/UnitEnd and each unit's sandbox outcome). Tracing is
	// observation only: the records a campaign journals — and therefore
	// its aggregate CSVs — are byte-identical with or without it.
	Recorder *trace.Recorder
	// KernelWorkers is the total shared-memory kernel budget for the run
	// (0 = kernels run sequentially). Each campaign worker gets a
	// persistent pool of max(1, KernelWorkers/Workers) kernel workers, so
	// unit concurrency times pool width never oversubscribes the budget.
	// Kernels are bitwise deterministic: records and aggregate CSVs are
	// identical for every KernelWorkers value.
	KernelWorkers int
	// Memo, when non-nil, is the cross-campaign solve cache: units whose
	// content-derived ID is cached are journaled from the cache instead
	// of executing — the skip works across campaigns and journals, where
	// the have map only covers same-journal resume. Fresh OK records are
	// published back. Cached records are byte-identical to fresh ones
	// (bit-deterministic kernels), so journals and aggregate CSVs do not
	// change; nil costs one pointer check per unit.
	Memo *memo.Cache
	// OnMemo, when non-nil, observes every unit satisfied from the memo
	// cache (these records are journaled but fire neither OnRecord nor
	// OnSkip). Called from worker goroutines.
	OnMemo func(Record)
}

// Progress is a point-in-time snapshot of a run.
type Progress struct {
	// Total is the campaign's unit count.
	Total int `json:"total"`
	// Done counts units with a journal record (skipped + executed).
	Done int `json:"done"`
	// Skipped counts units satisfied by the journal at startup — the
	// resume path's savings.
	Skipped int `json:"skipped"`
	// Memoized counts units satisfied by the cross-campaign solve cache
	// (journaled without executing). Omitted when zero, so runs without
	// a cache serialize exactly as before.
	Memoized int `json:"memoized,omitempty"`
	// Executed counts units this run actually ran.
	Executed int `json:"executed"`
	// Failed counts executed units whose experiment errored or panicked.
	Failed int `json:"failed"`
	// TimedOut counts executed units killed by the per-unit deadline.
	TimedOut int `json:"timed_out"`
	// ElapsedMS is wall-clock time since Run started.
	ElapsedMS float64 `json:"elapsed_ms"`
	// ETAMS estimates the remaining wall clock from the executed-unit rate
	// (0 until at least one unit finished, or when nothing remains).
	ETAMS float64 `json:"eta_ms,omitempty"`
	// FailuresByProblem breaks failures down per problem shard.
	FailuresByProblem map[string]int `json:"failures_by_problem,omitempty"`
}

// Runner executes a compiled campaign against a journal: journaled units
// are skipped, the rest run on a worker pool, each inside the sandbox with
// a per-unit deadline, and every completed unit is journaled before it
// counts as done. Cancelling the context stops the run between units;
// in-flight experiments finish (or hit their deadline) and nothing already
// journaled is lost.
type Runner struct {
	compiled *Compiled
	journal  *Journal
	have     map[string]Record
	opts     Options

	started  atomic.Int64 // unix nanos; 0 until Run begins
	done     atomic.Int64
	skipped  atomic.Int64
	memoized atomic.Int64
	executed atomic.Int64
	failed   atomic.Int64
	timedOut atomic.Int64

	mu         sync.Mutex
	byProblem  map[string]int
	newRecords map[string]Record
}

// NewRunner builds a runner. have is the journal's record set at open time
// (from OpenJournal); records for unknown unit IDs are ignored, so journals
// may be shared across manifests.
func NewRunner(c *Compiled, j *Journal, have map[string]Record, opts Options) *Runner {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.UnitBudget <= 0 {
		opts.UnitBudget = 2 * time.Minute
		if ms := c.Manifest.UnitBudgetMS; ms > 0 {
			opts.UnitBudget = time.Duration(ms) * time.Millisecond
		}
	}
	if have == nil {
		have = map[string]Record{}
	}
	return &Runner{
		compiled:   c,
		journal:    j,
		have:       have,
		opts:       opts,
		byProblem:  map[string]int{},
		newRecords: map[string]Record{},
	}
}

// Records returns the records this run produced (not the resumed ones).
func (r *Runner) Records() map[string]Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]Record, len(r.newRecords))
	for k, v := range r.newRecords {
		out[k] = v
	}
	return out
}

// Progress snapshots the run.
func (r *Runner) Progress() Progress {
	p := Progress{
		Total:    len(r.compiled.Units),
		Done:     int(r.done.Load()),
		Skipped:  int(r.skipped.Load()),
		Memoized: int(r.memoized.Load()),
		Executed: int(r.executed.Load()),
		Failed:   int(r.failed.Load()),
		TimedOut: int(r.timedOut.Load()),
	}
	if s := r.started.Load(); s > 0 {
		elapsed := time.Since(time.Unix(0, s))
		p.ElapsedMS = float64(elapsed) / float64(time.Millisecond)
		if exec := p.Executed; exec > 0 {
			remaining := p.Total - p.Done
			if remaining > 0 {
				perUnit := elapsed / time.Duration(exec)
				workers := r.opts.Workers
				eta := perUnit * time.Duration(remaining) / time.Duration(workers)
				p.ETAMS = float64(eta) / float64(time.Millisecond)
			}
		}
	}
	r.mu.Lock()
	if len(r.byProblem) > 0 {
		p.FailuresByProblem = make(map[string]int, len(r.byProblem))
		for k, v := range r.byProblem {
			p.FailuresByProblem[k] = v
		}
	}
	r.mu.Unlock()
	return p
}

// Run executes the campaign. It returns ctx.Err() when interrupted (with
// the journal holding everything finished so far), the first journal write
// error if persistence fails — running on without durability would break
// the resume contract — and nil when every unit is journaled.
func (r *Runner) Run(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	r.started.Store(time.Now().UnixNano())

	units := r.compiled.Units
	workers := r.opts.Workers
	if workers > len(units) {
		workers = len(units)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var journalErr atomic.Value // error; first append failure aborts the run
	abort, cancelAbort := context.WithCancel(ctx)
	defer cancelAbort()
	perWorker := 0
	if r.opts.KernelWorkers > 0 && workers > 0 {
		perWorker = r.opts.KernelWorkers / workers
		if perWorker < 1 {
			perWorker = 1
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		var pool *kernel.Pool
		if perWorker > 1 {
			pool = kernel.New(perWorker)
			defer pool.Close()
		}
		go func() {
			defer wg.Done()
			for abort.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(units) {
					return
				}
				u := units[i]
				if _, ok := r.have[u.ID]; ok {
					r.skipped.Add(1)
					r.done.Add(1)
					if r.opts.OnSkip != nil {
						r.opts.OnSkip(u)
					}
					continue
				}
				if r.opts.Memo != nil {
					if rec, ok := r.memoRecord(u); ok {
						if err := r.journal.Append(rec); err != nil {
							journalErr.Store(err)
							cancelAbort()
							return
						}
						r.recordMemo(rec)
						continue
					}
				}
				rec, ran := r.runUnit(abort, u, pool)
				if !ran {
					continue // canceled mid-unit: not journaled, rerun on resume
				}
				if err := r.journal.Append(rec); err != nil {
					journalErr.Store(err)
					cancelAbort()
					return
				}
				r.record(rec)
			}
		}()
	}
	wg.Wait()
	if err, _ := journalErr.Load().(error); err != nil {
		return err
	}
	if err := r.journal.Sync(); err != nil {
		return fmt.Errorf("campaign: sync journal: %w", err)
	}
	return ctx.Err()
}

// record books a freshly journaled record into the counters and, for OK
// outcomes, publishes it to the cross-campaign solve cache.
func (r *Runner) record(rec Record) {
	r.executed.Add(1)
	r.done.Add(1)
	switch rec.Outcome {
	case OutcomeFailed:
		r.failed.Add(1)
		r.bumpFailure(rec.Unit.Problem)
	case OutcomeTimedOut:
		r.timedOut.Add(1)
		r.bumpFailure(rec.Unit.Problem)
	}
	r.mu.Lock()
	r.newRecords[rec.ID] = rec
	r.mu.Unlock()
	if r.opts.Memo != nil && rec.Outcome == OutcomeOK {
		// Only OK records are cached: a timeout or failure is an artifact
		// of this machine and budget, not of the unit's content, and must
		// not short-circuit retries elsewhere.
		if b, err := json.Marshal(rec); err == nil {
			r.opts.Memo.Put(memo.UnitKey(rec.ID), b)
		}
	}
	if r.opts.OnRecord != nil {
		r.opts.OnRecord(rec)
	}
}

// memoRecord resolves a unit from the cross-campaign solve cache. A
// payload is trusted only if it decodes to a record carrying exactly
// this unit (same content-derived ID and coordinates) with an OK
// outcome; anything else is treated as a miss and the unit executes.
func (r *Runner) memoRecord(u Unit) (Record, bool) {
	raw, ok := r.opts.Memo.Get(memo.UnitKey(u.ID))
	if !ok {
		return Record{}, false
	}
	var rec Record
	if err := json.Unmarshal(raw, &rec); err != nil ||
		rec.ID != u.ID || rec.Unit != u || rec.Outcome != OutcomeOK {
		return Record{}, false
	}
	r.opts.Recorder.MemoHit(memo.UnitKey(u.ID), "hit", len(raw))
	return rec, true
}

// recordMemo books a cache-satisfied unit: done, but neither executed
// nor journal-skipped. It fires OnMemo instead of OnRecord/OnSkip so
// observers can account the three paths separately.
func (r *Runner) recordMemo(rec Record) {
	r.memoized.Add(1)
	r.done.Add(1)
	r.mu.Lock()
	r.newRecords[rec.ID] = rec
	r.mu.Unlock()
	if r.opts.OnMemo != nil {
		r.opts.OnMemo(rec)
	}
}

func (r *Runner) bumpFailure(problem string) {
	r.mu.Lock()
	r.byProblem[problem]++
	r.mu.Unlock()
}

// runUnit executes one unit under the sandbox with its deadline. ran is
// false only when the campaign context ended before the unit produced a
// journalable outcome.
func (r *Runner) runUnit(ctx context.Context, u Unit, pool *kernel.Pool) (rec Record, ran bool) {
	return ExecuteUnitPooled(ctx, r.compiled, u, r.opts.UnitBudget, r.opts.Recorder, pool)
}

// ExecuteUnitPooled runs one unit of a compiled campaign under the sandbox
// with the given wall-clock budget (<= 0 means the manifest's unit budget,
// or the 2-minute default) and returns its journalable record. ran is
// false only when ctx ended before the unit produced an outcome — the unit
// is unfinished and must be rerun, or re-leased, later. It is the
// single-unit core shared by the local Runner and the distributed worker,
// which is what keeps locally and remotely executed records identical.
//
// rtrace, when non-nil, receives the unit's lifecycle (UnitStart/UnitEnd)
// and its sandbox outcome; it observes, it never participates. The unit's
// solver kernels run on pool's persistent workers (nil = sequential). The
// kernels are bitwise deterministic, so the record is identical for every
// pool width and with or without a recorder.
func ExecuteUnitPooled(ctx context.Context, c *Compiled, u Unit, budget time.Duration, rtrace *trace.Recorder, pool *kernel.Pool) (rec Record, ran bool) {
	if budget <= 0 {
		budget = 2 * time.Minute
		if ms := c.Manifest.UnitBudgetMS; ms > 0 {
			budget = time.Duration(ms) * time.Millisecond
		}
	}
	rtrace.UnitStart(u.ID)
	defer func() {
		if !ran {
			rtrace.UnitEnd(u.ID, "canceled", 0)
			return
		}
		rtrace.UnitEnd(u.ID, rec.Outcome, rec.ElapsedMS)
	}()
	p := c.Problems[u.Problem]
	cfg, err := c.SweepConfig(u)
	cfg.Pool = pool
	if err != nil {
		// Compile guarantees parseable units; treat the impossible as a
		// failed unit rather than wedging the campaign.
		return Record{ID: u.ID, Unit: u, Outcome: OutcomeFailed, Err: err.Error(),
			Point: capPoint(p, u)}, true
	}

	start := time.Now()
	uctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	var pt expt.SweepPoint
	rep := sandbox.RunCtx(uctx, 0, func() error {
		pt = expt.RunPoint(uctx, p, cfg, u.Site)
		return nil
	})
	elapsed := float64(time.Since(start)) / float64(time.Millisecond)
	rtrace.SandboxOutcome(0, rep.Outcome.String(), rep.Usable(), elapsed)

	if ctx.Err() != nil {
		// Campaign-level cancellation: the unit is not finished, leave it
		// for the resumed run.
		return Record{}, false
	}
	switch {
	case rep.Outcome == sandbox.OK && pt.AggregateInner == u.Site:
		return Record{ID: u.ID, Unit: u, Point: pt, Outcome: OutcomeOK, ElapsedMS: elapsed}, true
	case errors.Is(uctx.Err(), context.DeadlineExceeded):
		// The per-unit deadline fired — whether the sandbox reported the
		// cancellation or the solver noticed it first and returned a zero
		// point. The abandoned guest may still be running; do not touch pt
		// (the sandbox may have returned without waiting for the
		// goroutine). Journal the cap, like a loud non-convergence.
		return Record{ID: u.ID, Unit: u, Point: capPoint(p, u), Outcome: OutcomeTimedOut,
			Err: fmt.Sprintf("unit exceeded %v budget", budget), ElapsedMS: elapsed}, true
	default:
		errMsg := "experiment returned no point"
		if rep.Err != nil {
			errMsg = rep.Err.Error()
		}
		return Record{ID: u.ID, Unit: u, Point: capPoint(p, u), Outcome: OutcomeFailed,
			Err: errMsg, ElapsedMS: elapsed}, true
	}
}

// capPoint is the journaled point for a unit that produced no measurement:
// not converged at the outer cap, mirroring how expt records loud failures.
func capPoint(p *expt.Problem, u Unit) expt.SweepPoint {
	pt := expt.SweepPoint{AggregateInner: u.Site}
	if p != nil {
		pt.OuterIters = p.MaxOuter
	}
	return pt
}
