package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"sdcgmres/internal/expt"
	"sdcgmres/internal/kernel"
	"sdcgmres/internal/sandbox"
	"sdcgmres/internal/trace"
)

// localLeaseTTL is the lease lifetime of in-process workers: in effect
// forever. An in-process worker cannot die without the whole process dying,
// so expiry could only requeue, and run twice, a unit that is still running.
const localLeaseTTL = time.Duration(1 << 62)

// Runner executes a compiled campaign on this machine: a Coordinator drained
// by Workers in-process goroutines. Each claims one unit at a time, runs it
// inside the sandbox with a per-unit deadline and completes it, so a local
// record passes the same trust-boundary checks, journaling and memo
// publication as a fleet worker's. Journaled units are skipped. Cancelling
// the context stops the run between units; a unit cut short is not
// journaled and nothing already journaled is lost. A Runner runs once.
type Runner struct {
	co   *Coordinator
	opts Options
}

// NewRunner builds a runner. have is the journal's record set at open time
// (from OpenJournal); records for unknown unit IDs are ignored, so journals
// may be shared across manifests.
func NewRunner(c *Compiled, j *Journal, have map[string]Record, opts Options) *Runner {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	co := NewCoordinator(c, j, have, CoordinatorConfig{
		LeaseTTL: localLeaseTTL,
		Recorder: opts.Recorder,
		OnRecord: opts.OnRecord,
		Memo:     opts.Memo,
		OnMemo:   opts.OnMemo,
	})
	return &Runner{co: co, opts: opts}
}

// Records returns every record the campaign's units have, resumed ones
// included.
func (r *Runner) Records() map[string]Record { return r.co.Records() }

// Progress snapshots the run.
func (r *Runner) Progress() Progress { return r.co.Progress() }

// Run executes the campaign. It returns ctx.Err() when interrupted (with
// the journal holding everything finished so far), the first journal write
// error if persistence fails — running on without durability would break
// the resume contract — and nil when every unit is journaled.
func (r *Runner) Run(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	pools := kernel.Split(r.opts.KernelWorkers, min(r.opts.Workers, len(r.co.compiled.Units)))
	// A journal failure stops the siblings' in-flight units too.
	abort, cancelAbort := context.WithCancel(ctx)
	defer cancelAbort()
	var wg sync.WaitGroup
	wg.Add(len(pools))
	for w, pool := range pools {
		defer pool.Close()
		name := fmt.Sprintf("local-%d", w)
		go func() {
			defer wg.Done()
			for abort.Err() == nil {
				// Nothing granted: the campaign is done, the journal
				// failed, or a sibling holds every remaining unit.
				l, _, err := r.co.Claim(name, 1)
				if l == nil {
					if err != nil {
						cancelAbort()
					}
					return
				}
				rec, ran := ExecuteUnitPooled(abort, r.co.compiled, l.Units[0], r.opts.UnitBudget, r.opts.Recorder, pool)
				if !ran {
					return // canceled mid-unit: not journaled, rerun on resume
				}
				if _, err := r.co.Complete(l.ID, name, []Record{rec}); err != nil {
					cancelAbort()
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := r.co.Err(); err != nil {
		return err
	}
	if err := r.co.journal.Sync(); err != nil {
		return fmt.Errorf("campaign: sync journal: %w", err)
	}
	return ctx.Err()
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
