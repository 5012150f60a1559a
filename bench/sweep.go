package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"sdcgmres/internal/campaign"
	"sdcgmres/internal/core"
	"sdcgmres/internal/expt"
	"sdcgmres/internal/fault"
	"sdcgmres/internal/krylov"
	"sdcgmres/internal/trace"
)

// seededModels are the two fault models the seed picks: one exponent-bit
// flip and one moderate scaling. Both ranges keep every unit convergent
// with a similar cost, so the seed changes the science the run covers
// without changing how much work a run is.
func seededModels(o options) (bitflip, scale string) {
	r := o.rng(1)
	bit := 52 + r.Intn(11) // exponent bits 52..62
	exp := r.Intn(12) - 6  // 1e-6 .. 1e5
	if exp >= 0 {
		exp++
	}
	return fmt.Sprintf("bitflip:%d", bit), "scale:" + strconv.FormatFloat(math.Pow(10, float64(exp)), 'g', -1, 64)
}

// aggregateCSV renders every series of a campaign from its records through
// the repository's own aggregator, concatenated in series order.
func aggregateCSV(c *campaign.Compiled, recs map[string]campaign.Record) ([]byte, error) {
	series, err := c.Aggregate(recs)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	for _, s := range series {
		if err := s.WriteCSV(&buf); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// referenceRun executes the manifest once through the local campaign
// runner with sequential kernels, a different execution path from the
// timed fleet, and returns its records and aggregate CSV.
func referenceRun(ctx context.Context, c *campaign.Compiled, path string) (map[string]campaign.Record, []byte, error) {
	j, have, err := campaign.OpenJournal(path)
	if err != nil {
		return nil, nil, err
	}
	r := campaign.NewRunner(c, j, have, campaign.Options{Workers: 2})
	runErr := r.Run(ctx)
	if err := j.Close(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		return nil, nil, fmt.Errorf("reference run: %w", runErr)
	}
	recs := r.Records()
	csv, err := aggregateCSV(c, recs)
	return recs, csv, err
}

// gateSweep checks every journal of the timed window against the
// reference: each unit's record must be OK with the reference's point, and
// each campaign's aggregate CSV must equal the reference bytes. It returns
// the records of all journals for the per-layer accounting.
func gateSweep(rep *report, c *campaign.Compiled, ref map[string]campaign.Record, refCSV []byte, journals []string) ([]campaign.Record, error) {
	var all []campaign.Record
	for _, path := range journals {
		recs, err := campaign.LoadJournal(path)
		if err != nil {
			return nil, err
		}
		bad := 0
		for _, u := range c.Units {
			rec, ok := recs[u.ID]
			switch {
			case !ok:
				bad++
			case rec.Outcome != campaign.OutcomeOK || rec.Point != ref[u.ID].Point:
				bad++
				all = append(all, rec)
			default:
				all = append(all, rec)
			}
		}
		rep.attempted += len(c.Units)
		rep.fail(bad, "%s: %d of %d units missing, not ok, or unlike the reference", filepath.Base(path), bad, len(c.Units))
		csv, err := aggregateCSV(c, recs)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(csv, refCSV) {
			rep.fail(1, "%s: aggregate CSV differs from the reference", filepath.Base(path))
		}
	}
	rep.note("correctness: %d journals checked against a local sequential-kernel reference run (per-unit points and aggregate CSV bytes)", len(journals))
	return all, nil
}

// outerItersPerUnit is the science guard: mean outer iterations per unit.
func outerItersPerUnit(rep *report, recs []campaign.Record) {
	if len(recs) == 0 {
		return
	}
	sum := 0
	for _, r := range recs {
		sum += r.Point.OuterIters
	}
	rep.set("campaign.outer_iters_per_unit", float64(sum)/float64(len(recs)), len(recs))
}

// unitSpans pairs UnitStart/UnitEnd events of one recorder into spans.
// Unit IDs repeat across the window's campaigns, so each start pairs with
// the next end of the same ID.
func unitSpans(events []trace.Event) []span {
	open := map[string]int64{}
	var out []span
	for _, ev := range events {
		switch ev.Kind {
		case trace.KindUnitStart:
			open[ev.Label] = ev.T
		case trace.KindUnitEnd:
			if t0, ok := open[ev.Label]; ok {
				out = append(out, span{t0, ev.T})
				delete(open, ev.Label)
			}
		}
	}
	return out
}

// unitProbeReps is how many back-to-back RunPoint/ExecuteUnitPooled pairs
// probeUnits times per sampled unit.
const unitProbeReps = 5

// sampleUnits draws a seeded sample of n units (without replacement).
func sampleUnits(o options, c *campaign.Compiled, n int) []campaign.Unit {
	if n > len(c.Units) {
		n = len(c.Units)
	}
	idx := o.rng(2).Perm(len(c.Units))[:n]
	out := make([]campaign.Unit, n)
	for i, k := range idx {
		out[i] = c.Units[k]
	}
	return out
}

// probeUnits times the campaign layers below the runner on a sample of
// the workload's units: expt.RunPoint alone, the same unit through
// campaign.ExecuteUnitPooled (the difference is the sandbox and record
// plumbing, from unitProbeReps back-to-back pairs), and one traced solve
// per unit split into inner-solve and outer self time from
// core.Config.Recorder spans. Kernels are sequential, as in the fleet.
func probeUnits(ctx context.Context, rep *report, c *campaign.Compiled, units []campaign.Unit) error {
	const reps = unitProbeReps
	var runPoint, overhead, inner, outerSelf []float64
	innerIters := 0
	for i, u := range units {
		p := c.Problems[u.Problem]
		cfg, err := c.SweepConfig(u)
		if err != nil {
			return err
		}
		timeRunPoint := func() time.Duration {
			t := time.Now()
			expt.RunPoint(ctx, p, cfg, u.Site)
			return time.Since(t)
		}
		timeExec := func() time.Duration {
			t := time.Now()
			campaign.ExecuteUnitPooled(ctx, c, u, 0, nil, nil)
			return time.Since(t)
		}
		// Back-to-back pairs, alternating which side runs first so warm
		// caches favour neither; the overhead is the median of the paired
		// differences, which cancels most of the machine's drift.
		for r := 0; r < reps; r++ {
			var rp, ex time.Duration
			if (i+r)%2 == 0 {
				rp, ex = timeRunPoint(), timeExec()
			} else {
				ex, rp = timeExec(), timeRunPoint()
			}
			runPoint = append(runPoint, ms(rp))
			overhead = append(overhead, us(ex-rp))
		}

		rec := trace.NewRecorder(0)
		inj := fault.NewInjector(cfg.Model, fault.Site{AggregateInner: u.Site, Step: cfg.Step})
		ccfg := p.Config(cfg.Detector, []krylov.CoeffHook{inj})
		ccfg.Recorder = rec
		if _, err := core.New(p.A, ccfg).SolveCtx(ctx, p.B, nil); err != nil {
			return fmt.Errorf("traced solve of unit %s: %w", u.ID, err)
		}
		var solve, innerSum float64
		var innerStart int64
		for _, ev := range rec.Events() {
			switch ev.Kind {
			case trace.KindSolveStart:
				solve = -float64(ev.T)
			case trace.KindSolveEnd:
				solve += float64(ev.T)
			case trace.KindInnerStart:
				innerStart = ev.T
			case trace.KindInnerEnd:
				innerSum += float64(ev.T - innerStart)
				innerIters += int(ev.Value)
			}
		}
		inner = append(inner, innerSum/1e6)
		outerSelf = append(outerSelf, (solve-innerSum)/1e6)
	}
	n := len(units)
	rep.set("expt.runpoint_p50_ms", median(runPoint), len(runPoint))
	rep.set("sandbox.overhead_us", median(overhead), len(overhead))
	rep.set("krylov.inner_solve_ms", median(inner), n)
	rep.set("core.outer_self_ms", median(outerSelf), n)
	rep.set("krylov.inner_iters_per_unit", float64(innerIters)/float64(n), n)
	rep.note("unit probes: %d seeded units x %d back-to-back pairs; sandbox.overhead_us is the median paired difference ExecuteUnitPooled - RunPoint", n, reps)
	return nil
}

// probeJournal times Journal.Append over the window's records, written to
// a scratch journal.
func probeJournal(rep *report, dir string, recs []campaign.Record) error {
	path := filepath.Join(dir, "append-probe.jsonl")
	j, _, err := campaign.OpenJournal(path)
	if err != nil {
		return err
	}
	defer os.Remove(path)
	var d []float64
	for _, rec := range recs {
		t := time.Now()
		if err := j.Append(rec); err != nil {
			j.Close()
			return err
		}
		d = append(d, us(time.Since(t)))
	}
	if err := j.Close(); err != nil {
		return err
	}
	rep.pct("campaign.journal_append_us", d, 50)
	return nil
}
