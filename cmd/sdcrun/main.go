// Command sdcrun runs a single SDC experiment: it solves one linear system
// with FT-GMRES, injects one fault at a chosen site, and reports the
// convergence history, fault log and detector activity. It is the
// single-experiment counterpart of cmd/paperfigs.
//
// Usage:
//
//	sdcrun -gen poisson -n 64 -inner 25 -tol 1e-8 \
//	       -fault-class large -fault-at 30 -fault-step first \
//	       -detector -response restart
//
// Batch mode runs a whole campaign manifest (problems × fault models × MGS
// steps × detector policies) through the durable campaign engine, journaling
// every experiment so an interrupted run resumes where it stopped:
//
//	sdcrun -campaign manifest.json [-journal sweep.jsonl] [-json]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"sdcgmres/internal/campaign"
	"sdcgmres/internal/core"
	"sdcgmres/internal/expt"
	"sdcgmres/internal/fault"
	"sdcgmres/internal/gallery"
	"sdcgmres/internal/kernel"
	"sdcgmres/internal/krylov"
	"sdcgmres/internal/memo"
	"sdcgmres/internal/service"
	"sdcgmres/internal/sparse"
	"sdcgmres/internal/vec"
)

func main() {
	gen := flag.String("gen", "poisson", "matrix: poisson | circuit | convdiff, or use -file")
	file := flag.String("file", "", "Matrix Market file instead of a generator")
	n := flag.Int("n", 64, "generator size")
	inner := flag.Int("inner", 25, "inner iterations per outer iteration")
	maxOuter := flag.Int("max-outer", 60, "outer iteration cap")
	tol := flag.Float64("tol", 1e-8, "outer relative residual tolerance")
	faultClass := flag.String("fault-class", "", "fault model: large | slight | tiny | bitflip:<bit> | set:<value> | scale:<factor> (empty = no fault)")
	faultAt := flag.Int("fault-at", 1, "aggregate inner iteration to fault")
	faultStep := flag.String("fault-step", "first", "MGS step: first | last | norm")
	detector := flag.Bool("detector", false, "enable the Hessenberg-bound detector")
	bound := flag.String("bound", "frobenius", "detector bound: frobenius | spectral")
	response := flag.String("response", "warn", "detector response: warn | halt | restart")
	verbose := flag.Bool("v", false, "print the per-iteration residual history")
	jsonOut := flag.Bool("json", false, "emit the machine-readable result record (same schema as the solver service)")
	campaignFile := flag.String("campaign", "", "run a campaign manifest JSON through the durable engine instead of a single experiment")
	journalPath := flag.String("journal", "", "campaign journal path (default <name>-<hash>.jsonl beside the manifest)")
	workers := flag.Int("workers", 0, "shared-memory kernel workers for the solve (campaign mode: total kernel budget split across unit workers); results are byte-identical for every value (0 = sequential)")
	memoBytes := flag.Int64("memo-bytes", 0, "campaign mode: content-addressed solve cache byte budget; repeated units within the run are answered from the cache with byte-identical records (0 = off)")
	flag.Parse()

	if *campaignFile != "" {
		runCampaign(*campaignFile, *journalPath, *jsonOut, *workers, *memoBytes)
		return
	}

	a, name := buildMatrix(*gen, *file, *n)
	b := make([]float64, a.Rows())
	a.MatVec(b, vec.Ones(a.Cols()))

	var hooks []krylov.CoeffHook
	var inj *fault.Injector
	if *faultClass != "" {
		model, err := fault.ParseModel(*faultClass)
		if err != nil {
			fatal(err)
		}
		step, err := fault.ParseStepSelector(*faultStep)
		if err != nil {
			fatal(err)
		}
		inj = fault.NewInjector(model, fault.Site{AggregateInner: *faultAt, Step: step})
		hooks = append(hooks, inj)
	}

	cfg := core.Config{
		MaxOuter: *maxOuter,
		OuterTol: *tol,
		Inner:    core.InnerConfig{Iterations: *inner, Hooks: hooks},
	}
	if *detector {
		var err error
		if cfg.Detector, err = core.ParseDetector(*bound, *response); err != nil {
			fatal(err)
		}
	}

	if *workers > 1 {
		pool := kernel.New(*workers)
		defer pool.Close()
		cfg.Pool = pool
	}

	solver := core.New(a, cfg)
	start := time.Now()
	res, err := solver.Solve(b, nil)
	if err != nil {
		fatal(err)
	}

	if *jsonOut {
		rec := service.RecordFromCore(name, a, res, time.Since(start))
		if inj != nil {
			rec.FaultInjected = true
			rec.FaultFired = inj.Fired()
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rec); err != nil {
			fatal(err)
		}
		exitForSolve(res)
		return
	}

	fmt.Printf("problem:    %s (%d x %d, %d nnz)\n", name, a.Rows(), a.Cols(), a.NNZ())
	if det := solver.Detector(); det != nil {
		fmt.Printf("detector:   bound %s = %.6g, response %s\n", det.Kind(), det.Bound(), cfg.Detector.Response)
	}
	if inj != nil {
		fmt.Printf("fault:      %s at %s\n", inj.Model(), inj.Site())
		for _, ev := range inj.Events() {
			fmt.Printf("  fired at inner solve %d, iteration %d, step %d (%s): %.6g -> %.6g\n",
				ev.Ctx.OuterIteration, ev.Ctx.InnerIteration, ev.Ctx.Step, ev.Ctx.Kind, ev.Correct, ev.Corrupted)
		}
		if !inj.Fired() {
			fmt.Println("  (fault site never reached)")
		}
	}
	fmt.Printf("converged:  %v (relative residual %.3e)\n", res.Converged, res.FinalResidual)
	fmt.Printf("outer iterations: %d, inner iterations: %d\n", res.Stats.OuterIterations, res.Stats.InnerIterations)
	if res.Stats.Detections > 0 || res.Stats.InnerHalts > 0 || res.Stats.InnerRestarts > 0 || res.Stats.SandboxFailures > 0 {
		fmt.Printf("resilience: %d detections, %d inner halts, %d inner restarts, %d sandbox failures\n",
			res.Stats.Detections, res.Stats.InnerHalts, res.Stats.InnerRestarts, res.Stats.SandboxFailures)
	}
	// Forward error against the known solution x = 1.
	worst := 0.0
	for _, v := range res.X {
		if d := math.Abs(v - 1); d > worst {
			worst = d
		}
	}
	fmt.Printf("forward error vs known solution (x=1): %.3e\n", worst)
	if *verbose {
		fmt.Println("residual history:")
		for i, r := range res.ResidualHistory {
			fmt.Printf("  outer %3d: %.6e\n", i+1, r)
		}
	}
	exitForSolve(res)
}

// exitForSolve maps the solve outcome onto the exit code via the sentinel
// errors: 0 converged, 3 not converged with the detector having fired
// (the run was known-corrupt), 1 plain non-convergence.
func exitForSolve(res *core.Result) {
	err := res.Err()
	switch {
	case err == nil:
	case errors.Is(err, krylov.ErrDetected):
		os.Exit(3)
	default:
		os.Exit(1)
	}
}

// runCampaign executes a manifest through the campaign engine: journaled
// experiments are skipped, an interrupt keeps the journal, and rerunning the
// same command resumes. Output is the Section VII-E summary table per
// completed series (or the full progress + summaries as JSON).
func runCampaign(manifestPath, journalPath string, jsonOut bool, kernelWorkers int, memoBytes int64) {
	man, err := campaign.LoadManifest(manifestPath)
	if err != nil {
		fatal(err)
	}
	if journalPath == "" {
		journalPath = filepath.Join(filepath.Dir(manifestPath), man.JournalName())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	c, err := campaign.Compile(man)
	if err != nil {
		fatal(err)
	}
	j, have, err := campaign.OpenJournal(journalPath)
	if err != nil {
		fatal(err)
	}
	defer j.Close()
	if !jsonOut {
		fmt.Printf("campaign %q: %s\n", man.Name, c.Describe())
		fmt.Printf("journal:  %s (%d experiments already done)\n\n", journalPath, len(have))
	}

	var cache *memo.Cache
	if memoBytes > 0 {
		cache = memo.New(memo.Config{MaxBytes: memoBytes})
	}
	r := campaign.NewRunner(c, j, have, campaign.Options{KernelWorkers: kernelWorkers, Memo: cache})
	runErr := r.Run(ctx)
	recs := r.Records()
	if runErr != nil && ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "sdcrun: interrupted — %d finished experiments are journaled at:\n  %s\nrerun the same command to resume\n",
			len(recs), journalPath)
		os.Exit(130)
	}
	if runErr != nil {
		fatal(runErr)
	}

	prog := r.Progress()
	sums, err := c.Summaries(recs)
	if err != nil {
		fatal(err)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]any{"progress": prog, "summaries": sums}); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("done: %d/%d experiments (%d run now, %d from journal, %d failed, %d timed out)\n\n",
		prog.Done, prog.Total, prog.Executed, prog.Skipped, prog.Failed, prog.TimedOut)
	expt.WriteSummaries(os.Stdout, sums)
}

// buildMatrix loads a Matrix Market file or builds a generator through
// the gallery's spec, which rejects what the service and campaign
// manifests reject.
func buildMatrix(gen, file string, n int) (*sparse.CSR, string) {
	if file != "" {
		m, name, err := gallery.FromMatrixMarketFile(file)
		if err != nil {
			fatal(err)
		}
		return m, name
	}
	spec := gallery.Spec{Kind: gen, N: n}
	if err := spec.Validate(); err != nil {
		fatal(err)
	}
	a, err := spec.Build()
	if err != nil {
		fatal(err)
	}
	return a, spec.Name()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sdcrun:", err)
	os.Exit(1)
}
