// Command paperfigs regenerates every table and figure of "Evaluating the
// Impact of SDC on the GMRES Iterative Solver" (Elliott/Hoemmen/Mueller,
// IPDPS 2014): Table I (sample matrices), Figure 2 (Hessenberg structure),
// Figures 3a/3b (Poisson fault sweeps), Figures 4a/4b (circuit fault
// sweeps) and the Section VII-E summary, writing CSV data files and ASCII
// renderings.
//
// Usage:
//
//	paperfigs [-profile tiny|fast|paper] [-only table1,fig2,fig3a,...]
//	          [-outdir data] [-stride N] [-workers N] [-resume]
//
// Profiles trade fidelity for wall-clock time on small machines:
//
//	tiny  — minute-scale smoke run (small grids, coarse stride)
//	fast  — the default: same qualitative shapes, minutes on one core
//	paper — full problem sizes (Poisson 100×100, circuit n=25187), stride 1
//
// The fault sweeps run through the internal/campaign engine: every finished
// experiment is journaled to <outdir>/campaign-<profile>.jsonl as it
// completes. Interrupting a run (Ctrl-C) keeps the journal; rerunning with
// -resume skips every journaled experiment and produces CSVs byte-identical
// to an uninterrupted run's.
//
// With -fleet N the sweeps instead run through the internal/dist
// coordinator: paperfigs hosts the lease protocol on -fleet-addr, spawns N
// in-process workers, and prints a join command so external `solved -worker`
// processes can share the load. Workers may join or die at any time — an
// expired lease's units are requeued — and the resulting CSVs stay
// byte-identical to a single-process run's. -fleet 0 relies entirely on
// external workers.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"sdcgmres/internal/campaign"
	"sdcgmres/internal/core"
	"sdcgmres/internal/dense"
	"sdcgmres/internal/detect"
	"sdcgmres/internal/dist"
	"sdcgmres/internal/expt"
	"sdcgmres/internal/fault"
	"sdcgmres/internal/gallery"
	"sdcgmres/internal/krylov"
	"sdcgmres/internal/memo"
	"sdcgmres/internal/sparse"
	"sdcgmres/internal/textplot"
	"sdcgmres/internal/trace"
	"sdcgmres/internal/vec"
)

type profile struct {
	name          string
	poissonN      int
	poissonOuter  int
	circuitN      int
	circuitOuter  int
	innerIters    int
	stride        int
	table1Circuit int
}

var profiles = map[string]profile{
	"tiny":  {name: "tiny", poissonN: 32, poissonOuter: 8, circuitN: 2000, circuitOuter: 20, innerIters: 10, stride: 5, table1Circuit: 2000},
	"fast":  {name: "fast", poissonN: 64, poissonOuter: 9, circuitN: 8000, circuitOuter: 28, innerIters: 25, stride: 4, table1Circuit: 8000},
	"paper": {name: "paper", poissonN: 100, poissonOuter: 9, circuitN: 25187, circuitOuter: 28, innerIters: 25, stride: 1, table1Circuit: 25187},
}

func main() {
	profName := flag.String("profile", "fast", "scale profile: tiny, fast or paper")
	only := flag.String("only", "all", "comma-separated subset: table1,fig2,fig3a,fig3b,fig4a,fig4b,summary,montecarlo")
	outdir := flag.String("outdir", "data", "directory for CSV output")
	stride := flag.Int("stride", 0, "override sweep stride (0 = profile default)")
	workers := flag.Int("workers", 0, "concurrent experiments (0 = GOMAXPROCS)")
	kernelWorkers := flag.Int("kernel-workers", 0, "total shared-memory kernel budget, split across the concurrent experiments so concurrency x pool width <= the budget; figure CSVs are byte-identical for every value (0 = sequential kernels)")
	resume := flag.Bool("resume", false, "resume an interrupted run from its journal in -outdir")
	fleet := flag.Int("fleet", -1, "distributed mode: spawn N in-process workers (-1 = off, 0 = external workers only)")
	fleetAddr := flag.String("fleet-addr", "127.0.0.1:0", "coordinator listen address for -fleet")
	leaseTTL := flag.Duration("lease-ttl", 15*time.Second, "distributed lease time-to-live")
	fleetBatch := flag.Int("fleet-batch", 4, "units per distributed lease")
	traceDir := flag.String("trace-dir", "", "also record one representative traced FT-GMRES solve and write its timeline (JSONL + Chrome trace) here")
	memoBytes := flag.Int64("memo-bytes", 0, "content-addressed solve cache byte budget shared by every sweep in this run; repeated units are answered from the cache with byte-identical records (0 = off)")
	flag.Parse()

	prof, ok := profiles[*profName]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown profile %q (want tiny, fast or paper)\n", *profName)
		os.Exit(2)
	}
	// Ctrl-C cancels long campaigns mid-sweep instead of killing the run
	// between experiments; the journal keeps everything already finished.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *stride > 0 {
		prof.stride = *stride
	}
	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		fatal(err)
	}
	want := map[string]bool{}
	for _, k := range strings.Split(*only, ",") {
		want[strings.TrimSpace(k)] = true
	}
	all := want["all"]
	sel := func(k string) bool { return all || want[k] }

	fmt.Printf("== paperfigs: profile %s (poisson %dx%d / circuit n=%d, %d inner iters, stride %d) ==\n\n",
		prof.name, prof.poissonN, prof.poissonN, prof.circuitN, prof.innerIters, prof.stride)

	if *traceDir != "" {
		runTraceTimeline(prof, *traceDir)
	}

	if sel("table1") {
		runTable1(prof, *outdir)
	}
	if sel("fig2") {
		runFig2(prof)
	}

	var poisson, circuit *expt.Problem
	needPoisson := sel("fig3a") || sel("fig3b") || sel("summary")
	needCircuit := sel("fig4a") || sel("fig4b") || sel("summary")
	poissonSpec := campaign.ProblemSpec{Kind: "poisson", N: prof.poissonN, InnerIters: prof.innerIters, TargetOuter: prof.poissonOuter}
	circuitSpec := campaign.ProblemSpec{Kind: "circuit", N: prof.circuitN, InnerIters: prof.innerIters, TargetOuter: prof.circuitOuter}

	var sw *sweeper
	if needPoisson || needCircuit {
		sw = openSweeper(*outdir, prof, *resume, *workers, *kernelWorkers,
			resumeCommand(prof, *only, *outdir, *stride, *workers, *fleet))
		if *memoBytes > 0 {
			sw.memo = memo.New(memo.Config{MaxBytes: *memoBytes})
		}
		if *fleet >= 0 {
			sw.startFleet(fleetOptions{workers: *fleet, addr: *fleetAddr, leaseTTL: *leaseTTL, batch: *fleetBatch})
		}
		defer sw.Close()
	}
	if needPoisson {
		poisson = calibrate("Poisson", gallery.Poisson2D(prof.poissonN), prof.innerIters, prof.poissonOuter)
		sw.problems.Put(poissonSpec.Key(), poisson)
	}
	if needCircuit {
		circuit = calibrate("circuit", gallery.CircuitDCOP(gallery.DefaultCircuitDCOPConfig(prof.circuitN)), prof.innerIters, prof.circuitOuter)
		sw.problems.Put(circuitSpec.Key(), circuit)
	}

	var summaries []expt.Summary
	figs := []struct {
		key     string
		problem **expt.Problem
		spec    campaign.ProblemSpec
		step    string
		caption string
	}{
		{"fig3a", &poisson, poissonSpec, "first", "Fig. 3a: Poisson, SDC on the FIRST MGS iteration"},
		{"fig3b", &poisson, poissonSpec, "last", "Fig. 3b: Poisson, SDC on the LAST MGS iteration"},
		{"fig4a", &circuit, circuitSpec, "first", "Fig. 4a: circuit (mult_dcop_03 surrogate), SDC on the FIRST MGS iteration"},
		{"fig4b", &circuit, circuitSpec, "last", "Fig. 4b: circuit (mult_dcop_03 surrogate), SDC on the LAST MGS iteration"},
	}
	for _, f := range figs {
		if !sel(f.key) && !sel("summary") {
			continue
		}
		p := *f.problem
		if p == nil {
			continue
		}
		show := sel(f.key)
		if show {
			fmt.Printf("-- %s --\n", f.caption)
			fmt.Printf("   %d inner iterations per outer iteration. Failure-free outer iterations = %d\n\n",
				p.InnerIters, p.FailureFreeOuter)
		}
		for _, model := range []string{"large", "slight", "tiny"} {
			start := time.Now()
			pts, cfg, skipped := sw.sweep(ctx, f.key, f.spec, model, f.step, campaign.DetectorSpec{})
			sum := expt.Summarize(p, cfg, pts)
			summaries = append(summaries, sum)
			writeCSV(*outdir, fmt.Sprintf("%s_%s.csv", f.key, slug(cfg.Model.String())), p, cfg, pts)
			if show {
				plotSweep(p, cfg.Model.String(), pts)
				resumed := ""
				if skipped > 0 {
					resumed = fmt.Sprintf(", %d from journal", skipped)
				}
				fmt.Printf("   [%d runs in %v%s; worst case %d outer (+%d); %d unaffected]\n\n",
					len(pts), time.Since(start).Round(time.Second), resumed, sum.MaxOuter, sum.MaxExtraOuter, sum.Unaffected)
			}
		}
	}

	if sel("summary") {
		runSummary(ctx, *outdir, sw, poisson, circuit, poissonSpec, circuitSpec, summaries)
	}
	if sel("montecarlo") {
		if poisson == nil {
			poisson = calibrate("Poisson", gallery.Poisson2D(prof.poissonN), prof.innerIters, prof.poissonOuter)
		}
		runMonteCarlo(prof, *outdir, poisson, *workers)
	}
	fmt.Println("done.")
}

func runTable1(prof profile, outdir string) {
	fmt.Println("-- Table I: Sample Matrices --")
	rows := []expt.Table1Row{expt.Table1Poisson(prof.poissonN)}
	cr, err := expt.Table1Circuit(prof.table1Circuit)
	if err != nil {
		fatal(err)
	}
	rows = append(rows, cr)
	expt.WriteTable1(os.Stdout, rows)
	f, err := os.Create(filepath.Join(outdir, "table1.txt"))
	if err != nil {
		fatal(err)
	}
	expt.WriteTable1(f, rows)
	f.Close()
	fmt.Println()
}

// runFig2 demonstrates the structural claim behind Figure 2: the projected
// matrix H of an SPD problem is tridiagonal, while a nonsymmetric problem
// fills the whole upper Hessenberg.
func runFig2(prof profile) {
	fmt.Println("-- Fig. 2: Upper Hessenberg vs tridiagonal structure of H --")
	show := func(label string, a krylov.Operator, k int) {
		h := captureH(a, k)
		fmt.Printf("%s: H(1:%d,1:%d) |entries| > 1e-8:\n", label, k, k)
		for i := 0; i < k; i++ {
			row := "   "
			for j := 0; j < k; j++ {
				if abs(h.At(i, j)) > 1e-8 {
					row += "× "
				} else {
					row += "0 "
				}
			}
			fmt.Println(row)
		}
		fmt.Printf("   tridiagonal: %v, upper Hessenberg: %v\n\n", h.IsTridiagonal(1e-8), h.IsUpperHessenberg(1e-12))
	}
	show("SPD (Poisson)", gallery.Poisson2D(min(prof.poissonN, 24)), 6)
	show("nonsymmetric (convection-diffusion)", gallery.ConvectionDiffusion2D(min(prof.poissonN, 24), 15, -7), 6)
}

// captureH runs k Arnoldi iterations and rebuilds H from the hook stream.
func captureH(a krylov.Operator, k int) *dense.Matrix {
	h := dense.NewMatrix(k+1, k)
	hook := krylov.CoeffHookFunc(func(ctx krylov.CoeffContext, v float64) (float64, error) {
		j := ctx.InnerIteration - 1
		var i int
		if ctx.Kind == krylov.Normalization {
			i = ctx.InnerIteration
		} else {
			i = ctx.Step - 1
		}
		if j < k && i <= k {
			h.Set(i, j, v)
		}
		return v, nil
	})
	b := make([]float64, a.Rows())
	a.MatVec(b, vec.Ones(a.Cols()))
	if _, err := krylov.GMRES(a, b, nil, krylov.Options{MaxIter: k, Tol: 0, Hooks: []krylov.CoeffHook{hook}}); err != nil {
		fatal(err)
	}
	return h
}

func runSummary(ctx context.Context, outdir string, sw *sweeper, poisson, circuit *expt.Problem, poissonSpec, circuitSpec campaign.ProblemSpec, noDetector []expt.Summary) {
	fmt.Println("-- Summary (Sec. VII-E): detector impact on worst-case time-to-solution --")
	det := campaign.DetectorSpec{Enabled: true, Bound: "frobenius", Response: "restart"}
	var withDetector []expt.Summary
	targets := []struct {
		p    *expt.Problem
		spec campaign.ProblemSpec
	}{{poisson, poissonSpec}, {circuit, circuitSpec}}
	for _, tgt := range targets {
		if tgt.p == nil {
			continue
		}
		for _, step := range []string{"first", "last"} {
			pts, cfg, _ := sw.sweep(ctx, "summary", tgt.spec, "large", step, det)
			withDetector = append(withDetector, expt.Summarize(tgt.p, cfg, pts))
			writeCSV(outdir, fmt.Sprintf("summary_det_%s_%s.csv", slug(tgt.p.Name), cfg.Step.String()), tgt.p, cfg, pts)
		}
	}
	fmt.Println("\nWithout detector:")
	expt.WriteSummaries(os.Stdout, noDetector)
	fmt.Println("\nWith detector (‖A‖F bound, restart-inner response) — class-1 faults only:")
	expt.WriteSummaries(os.Stdout, withDetector)
	f, err := os.Create(filepath.Join(outdir, "summary.txt"))
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(f, "Without detector:")
	expt.WriteSummaries(f, noDetector)
	fmt.Fprintln(f, "\nWith detector (restart-inner), class-1 faults:")
	expt.WriteSummaries(f, withDetector)
	f.Close()
	fmt.Println()
}

// runMonteCarlo runs the randomized-campaign extension: faults sampled
// across the whole IEEE-754 range and all MGS positions, with and without
// the detector.
func runMonteCarlo(prof profile, outdir string, p *expt.Problem, workers int) {
	fmt.Println("-- Extension: randomized SDC campaign (uniform sites, scale + bit-flip models) --")
	trials := 200
	if prof.name == "tiny" {
		trials = 60
	}
	off := expt.MonteCarlo(p, expt.MCConfig{Trials: trials, Seed: 1311.65e2, Workers: workers})
	expt.WriteMCReport(os.Stdout, p, off)
	fmt.Println()
	det := core.DetectorConfig{Enabled: true, Kind: detect.FrobeniusBound, Response: core.ResponseRestartInner}
	on := expt.MonteCarlo(p, expt.MCConfig{Trials: trials, Seed: 1311.65e2, Detector: det, Workers: workers})
	fmt.Println("same campaign with the detector enabled (restart-inner response):")
	expt.WriteMCReport(os.Stdout, p, on)
	f, err := os.Create(filepath.Join(outdir, "montecarlo.txt"))
	if err != nil {
		fatal(err)
	}
	expt.WriteMCReport(f, p, off)
	fmt.Fprintln(f)
	expt.WriteMCReport(f, p, on)
	f.Close()
	fmt.Println()
}

// sweeper drives the fault sweeps through the campaign engine against one
// shared per-profile journal, so every finished experiment survives an
// interrupt and is skipped on -resume.
type sweeper struct {
	journal *campaign.Journal
	have    map[string]campaign.Record
	// problems holds the run's calibrated problems, under the labels the
	// CSVs carry; local sweeps and in-process fleet workers compile
	// through it, so neither recalibrates.
	problems      *campaign.Problems
	stride        int
	workers       int
	kernelWorkers int
	resumeCmd     string
	fleet         *fleetRuntime
	// memo is the run-wide solve cache (nil = off): sweeps sharing units
	// across figures reuse each other's records instead of re-solving.
	memo *memo.Cache
}

// resumeCommand reconstructs the exact invocation that continues this run.
func resumeCommand(prof profile, only, outdir string, stride, workers, fleet int) string {
	cmd := fmt.Sprintf("paperfigs -profile %s -outdir %s", prof.name, outdir)
	if only != "all" {
		cmd += " -only " + only
	}
	if stride > 0 {
		cmd += fmt.Sprintf(" -stride %d", stride)
	}
	if workers > 0 {
		cmd += fmt.Sprintf(" -workers %d", workers)
	}
	if fleet >= 0 {
		cmd += fmt.Sprintf(" -fleet %d", fleet)
	}
	return cmd + " -resume"
}

// openSweeper opens (or, with resume, reuses) the profile's journal. A
// non-empty journal without -resume is refused rather than silently
// satisfying sweeps with stale records.
func openSweeper(outdir string, prof profile, resume bool, workers, kernelWorkers int, resumeCmd string) *sweeper {
	path := filepath.Join(outdir, "campaign-"+prof.name+".jsonl")
	if !resume {
		if fi, err := os.Stat(path); err == nil && fi.Size() > 0 {
			fatal(fmt.Errorf("journal %s already holds finished experiments;\nrerun with -resume to continue it, or delete it to start over", path))
		}
	}
	j, have, err := campaign.OpenJournal(path)
	if err != nil {
		fatal(err)
	}
	if len(have) > 0 {
		fmt.Printf("resuming: journal %s holds %d finished experiments\n\n", path, len(have))
	}
	return &sweeper{
		journal:       j,
		have:          have,
		problems:      campaign.NewProblems(),
		stride:        prof.stride,
		workers:       workers,
		kernelWorkers: kernelWorkers,
		resumeCmd:     resumeCmd,
	}
}

// fleetOptions is the -fleet flag bundle.
type fleetOptions struct {
	workers  int
	addr     string
	leaseTTL time.Duration
	batch    int
}

// fleetRuntime is the live distributed coordinator: the lease-protocol host
// on a listener, plus any in-process workers, which compile through the
// sweeper's calibration cache.
type fleetRuntime struct {
	host     *dist.Host
	srv      *http.Server
	url      string
	leaseTTL time.Duration
	batch    int
	cancel   context.CancelFunc
	workers  sync.WaitGroup
}

// startFleet switches the sweeper to distributed execution: it hosts the
// lease protocol, prints the join command for external workers, and spawns
// the requested in-process workers (which talk plain HTTP through the same
// loopback listener, exercising the identical wire path).
func (s *sweeper) startFleet(opts fleetOptions) {
	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		fatal(fmt.Errorf("fleet: listen %s: %w", opts.addr, err))
	}
	f := &fleetRuntime{
		host:     dist.NewHost(nil, nil),
		url:      "http://" + ln.Addr().String(),
		leaseTTL: opts.leaseTTL,
		batch:    opts.batch,
	}
	f.srv = &http.Server{Handler: f.host, ReadHeaderTimeout: 10 * time.Second}
	go f.srv.Serve(ln)
	fmt.Printf("fleet: coordinator on %s (lease TTL %v, batch %d)\n", f.url, opts.leaseTTL, opts.batch)
	fmt.Printf("fleet: join more workers with: solved -worker -coordinator=%s\n\n", f.url)

	wctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	for i := 0; i < opts.workers; i++ {
		w := dist.NewWorker(dist.WorkerConfig{
			Coordinator: f.url,
			Name:        fmt.Sprintf("local-%d", i),
			Problems:    s.problems,
			Poll:        100 * time.Millisecond,
		})
		f.workers.Add(1)
		go func() {
			defer f.workers.Done()
			if err := w.Run(wctx); err != nil && wctx.Err() == nil {
				fmt.Fprintf(os.Stderr, "fleet: local worker exited: %v\n", err)
			}
		}()
	}
	s.fleet = f
}

// Close winds the fleet down (workers observe the closed state and exit,
// external ones included), prints the lease statistics, and releases the
// journal.
func (s *sweeper) Close() {
	if f := s.fleet; f != nil {
		f.host.Close()
		f.workers.Wait()
		f.cancel()
		// External workers learn of the shutdown by polling; keep the
		// listener up until they have heard it.
		f.host.WaitClosed()
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = f.srv.Shutdown(sctx) // bounded by sctx; the run is over either way
		cancel()
		m := f.host.Metrics().Snapshot()
		fmt.Printf("fleet stats: %d leases granted, %d completed, %d expired; %d units completed, %d requeued; %d duplicate, %d rejected records\n",
			m["leases_granted"], m["leases_completed"], m["leases_expired"],
			m["units_completed"], m["units_requeued"], m["records_duplicate"], m["records_rejected"])
	}
	s.journal.Close()
}

// sweep runs one series (one curve of one figure) through the campaign
// engine, skipping journaled experiments, and returns the aggregated points
// — byte-for-byte what the in-memory expt.Sweep path would have produced —
// with the count of experiments the journal already held.
func (s *sweeper) sweep(ctx context.Context, name string, spec campaign.ProblemSpec, model, step string, det campaign.DetectorSpec) ([]expt.SweepPoint, expt.SweepConfig, int) {
	man := campaign.Manifest{
		Name:      name,
		Problems:  []campaign.ProblemSpec{spec},
		Models:    []string{model},
		Steps:     []string{step},
		Detectors: []campaign.DetectorSpec{det},
		Stride:    s.stride,
	}
	c, err := s.problems.Compile(man)
	if err != nil {
		fatal(err)
	}
	skipped := len(c.Units) - c.Remaining(s.have)
	var fresh map[string]campaign.Record
	var runErr error
	if s.fleet != nil {
		// Distributed path: the coordinator owns this journal; workers
		// (in-process and external alike) execute the units and report
		// records over the wire.
		fresh, runErr = s.fleet.host.RunCampaign(ctx, c, s.journal, s.have, campaign.CoordinatorConfig{
			LeaseTTL:  s.fleet.leaseTTL,
			BatchSize: s.fleet.batch,
			Memo:      s.memo,
		})
	} else {
		r := campaign.NewRunner(c, s.journal, s.have, campaign.Options{Workers: s.workers, KernelWorkers: s.kernelWorkers, UnitBudget: time.Hour, Memo: s.memo})
		runErr = r.Run(ctx)
		fresh = r.Records()
	}
	for id, rec := range fresh {
		s.have[id] = rec
	}
	if runErr != nil {
		if ctx.Err() != nil {
			s.interrupted()
		}
		fatal(runErr)
	}
	series, err := c.Aggregate(s.have)
	if err != nil {
		fatal(err)
	}
	sr := series[0]
	if !sr.Complete() {
		fatal(fmt.Errorf("series %s incomplete after run (%d missing)", sr.Key, sr.Missing))
	}
	return sr.Points, sr.Config, skipped
}

// interrupted reports where the journal lives and the exact command that
// resumes the run, then exits with the conventional SIGINT status.
func (s *sweeper) interrupted() {
	s.journal.Close()
	fmt.Fprintf(os.Stderr, "\npaperfigs: interrupted — %d finished experiments are journaled at:\n  %s\nresume with:\n  %s\n",
		len(s.have), s.journal.Path(), s.resumeCmd)
	os.Exit(130)
}

// runTraceTimeline records one representative faulty FT-GMRES solve on the
// profile's Poisson problem — detector on, one class-1 fault in the second
// inner solve — and writes its full flight-recorder timeline twice:
// trace-<profile>.jsonl (the canonical event stream) and
// trace-<profile>.chrome.json (loadable in about://tracing / Perfetto).
func runTraceTimeline(prof profile, dir string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	a := gallery.Poisson2D(prof.poissonN)
	b := make([]float64, a.Rows())
	a.MatVec(b, vec.Ones(a.Cols()))
	rec := trace.NewRecorder(trace.DefaultCapacity)
	inj := fault.NewInjector(fault.ClassLarge, fault.Site{AggregateInner: prof.innerIters + 2, Step: fault.FirstMGS})
	inj.SetRecorder(rec)
	cfg := core.Config{
		MaxOuter: prof.poissonOuter + 6,
		OuterTol: 1e-8,
		Inner:    core.InnerConfig{Iterations: prof.innerIters, Hooks: []krylov.CoeffHook{inj}},
		Detector: core.DetectorConfig{Enabled: true, Kind: detect.FrobeniusBound, Response: core.ResponseWarn},
		Recorder: rec,
	}
	if _, err := core.New(a, cfg).Solve(b, nil); err != nil {
		fatal(err)
	}
	events := rec.Events()
	jsonlPath := filepath.Join(dir, fmt.Sprintf("trace-%s.jsonl", prof.name))
	chromePath := filepath.Join(dir, fmt.Sprintf("trace-%s.chrome.json", prof.name))
	for _, out := range []struct {
		path  string
		write func(w *os.File) error
	}{
		{jsonlPath, func(w *os.File) error { return trace.WriteJSONL(w, events) }},
		{chromePath, func(w *os.File) error { return trace.WriteChromeTrace(w, events) }},
	} {
		f, err := os.Create(out.path)
		if err != nil {
			fatal(err)
		}
		if err := out.write(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("traced solve: %d events (%d dropped) -> %s, %s\n\n", len(events), rec.Dropped(), jsonlPath, chromePath)
}

func calibrate(label string, a *sparse.CSR, inner, target int) *expt.Problem {
	start := time.Now()
	p, err := expt.Calibrate(label, a, inner, target)
	if err != nil {
		fatal(fmt.Errorf("calibrating %s: %w", label, err))
	}
	fmt.Printf("calibrated %s: tol %.3e -> %d failure-free outer iterations (%v)\n\n",
		label, p.OuterTol, p.FailureFreeOuter, time.Since(start).Round(time.Millisecond))
	return p
}

func plotSweep(p *expt.Problem, model string, pts []expt.SweepPoint) {
	s := textplot.Series{}
	for _, pt := range pts {
		s.X = append(s.X, pt.AggregateInner)
		s.Y = append(s.Y, pt.OuterIters)
	}
	err := textplot.Render(os.Stdout, s, textplot.Options{
		Title:      fmt.Sprintf("h̃ = h %s", model),
		Width:      100,
		Baseline:   p.FailureFreeOuter,
		GuideEvery: p.InnerIters,
		YLabel:     "outer iterations",
		XLabel:     "aggregate inner solve iteration that faults",
	})
	if err != nil {
		fatal(err)
	}
}

func writeCSV(outdir, name string, p *expt.Problem, cfg expt.SweepConfig, pts []expt.SweepPoint) {
	f, err := os.Create(filepath.Join(outdir, name))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := expt.WriteSweepCSV(f, p.Name, cfg, pts); err != nil {
		fatal(err)
	}
}

func slug(s string) string {
	s = strings.ToLower(s)
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == '-' || r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paperfigs:", err)
	os.Exit(1)
}
