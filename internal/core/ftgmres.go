// Package core implements FT-GMRES, the paper's fault-tolerant nested
// solver (Section VI): a reliable Flexible-GMRES outer iteration whose
// preconditioner is an *unreliable* inner GMRES solve executed under the
// sandbox model. Faults in the inner solves are "rolled forward" — never
// rolled back — and the reliable outer iteration drives convergence using
// explicitly (reliably) computed residuals.
//
// The Hessenberg-bound detector of Section V plugs into the inner solves
// and, depending on the configured response, warns, halts the inner solve
// early, or restarts it (the fault is transient, so a retry runs clean).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"sdcgmres/internal/detect"
	"sdcgmres/internal/kernel"
	"sdcgmres/internal/krylov"
	"sdcgmres/internal/precond"
	"sdcgmres/internal/sandbox"
	"sdcgmres/internal/sparse"
	"sdcgmres/internal/trace"
	"sdcgmres/internal/vec"
)

// Response selects what FT-GMRES does when the detector fires inside an
// inner solve.
type Response int

const (
	// ResponseWarn records detections but lets the inner solve finish —
	// the "run through" mode whose behaviour Figures 3 and 4 map out.
	ResponseWarn Response = iota
	// ResponseHaltInner stops the inner solve at the detection point and
	// hands its best-so-far iterate to the outer solver. Cheap, and safe:
	// FGMRES tolerates an arbitrary preconditioner result.
	ResponseHaltInner
	// ResponseRestartInner aborts the inner solve and re-runs it once.
	// Because the paper's fault model is a single *transient* SDC, the
	// retry executes fault-free.
	ResponseRestartInner
)

// String implements fmt.Stringer.
func (r Response) String() string {
	switch r {
	case ResponseHaltInner:
		return "halt-inner"
	case ResponseRestartInner:
		return "restart-inner"
	default:
		return "warn"
	}
}

// InnerConfig configures the unreliable inner solver.
type InnerConfig struct {
	// Iterations is the fixed inner iteration count (paper: 25). The
	// inner solve runs with Tol = 0: it always returns "something" after
	// a bounded amount of work, per the sandbox contract.
	Iterations int
	// Ortho selects the orthogonalization kernel (default MGS).
	Ortho krylov.OrthoMethod
	// Policy selects the inner projected least-squares policy (Section
	// VI-D; default LSQFallback so Inf/NaN coefficients trigger the
	// rank-revealing solve).
	Policy krylov.LSQPolicy
	// RRTol is the singular-value truncation for rank-revealing solves.
	RRTol float64
	// Hooks are extra coefficient hooks for the inner Arnoldi process —
	// this is where experiments install fault injectors. They run before
	// the detector.
	Hooks []krylov.CoeffHook
	// Precond right-preconditions the inner GMRES solves (e.g. a
	// precond.Jacobi or precond.ILU0). When it also implements
	// precond.Transposable, the detector bound is recomputed as an
	// estimate of ‖A M⁻¹‖₂ — with right preconditioning the Arnoldi
	// coefficients are bounded by the norm of the *preconditioned*
	// matrix (Section V-B); the plain ‖A‖ bounds would false-positive
	// or miss, depending on M.
	Precond krylov.Preconditioner
	// WrapOperator, when non-nil, wraps the operator the *inner* solves
	// apply — the seam for injecting faults into the sparse matrix-vector
	// product itself (fault.OpInjector) rather than into the
	// orthogonalization coefficients. The outer solver always applies the
	// pristine operator: only inner solves run unreliably.
	WrapOperator func(op krylov.Operator) krylov.Operator
	// RobustFirstSolve hardens the FIRST inner solve only: it runs with
	// re-orthogonalized CGS2 and the rank-revealing least-squares policy
	// regardless of the configured Ortho/Policy. This implements the
	// paper's Section VII-E proposal: the experiments show the early
	// iterations of the first inner solve are the most vulnerable
	// positions, and "adding redundant computation early in the inner
	// solve would have minimal performance impact" because the
	// orthogonalization work grows linearly with the iteration index.
	RobustFirstSolve bool
}

// DetectorConfig configures the SDC detector inside inner solves.
type DetectorConfig struct {
	// Enabled turns the invariant check on.
	Enabled bool
	// Kind selects the bound (‖A‖F by default, ‖A‖₂ estimate optional).
	Kind detect.BoundKind
	// Response selects the reaction to a detection.
	Response Response
	// MaxRestartsPerInner bounds ResponseRestartInner retries for a
	// single inner solve (default 1).
	MaxRestartsPerInner int
}

// OuterMethod selects the reliable outer iteration.
type OuterMethod int

const (
	// OuterFGMRES uses Flexible GMRES — the paper's choice; handles
	// nonsymmetric systems.
	OuterFGMRES OuterMethod = iota
	// OuterFCG uses flexible Conjugate Gradient (Golub & Ye), the
	// alternative flexible outer iteration the paper lists as future
	// work. SPD systems only.
	OuterFCG
)

// String implements fmt.Stringer.
func (m OuterMethod) String() string {
	if m == OuterFCG {
		return "FCG"
	}
	return "FGMRES"
}

// Config configures the nested solver.
type Config struct {
	// Outer selects the reliable outer iteration (default FGMRES).
	Outer OuterMethod
	// MaxOuter bounds the outer (reliable) iterations per cycle. The
	// outer Krylov basis holds MaxOuter vector pairs, so this is also the
	// memory knob.
	MaxOuter int
	// OuterRestarts is the number of additional outer restart cycles
	// (each of up to MaxOuter iterations) before giving up. Restarting
	// the reliable outer iteration is always safe — it starts from the
	// current iterate with an explicitly computed residual.
	OuterRestarts int
	// OuterTol is the relative residual convergence threshold, judged on
	// the *explicitly computed* residual ‖b − A x‖/‖b‖.
	OuterTol float64
	// Inner configures the unreliable inner solves.
	Inner InnerConfig
	// Detector configures the SDC detector.
	Detector DetectorConfig
	// SandboxBudget is the wall-clock budget per inner solve (0 = no
	// limit; panics are always contained).
	SandboxBudget time.Duration
	// OuterPolicy is the projected least-squares policy of the outer
	// solve (default LSQRankRevealing — the paper recommends approach 1
	// or 3 and the reliable outer layer is where robustness pays).
	OuterPolicy krylov.LSQPolicy
	// RankCheckTol gates the FGMRES trichotomy check (default 1e-12).
	RankCheckTol float64
	// OnOuter, when non-nil, observes (outerIteration, relativeResidual)
	// after every outer iteration.
	OnOuter func(iter int, rel float64)
	// Recorder, when non-nil, receives the full flight-recorder stream of
	// the solve: a solve span, reliable outer residuals (Inner == 0),
	// inner-solve spans with per-iteration residuals and Arnoldi
	// coefficients, every detector verdict, and the sandbox outcome of
	// each inner solve. A nil Recorder costs one pointer check per event
	// site and allocates nothing.
	Recorder *trace.Recorder
	// Pool, when non-nil, runs the hot-path kernels of both the reliable
	// outer iteration and every sandboxed inner solve on a persistent
	// shared-memory worker pool. Results are bitwise identical for every
	// pool width (nil included), so the pool is purely a speed knob.
	Pool *kernel.Pool
}

// Stats aggregates what happened during a nested solve.
type Stats struct {
	// OuterIterations is the number of outer (reliable) iterations run.
	OuterIterations int
	// InnerIterations is the total Arnoldi iterations across all inner
	// solves, including restarted ones.
	InnerIterations int
	// InnerRestarts counts ResponseRestartInner retries.
	InnerRestarts int
	// InnerHalts counts inner solves stopped early by detection.
	InnerHalts int
	// SandboxFailures counts inner solves whose sandbox report was not
	// usable (panic, timeout, error); the outer solver fell back to the
	// identity preconditioner for those.
	SandboxFailures int
	// Detections is the detector's violation count (0 if disabled).
	Detections int
	// DetectorChecked is how many coefficients the detector examined.
	DetectorChecked int
	// InnerWork tallies the arithmetic of the unreliable inner solves —
	// the part of the budget Sec. VII-E argues should carry the cheap,
	// early robustness.
	InnerWork krylov.Work
}

// Result is the outcome of a nested solve.
type Result struct {
	// X is the solution iterate.
	X []float64
	// Converged reports whether OuterTol was met.
	Converged bool
	// FinalResidual is the last reliable relative residual.
	FinalResidual float64
	// ResidualHistory is the reliable relative residual after each outer
	// iteration.
	ResidualHistory []float64
	// Stats aggregates solver activity.
	Stats Stats
}

// Err maps the solve outcome onto the krylov sentinel errors so callers
// can branch with errors.Is instead of inspecting fields: nil when the
// solve converged, an error matching krylov.ErrNotConverged otherwise —
// additionally matching krylov.ErrDetected when the detector fired during
// the run.
func (r *Result) Err() error {
	if r == nil || r.Converged {
		return nil
	}
	if r.Stats.Detections > 0 {
		return fmt.Errorf("core: solve stopped at relative residual %.3g after %d outer iterations with %d detector violations: %w",
			r.FinalResidual, r.Stats.OuterIterations, r.Stats.Detections, errors.Join(krylov.ErrNotConverged, krylov.ErrDetected))
	}
	return fmt.Errorf("core: solve stopped at relative residual %.3g after %d outer iterations: %w",
		r.FinalResidual, r.Stats.OuterIterations, krylov.ErrNotConverged)
}

// Solver is a reusable FT-GMRES instance for one operator.
type Solver struct {
	a   *sparse.CSR
	cfg Config
	det *detect.Detector
	// aNormF caches ‖A‖F for the host-side degeneracy screen on inner
	// results (see innerSolve).
	aNormF float64
}

// New builds an FT-GMRES solver. The detector bound is computed once here
// — it depends only on the input matrix (Section V-B).
func New(a *sparse.CSR, cfg Config) *Solver {
	if cfg.MaxOuter <= 0 {
		cfg.MaxOuter = 50
	}
	if cfg.Inner.Iterations <= 0 {
		cfg.Inner.Iterations = 25
	}
	if cfg.Inner.RRTol == 0 {
		cfg.Inner.RRTol = 1e-12
	}
	if cfg.Detector.MaxRestartsPerInner <= 0 {
		cfg.Detector.MaxRestartsPerInner = 1
	}
	if cfg.RankCheckTol == 0 {
		cfg.RankCheckTol = 1e-12
	}
	s := &Solver{a: a, cfg: cfg, aNormF: a.FrobeniusNorm()}
	if cfg.Detector.Enabled {
		if tp, ok := cfg.Inner.Precond.(precond.Transposable); ok && cfg.Inner.Precond != nil {
			// Preconditioned inner solves: the coefficients live in the
			// Arnoldi process of A·M⁻¹, so the bound must too.
			if est, err := precond.Norm2EstPreconditioned(a, tp, 300, 1e-8); err == nil && est > 0 {
				s.det = detect.NewDetectorWithBound(est*1.05, detect.SpectralBound)
			} else {
				s.det = detect.NewDetector(a, cfg.Detector.Kind)
			}
		} else {
			s.det = detect.NewDetector(a, cfg.Detector.Kind)
		}
	}
	return s
}

// Detector returns the solver's detector (nil when disabled).
func (s *Solver) Detector() *detect.Detector { return s.det }

// Config returns the effective configuration (defaults applied).
func (s *Solver) Config() Config { return s.cfg }

// Solve runs FT-GMRES on A x = b starting from x0 (nil = zero).
func (s *Solver) Solve(b, x0 []float64) (*Result, error) {
	return s.SolveCtx(context.Background(), b, x0)
}

// SolveCtx is Solve with cancellation: when ctx ends the solve aborts at
// the next inner-solve boundary (each outer iteration runs one inner
// solve, so cancellation lands within one outer iteration's work) and
// returns ctx's error. A guest blocked inside an inner solve is abandoned
// per the sandbox contract, so cancellation never waits on a hung inner
// solve.
func (s *Solver) SolveCtx(ctx context.Context, b, x0 []float64) (*Result, error) {
	return s.solve(ctx, b, x0, nil, 0)
}

// Tape records a nested solve's first outer cycle: the outer FGMRES tape,
// plus what each outer iteration's inner solve left behind. A solve known to
// agree with the recorded one for its first k outer iterations can restore
// them from the tape instead of recomputing them (SolveResume). A tape is
// read-only once recorded, so any number of solves may resume from it at
// once.
type Tape struct {
	outer krylov.Tape
	inner []tapeInner // one per recorded outer iteration
}

// tapeInner is the state after one recorded outer iteration's inner solve.
type tapeInner struct {
	stats  Stats   // cumulative solver stats
	maxAbs float64 // largest |h| of the inner solves so far (+Inf: see PrefixMaxAbs)
	coeffs int     // Hessenberg coefficients the inner solves so far produced
}

// Len returns the number of outer iterations the tape holds.
func (t *Tape) Len() int { return t.outer.Len() }

// PrefixMaxAbs returns the largest |h| among the Hessenberg coefficients the
// first k recorded inner solves produced (1 ≤ k ≤ Len), or +Inf when one of
// them was not finite or an inner solve's sandbox failed. A detector whose
// bound is at least this would have passed every one of them.
func (t *Tape) PrefixMaxAbs(k int) float64 { return t.inner[k-1].maxAbs }

// note appends the state an inner solve left behind: the cumulative stats,
// and its coefficient tally when its guests all finished (ok), which is
// when the tally is safe to read.
func (t *Tape) note(stats Stats, tally *coeffTally, ok bool) {
	in := tapeInner{stats: stats}
	if n := len(t.inner); n > 0 {
		in.maxAbs, in.coeffs = t.inner[n-1].maxAbs, t.inner[n-1].coeffs
	}
	if ok {
		in.maxAbs = max(in.maxAbs, tally.max)
		in.coeffs += tally.n
	} else {
		in.maxAbs = math.Inf(1)
	}
	t.inner = append(t.inner, in)
}

// coeffTally is an inner-solve hook that counts the coefficients passing
// through it and keeps the largest |h|, taking a non-finite one as +Inf.
type coeffTally struct {
	n   int
	max float64
}

// Observe implements krylov.CoeffHook.
func (c *coeffTally) Observe(_ krylov.CoeffContext, h float64) (float64, error) {
	c.n++
	a := math.Abs(h)
	if math.IsNaN(a) {
		a = math.Inf(1)
	}
	c.max = max(c.max, a)
	return h, nil
}

// SolveRecord is s.SolveCtx(ctx, b, nil) that also records the solve's
// first outer cycle on a tape. Only the FGMRES outer iteration can be taped.
func SolveRecord(ctx context.Context, s *Solver, b []float64) (*Result, *Tape, error) {
	t := &Tape{}
	res, err := s.solve(ctx, b, nil, t, 0)
	if err != nil {
		return nil, nil, err
	}
	return res, t, nil
}

// SolveResume is s.SolveCtx(ctx, b, nil) for a solve whose first k outer
// iterations are the ones t recorded: it restores them from the tape and
// runs only iterations k+1 onward. The result is bit-identical to solving
// from scratch.
//
// The caller vouches for the agreement. t must come from SolveRecord on a
// solver with the same operator, b and configuration, except that s may
// add inner hooks and a detector that leave the first k inner solves as
// they were: hooks that alter none of their coefficients, and a detector
// that would pass every one (PrefixMaxAbs(k) within its bound). s must
// have no Recorder or OnOuter, which would miss the restored iterations.
// k must leave the recorded solve still iterating: 1 ≤ k < t.Len(). The
// detector's own counters see only the iterations the solve runs; the
// result's Stats include the restored ones.
func SolveResume(ctx context.Context, s *Solver, b []float64, t *Tape, k int) (*Result, error) {
	if k < 1 || k >= t.Len() {
		return nil, fmt.Errorf("core: cannot resume at outer iteration %d from a %d-iteration tape", k, t.Len())
	}
	return s.solve(ctx, b, nil, t, k)
}

// solve is the nested solve. With t nil it is plain SolveCtx; with k == 0
// it records its first outer cycle into t; with k > 0 it resumes from t
// after k outer iterations.
func (s *Solver) solve(ctx context.Context, b, x0 []float64, t *Tape, k int) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if t != nil && s.cfg.Outer != OuterFGMRES {
		return nil, fmt.Errorf("core: only an FGMRES outer iteration can be taped, not %v", s.cfg.Outer)
	}
	stats := &Stats{}
	checked := 0 // coefficients of restored inner solves, which s.det never saw
	if k > 0 {
		*stats = t.inner[k-1].stats
		checked = t.inner[k-1].coeffs
	}
	if s.det != nil {
		s.det.Reset()
	}
	out := &Result{}
	rec := s.cfg.Recorder
	label := "ft-" + s.cfg.Outer.String()
	rec.SolveStart(label)
	defer func() {
		rec.SolveEnd(label, out.Converged, out.FinalResidual, stats.OuterIterations)
	}()
	onOuter := s.cfg.OnOuter
	if rec != nil {
		inner := onOuter
		onOuter = func(iter int, rel float64) {
			// Outer (reliable) residuals carry Inner == 0, distinguishing
			// them from the inner solves' per-iteration residuals.
			rec.IterResidual(iter, 0, 0, rel)
			if inner != nil {
				inner(iter, rel)
			}
		}
	}

	taping := t != nil && k == 0 // only the first outer cycle is taped
	provider := func(j int) krylov.Preconditioner {
		return krylov.PrecondFunc(func(z, q []float64) error {
			// The sandbox never lets inner failures escape; the only error
			// crossing this boundary is the host's own cancellation, which
			// aborts the outer solve.
			if err := ctx.Err(); err != nil {
				return err
			}
			if !taping {
				s.innerSolve(ctx, j, z, q, stats, nil)
				return ctx.Err()
			}
			tally := &coeffTally{}
			ok := s.innerSolve(ctx, j, z, q, stats, tally)
			t.note(*stats, tally, ok)
			return ctx.Err()
		})
	}

	x := x0
	for cycle := 0; ; cycle++ {
		var res *krylov.Result
		var err error
		switch s.cfg.Outer {
		case OuterFCG:
			res, err = krylov.FCG(s.a, b, x, provider, krylov.FCGOptions{
				Options: krylov.Options{
					MaxIter: s.cfg.MaxOuter,
					Tol:     s.cfg.OuterTol,
					Pool:    s.cfg.Pool,
				},
				OnIteration: onOuter,
			})
		default:
			opts := krylov.FGMRESOptions{
				Options: krylov.Options{
					MaxIter:      s.cfg.MaxOuter,
					Tol:          s.cfg.OuterTol,
					Policy:       s.cfg.OuterPolicy,
					RankCheckTol: s.cfg.RankCheckTol,
					Pool:         s.cfg.Pool,
				},
				ExplicitResidual: true,
				OnIteration:      onOuter,
			}
			switch {
			case cycle > 0 || t == nil:
				res, err = krylov.FGMRESCtx(ctx, s.a, b, x, provider, opts)
			case k > 0:
				res, err = krylov.FGMRESResume(ctx, s.a, b, x, provider, opts, &t.outer, k)
			default:
				res, err = krylov.FGMRESRecord(ctx, s.a, b, x, provider, opts, &t.outer)
			}
		}
		taping = false
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, fmt.Errorf("core: solve canceled: %w", errors.Join(krylov.ErrCanceled, cerr))
			}
			return nil, fmt.Errorf("core: outer solve failed: %w", err)
		}
		stats.OuterIterations += res.Iterations
		out.X = res.X
		out.Converged = res.Converged
		out.FinalResidual = res.FinalResidual
		out.ResidualHistory = append(out.ResidualHistory, res.ResidualHistory...)
		if res.Converged || cycle >= s.cfg.OuterRestarts || res.Iterations == 0 {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: solve canceled: %w", errors.Join(krylov.ErrCanceled, err))
		}
		x = res.X // restart the reliable outer iteration from here
	}

	if s.det != nil {
		ds := s.det.Stats()
		stats.Detections = ds.Violations
		stats.DetectorChecked = checked + ds.Checked
	}
	out.Stats = *stats
	return out, nil
}

// innerSolve runs one (possibly faulty) inner GMRES solve under the
// sandbox, honouring the detector response policy. It always leaves a
// usable vector in z: the inner result when the sandbox reports success,
// or q itself (identity preconditioning) when the guest failed outright.
// A non-nil tally observes every coefficient after the detector; innerSolve
// reports false when a guest failed, which may leave it still running and
// the tally unsafe to read.
func (s *Solver) innerSolve(ctx context.Context, j int, z, q []float64, stats *Stats, tally *coeffTally) bool {
	onErr := krylov.DetectRecord
	if s.cfg.Detector.Enabled && s.cfg.Detector.Response != ResponseWarn {
		onErr = krylov.DetectHalt
	}
	rec := s.cfg.Recorder
	rec.InnerStart(j)
	innerIters := 0
	defer func() { rec.InnerEnd(j, innerIters) }()
	hooks := make([]krylov.CoeffHook, 0, len(s.cfg.Inner.Hooks)+2)
	hooks = append(hooks, s.cfg.Inner.Hooks...)
	if s.det != nil {
		hooks = append(hooks, detect.Traced(s.det, rec))
	}
	if tally != nil {
		hooks = append(hooks, tally)
	}
	opts := krylov.Options{
		MaxIter:        s.cfg.Inner.Iterations,
		Tol:            0, // fixed work: always return "something"
		Ortho:          s.cfg.Inner.Ortho,
		Policy:         s.cfg.Inner.Policy,
		RRTol:          s.cfg.Inner.RRTol,
		Hooks:          hooks,
		OnHookErr:      onErr,
		OuterIteration: j,
		AggregateBase:  (j - 1) * s.cfg.Inner.Iterations,
		Precond:        s.cfg.Inner.Precond,
		Recorder:       rec,
		Pool:           s.cfg.Pool,
	}
	if s.cfg.Inner.RobustFirstSolve && j == 1 {
		// Selective robustness (Sec. VII-E): the first inner solve is the
		// vulnerable one, and its orthogonalization is the cheapest.
		opts.Ortho = krylov.CGS2
		opts.Policy = krylov.LSQRankRevealing
	}

	op := krylov.Operator(s.a)
	if s.cfg.Inner.WrapOperator != nil {
		op = s.cfg.Inner.WrapOperator(op)
	}
	attempts := 1
	if s.cfg.Detector.Enabled && s.cfg.Detector.Response == ResponseRestartInner {
		attempts += s.cfg.Detector.MaxRestartsPerInner
	}
	for attempt := 0; attempt < attempts; attempt++ {
		var inner *krylov.Result
		rep := sandbox.RunCtx(ctx, s.cfg.SandboxBudget, func() error {
			r, err := krylov.GMRES(op, q, nil, opts)
			if err != nil {
				return err
			}
			inner = r
			return nil
		})
		rec.SandboxOutcome(j, rep.Outcome.String(), rep.Usable(), float64(rep.Elapsed)/float64(time.Millisecond))
		if !rep.Usable() || inner == nil {
			stats.SandboxFailures++
			copy(z, q) // reliable fallback: identity preconditioning
			return false
		}
		stats.InnerIterations += inner.Iterations
		innerIters += inner.Iterations
		stats.InnerWork.Add(inner.Work)
		if inner.Halted {
			stats.InnerHalts++
			if s.cfg.Detector.Response == ResponseRestartInner && attempt+1 < attempts {
				stats.InnerRestarts++
				continue // transient fault: the retry runs clean
			}
		}
		// Guard the data crossing the sandbox boundary: the host never
		// accepts NaN/Inf into its own state, and it screens out
		// *degenerate* results. A legitimate approximate solve of A z = q
		// satisfies ‖z‖ ≥ ~‖q‖/‖A‖; a corrupted inner least-squares can
		// return z vanishingly small, which would push the outer FGMRES
		// into a pseudo happy breakdown with a singular projected matrix
		// (Saad Prop. 2.2). Falling back to identity preconditioning keeps
		// the fault's cost at one wasted direction.
		if !vec.AllFinite(inner.X) || vec.Norm2(inner.X)*s.aNormF < 1e-8*vec.Norm2(q) {
			copy(z, q)
			return true
		}
		copy(z, inner.X)
		return true
	}
	return true
}
