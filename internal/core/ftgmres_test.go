package core

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"sdcgmres/internal/detect"
	"sdcgmres/internal/fault"
	"sdcgmres/internal/gallery"
	"sdcgmres/internal/krylov"
	"sdcgmres/internal/precond"
	"sdcgmres/internal/sparse"
	"sdcgmres/internal/vec"
)

func rhsOnes(a *sparse.CSR) []float64 {
	b := make([]float64, a.Rows())
	a.MatVec(b, vec.Ones(a.Cols()))
	return b
}

func poissonSolver(n int, cfg Config) (*Solver, []float64) {
	a := gallery.Poisson2D(n)
	return New(a, cfg), rhsOnes(a)
}

func TestFTGMRESFailureFreeConverges(t *testing.T) {
	s, b := poissonSolver(10, Config{MaxOuter: 30, OuterTol: 1e-8, Inner: InnerConfig{Iterations: 10}})
	res, err := s.Solve(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("not converged: %g after %d outer", res.FinalResidual, res.Stats.OuterIterations)
	}
	for i, v := range res.X {
		if math.Abs(v-1) > 1e-6 {
			t.Fatalf("x[%d] = %g", i, v)
		}
	}
	if res.Stats.InnerIterations != res.Stats.OuterIterations*10 {
		t.Fatalf("inner iterations %d != outer %d × 10", res.Stats.InnerIterations, res.Stats.OuterIterations)
	}
	if res.Stats.SandboxFailures != 0 || res.Stats.Detections != 0 {
		t.Fatalf("unexpected failures: %+v", res.Stats)
	}
}

func TestFTGMRESDeterministic(t *testing.T) {
	s, b := poissonSolver(8, Config{MaxOuter: 20, OuterTol: 1e-8, Inner: InnerConfig{Iterations: 8}})
	r1, err := s.Solve(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Solve(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.OuterIterations != r2.Stats.OuterIterations {
		t.Fatal("outer iteration count not deterministic")
	}
	for i := range r1.X {
		if r1.X[i] != r2.X[i] {
			t.Fatal("solution not bitwise reproducible")
		}
	}
}

func TestFTGMRESRunsThroughLargeFault(t *testing.T) {
	// A class-1 fault of magnitude 10¹⁵⁰ in an inner solve must not stop
	// FT-GMRES from converging to the right answer — the headline result.
	a := gallery.Poisson2D(10)
	b := rhsOnes(a)
	inj := fault.NewInjector(fault.ClassLarge, fault.Site{AggregateInner: 12, Step: fault.FirstMGS})
	s := New(a, Config{
		MaxOuter: 60, OuterTol: 1e-8,
		Inner: InnerConfig{Iterations: 10, Hooks: []krylov.CoeffHook{inj}},
	})
	res, err := s.Solve(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !inj.Fired() {
		t.Fatal("fault did not fire")
	}
	if !res.Converged {
		t.Fatalf("did not run through the fault: residual %g", res.FinalResidual)
	}
	for i, v := range res.X {
		if math.Abs(v-1) > 1e-6 {
			t.Fatalf("wrong answer at %d: %g", i, v)
		}
	}
}

func TestFTGMRESFaultCostsFewExtraOuters(t *testing.T) {
	a := gallery.Poisson2D(10)
	b := rhsOnes(a)
	base := New(a, Config{MaxOuter: 60, OuterTol: 1e-8, Inner: InnerConfig{Iterations: 10}})
	ff, err := base.Solve(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ff.Converged {
		t.Fatal("failure-free run did not converge")
	}
	inj := fault.NewInjector(fault.ClassSlight, fault.Site{AggregateInner: 5, Step: fault.FirstMGS})
	faulty := New(a, Config{
		MaxOuter: 60, OuterTol: 1e-8,
		Inner: InnerConfig{Iterations: 10, Hooks: []krylov.CoeffHook{inj}},
	})
	fr, err := faulty.Solve(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !fr.Converged {
		t.Fatal("faulty run did not converge")
	}
	if fr.Stats.OuterIterations > ff.Stats.OuterIterations+3 {
		t.Fatalf("class-2 fault too expensive: %d vs %d outer", fr.Stats.OuterIterations, ff.Stats.OuterIterations)
	}
}

func TestFTGMRESDetectorCatchesLargeFault(t *testing.T) {
	a := gallery.Poisson2D(8)
	b := rhsOnes(a)
	inj := fault.NewInjector(fault.ClassLarge, fault.Site{AggregateInner: 3, Step: fault.FirstMGS})
	s := New(a, Config{
		MaxOuter: 40, OuterTol: 1e-8,
		Inner:    InnerConfig{Iterations: 8, Hooks: []krylov.CoeffHook{inj}},
		Detector: DetectorConfig{Enabled: true, Kind: detect.FrobeniusBound, Response: ResponseWarn},
	})
	res, err := s.Solve(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Detections == 0 {
		t.Fatal("detector missed the class-1 fault")
	}
	if !res.Converged {
		t.Fatal("warn mode should still converge")
	}
}

func TestFTGMRESHaltInnerResponse(t *testing.T) {
	a := gallery.Poisson2D(8)
	b := rhsOnes(a)
	inj := fault.NewInjector(fault.ClassLarge, fault.Site{AggregateInner: 3, Step: fault.FirstMGS})
	s := New(a, Config{
		MaxOuter: 40, OuterTol: 1e-8,
		Inner:    InnerConfig{Iterations: 8, Hooks: []krylov.CoeffHook{inj}},
		Detector: DetectorConfig{Enabled: true, Response: ResponseHaltInner},
	})
	res, err := s.Solve(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.InnerHalts != 1 {
		t.Fatalf("inner halts = %d, want 1", res.Stats.InnerHalts)
	}
	if !res.Converged {
		t.Fatal("halt-inner run did not converge")
	}
	for i, v := range res.X {
		if math.Abs(v-1) > 1e-6 {
			t.Fatalf("wrong answer at %d: %g", i, v)
		}
	}
}

func TestFTGMRESRestartInnerResponse(t *testing.T) {
	a := gallery.Poisson2D(8)
	b := rhsOnes(a)
	inj := fault.NewInjector(fault.ClassLarge, fault.Site{AggregateInner: 3, Step: fault.FirstMGS})
	base := New(a, Config{MaxOuter: 40, OuterTol: 1e-8, Inner: InnerConfig{Iterations: 8}})
	ff, err := base.Solve(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := New(a, Config{
		MaxOuter: 40, OuterTol: 1e-8,
		Inner:    InnerConfig{Iterations: 8, Hooks: []krylov.CoeffHook{inj}},
		Detector: DetectorConfig{Enabled: true, Response: ResponseRestartInner},
	})
	res, err := s.Solve(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.InnerRestarts != 1 {
		t.Fatalf("inner restarts = %d, want 1", res.Stats.InnerRestarts)
	}
	if !res.Converged {
		t.Fatal("restart-inner run did not converge")
	}
	// The transient fault plus a clean retry must match the failure-free
	// outer count exactly: the retried inner solve is identical to the
	// fault-free one.
	if res.Stats.OuterIterations != ff.Stats.OuterIterations {
		t.Fatalf("restart should restore failure-free behaviour: %d vs %d outer",
			res.Stats.OuterIterations, ff.Stats.OuterIterations)
	}
}

func TestFTGMRESSurvivesPanickingInner(t *testing.T) {
	// A hook that panics models a hard fault inside the sandbox; FT-GMRES
	// must convert it to a soft fault and keep going.
	a := gallery.Poisson2D(8)
	b := rhsOnes(a)
	bomb := krylov.CoeffHookFunc(func(ctx krylov.CoeffContext, h float64) (float64, error) {
		if ctx.AggregateInner == 3 && ctx.Step == 1 {
			panic("simulated hard fault in inner solve")
		}
		return h, nil
	})
	s := New(a, Config{
		MaxOuter: 40, OuterTol: 1e-8,
		Inner: InnerConfig{Iterations: 8, Hooks: []krylov.CoeffHook{bomb}},
	})
	res, err := s.Solve(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SandboxFailures == 0 {
		t.Fatal("sandbox failure not recorded")
	}
	if !res.Converged {
		t.Fatalf("did not converge past panicking inner solve: %g", res.FinalResidual)
	}
}

func TestFTGMRESSandboxTimeout(t *testing.T) {
	a := gallery.Poisson2D(6)
	b := rhsOnes(a)
	slow := krylov.CoeffHookFunc(func(ctx krylov.CoeffContext, h float64) (float64, error) {
		if ctx.OuterIteration == 1 {
			time.Sleep(30 * time.Millisecond)
		}
		return h, nil
	})
	s := New(a, Config{
		MaxOuter: 40, OuterTol: 1e-8,
		Inner:         InnerConfig{Iterations: 6, Hooks: []krylov.CoeffHook{slow}},
		SandboxBudget: 5 * time.Millisecond,
	})
	res, err := s.Solve(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SandboxFailures == 0 {
		t.Fatal("timeout not recorded")
	}
	if !res.Converged {
		t.Fatal("did not converge past slow inner solve")
	}
}

func TestFTGMRESNaNFromInnerNeverEntersHost(t *testing.T) {
	// Corrupt the normalization coefficient to NaN: the inner solution is
	// poisoned, and the host must fall back rather than ingest NaN.
	a := gallery.Poisson2D(6)
	b := rhsOnes(a)
	inj := fault.NewInjector(fault.SetValue{Value: math.NaN()}, fault.Site{AggregateInner: 2, Step: fault.NormStep})
	s := New(a, Config{
		MaxOuter: 40, OuterTol: 1e-8,
		Inner: InnerConfig{Iterations: 6, Hooks: []krylov.CoeffHook{inj}, Policy: krylov.LSQTriangular},
	})
	res, err := s.Solve(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.AllFinite(res.X) {
		t.Fatal("NaN leaked into the reliable outer state")
	}
	if !res.Converged {
		t.Fatalf("did not converge: %g", res.FinalResidual)
	}
}

func TestFTGMRESScreensDegenerateInnerResult(t *testing.T) {
	// A class-1 fault under the rank-revealing inner policy over-truncates
	// the inner least-squares solve, returning z ≈ 1e-134·(direction). An
	// unguarded outer FGMRES would hit a pseudo happy breakdown with a
	// singular projected matrix (Saad Prop. 2.2) and fail loudly; the host
	// must instead screen the degenerate guest result and run through.
	a := gallery.Poisson2D(32)
	b := rhsOnes(a)
	inj := fault.NewInjector(fault.ClassLarge, fault.Site{AggregateInner: 12, Step: fault.FirstMGS})
	s := New(a, Config{
		MaxOuter: 60, OuterTol: 1e-8,
		Inner: InnerConfig{Iterations: 10, Policy: krylov.LSQRankRevealing, Hooks: []krylov.CoeffHook{inj}},
	})
	res, err := s.Solve(b, nil)
	if err != nil {
		t.Fatalf("degenerate inner result leaked to the outer solver: %v", err)
	}
	if !inj.Fired() {
		t.Fatal("fault did not fire")
	}
	if !res.Converged {
		t.Fatalf("did not run through: %g", res.FinalResidual)
	}
}

func TestFTGMRESNonsymmetricProblem(t *testing.T) {
	a := gallery.ConvectionDiffusion2D(8, 12, -6)
	b := rhsOnes(a)
	inj := fault.NewInjector(fault.ClassSlight, fault.Site{AggregateInner: 7, Step: fault.LastMGS})
	s := New(a, Config{
		MaxOuter: 60, OuterTol: 1e-8,
		Inner:    InnerConfig{Iterations: 8, Hooks: []krylov.CoeffHook{inj}},
		Detector: DetectorConfig{Enabled: true, Response: ResponseWarn},
	})
	res, err := s.Solve(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("nonsymmetric faulted solve failed: %g", res.FinalResidual)
	}
	if res.Stats.Detections != 0 {
		t.Fatal("class-2 fault must remain undetected")
	}
}

func TestFTGMRESZeroRHS(t *testing.T) {
	s, _ := poissonSolver(5, Config{MaxOuter: 10, OuterTol: 1e-10})
	res, err := s.Solve(make([]float64, 25), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || vec.Norm2(res.X) != 0 {
		t.Fatalf("zero rhs: %+v", res)
	}
}

func TestFTGMRESMaxOuterExhausted(t *testing.T) {
	// An absurdly tight tolerance with almost no work must report
	// non-convergence honestly.
	s, b := poissonSolver(8, Config{MaxOuter: 2, OuterTol: 1e-14, Inner: InnerConfig{Iterations: 2}})
	res, err := s.Solve(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("cannot have converged in 2×2 iterations to 1e-14")
	}
	if res.Stats.OuterIterations != 2 {
		t.Fatalf("outer iterations = %d", res.Stats.OuterIterations)
	}
}

func TestFTGMRESPreconditionedInnerSolves(t *testing.T) {
	a := gallery.Poisson2D(10)
	b := rhsOnes(a)
	m, err := precond.NewILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	plain := New(a, Config{MaxOuter: 40, OuterTol: 1e-8, Inner: InnerConfig{Iterations: 8}})
	pr, err := plain.Solve(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	pre := New(a, Config{MaxOuter: 40, OuterTol: 1e-8, Inner: InnerConfig{Iterations: 8, Precond: m}})
	res, err := pre.Solve(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("preconditioned nested solve failed: %g", res.FinalResidual)
	}
	if res.Stats.OuterIterations > pr.Stats.OuterIterations {
		t.Fatalf("ILU0 inner preconditioning should not slow the outer solve: %d vs %d",
			res.Stats.OuterIterations, pr.Stats.OuterIterations)
	}
	for i, v := range res.X {
		if math.Abs(v-1) > 1e-6 {
			t.Fatalf("x[%d] = %g", i, v)
		}
	}
}

func TestFTGMRESPreconditionedDetectorBound(t *testing.T) {
	// With an ILU0-preconditioned inner solve the detector bound must be
	// the ‖A M⁻¹‖ estimate (≈1 for a good preconditioner), not ‖A‖F, and
	// a fault-free solve must not false-positive against it.
	a := gallery.Poisson2D(10)
	b := rhsOnes(a)
	m, err := precond.NewILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	s := New(a, Config{
		MaxOuter: 40, OuterTol: 1e-8,
		Inner:    InnerConfig{Iterations: 8, Precond: m},
		Detector: DetectorConfig{Enabled: true, Response: ResponseWarn},
	})
	if s.Detector().Bound() >= a.FrobeniusNorm() {
		t.Fatalf("preconditioned bound %g not tighter than ‖A‖F %g", s.Detector().Bound(), a.FrobeniusNorm())
	}
	res, err := s.Solve(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
	if res.Stats.Detections != 0 {
		t.Fatalf("false positives with preconditioned bound: %d", res.Stats.Detections)
	}
	// And a class-1 fault in the preconditioned inner solve is still caught.
	inj := fault.NewInjector(fault.ClassLarge, fault.Site{AggregateInner: 3, Step: fault.FirstMGS})
	s2 := New(a, Config{
		MaxOuter: 40, OuterTol: 1e-8,
		Inner:    InnerConfig{Iterations: 8, Precond: m, Hooks: []krylov.CoeffHook{inj}},
		Detector: DetectorConfig{Enabled: true, Response: ResponseWarn},
	})
	res2, err := s2.Solve(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Detections == 0 {
		t.Fatal("preconditioned detector missed a class-1 fault")
	}
	if !res2.Converged {
		t.Fatal("faulted preconditioned solve did not run through")
	}
}

func TestFTFCGOuterSolvesSPDWithFault(t *testing.T) {
	// The flexible-CG outer (the paper's "future work" alternative) must
	// also run through a single SDC in its inner solves on an SPD system.
	a := gallery.Poisson2D(10)
	b := rhsOnes(a)
	inj := fault.NewInjector(fault.ClassLarge, fault.Site{AggregateInner: 12, Step: fault.FirstMGS})
	s := New(a, Config{
		Outer:    OuterFCG,
		MaxOuter: 60, OuterTol: 1e-8,
		Inner: InnerConfig{Iterations: 10, Hooks: []krylov.CoeffHook{inj}},
	})
	res, err := s.Solve(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !inj.Fired() {
		t.Fatal("fault did not fire")
	}
	if !res.Converged {
		t.Fatalf("FT-FCG did not run through: %g", res.FinalResidual)
	}
	for i, v := range res.X {
		if math.Abs(v-1) > 1e-6 {
			t.Fatalf("x[%d] = %g", i, v)
		}
	}
}

func TestFTFCGComparableToFTGMRESOnSPD(t *testing.T) {
	a := gallery.Poisson2D(8)
	b := rhsOnes(a)
	gm := New(a, Config{MaxOuter: 40, OuterTol: 1e-8, Inner: InnerConfig{Iterations: 8}})
	rg, err := gm.Solve(b, nil)
	if err != nil || !rg.Converged {
		t.Fatalf("ft-gmres: %v", err)
	}
	cg := New(a, Config{Outer: OuterFCG, MaxOuter: 40, OuterTol: 1e-8, Inner: InnerConfig{Iterations: 8}})
	rc, err := cg.Solve(b, nil)
	if err != nil || !rc.Converged {
		t.Fatalf("ft-fcg: %v", err)
	}
	// Same inner effort: outer counts should be in the same ballpark.
	if rc.Stats.OuterIterations > 3*rg.Stats.OuterIterations {
		t.Fatalf("FT-FCG far slower than FT-GMRES: %d vs %d outer",
			rc.Stats.OuterIterations, rg.Stats.OuterIterations)
	}
}

func TestFTGMRESRunsThroughSpMVFault(t *testing.T) {
	// Prior-work fault target: one corrupted element of one inner SpMV
	// result. The corrupted vector inflates the next projection
	// coefficients, so the Eq. 3 detector sees large SpMV faults too, and
	// the nested solve runs through either way.
	a := gallery.Poisson2D(8)
	b := rhsOnes(a)
	opInj := fault.NewOpInjector(a, fault.Scale{Factor: 1e120}, 7, -1)
	s := New(a, Config{
		MaxOuter: 40, OuterTol: 1e-8,
		Inner: InnerConfig{
			Iterations:   8,
			WrapOperator: func(op krylov.Operator) krylov.Operator { return opInj },
		},
		Detector: DetectorConfig{Enabled: true, Response: ResponseWarn},
	})
	res, err := s.Solve(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !opInj.Fired() {
		t.Fatal("SpMV fault did not fire")
	}
	if res.Stats.Detections == 0 {
		t.Fatal("detector missed the huge SpMV fault (inflated coefficients)")
	}
	if !res.Converged {
		t.Fatalf("did not run through SpMV fault: %g", res.FinalResidual)
	}
	for i, v := range res.X {
		if math.Abs(v-1) > 1e-6 {
			t.Fatalf("x[%d] = %g", i, v)
		}
	}
}

func TestFTGMRESSmallSpMVFaultUndetectedButHarmless(t *testing.T) {
	a := gallery.Poisson2D(8)
	b := rhsOnes(a)
	base := New(a, Config{MaxOuter: 40, OuterTol: 1e-8, Inner: InnerConfig{Iterations: 8}})
	ff, err := base.Solve(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	opInj := fault.NewOpInjector(a, fault.ClassSlight, 5, -1)
	s := New(a, Config{
		MaxOuter: 40, OuterTol: 1e-8,
		Inner: InnerConfig{
			Iterations:   8,
			WrapOperator: func(op krylov.Operator) krylov.Operator { return opInj },
		},
		Detector: DetectorConfig{Enabled: true, Response: ResponseWarn},
	})
	res, err := s.Solve(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("small SpMV fault derailed the solve")
	}
	// A corrupted basis vector breaks the Arnoldi relation for the rest of
	// the inner solve, so SpMV faults cost noticeably more than the
	// coefficient faults the paper studies (+3 outer observed here vs +1)
	// — but the run-through property must still hold within one extra
	// inner solve's worth of outer iterations.
	if res.Stats.OuterIterations > 2*ff.Stats.OuterIterations {
		t.Fatalf("small SpMV fault too costly: %d vs %d outer",
			res.Stats.OuterIterations, ff.Stats.OuterIterations)
	}
}

func TestFTGMRESStickyFaultBeyondTransientScope(t *testing.T) {
	// A sticky fault (corrupting h(1,j) of every iteration in a window)
	// violates the paper's single-transient assumption. The restart
	// response cannot fix it — the retry re-faults — but the nested solve
	// must still either converge to the right answer (run-through) or
	// report failure honestly. Never a silent wrong answer.
	a := gallery.Poisson2D(8)
	b := rhsOnes(a)
	sticky := fault.NewStickyInjector(fault.ClassLarge, fault.FirstMGS, 9, 16) // all of inner solve 2
	s := New(a, Config{
		MaxOuter: 60, OuterTol: 1e-8,
		Inner:    InnerConfig{Iterations: 8, Hooks: []krylov.CoeffHook{sticky}},
		Detector: DetectorConfig{Enabled: true, Response: ResponseRestartInner, MaxRestartsPerInner: 2},
	})
	res, err := s.Solve(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sticky.Strikes() < 2 {
		t.Fatalf("sticky fault struck only %d times", sticky.Strikes())
	}
	// Restarts were attempted but could not help (the fault re-fires).
	if res.Stats.InnerRestarts == 0 {
		t.Fatal("restart response never attempted")
	}
	if !res.Converged {
		t.Fatalf("run-through failed against sticky fault: %g", res.FinalResidual)
	}
	for i, v := range res.X {
		if math.Abs(v-1) > 1e-6 {
			t.Fatalf("silent failure at %d: %g", i, v)
		}
	}
}

func TestFTGMRESPersistentFaultHonestOutcome(t *testing.T) {
	// Persistent corruption of EVERY first projection coefficient: the
	// worst case in the taxonomy. Whatever happens must be honest.
	a := gallery.Poisson2D(6)
	b := rhsOnes(a)
	sticky := fault.NewStickyInjector(fault.ClassLarge, fault.FirstMGS, 1, 0)
	s := New(a, Config{
		MaxOuter: 30, OuterTol: 1e-8,
		Inner: InnerConfig{Iterations: 6, Hooks: []krylov.CoeffHook{sticky}},
	})
	res, err := s.Solve(b, nil)
	if err != nil {
		return // loud failure: acceptable
	}
	if !vec.AllFinite(res.X) {
		t.Fatal("NaN/Inf in reliable state")
	}
	if res.Converged {
		for i, v := range res.X {
			if math.Abs(v-1) > 1e-5 {
				t.Fatalf("silent failure at %d: %g", i, v)
			}
		}
	}
}

func TestFTGMRESOuterRestarts(t *testing.T) {
	// A solve that needs ~9 outer iterations must still succeed with an
	// outer basis capped at 3, given restart cycles.
	a := gallery.Poisson2D(10)
	b := rhsOnes(a)
	long := New(a, Config{MaxOuter: 30, OuterTol: 1e-8, Inner: InnerConfig{Iterations: 10}})
	lr, err := long.Solve(b, nil)
	if err != nil || !lr.Converged {
		t.Fatalf("long solve: %v", err)
	}
	short := New(a, Config{MaxOuter: 3, OuterRestarts: 20, OuterTol: 1e-8, Inner: InnerConfig{Iterations: 10}})
	sr, err := short.Solve(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sr.Converged {
		t.Fatalf("restarted outer did not converge: %g", sr.FinalResidual)
	}
	for i, v := range sr.X {
		if math.Abs(v-1) > 1e-6 {
			t.Fatalf("x[%d] = %g", i, v)
		}
	}
	// Restarting costs iterations (information discarded at each restart),
	// but not absurdly many.
	if sr.Stats.OuterIterations > 4*lr.Stats.OuterIterations {
		t.Fatalf("restarting too costly: %d vs %d outer", sr.Stats.OuterIterations, lr.Stats.OuterIterations)
	}
	if len(sr.ResidualHistory) != sr.Stats.OuterIterations {
		t.Fatalf("history length %d vs %d iterations", len(sr.ResidualHistory), sr.Stats.OuterIterations)
	}
}

func TestFTGMRESRobustFirstSolve(t *testing.T) {
	// Section VII-E's proposal: harden only the first inner solve. The
	// hardened configuration must behave identically on fault-free runs
	// (same outer count), cost only a little more inner arithmetic, and
	// bound the damage of an early fault at least as well as the plain
	// configuration.
	a := gallery.Poisson2D(10)
	b := rhsOnes(a)
	plain := New(a, Config{MaxOuter: 40, OuterTol: 1e-8, Inner: InnerConfig{Iterations: 10}})
	pr, err := plain.Solve(b, nil)
	if err != nil || !pr.Converged {
		t.Fatalf("plain: %v", err)
	}
	hard := New(a, Config{MaxOuter: 40, OuterTol: 1e-8, Inner: InnerConfig{Iterations: 10, RobustFirstSolve: true}})
	hr, err := hard.Solve(b, nil)
	if err != nil || !hr.Converged {
		t.Fatalf("hardened: %v", err)
	}
	if hr.Stats.OuterIterations != pr.Stats.OuterIterations {
		t.Fatalf("hardening changed fault-free outer count: %d vs %d",
			hr.Stats.OuterIterations, pr.Stats.OuterIterations)
	}
	// Extra cost confined to the first inner solve: total inner flops grow
	// by less than one inner solve's worth.
	perSolve := pr.Stats.InnerWork.OrthoFlops / int64(pr.Stats.OuterIterations)
	if extra := hr.Stats.InnerWork.OrthoFlops - pr.Stats.InnerWork.OrthoFlops; extra <= 0 || extra > perSolve {
		t.Fatalf("hardening cost %d flops; expected within one inner solve (%d)", extra, perSolve)
	}
	// And with an early fault, the hardened run must not be worse.
	for _, robust := range []bool{false, true} {
		inj := fault.NewInjector(fault.ClassSlight, fault.Site{AggregateInner: 2, Step: fault.FirstMGS})
		s := New(a, Config{
			MaxOuter: 40, OuterTol: 1e-8,
			Inner: InnerConfig{Iterations: 10, Hooks: []krylov.CoeffHook{inj}, RobustFirstSolve: robust},
		})
		res, err := s.Solve(b, nil)
		if err != nil || !res.Converged {
			t.Fatalf("robust=%v: %v", robust, err)
		}
		if res.Stats.OuterIterations > pr.Stats.OuterIterations+2 {
			t.Fatalf("robust=%v: early fault cost %d outer (ff %d)",
				robust, res.Stats.OuterIterations, pr.Stats.OuterIterations)
		}
	}
}

func TestFTGMRESConfigDefaults(t *testing.T) {
	s := New(gallery.Tridiag(4, -1, 2, -1), Config{})
	cfg := s.Config()
	if cfg.MaxOuter != 50 || cfg.Inner.Iterations != 25 || cfg.RankCheckTol != 1e-12 {
		t.Fatalf("defaults: %+v", cfg)
	}
	if s.Detector() != nil {
		t.Fatal("detector should be nil when disabled")
	}
}

// TestConcurrentSolvesOnOneSolver: a Solver keeps no workspace, so solves
// on it from several goroutines at once, and repeated solves on one reused
// Workspace, give the bits of a lone solve. Run it under -race.
func TestConcurrentSolvesOnOneSolver(t *testing.T) {
	s, b := poissonSolver(8, Config{MaxOuter: 20, OuterTol: 1e-8, Inner: InnerConfig{Iterations: 8}})
	want, err := s.Solve(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	same := func(got *Result) bool {
		if got.Stats != want.Stats || len(got.X) != len(want.X) || len(got.ResidualHistory) != len(want.ResidualHistory) {
			return false
		}
		for i := range got.X {
			if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
				return false
			}
		}
		for i := range got.ResidualHistory {
			if math.Float64bits(got.ResidualHistory[i]) != math.Float64bits(want.ResidualHistory[i]) {
				return false
			}
		}
		return true
	}
	const goroutines = 4
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			ws := new(Workspace)
			for i := 0; i < 3; i++ {
				got, err := s.SolveCtx(context.Background(), b, nil)
				if err != nil || !same(got) {
					t.Errorf("goroutine %d: concurrent solve differs from a lone one (err %v)", g, err)
				}
				if got, err = ws.Solve(context.Background(), s, b); err != nil || !same(got) {
					t.Errorf("goroutine %d: solve %d on a reused workspace differs from a lone one (err %v)", g, i, err)
				}
			}
		}()
	}
	wg.Wait()
}

// TestParseDetector covers every bound and response name, the defaults of
// empty names, and the rejection of unknown ones.
func TestParseDetector(t *testing.T) {
	bounds := map[string]detect.BoundKind{"": detect.FrobeniusBound, "frobenius": detect.FrobeniusBound, "spectral": detect.SpectralBound}
	responses := map[string]Response{"": ResponseWarn, "warn": ResponseWarn, "halt": ResponseHaltInner, "restart": ResponseRestartInner}
	for b, kind := range bounds {
		for r, resp := range responses {
			got, err := ParseDetector(b, r)
			if want := (DetectorConfig{Enabled: true, Kind: kind, Response: resp}); err != nil || got != want {
				t.Fatalf("ParseDetector(%q, %q) = %+v, %v; want %+v", b, r, got, err, want)
			}
		}
	}
	for _, c := range []struct{ bound, response, want string }{
		{"bogus", "warn", "bound"},
		{"Frobenius", "", "bound"},
		{"frobenius", "reboot", "response"},
		{"", "Restart", "response"},
	} {
		if got, err := ParseDetector(c.bound, c.response); err == nil || !strings.Contains(err.Error(), c.want) || got.Enabled {
			t.Fatalf("ParseDetector(%q, %q) = %+v, %v; want a %s error", c.bound, c.response, got, err, c.want)
		}
	}
}
