package krylov

import (
	"context"
	"fmt"

	"sdcgmres/internal/dense"
	"sdcgmres/internal/kernel"
	"sdcgmres/internal/vec"
)

// FGMRESOptions configures the flexible solver. It embeds Options; the
// orthogonalization hooks apply to the *outer* Arnoldi coefficients (which
// the fault model leaves reliable — the paper injects only into inner
// solves, via the preconditioner's own hooks).
type FGMRESOptions struct {
	Options
	// ExplicitResidual, when true, computes the true residual
	// ‖b − A x_j‖/‖b‖ at every outer iteration and uses it for the
	// convergence decision. This is the "reliably computed residual" of
	// FT-GMRES: the projected residual of a flexible method is not
	// trustworthy when inner solves may be corrupted.
	ExplicitResidual bool
	// OnIteration, when non-nil, is called after every outer iteration
	// with the 1-based index and the relative residual used for the
	// convergence decision. Experiment harnesses use it to trace
	// convergence.
	OnIteration func(iter int, rel float64)
}

// PrecondProvider returns the preconditioner to use at outer iteration j
// (1-based). Flexible GMRES allows it to differ arbitrarily per iteration;
// FT-GMRES exploits exactly that freedom to model faulty inner solves.
type PrecondProvider func(j int) Preconditioner

// FixedPreconditioner adapts a single Preconditioner to a PrecondProvider.
func FixedPreconditioner(m Preconditioner) PrecondProvider {
	return func(int) Preconditioner { return m }
}

// FGMRES solves A x = b with Saad's Flexible GMRES (Algorithm 2 of the
// paper): right preconditioning with a preconditioner that may change every
// iteration, storing the preconditioned vectors Z so the solution update
// x = x0 + Z y remains correct.
//
// The trichotomy of Section VI-C is implemented: the solver either (1)
// converges, (2) detects a genuine invariant subspace (happy breakdown with
// a full-rank projected matrix), or (3) returns ErrRankDeficient when the
// projected matrix is numerically singular at breakdown.
//
// FGMRES is shorthand for FGMRESCtx with context.Background().
func FGMRES(a Operator, b, x0 []float64, provider PrecondProvider, opts FGMRESOptions) (*Result, error) {
	return FGMRESCtx(context.Background(), a, b, x0, provider, opts)
}

// FGMRESCtx is FGMRES with cancellation: ctx is checked before every outer
// iteration (the preconditioner application — an inner solve in FT-GMRES —
// carries its own cancellation seam), and a solve cut short returns an
// error matching both ErrCanceled and ctx.Err() under errors.Is.
func FGMRESCtx(ctx context.Context, a Operator, b, x0 []float64, provider PrecondProvider, opts FGMRESOptions) (*Result, error) {
	return fgmres(ctx, a, b, x0, provider, opts, nil, 0)
}

// Tape is the record of one FGMRES solve's outer iterations: the outer
// basis Q, the preconditioned vectors Z, and what each iteration left
// behind. A later solve known to agree with the recorded one for its first
// k iterations can restore them from the tape instead of recomputing them
// (FGMRESResume). A tape is read-only once recorded: resumed solves share
// its vectors and never write to them, so any number may resume from one
// tape at once.
type Tape struct {
	beta  float64     // initial residual norm ‖b − A x0‖
	q, z  [][]float64 // the basis and preconditioned vectors the solve built
	steps []tapeStep
}

// tapeStep is the state one outer iteration left behind.
type tapeStep struct {
	h        []float64 // the iteration's Hessenberg column
	rel      float64   // the residual the convergence decision used
	work     Work      // cumulative work after the iteration
	fallback bool      // cumulative FallbackUsed after the iteration
}

// Len returns the number of outer iterations the tape holds (0 for a tape
// whose recording failed).
func (t *Tape) Len() int { return len(t.steps) }

// FGMRESRecord is FGMRESCtx that also records the solve on t, which must be
// empty. The tape is filled only when the solve returns without error.
func FGMRESRecord(ctx context.Context, a Operator, b, x0 []float64, provider PrecondProvider, opts FGMRESOptions, t *Tape) (*Result, error) {
	return fgmres(ctx, a, b, x0, provider, opts, t, 0)
}

// FGMRESResume is FGMRESCtx for a solve whose first k outer iterations are
// the ones t recorded: it restores their state — the headers of Q[:k+1] and
// Z[:k], the Givens factorization replayed from the k stored Hessenberg
// columns, and the result's Iterations, ResidualHistory, Work and
// FallbackUsed — and runs only iterations k+1 onward. The result is
// bit-identical to running the whole solve.
//
// The caller vouches for the agreement: the same operator, b, x0 and
// options as the recording, and a provider whose first k preconditioner
// applications would return what the recorded ones did. Hooks, Recorder
// and OnIteration observe only the iterations the resumed solve runs. k
// must leave the recorded solve still iterating: 1 ≤ k < t.Len().
func FGMRESResume(ctx context.Context, a Operator, b, x0 []float64, provider PrecondProvider, opts FGMRESOptions, t *Tape, k int) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("krylov: cannot resume at outer iteration %d", k)
	}
	return fgmres(ctx, a, b, x0, provider, opts, t, k)
}

// fgmres is the FGMRES solve. With t nil it is plain FGMRESCtx; with k == 0
// it records into t; with k > 0 it resumes from t after k iterations.
func fgmres(ctx context.Context, a Operator, b, x0 []float64, provider PrecondProvider, opts FGMRESOptions, t *Tape, k int) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := opts.Options.withDefaults()
	if err := checkSystem(a, b, x0); err != nil {
		return nil, err
	}
	if provider == nil {
		provider = FixedPreconditioner(IdentityPreconditioner)
	}
	if o.RankCheckTol == 0 {
		o.RankCheckTol = 1e-12
	}
	n := a.Rows()
	recording := t != nil && k == 0
	if k > 0 && (k >= t.Len() || k >= o.MaxIter || len(t.q[0]) != n) {
		return nil, fmt.Errorf("krylov: cannot resume at outer iteration %d from a %d-iteration tape", k, t.Len())
	}
	x := make([]float64, n)
	if x0 != nil {
		copy(x, x0)
	}
	res := &Result{}
	normB := kernel.Norm2(o.Pool, b)
	if normB == 0 {
		res.X = x
		res.Converged = true
		return res, nil
	}

	var beta float64
	q := make([][]float64, 0, o.MaxIter+1)
	z := make([][]float64, 0, o.MaxIter)
	var lsq *dense.HessLSQ
	var steps []tapeStep
	if k > 0 {
		beta = t.beta
		q = append(q, t.q[:k+1]...)
		z = append(z, t.z[:k]...)
		lsq = dense.NewHessLSQ(o.MaxIter, beta)
		for _, st := range t.steps[:k] {
			lsq.AppendColumn(st.h)
			res.ResidualHistory = append(res.ResidualHistory, st.rel)
		}
		res.Iterations = k
		res.Work = t.steps[k-1].work
		res.FallbackUsed = t.steps[k-1].fallback
	} else {
		r0 := make([]float64, n)
		matVec(o.Pool, a, r0, x)
		res.Work.SpMVs++
		vec.Sub(r0, b, r0)
		beta = kernel.Norm2(o.Pool, r0)
		if o.Tol > 0 && beta/normB <= o.Tol {
			res.X = x
			res.Converged = true
			res.FinalResidual = beta / normB
			return res, nil
		}
		kernel.Scale(o.Pool, 1/beta, r0)
		q = append(q, r0)
		lsq = dense.NewHessLSQ(o.MaxIter, beta)
	}

	w := make([]float64, n)
	var cand, r []float64 // explicit-residual scratch, reused every iteration
	if opts.ExplicitResidual {
		cand, r = make([]float64, n), make([]float64, n)
	}
	for j := k; j < o.MaxIter; j++ {
		if err := ctxOK(ctx); err != nil {
			return nil, err
		}
		// Apply the (possibly different, possibly faulty) preconditioner.
		zj := make([]float64, n)
		m := provider(j + 1)
		if m == nil {
			m = IdentityPreconditioner
		}
		if err := m.Apply(zj, q[j]); err != nil {
			return nil, fmt.Errorf("krylov: preconditioner failed at outer iteration %d: %w", j+1, err)
		}
		z = append(z, zj)
		matVec(o.Pool, a, w, zj)
		res.Work.SpMVs++

		or := orthogonalize(q, w, j, &o, &res.HookEvents)
		res.Work.OrthoFlops += or.flops
		if or.halted {
			res.Halted = true
			break
		}
		projRel := lsq.AppendColumn(or.h) / normB
		res.Iterations++

		hj1 := or.h[j+1]
		happy := abs(hj1) <= o.HappyTol*beta
		if happy {
			// FGMRES extra failure mode: at breakdown H(1:j,1:j) may be
			// singular even in exact arithmetic (Saad Prop. 2.2). The
			// incremental estimate is a lower bound on the true condition
			// number, so a positive ICE alarm is conclusive on its own and
			// the exact SVD runs only when ICE stayed quiet.
			threshold := 1 / o.RankCheckTol
			if lsq.RCondICE() > threshold || lsq.RCondSVD() > threshold {
				res.X = x
				return res, ErrRankDeficient
			}
			res.Breakdown = true
		} else {
			qn := vec.Clone(w)
			kernel.Scale(o.Pool, 1/hj1, qn)
			q = append(q, qn)
		}

		// Convergence decision: explicit (reliable) or projected residual.
		rel := projRel
		if opts.ExplicitResidual {
			y := solveProjected(lsq, &o, res)
			copy(cand, x)
			applyUpdate(o.Pool, cand, z, y)
			rel = relResidual(o.Pool, a, b, cand, r, normB)
			res.Work.SpMVs++
		}
		res.ResidualHistory = append(res.ResidualHistory, rel)
		o.Recorder.IterResidual(o.OuterIteration, j+1, o.AggregateBase+j+1, rel)
		if opts.OnIteration != nil {
			opts.OnIteration(j+1, rel)
		}
		if recording {
			steps = append(steps, tapeStep{h: or.h, rel: rel, work: res.Work, fallback: res.FallbackUsed})
		}
		if (o.Tol > 0 && rel <= o.Tol) || res.Breakdown {
			res.Converged = o.Tol > 0 && rel <= o.Tol || res.Breakdown
			break
		}
	}

	if lsq.K() > 0 {
		y := solveProjected(lsq, &o, res)
		applyUpdate(o.Pool, x, z, y)
	}
	if recording {
		// Nothing writes these vectors or columns after they were appended,
		// so the tape keeps them as they are.
		t.beta, t.q, t.z, t.steps = beta, q, z, steps
	}
	res.X = x
	if k := len(res.ResidualHistory); k > 0 {
		res.FinalResidual = res.ResidualHistory[k-1]
	} else {
		res.FinalResidual = 1
	}
	return res, nil
}
