package krylov

import (
	"context"
	"fmt"
	"slices"

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
// error matching both ErrCanceled and ctx.Err() under errors.Is. It runs on
// a fresh Workspace.
func FGMRESCtx(ctx context.Context, a Operator, b, x0 []float64, provider PrecondProvider, opts FGMRESOptions) (*Result, error) {
	return new(Workspace).FGMRES(ctx, a, b, x0, provider, opts)
}

// FGMRES is FGMRESCtx on ws's storage. The result's X is its own; its
// ResidualHistory is ws's storage, valid until ws's next solve.
func (ws *Workspace) FGMRES(ctx context.Context, a Operator, b, x0 []float64, provider PrecondProvider, opts FGMRESOptions) (*Result, error) {
	return ws.fgmres(ctx, a, b, x0, provider, opts, nil, 0)
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
	// prefix marks a tape cut short of its recording (Prefix): the
	// recorded solve went on after its last iteration.
	prefix bool
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

// Restorable returns the most iterations a solve can restore from t: all of
// a prefix's, whose recorded solve went on after them, and all but the last
// of a whole recording, whose last iteration ended the solve.
func (t *Tape) Restorable() int {
	if t.prefix {
		return t.Len()
	}
	return t.Len() - 1
}

// Prefix returns a tape of t's first k iterations, 1 ≤ k < Len, holding only
// what resuming from it reads: Q[:k+1], Z[:k] and k Hessenberg columns. It
// shares t's vectors, and a solve may resume from it at k itself.
func (t *Tape) Prefix(k int) *Tape {
	return &Tape{
		beta:   t.beta,
		q:      slices.Clone(t.q[:k+1]),
		z:      slices.Clone(t.z[:k]),
		steps:  slices.Clone(t.steps[:k]),
		prefix: true,
	}
}

// Bytes returns the storage of t's vectors and Hessenberg columns, 8 bytes
// an entry.
func (t *Tape) Bytes() int64 {
	n := 0
	for _, vs := range [][][]float64{t.q, t.z} {
		for _, v := range vs {
			n += len(v)
		}
	}
	for _, st := range t.steps {
		n += len(st.h)
	}
	return 8 * int64(n)
}

// FGMRESRecord is FGMRESCtx that also records the solve on t, which must be
// empty. The tape is filled only when the solve returns without error. The
// tape keeps the vectors of the solve's fresh workspace.
func FGMRESRecord(ctx context.Context, a Operator, b, x0 []float64, provider PrecondProvider, opts FGMRESOptions, t *Tape) (*Result, error) {
	return new(Workspace).fgmres(ctx, a, b, x0, provider, opts, t, 0)
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
// must leave the recorded solve still iterating: 1 ≤ k ≤ t.Restorable().
// It runs on a fresh Workspace.
func FGMRESResume(ctx context.Context, a Operator, b, x0 []float64, provider PrecondProvider, opts FGMRESOptions, t *Tape, k int) (*Result, error) {
	return new(Workspace).FGMRESResume(ctx, a, b, x0, provider, opts, t, k)
}

// FGMRESResume is the package-level FGMRESResume on ws's storage for the
// iterations after k; the first k+1 basis vectors and k preconditioned
// vectors stay the tape's. The result's X is its own; its ResidualHistory
// is ws's storage, valid until ws's next solve.
func (ws *Workspace) FGMRESResume(ctx context.Context, a Operator, b, x0 []float64, provider PrecondProvider, opts FGMRESOptions, t *Tape, k int) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("krylov: cannot resume at outer iteration %d", k)
	}
	return ws.fgmres(ctx, a, b, x0, provider, opts, t, k)
}

// fgmres is the FGMRES solve on ws's storage. With t nil it is plain
// FGMRESCtx; with k == 0 it records into t; with k > 0 it resumes from t
// after k iterations.
func (ws *Workspace) fgmres(ctx context.Context, a Operator, b, x0 []float64, provider PrecondProvider, opts FGMRESOptions, t *Tape, k int) (*Result, error) {
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
	if k > 0 && (k > t.Restorable() || k >= o.MaxIter || len(t.q[0]) != n) {
		return nil, fmt.Errorf("krylov: cannot resume at outer iteration %d from a %d-iteration tape", k, t.Len())
	}
	// The iterate is the caller's, never the workspace's.
	x := make([]float64, n)
	if x0 != nil {
		copy(x, x0)
	}
	normB := kernel.Norm2(o.Pool, b)
	if normB == 0 {
		return &Result{X: x, Converged: true}, nil
	}
	ws.start(n)
	res := &Result{ResidualHistory: ws.hist[:0]}

	var beta float64
	ws.q, ws.z = scratch(ws.q, o.MaxIter+1), scratch(ws.z, o.MaxIter) // never outgrown
	q, z := ws.q[:0], ws.z[:0]
	lsq := &ws.lsq
	var steps []tapeStep
	if k > 0 {
		beta = t.beta
		q = append(q, t.q[:k+1]...)
		z = append(z, t.z[:k]...)
		lsq.Reset(o.MaxIter, beta)
		for _, st := range t.steps[:k] {
			lsq.AppendColumn(st.h)
			res.ResidualHistory = append(res.ResidualHistory, st.rel)
		}
		res.Iterations = k
		res.Work = t.steps[k-1].work
		res.FallbackUsed = t.steps[k-1].fallback
	} else {
		r0 := ws.at(&ws.basis, 0)
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
		lsq.Reset(o.MaxIter, beta)
	}

	w := ws.vec(&ws.w)
	var cand, r []float64 // explicit-residual scratch, reused every iteration
	if opts.ExplicitResidual {
		cand, r = ws.vec(&ws.cand), ws.vec(&ws.r)
	}
	for j := k; j < o.MaxIter; j++ {
		if err := ctxOK(ctx); err != nil {
			return nil, err
		}
		// Apply the (possibly different, possibly faulty) preconditioner.
		zj := ws.at(&ws.zs, j)
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

		or := orthogonalize(ws, q, w, j, &o, &res.HookEvents)
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
			qn := ws.at(&ws.basis, j+1)
			copy(qn, w)
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
			h := append([]float64(nil), or.h...) // or.h is the workspace's
			steps = append(steps, tapeStep{h: h, rel: rel, work: res.Work, fallback: res.FallbackUsed})
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
		// Nothing writes these vectors after they were appended, and
		// nothing else uses the recording's fresh workspace, so the tape
		// keeps them as they are.
		t.beta, t.q, t.z, t.steps = beta, q, z, steps
	}
	res.X = x
	ws.hist = res.ResidualHistory[:0]
	if k := len(res.ResidualHistory); k > 0 {
		res.FinalResidual = res.ResidualHistory[k-1]
	} else {
		res.FinalResidual = 1
	}
	return res, nil
}
