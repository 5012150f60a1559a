package krylov

import (
	"context"
	"fmt"

	"sdcgmres/internal/dense"
	"sdcgmres/internal/kernel"
	"sdcgmres/internal/vec"
)

// GMRES solves A x = b with restarted GMRES(m), m = opts.MaxIter, starting
// from x0 (nil means zero). It follows Algorithm 1 of the paper: Arnoldi
// with the configured orthogonalization, incremental Givens QR of the
// projected problem, and the configured least-squares policy for the update
// coefficients.
//
// With opts.Tol == 0 the solver runs a fixed number of iterations and
// returns its best iterate — the mode the paper uses for inner solves
// ("return something in finite time").
//
// GMRES is shorthand for GMRESCtx with context.Background().
func GMRES(a Operator, b, x0 []float64, opts Options) (*Result, error) {
	return GMRESCtx(context.Background(), a, b, x0, opts)
}

// GMRESCtx is GMRES with cancellation: ctx is checked before every Arnoldi
// iteration, and a solve cut short returns an error matching both
// ErrCanceled and ctx.Err() under errors.Is.
func GMRESCtx(ctx context.Context, a Operator, b, x0 []float64, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.withDefaults()
	if err := checkSystem(a, b, x0); err != nil {
		return nil, err
	}
	n := a.Rows()
	x := make([]float64, n)
	if x0 != nil {
		copy(x, x0)
	}
	normB := kernel.Norm2(opts.Pool, b)
	if normB == 0 {
		// The zero solution is exact.
		return &Result{X: x, Converged: true, FinalResidual: 0}, nil
	}

	res := &Result{}
	for cycle := 0; ; cycle++ {
		cy := gmresCycle(ctx, a, b, x, normB, &opts, res)
		if cy.err != nil {
			return nil, cy.err
		}
		res.Iterations += cy.iters
		res.Breakdown = cy.breakdown
		res.Halted = cy.halted
		if cy.converged {
			res.Converged = true
		}
		if res.Converged || cy.halted || cy.breakdown || cycle >= opts.MaxRestarts || cy.iters == 0 {
			break
		}
		// Restart: explicit residual check guards against the drift between
		// projected and true residuals across cycles.
		r := make([]float64, n)
		matVec(opts.Pool, a, r, x)
		res.Work.SpMVs++
		vec.Sub(r, b, r)
		rel := kernel.Norm2(opts.Pool, r) / normB
		if opts.Tol > 0 && rel <= opts.Tol {
			res.Converged = true
			break
		}
	}
	res.X = x
	if k := len(res.ResidualHistory); k > 0 {
		res.FinalResidual = res.ResidualHistory[k-1]
	} else {
		res.FinalResidual = 1
	}
	return res, nil
}

type cycleOutcome struct {
	iters     int
	converged bool
	breakdown bool
	halted    bool
	err       error
}

// gmresCycle runs one restart cycle, updating x in place.
func gmresCycle(ctx context.Context, a Operator, b []float64, x []float64, normB float64, opts *Options, res *Result) cycleOutcome {
	n := a.Rows()
	r0 := make([]float64, n)
	matVec(opts.Pool, a, r0, x)
	res.Work.SpMVs++
	vec.Sub(r0, b, r0)
	beta := kernel.Norm2(opts.Pool, r0)
	if opts.Tol > 0 && beta/normB <= opts.Tol {
		return cycleOutcome{converged: true}
	}
	if beta == 0 {
		return cycleOutcome{converged: true}
	}

	q := make([][]float64, 0, opts.MaxIter+1)
	kernel.Scale(opts.Pool, 1/beta, r0)
	q = append(q, r0)
	lsq := dense.NewHessLSQ(opts.MaxIter, beta)

	out := cycleOutcome{}
	w := make([]float64, n)
	var z []float64
	if opts.Precond != nil {
		z = make([]float64, n)
	}
	for j := 0; j < opts.MaxIter; j++ {
		if err := ctxOK(ctx); err != nil {
			out.err = err
			return out
		}
		// Right preconditioning: the Krylov operator is A·M⁻¹.
		if opts.Precond != nil {
			if err := opts.Precond.Apply(z, q[j]); err != nil {
				out.err = fmt.Errorf("krylov: preconditioner failed at iteration %d: %w", j+1, err)
				return out
			}
			matVec(opts.Pool, a, w, z)
		} else {
			matVec(opts.Pool, a, w, q[j])
		}
		res.Work.SpMVs++
		or := orthogonalize(q, w, j, opts, &res.HookEvents)
		res.Work.OrthoFlops += or.flops
		if or.halted {
			out.halted = true
			break
		}
		rel := lsq.AppendColumn(or.h) / normB
		res.ResidualHistory = append(res.ResidualHistory, rel)
		opts.Recorder.IterResidual(opts.OuterIteration, j+1, opts.AggregateBase+j+1, rel)
		out.iters++
		hj1 := or.h[j+1]
		if abs(hj1) <= opts.HappyTol*beta {
			// Happy breakdown: invariant subspace found, the projected
			// residual is the true one.
			out.breakdown = true
			out.converged = opts.Tol > 0 && rel <= opts.Tol
			break
		}
		if opts.Tol > 0 && rel <= opts.Tol {
			out.converged = true
			break
		}
		if j+1 < opts.MaxIter {
			qn := vec.Clone(w)
			kernel.Scale(opts.Pool, 1/hj1, qn)
			q = append(q, qn)
		}
	}
	if lsq.K() == 0 {
		return out
	}
	y := solveProjected(lsq, opts, res)
	if opts.Precond == nil {
		applyUpdate(opts.Pool, x, q, y)
		return out
	}
	// Right-preconditioned update: x += M⁻¹(Q y), one preconditioner
	// application for the whole combination.
	s := make([]float64, n)
	applyUpdate(opts.Pool, s, q, y)
	if err := opts.Precond.Apply(z, s); err != nil {
		out.err = fmt.Errorf("krylov: preconditioner failed in solution update: %w", err)
		return out
	}
	kernel.Axpy(opts.Pool, 1, z, x)
	return out
}

// solveProjected applies the configured least-squares policy (Section
// VI-D).
func solveProjected(lsq *dense.HessLSQ, opts *Options, res *Result) []float64 {
	switch opts.Policy {
	case LSQRankRevealing:
		return lsq.SolveRankRevealing(opts.RRTol)
	case LSQFallback:
		y := lsq.SolveTriangular()
		if vec.AllFinite(y) {
			return y
		}
		res.FallbackUsed = true
		return lsq.SolveRankRevealing(opts.RRTol)
	default:
		return lsq.SolveTriangular()
	}
}

// applyUpdate computes x += Σ y_i q_i for the leading len(y) basis vectors.
func applyUpdate(p *kernel.Pool, x []float64, basis [][]float64, y []float64) {
	for i, c := range y {
		if i >= len(basis) {
			break
		}
		kernel.Axpy(p, c, basis[i], x)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// TrueResidual returns ‖b − A x‖₂ / ‖b‖₂, the reliably computed relative
// residual the outer solver of FT-GMRES uses to judge convergence.
func TrueResidual(a Operator, b, x []float64) float64 {
	return TrueResidualPool(nil, a, b, x)
}

// TrueResidualPool is TrueResidual with the SpMV and norms on the kernel
// pool. Bit-identical to TrueResidual for every pool width.
func TrueResidualPool(p *kernel.Pool, a Operator, b, x []float64) float64 {
	if err := checkSystem(a, b, x); err != nil {
		panic(fmt.Sprintf("krylov.TrueResidual: %v", err))
	}
	return relResidual(p, a, b, x, make([]float64, a.Rows()), kernel.Norm2(p, b))
}

// relResidual returns ‖b − A x‖₂ / normB (the plain norm when normB is 0),
// using r as scratch for the residual vector.
func relResidual(p *kernel.Pool, a Operator, b, x, r []float64, normB float64) float64 {
	matVec(p, a, r, x)
	vec.Sub(r, b, r)
	if normB == 0 {
		return kernel.Norm2(p, r)
	}
	return kernel.Norm2(p, r) / normB
}
