package krylov

import (
	"sdcgmres/internal/kernel"
)

// orthoResult carries one Arnoldi orthogonalization step's outputs.
type orthoResult struct {
	// h holds the new Hessenberg column: h[0..j] projections, h[j+1] the
	// normalization coefficient (possibly hook-modified).
	h []float64
	// halted is true when a hook error occurred and the solver is
	// configured to stop on detection.
	halted bool
	// flops estimates the orthogonalization arithmetic of this step
	// (Sec. VII-E-1 cost model: linear in the iteration index).
	flops int64
}

// orthogonalize makes w orthogonal to the basis q[0..j] in place and runs
// the hook chain over every coefficient it produces. j is the 0-based
// Arnoldi iteration. The returned column is what the solver must append to
// the projected problem; it is ws's storage, overwritten by the next step.
// w is left scaled so that dividing by h[j+1] normalizes it.
//
// The fault model of the paper acts here: a corrupted projection
// coefficient both lands in H and drives the basis update (for MGS it
// "taints all subsequent iterations of the orthogonalization loop" —
// Section VII-B), exactly as the paper describes.
func orthogonalize(ws *Workspace, q [][]float64, w []float64, j int, opts *Options, events *[]HookEvent) orthoResult {
	ctx := CoeffContext{
		OuterIteration: opts.OuterIteration,
		InnerIteration: j + 1,
		AggregateInner: opts.AggregateBase + j + 1,
	}
	ws.col = scratch(ws.col, opts.MaxIter+1)
	h := ws.col[:j+2]
	halt := false
	project := func(i int, raw float64) float64 {
		c := ctx
		c.Step = i + 1
		c.LastStep = i == j
		c.Kind = Projection
		v, errSeen := observe(opts.Hooks, c, raw, events)
		if errSeen && opts.OnHookErr == DetectHalt {
			halt = true
		}
		return v
	}

	switch opts.Ortho {
	case CGS:
		// Classical Gram-Schmidt: all projections against the original w.
		ws.raw = scratch(ws.raw, opts.MaxIter)
		raw := ws.raw[:j+1]
		for i := 0; i <= j; i++ {
			raw[i] = kernel.Dot(opts.Pool, q[i], w)
		}
		for i := 0; i <= j; i++ {
			h[i] = project(i, raw[i])
			if halt {
				return orthoResult{halted: true}
			}
		}
		for i := 0; i <= j; i++ {
			kernel.Axpy(opts.Pool, -h[i], q[i], w)
		}
	case CGS2:
		// CGS with one full re-orthogonalization pass ("twice is enough").
		// Hooks observe the first-pass coefficients — the ones a fault
		// would corrupt; the silent correction pass is the re-orthogonal-
		// ization machinery itself.
		ws.raw = scratch(ws.raw, opts.MaxIter)
		raw := ws.raw[:j+1]
		for i := 0; i <= j; i++ {
			raw[i] = kernel.Dot(opts.Pool, q[i], w)
		}
		for i := 0; i <= j; i++ {
			h[i] = project(i, raw[i])
			if halt {
				return orthoResult{halted: true}
			}
		}
		for i := 0; i <= j; i++ {
			kernel.Axpy(opts.Pool, -h[i], q[i], w)
		}
		for i := 0; i <= j; i++ {
			c := kernel.Dot(opts.Pool, q[i], w)
			kernel.Axpy(opts.Pool, -c, q[i], w)
			h[i] += c
		}
	default: // MGS
		for i := 0; i <= j; i++ {
			h[i] = project(i, kernel.Dot(opts.Pool, q[i], w))
			if halt {
				return orthoResult{halted: true}
			}
			kernel.Axpy(opts.Pool, -h[i], q[i], w)
		}
	}

	// Normalization coefficient h(j+1, j) — the paper checks this one too
	// (between lines 9 and 10 of Algorithm 1).
	c := ctx
	c.Step = j + 2
	c.LastStep = true
	c.Kind = Normalization
	norm, errSeen := observe(opts.Hooks, c, kernel.Norm2(opts.Pool, w), events)
	if errSeen && opts.OnHookErr == DetectHalt {
		return orthoResult{halted: true}
	}
	h[j+1] = norm
	// Cost model: each projection is a dot (2n) plus an axpy (2n) against
	// one basis vector; CGS2 does the pass twice; the normalization adds
	// one norm (2n).
	n64 := int64(len(w))
	flops := int64(j+1)*4*n64 + 2*n64
	if opts.Ortho == CGS2 {
		flops += int64(j+1) * 4 * n64
	}
	return orthoResult{h: h, flops: flops}
}
