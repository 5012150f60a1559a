package krylov

import (
	"math"
	"testing"

	"sdcgmres/internal/gallery"
	"sdcgmres/internal/kernel"
	"sdcgmres/internal/vec"
)

// TestGMRESPoolInvariance runs GMRES on a system large enough that every
// hot-path kernel crosses the parallel threshold (200×200 Poisson grid →
// n = 40 000 > kernel.ParallelThreshold) and demands the complete result —
// solution bits, residual history bits, iteration count — be identical
// between the sequential solver and pools of several widths. This is the
// solver-level statement of the engine's determinism contract.
func TestGMRESPoolInvariance(t *testing.T) {
	a := gallery.Poisson2D(200)
	if a.Rows() < kernel.ParallelThreshold {
		t.Fatalf("system too small (%d rows) to cross the parallel threshold", a.Rows())
	}
	b := make([]float64, a.Rows())
	a.MatVec(b, vec.Ones(a.Cols()))

	base, err := GMRES(a, b, nil, Options{MaxIter: 12, Tol: 0})
	if err != nil {
		t.Fatalf("sequential solve failed: %v", err)
	}
	for _, w := range []int{1, 2, 4} {
		p := kernel.New(w)
		res, err := GMRES(a, b, nil, Options{MaxIter: 12, Tol: 0, Pool: p})
		p.Close()
		if err != nil {
			t.Fatalf("workers=%d: solve failed: %v", w, err)
		}
		if res.Iterations != base.Iterations {
			t.Fatalf("workers=%d: %d iterations, want %d", w, res.Iterations, base.Iterations)
		}
		if len(res.ResidualHistory) != len(base.ResidualHistory) {
			t.Fatalf("workers=%d: residual history length differs", w)
		}
		for i := range base.ResidualHistory {
			if math.Float64bits(res.ResidualHistory[i]) != math.Float64bits(base.ResidualHistory[i]) {
				t.Fatalf("workers=%d: residual %d differs: %v != %v",
					w, i, res.ResidualHistory[i], base.ResidualHistory[i])
			}
		}
		for i := range base.X {
			if math.Float64bits(res.X[i]) != math.Float64bits(base.X[i]) {
				t.Fatalf("workers=%d: solution differs at %d", w, i)
			}
		}
	}
}

// TestCGPoolInvariance is the same contract for the CG loop (dot/axpy
// recurrences rather than Arnoldi).
func TestCGPoolInvariance(t *testing.T) {
	a := gallery.Poisson2D(200)
	b := make([]float64, a.Rows())
	a.MatVec(b, vec.Ones(a.Cols()))
	base, err := CG(a, b, nil, CGOptions{Options: Options{MaxIter: 30, Tol: 1e-10}})
	if err != nil {
		t.Fatalf("sequential CG failed: %v", err)
	}
	p := kernel.New(4)
	defer p.Close()
	res, err := CG(a, b, nil, CGOptions{Options: Options{MaxIter: 30, Tol: 1e-10, Pool: p}})
	if err != nil {
		t.Fatalf("pooled CG failed: %v", err)
	}
	if res.Iterations != base.Iterations {
		t.Fatalf("pooled CG: %d iterations, want %d", res.Iterations, base.Iterations)
	}
	for i := range base.X {
		if math.Float64bits(res.X[i]) != math.Float64bits(base.X[i]) {
			t.Fatalf("pooled CG solution differs at %d", i)
		}
	}
}
