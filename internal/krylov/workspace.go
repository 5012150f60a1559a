package krylov

import "sdcgmres/internal/dense"

// Workspace is the storage of one GMRES or FGMRES solve, kept for the next
// solve on it: the Krylov basis, FGMRES's preconditioned vectors, the
// scratch vectors, the Hessenberg column and the projected least-squares
// state. A solve computes the same bits on a used workspace as on a fresh
// one; only its allocations differ. Vectors are allocated on first use, so
// a fresh workspace allocates no more than a solve uses, and a solver
// running many solves of one size on one workspace allocates them once.
//
// The zero value is ready to use. A Workspace serves one solve at a time,
// and a Result from its methods aliases its storage until its next solve.
// The package-level solvers each run on a fresh one.
type Workspace struct {
	n int // vector length; a solve of another size starts over

	basis [][]float64 // owned basis vectors by position, nil until first used
	zs    [][]float64 // owned FGMRES preconditioned vectors by position
	// q and z are the running solve's basis and preconditioned vectors:
	// the owned ones, except that a resumed solve's first ones are its
	// tape's, which are never written.
	q, z [][]float64

	w    []float64 // Arnoldi vector A·q_j, then the preconditioned update
	pz   []float64 // GMRES's preconditioned basis vector M⁻¹q_j
	x    []float64 // GMRES's iterate
	r    []float64 // restart or explicit residual
	cand []float64 // FGMRES's candidate iterate for the explicit residual
	col  []float64 // the Hessenberg column an Arnoldi step produces
	raw  []float64 // CGS's first-pass projections
	hist []float64 // backing store of the result's ResidualHistory
	lsq  dense.HessLSQ
}

// start prepares ws for a solve of vectors of length n, dropping its
// storage when it was sized for another length.
func (ws *Workspace) start(n int) {
	if ws.n != n {
		*ws = Workspace{n: n}
	}
}

// vec returns the vector *v, allocating it on first use.
func (ws *Workspace) vec(v *[]float64) []float64 {
	if *v == nil {
		*v = make([]float64, ws.n)
	}
	return *v
}

// at returns the owned vector at position i of vs, allocating it on first
// use.
func (ws *Workspace) at(vs *[][]float64, i int) []float64 {
	for len(*vs) <= i {
		*vs = append(*vs, nil)
	}
	return ws.vec(&(*vs)[i])
}

// scratch returns buf with m entries, reallocated when it holds fewer.
func scratch[T any](buf []T, m int) []T {
	if cap(buf) < m {
		return make([]T, m)
	}
	return buf[:m]
}
