package dense

import (
	"fmt"
	"math"
)

// HessLSQ incrementally solves the projected GMRES least-squares problem
//
//	min_y ‖ H(1:k+1, 1:k) y − β e1 ‖₂
//
// using one new Givens rotation per iteration (the Saad & Schultz structured
// QR), which keeps the per-iteration cost O(k) and gives the residual norm of
// the projected problem for free as |g_{k+1}|.
//
// It keeps both the raw upper-Hessenberg matrix H (needed for the
// rank-revealing policies and the trichotomy check of Section VI-C) and the
// rotated triangular factor R with the rotated right-hand side g.
type HessLSQ struct {
	maxIter int
	k       int // columns appended so far

	beta  float64
	h     *Matrix   // raw Hessenberg, (maxIter+1) x maxIter
	r     *Matrix   // rotated (triangular) copy
	g     []float64 // rotated rhs, length maxIter+1
	rots  []Givens
	ice   ICE       // O(k)-per-column condition monitor of the triangular factor
	above []float64 // AppendColumn's scratch: the new column above the diagonal
	y     []float64 // SolveTriangular's result
}

// NewHessLSQ prepares the incremental solver for up to maxIter iterations
// with initial residual norm beta (the rhs is β e1).
func NewHessLSQ(maxIter int, beta float64) *HessLSQ {
	l := &HessLSQ{}
	l.Reset(maxIter, beta)
	return l
}

// Reset prepares l for a new solve of up to maxIter iterations with initial
// residual norm beta, as NewHessLSQ would. It reuses l's storage when l was
// built for the same maxIter, so a solver running many solves of one size
// allocates nothing here after the first; nothing of the previous solve
// shows through.
func (l *HessLSQ) Reset(maxIter int, beta float64) {
	if maxIter <= 0 {
		panic(fmt.Sprintf("dense.HessLSQ: maxIter = %d", maxIter))
	}
	if l.maxIter != maxIter {
		*l = HessLSQ{
			maxIter: maxIter,
			h:       NewMatrix(maxIter+1, maxIter),
			r:       NewMatrix(maxIter+1, maxIter),
			g:       make([]float64, maxIter+1),
			rots:    make([]Givens, 0, maxIter),
			ice:     ICE{xmin: make([]float64, 0, maxIter), xmax: make([]float64, 0, maxIter)},
			above:   make([]float64, maxIter),
			y:       make([]float64, maxIter),
		}
	} else {
		// Both matrices are read below the last written row (HColumnwise,
		// the SVD policies), where a fresh matrix holds zeros.
		clear(l.h.Data)
		clear(l.r.Data)
		clear(l.g)
		l.rots = l.rots[:0]
		l.ice.reset()
	}
	l.k = 0
	l.beta = beta
	l.g[0] = beta
}

// K returns the number of columns appended so far.
func (l *HessLSQ) K() int { return l.k }

// Beta returns the initial residual norm used as the right-hand side.
func (l *HessLSQ) Beta() float64 { return l.beta }

// AppendColumn installs column k (0-based) of the Hessenberg matrix — the
// coefficients h[0..k+1] = H(1:k+2, k+1) produced by the Arnoldi step — and
// returns the updated projected residual norm |g_{k+2}|.
func (l *HessLSQ) AppendColumn(h []float64) float64 {
	if l.k >= l.maxIter {
		panic("dense.HessLSQ: AppendColumn past maxIter")
	}
	if len(h) != l.k+2 {
		panic(fmt.Sprintf("dense.HessLSQ: column %d needs %d entries, got %d", l.k, l.k+2, len(h)))
	}
	j := l.k
	for i := 0; i <= j+1; i++ {
		l.h.Set(i, j, h[i])
		l.r.Set(i, j, h[i])
	}
	// Apply the accumulated rotations to the new column.
	for i, rot := range l.rots {
		a, b := l.r.At(i, j), l.r.At(i+1, j)
		ra, rb := rot.Apply(a, b)
		l.r.Set(i, j, ra)
		l.r.Set(i+1, j, rb)
	}
	// New rotation to annihilate the subdiagonal entry.
	rot, rr := MakeGivens(l.r.At(j, j), l.r.At(j+1, j))
	l.rots = append(l.rots, rot)
	l.r.Set(j, j, rr)
	l.r.Set(j+1, j, 0)
	// Rotate the right-hand side.
	a, b := rot.Apply(l.g[j], l.g[j+1])
	l.g[j], l.g[j+1] = a, b
	// Feed the incremental condition estimator the new triangular column.
	above := l.above[:j]
	for i := 0; i < j; i++ {
		above[i] = l.r.At(i, j)
	}
	l.ice.Append(above, rr)
	l.k++
	return math.Abs(l.g[l.k])
}

// ResidualNorm returns the current projected residual norm |g_{k+1}|.
func (l *HessLSQ) ResidualNorm() float64 { return math.Abs(l.g[l.k]) }

// SolveTriangular returns the update coefficients via back-substitution on
// the rotated triangular factor (Section VI-D, Approach 1). A singular R
// produces Inf/NaN coefficients rather than an error, mirroring the paper's
// discussion of IEEE-754's "natural error detection". The result is l's own
// storage, valid until the next SolveTriangular or Reset.
func (l *HessLSQ) SolveTriangular() []float64 {
	return backSubstitute(l.y[:l.k], l.r, l.g[:l.k])
}

// SolveRankRevealing returns the minimum-norm update coefficients via a
// truncated SVD of the rotated triangular factor (Section VI-D, Approach 3).
// relTol is the relative singular-value truncation threshold.
func (l *HessLSQ) SolveRankRevealing(relTol float64) []float64 {
	if l.k == 0 {
		return nil
	}
	r := l.r.Sub(0, l.k, 0, l.k)
	return SolveSVD(r, l.g[:l.k], relTol)
}

// HColumnwise returns a copy of the raw (k+1)-by-k Hessenberg matrix built
// so far.
func (l *HessLSQ) HColumnwise() *Matrix {
	return l.h.Sub(0, l.k+1, 0, l.k)
}

// RCondEst returns the cheap diagonal-ratio condition estimate of the
// current triangular factor. Values near 1/eps flag the rank-deficiency
// failure mode of FGMRES (Section VI-C trichotomy).
func (l *HessLSQ) RCondEst() float64 {
	return TriangularConditionEst(l.r, l.k)
}

// RCondSVD returns the exact 2-norm condition number of the current
// triangular factor via the Jacobi SVD — the rank-revealing decomposition
// the paper recommends keeping updated (Stewart-style ULV would be the
// O(k²) production choice; an SVD of a k-by-k triangle is equally accurate
// and still negligible next to the sparse work for the k used here).
func (l *HessLSQ) RCondSVD() float64 {
	if l.k == 0 {
		return 1
	}
	return ComputeSVD(l.r.Sub(0, l.k, 0, l.k)).Cond2()
}

// RCondICE returns the incremental (Bischof-style) condition estimate of
// the triangular factor — a lower bound on the true condition number,
// updated in O(k) per iteration. It is the cheap per-iteration
// rank-deficiency alarm; RCondSVD is the exact confirmation.
func (l *HessLSQ) RCondICE() float64 { return l.ice.CondEst() }

// LastSubdiag returns H(k+1, k), the subdiagonal entry produced by the most
// recent Arnoldi step — the "happy breakdown" indicator.
func (l *HessLSQ) LastSubdiag() float64 {
	if l.k == 0 {
		return math.NaN()
	}
	return l.h.At(l.k, l.k-1)
}
