package dense

import (
	"fmt"
	"math"
)

// ICE is Bischof-style incremental condition estimation for a triangular
// matrix built one column at a time: it maintains approximate extreme left
// singular pairs and updates them in O(k) per appended column, so a solver
// can watch cond(R) grow at every iteration for the cost the paper
// requires ("algorithms for updating a rank-revealing decomposition of an
// m×m matrix in O(m²) time", Section VI-C — O(m) per column ⇒ O(m²)
// total).
//
// The estimates are one-sided: SigmaMaxEst never exceeds the true σmax and
// SigmaMinEst never falls below the true σmin... in exact arithmetic the
// construction guarantees σ̂max ≤ σmax and σ̂min ≥ σmin, so CondEst is a
// *lower bound* on the true condition number — exactly the right direction
// for a rank-deficiency alarm (no false positives). The zero value is an
// empty estimator.
type ICE struct {
	k          int
	xmin, xmax []float64
	smin, smax float64
}

// reset empties the estimator, keeping its storage for the next matrix.
func (e *ICE) reset() {
	*e = ICE{xmin: e.xmin[:0], xmax: e.xmax[:0]}
}

// K returns the number of columns absorbed.
func (e *ICE) K() int { return e.k }

// Append absorbs the next column of the triangular matrix: col holds the
// entries above the diagonal (length K()), diag the new diagonal entry.
func (e *ICE) Append(col []float64, diag float64) {
	if len(col) != e.k {
		panic(fmt.Sprintf("dense.ICE: column has %d entries above diagonal, want %d", len(col), e.k))
	}
	if e.k == 0 {
		e.xmin = append(e.xmin[:0], 1)
		e.xmax = append(e.xmax[:0], 1)
		e.smin = math.Abs(diag)
		e.smax = math.Abs(diag)
		e.k = 1
		return
	}
	e.smin, e.xmin = e.update(e.smin, e.xmin, col, diag, false)
	e.smax, e.xmax = e.update(e.smax, e.xmax, col, diag, true)
	e.k++
}

// update extends one extreme-singular-pair estimate, overwriting x with
// the first len(x) entries of the extended vector. The extended left
// vector is x' = (s·x, c) with s²+c² = 1; ‖x'ᵀ R'‖² is the quadratic form
// of the 2×2 matrix M = [[σ̂²+α², αγ], [αγ, γ²]] with α = xᵀ·col and
// γ = diag. Choosing the extreme eigenpair of M extremizes the estimate.
func (e *ICE) update(sigma float64, x []float64, col []float64, diag float64, wantMax bool) (float64, []float64) {
	var alpha float64
	for i, v := range col {
		alpha += x[i] * v
	}
	a := sigma*sigma + alpha*alpha
	b := alpha * diag
	c := diag * diag
	lambda, s, co := eig2x2(a, b, c, wantMax)
	for i, v := range x {
		x[i] = s * v
	}
	return math.Sqrt(math.Max(lambda, 0)), append(x, co)
}

// eig2x2 returns the requested extreme eigenvalue of [[a,b],[b,c]] and the
// corresponding unit eigenvector (s, co).
func eig2x2(a, b, c float64, wantMax bool) (lambda, s, co float64) {
	half := (a + c) / 2
	d := math.Hypot((a-c)/2, b)
	if wantMax {
		lambda = half + d
	} else {
		lambda = half - d
	}
	// Eigenvector: (b, λ−a) unless degenerate, then (λ−c, b).
	v0, v1 := b, lambda-a
	if math.Abs(v0)+math.Abs(v1) < 1e-300 {
		v0, v1 = lambda-c, b
	}
	n := math.Hypot(v0, v1)
	if n == 0 {
		// Perfectly degenerate (e.g. first column, or b == 0 with a == c):
		// keep the old direction, excluding/including the new coordinate
		// as the eigenvalue dictates.
		if (wantMax && c >= a) || (!wantMax && c <= a) {
			return lambda, 0, 1
		}
		return lambda, 1, 0
	}
	return lambda, v0 / n, v1 / n
}

// SigmaMinEst returns the current σmin estimate (an upper bound on the
// true σmin).
func (e *ICE) SigmaMinEst() float64 { return e.smin }

// SigmaMaxEst returns the current σmax estimate (a lower bound on the true
// σmax).
func (e *ICE) SigmaMaxEst() float64 { return e.smax }

// CondEst returns σ̂max/σ̂min, a lower bound on the true 2-norm condition
// number (+Inf if the σmin estimate has reached zero).
func (e *ICE) CondEst() float64 {
	if e.k == 0 {
		return 1
	}
	if e.smin == 0 {
		return math.Inf(1)
	}
	return e.smax / e.smin
}
