package dense

import (
	"fmt"
	"math"
)

// SolveUpperTriangular solves R y = z by back-substitution, where R is the
// leading n-by-n upper-triangular block of r and z has length n. This is
// "Approach 1" of Section VI-D: the classic Saad & Schultz update solve. It
// does not guard against a singular or nearly singular R — an exact zero
// pivot yields ±Inf or NaN coefficients, exactly the natural IEEE-754 error
// signalling the paper discusses.
func SolveUpperTriangular(r *Matrix, z []float64) []float64 {
	n := len(z)
	if r.Rows < n || r.Cols < n {
		panic(fmt.Sprintf("dense.SolveUpperTriangular: R is %dx%d, need at least %dx%d", r.Rows, r.Cols, n, n))
	}
	return backSubstitute(make([]float64, n), r, z)
}

// backSubstitute is SolveUpperTriangular writing y, which has len(z)
// entries, and returning it.
func backSubstitute(y []float64, r *Matrix, z []float64) []float64 {
	n := len(z)
	for i := n - 1; i >= 0; i-- {
		s := z[i]
		for j := i + 1; j < n; j++ {
			s -= r.At(i, j) * y[j]
		}
		y[i] = s / r.At(i, i)
	}
	return y
}

// SolveLowerTriangular solves L y = z by forward substitution on the leading
// n-by-n lower-triangular block of l.
func SolveLowerTriangular(l *Matrix, z []float64) []float64 {
	n := len(z)
	if l.Rows < n || l.Cols < n {
		panic(fmt.Sprintf("dense.SolveLowerTriangular: L is %dx%d, need at least %dx%d", l.Rows, l.Cols, n, n))
	}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := z[i]
		for j := 0; j < i; j++ {
			s -= l.At(i, j) * y[j]
		}
		y[i] = s / l.At(i, i)
	}
	return y
}

// TriangularConditionEst returns a cheap lower bound on the 2-norm condition
// number of the leading n-by-n upper-triangular block: the ratio of the
// largest to the smallest diagonal magnitude. For triangular matrices the
// diagonal bounds the singular values one-sidedly (σmin <= min|r_ii|,
// σmax >= max|r_ii|), so this ratio is a valid and extremely cheap
// rank-deficiency alarm; the SVD-based policies provide the exact answer.
func TriangularConditionEst(r *Matrix, n int) float64 {
	if n == 0 {
		return 1
	}
	lo := math.Inf(1)
	hi := 0.0
	for i := 0; i < n; i++ {
		d := math.Abs(r.At(i, i))
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if lo == 0 {
		return math.Inf(1)
	}
	return hi / lo
}
