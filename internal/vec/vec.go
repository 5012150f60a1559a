// Package vec provides the dense-vector (BLAS level 1) kernels used by every
// solver in this repository: dot products, norms, axpy updates, scaling and
// copying. Every kernel here runs serially on its caller's goroutine at
// every length; internal/kernel's pool is the only code that runs them in
// parallel.
//
// Reproducibility is a first-class requirement for the SDC experiments: a
// fault-injection sweep must produce the same iteration counts on every run
// and at every kernel worker count. Dot therefore sums fixed chunks (their
// boundaries depend only on the length) and folds the per-chunk partials in
// index order, so the pool's reduction over the same chunks rounds
// identically to the serial evaluation.
package vec

import (
	"fmt"
	"math"
)

// ChunkSize is the fixed reduction granularity of Dot. Chunk boundaries
// depend only on the vector length, never on a worker count, which keeps
// results bitwise reproducible. internal/kernel reduces over the same
// chunks, so pool reductions round identically to this package's.
const ChunkSize = 1 << 12

// New returns a zero vector of length n.
func New(n int) []float64 { return make([]float64, n) }

// Clone returns a copy of x.
func Clone(x []float64) []float64 {
	y := make([]float64, len(x))
	copy(y, x)
	return y
}

// Copy copies src into dst. It panics if the lengths differ, since a silent
// partial copy inside a solver is precisely the kind of bug this repository
// exists to detect.
func Copy(dst, src []float64) {
	checkLen("vec.Copy", len(dst), len(src))
	copy(dst, src)
}

// Fill sets every element of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// Ones returns a length-n vector of ones.
func Ones(n int) []float64 {
	x := make([]float64, n)
	Fill(x, 1)
	return x
}

// Basis returns the length-n standard basis vector e_i.
func Basis(n, i int) []float64 {
	if i < 0 || i >= n {
		panic(fmt.Sprintf("vec.Basis: index %d out of range [0,%d)", i, n))
	}
	x := make([]float64, n)
	x[i] = 1
	return x
}

// Dot returns the inner product x·y, summing fixed ChunkSize chunks in index
// order. internal/kernel calls it once per chunk: on a slice no longer than
// ChunkSize it is a single unrolled-serial evaluation, the per-chunk partial
// of the pool's reduction.
func Dot(x, y []float64) float64 {
	checkLen("vec.Dot", len(x), len(y))
	var total float64
	for lo := 0; lo < len(x); lo += ChunkSize {
		hi := min(lo+ChunkSize, len(x))
		total += dotSerial(x[lo:hi], y[lo:hi])
	}
	return total
}

// dotSerial is the innermost kernel, unrolled by four to expose instruction
// level parallelism without changing the documented chunk rounding contract
// (the unroll pattern is fixed, so it is still deterministic).
func dotSerial(x, y []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	for ; i < len(x); i++ {
		s0 += x[i] * y[i]
	}
	return ((s0 + s1) + s2) + s3
}

// Norm2 returns the Euclidean norm ‖x‖₂. It rescales to avoid overflow and
// underflow in the squares, following the classic LAPACK dnrm2 strategy.
func Norm2(x []float64) float64 {
	scale, ssq := SumSquaresScaled(x)
	return scale * math.Sqrt(ssq)
}

// SumSquaresScaled runs the LAPACK dnrm2 rescaled sum-of-squares recurrence
// over x and returns the (scale, ssq) pair, with Σ x_i² = scale²·ssq and
// ‖x‖₂ = scale·sqrt(ssq). The pair stays finite for entries up to
// math.MaxFloat64 and loses nothing to underflow for denormals, which is the
// whole point of the rescaling. An all-zero (or empty) x returns (0, 1).
//
// internal/kernel evaluates this per fixed chunk and folds the pairs in
// index order with CombineSumSquares, so the parallel norm preserves the
// overflow/underflow behaviour at every worker count.
func SumSquaresScaled(x []float64) (scale, ssq float64) {
	scale, ssq = 0, 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale, ssq
}

// CombineSumSquares folds two rescaled sum-of-squares pairs into one:
// the result represents the concatenation of the two ranges the pairs
// summarize. The (0, 1) pair is the identity, matching SumSquaresScaled's
// empty-range value. Folding chunk pairs left-to-right in index order gives
// a result that depends only on the chunk boundaries — never on which
// worker computed which chunk.
func CombineSumSquares(scale1, ssq1, scale2, ssq2 float64) (scale, ssq float64) {
	switch {
	case scale2 == 0:
		return scale1, ssq1
	case scale1 == 0:
		return scale2, ssq2
	case scale1 >= scale2:
		r := scale2 / scale1
		return scale1, ssq1 + ssq2*r*r
	default:
		r := scale1 / scale2
		return scale2, ssq2 + ssq1*r*r
	}
}

// NormInf returns max_i |x_i|, or 0 for an empty vector. NaNs propagate: if
// any element is NaN the result is NaN, which callers rely on for fault
// screening.
func NormInf(x []float64) float64 {
	m := 0.0
	for _, v := range x {
		if math.IsNaN(v) {
			return math.NaN()
		}
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Norm1 returns Σ|x_i|.
func Norm1(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y []float64) {
	checkLen("vec.Axpy", len(x), len(y))
	if alpha == 0 {
		return
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scale computes x *= alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Add computes dst = x + y.
func Add(dst, x, y []float64) {
	checkLen("vec.Add", len(dst), len(x))
	checkLen("vec.Add", len(x), len(y))
	for i := range dst {
		dst[i] = x[i] + y[i]
	}
}

// Sub computes dst = x - y.
func Sub(dst, x, y []float64) {
	checkLen("vec.Sub", len(dst), len(x))
	checkLen("vec.Sub", len(x), len(y))
	for i := range dst {
		dst[i] = x[i] - y[i]
	}
}

// SumKahan returns Σ x_i with Kahan-Neumaier compensated summation: the
// rounding error of every addition is carried in a correction term, giving
// results accurate to a few ulps regardless of length or cancellation.
// The reliable phases use it where a sum itself is the safety check (e.g.
// the ABFT checksum verification), where ordinary accumulation error could
// masquerade as corruption.
func SumKahan(x []float64) float64 {
	var sum, comp float64
	for _, v := range x {
		t := sum + v
		if math.Abs(sum) >= math.Abs(v) {
			comp += (sum - t) + v
		} else {
			comp += (v - t) + sum
		}
		sum = t
	}
	return sum + comp
}

// DotKahan returns x·y with compensated accumulation of the products.
func DotKahan(x, y []float64) float64 {
	checkLen("vec.DotKahan", len(x), len(y))
	var sum, comp float64
	for i, v := range x {
		p := v * y[i]
		t := sum + p
		if math.Abs(sum) >= math.Abs(p) {
			comp += (sum - t) + p
		} else {
			comp += (p - t) + sum
		}
		sum = t
	}
	return sum + comp
}

// AllFinite reports whether every element of x is finite (neither NaN nor
// ±Inf). The detector uses it to screen vectors returned from the sandbox.
func AllFinite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func checkLen(op string, a, b int) {
	if a != b {
		panic(fmt.Sprintf("%s: length mismatch %d != %d", op, a, b))
	}
}
