package kernel

import (
	"math"

	"sdcgmres/internal/vec"
)

// ParallelThreshold is the vector length below which every kernel answers
// on the serial vec fast path: a pool dispatch costs more than it saves for
// a short vector. Every call below it is bit-for-bit the serial vec
// computation, whatever the pool.
const ParallelThreshold = 1 << 15

// nchunks is the fixed chunk count of a length-n reduction.
func nchunks(n int) int { return (n + vec.ChunkSize - 1) / vec.ChunkSize }

// Dot returns x·y. The result is bitwise identical to vec.Dot for every
// length and worker count: both decompose into the same fixed chunks and
// fold the partials in index order.
func Dot(p *Pool, x, y []float64) float64 {
	if len(x) < ParallelThreshold {
		p.seqFallback()
		return vec.Dot(x, y)
	}
	nc := nchunks(len(x))
	partial := make([]float64, nc)
	p.Run("dot", len(x), nc, func(c int) {
		lo := c * vec.ChunkSize
		hi := min(lo+vec.ChunkSize, len(x))
		partial[c] = vec.Dot(x[lo:hi], y[lo:hi])
	})
	var total float64
	for _, v := range partial {
		total += v
	}
	return total
}

// Norm2 returns ‖x‖₂ with the LAPACK dnrm2 rescaling preserved: each chunk
// runs the exact vec.SumSquaresScaled recurrence and the per-chunk
// (scale, ssq) pairs fold in index order, so entries near math.MaxFloat64
// never overflow and denormals never flush — at any worker count, with the
// same bits. Below the threshold it is exactly vec.Norm2; above it the
// chunked fold is a fixed function of the length alone (it can differ from
// the unchunked serial recurrence by an ulp, but never between worker
// counts, which is the invariant the campaign CSVs rely on).
func Norm2(p *Pool, x []float64) float64 {
	if len(x) < ParallelThreshold {
		p.seqFallback()
		return vec.Norm2(x)
	}
	nc := nchunks(len(x))
	scales := make([]float64, nc)
	ssqs := make([]float64, nc)
	p.Run("norm2", len(x), nc, func(c int) {
		lo := c * vec.ChunkSize
		hi := min(lo+vec.ChunkSize, len(x))
		scales[c], ssqs[c] = vec.SumSquaresScaled(x[lo:hi])
	})
	scale, ssq := 0.0, 1.0
	for c := 0; c < nc; c++ {
		scale, ssq = vec.CombineSumSquares(scale, ssq, scales[c], ssqs[c])
	}
	return scale * math.Sqrt(ssq)
}

// DotKahan returns x·y with Kahan-Neumaier compensated accumulation: each
// chunk is a serial vec.DotKahan and the partials are themselves folded
// with compensated summation in index order. Below the threshold it is
// exactly vec.DotKahan.
func DotKahan(p *Pool, x, y []float64) float64 {
	if len(x) < ParallelThreshold {
		p.seqFallback()
		return vec.DotKahan(x, y)
	}
	nc := nchunks(len(x))
	partial := make([]float64, nc)
	p.Run("kahan-dot", len(x), nc, func(c int) {
		lo := c * vec.ChunkSize
		hi := min(lo+vec.ChunkSize, len(x))
		partial[c] = vec.DotKahan(x[lo:hi], y[lo:hi])
	})
	return vec.SumKahan(partial)
}

// Axpy computes y += alpha·x. Element-wise: any partition rounds
// identically, so this equals vec.Axpy bit-for-bit everywhere.
func Axpy(p *Pool, alpha float64, x, y []float64) {
	if alpha == 0 {
		return
	}
	if len(x) < ParallelThreshold || p.Workers() <= 1 {
		p.seqFallback()
		vec.Axpy(alpha, x, y)
		return
	}
	nc := nchunks(len(x))
	p.Run("axpy", len(x), nc, func(c int) {
		lo := c * vec.ChunkSize
		hi := min(lo+vec.ChunkSize, len(x))
		for i := lo; i < hi; i++ {
			y[i] += alpha * x[i]
		}
	})
}

// Scale computes x *= alpha. Element-wise, so identical to vec.Scale at any
// worker count.
func Scale(p *Pool, alpha float64, x []float64) {
	if len(x) < ParallelThreshold || p.Workers() <= 1 {
		p.seqFallback()
		vec.Scale(alpha, x)
		return
	}
	nc := nchunks(len(x))
	p.Run("scale", len(x), nc, func(c int) {
		lo := c * vec.ChunkSize
		hi := min(lo+vec.ChunkSize, len(x))
		for i := lo; i < hi; i++ {
			x[i] *= alpha
		}
	})
}
