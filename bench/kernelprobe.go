package main

import (
	"math"
	"runtime"
	"time"

	"sdcgmres/internal/kernel"
	"sdcgmres/internal/sparse"
)

// probeKernels times the two kernels an Arnoldi step is made of on the
// workload's own matrix: one SpMV through sparse.MatVecPool, and one
// modified Gram-Schmidt pass (j dots and j axpys against a basis of j
// vectors, j = the workload's inner iteration count) through
// kernel.Dot/kernel.Axpy. Bandwidth is computed bytes (each array touched
// once per use) over median wall time, with sequential kernels as the
// workloads run them; pool_speedup compares that MGS pass against a pool
// of every CPU.
func probeKernels(rep *report, a *sparse.CSR, j int) error {
	n := a.Rows()
	wide := kernel.New(runtime.NumCPU())
	defer wide.Close()

	x := make([]float64, n)
	for i := range x {
		x[i] = 1 + float64(i%7)/7
	}
	y := make([]float64, n)
	spmv := medianCall(func() {}, func() { a.MatVecPool(nil, y, x) })
	spmvBytes := float64(a.NNZ())*16 + float64(n+1)*8 + float64(n)*16
	rep.set("kernel.spmv_gbps", spmvBytes/spmv.Seconds()/1e9, n)

	basis := make([][]float64, j)
	for k := range basis {
		q := make([]float64, n)
		norm := 0.0
		for i := range q {
			q[i] = math.Sin(float64((k+1)*(i+1)) * 0.37)
			norm += q[i] * q[i]
		}
		for i := range q {
			q[i] /= math.Sqrt(norm)
		}
		basis[k] = q
	}
	w := make([]float64, n)
	reset := func() { copy(w, x) }
	mgs := func(p *kernel.Pool) func() {
		return func() {
			for _, q := range basis {
				h := kernel.Dot(p, q, w)
				kernel.Axpy(p, -h, q, w)
			}
		}
	}
	mgsBytes := float64(j) * 5 * float64(n) * 8 // dot reads 2n, axpy reads 2n and writes n
	seq := medianCall(reset, mgs(nil))
	rep.set("kernel.mgs_gbps", mgsBytes/seq.Seconds()/1e9, n)
	par := medianCall(reset, mgs(wide))
	rep.set("kernel.pool_speedup", seq.Seconds()/par.Seconds(), n)
	rep.note("kernel probes: n=%d nnz=%d mgs j=%d, sequential, speedup pool %d; bytes are computed, not counted",
		n, a.NNZ(), j, runtime.NumCPU())
	return nil
}

// medianCall runs reset then times f, repeatedly for at least 150 ms and
// 21 calls, and returns the median call time.
func medianCall(reset, f func()) time.Duration {
	var d []float64
	start := time.Now()
	for len(d) < 21 || time.Since(start) < 150*time.Millisecond {
		reset()
		t := time.Now()
		f()
		d = append(d, float64(time.Since(t)))
	}
	return time.Duration(median(d))
}
