package sparse

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"sdcgmres/internal/kernel"
	"sdcgmres/internal/vec"
)

// dominantCSR builds a rows×rows CSR with ~perRow entries per row plus a
// strictly dominant diagonal, deterministic in seed.
func dominantCSR(rows, perRow int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(rows, rows)
	for i := 0; i < rows; i++ {
		for k := 0; k < perRow; k++ {
			b.Add(i, rng.Intn(rows), rng.NormFloat64())
		}
		b.Add(i, i, float64(4*perRow))
	}
	return b.Build()
}

// TestMatVecPoolMatchesSerial: row-partitioned SpMV must be bit-identical
// to the serial product for every pool width, on a matrix big enough to
// cross the parallel threshold.
func TestMatVecPoolMatchesSerial(t *testing.T) {
	m := dominantCSR(3000, 30, 1) // ~93k nnz > spmvParallelThreshold
	if m.NNZ() < spmvParallelThreshold {
		t.Fatalf("test matrix too sparse (%d nnz) to exercise the pooled path", m.NNZ())
	}
	x := make([]float64, m.Cols())
	rng := rand.New(rand.NewSource(2))
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, m.Rows())
	m.MatVec(want, x)
	for _, w := range []int{1, 2, 4, 8} {
		p := kernel.New(w)
		got := make([]float64, m.Rows())
		m.MatVecPool(p, got, x)
		p.Close()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("workers=%d: MatVecPool differs at row %d: %x != %x",
					w, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
	// Nil pool takes the serial path outright.
	got := make([]float64, m.Rows())
	m.MatVecPool(nil, got, x)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("nil pool: MatVecPool differs at row %d", i)
		}
	}
}

// TestUnpooledKernelsDoNotAllocate: without a pool, the vec kernels and
// SpMV run serially at every size, so even large calls on a multi-core
// runtime start no goroutines and allocate nothing. testing.AllocsPerRun
// cannot show this: it pins GOMAXPROCS to 1.
func TestUnpooledKernelsDoNotAllocate(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 1 << 16
	x, y := vec.Ones(n), make([]float64, n)
	m := dominantCSR(3000, 30, 1)
	if m.NNZ() < 1<<16 {
		t.Fatalf("test matrix too sparse (%d nnz)", m.NNZ())
	}
	ax, dst := vec.Ones(m.Cols()), make([]float64, m.Rows())
	var sink float64
	for _, k := range []struct {
		name string
		call func()
	}{
		{"vec.Dot", func() { sink += vec.Dot(x, y) }},
		{"vec.Axpy", func() { vec.Axpy(0.5, x, y) }},
		{"vec.Scale", func() { vec.Scale(0.5, y) }},
		{"CSR.MatVec", func() { m.MatVec(dst, ax) }},
		{"CSR.MatVecPool(nil)", func() { m.MatVecPool(nil, dst, ax) }},
	} {
		// The runtime and the test framework may allocate on other
		// goroutines during a window; a kernel that allocates does so in
		// every window, so the best of three windows is its own count.
		var d uint64
		for trial := 0; trial < 3; trial++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < 20; i++ {
				k.call()
			}
			runtime.ReadMemStats(&after)
			if d = after.Mallocs - before.Mallocs; d == 0 {
				break
			}
		}
		if d != 0 {
			t.Errorf("%s: 20 calls at GOMAXPROCS 4 made %d allocations, want 0", k.name, d)
		}
	}
	_ = sink
}

// TestJacobiSolvePoolMatchesSerial: the pooled Jacobi iteration must produce
// the same iterates — hence the same solution bits and residual — as the
// serial solver.
func TestJacobiSolvePoolMatchesSerial(t *testing.T) {
	m := dominantCSR(2500, 30, 3)
	b := make([]float64, m.Rows())
	rng := rand.New(rand.NewSource(4))
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	xWant, relWant, errWant := JacobiSolve(m, b, 200, 1e-12)
	if errWant != nil {
		t.Fatalf("serial Jacobi failed: %v", errWant)
	}
	for _, w := range []int{2, 8} {
		p := kernel.New(w)
		xGot, relGot, errGot := JacobiSolvePool(p, m, b, 200, 1e-12)
		p.Close()
		if errGot != nil {
			t.Fatalf("workers=%d: pooled Jacobi failed: %v", w, errGot)
		}
		if math.Float64bits(relGot) != math.Float64bits(relWant) {
			t.Fatalf("workers=%d: residual differs: %v != %v", w, relGot, relWant)
		}
		for i := range xWant {
			if math.Float64bits(xGot[i]) != math.Float64bits(xWant[i]) {
				t.Fatalf("workers=%d: solution differs at %d", w, i)
			}
		}
	}
}
