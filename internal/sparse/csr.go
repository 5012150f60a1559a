// Package sparse implements the sparse-matrix substrate: a COO builder, the
// CSR operator used by every solver, the sparse matrix-vector product
// (serial, or on an internal/kernel pool), matrix norms (including the ‖A‖F
// fault-detection bound and a power-method ‖A‖₂ estimator), Matrix Market
// I/O, and the structural analysis behind Table I of the paper.
package sparse

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"sdcgmres/internal/kernel"
	"sdcgmres/internal/vec"
)

// Triplet is one COO entry.
type Triplet struct {
	Row, Col int
	Val      float64
}

// Builder accumulates triplets and assembles a CSR matrix. Duplicate
// coordinates are summed at assembly, the usual finite-element convention.
type Builder struct {
	rows, cols int
	entries    []Triplet
}

// NewBuilder returns an empty builder for an r-by-c matrix.
func NewBuilder(r, c int) *Builder {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("sparse.NewBuilder: negative dimension %dx%d", r, c))
	}
	return &Builder{rows: r, cols: c}
}

// Add appends the entry (i, j, v). Explicit zeros are kept so that matrices
// round-trip through Matrix Market files unchanged.
func (b *Builder) Add(i, j int, v float64) {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		panic(fmt.Sprintf("sparse.Builder.Add: (%d,%d) out of %dx%d", i, j, b.rows, b.cols))
	}
	b.entries = append(b.entries, Triplet{Row: i, Col: j, Val: v})
}

// Len returns the number of accumulated triplets.
func (b *Builder) Len() int { return len(b.entries) }

// Build assembles the CSR matrix, summing duplicates in insertion order.
//
// Assembly is a stable counting sort by column and then by row, so it
// costs O(nnz + rows + cols) whatever the row lengths; Matrix Market
// payloads are untrusted, and no input can make it quadratic.
func (b *Builder) Build() *CSR {
	ent := b.entries
	next := make([]int, max(b.rows, b.cols)+1)
	for _, e := range ent {
		next[e.Col+1]++
	}
	for j := 0; j < b.cols; j++ {
		next[j+1] += next[j]
	}
	byCol := make([]Triplet, len(ent))
	for _, e := range ent {
		byCol[next[e.Col]] = e
		next[e.Col]++
	}

	rowPtr := make([]int, b.rows+1)
	for _, e := range ent {
		rowPtr[e.Row+1]++
	}
	for i := 0; i < b.rows; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	copy(next, rowPtr[:b.rows])
	colIdx := make([]int, len(ent))
	val := make([]float64, len(ent))
	for _, e := range byCol {
		k := next[e.Row]
		colIdx[k], val[k] = e.Col, e.Val
		next[e.Row]++
	}

	// Sum duplicates in place: within a row they are now adjacent, in
	// insertion order.
	w := 0
	for i := 0; i < b.rows; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		rowPtr[i] = w
		for k := lo; k < hi; k++ {
			if w > rowPtr[i] && colIdx[w-1] == colIdx[k] {
				val[w-1] += val[k]
				continue
			}
			colIdx[w], val[w] = colIdx[k], val[k]
			w++
		}
	}
	rowPtr[b.rows] = w
	if w < len(colIdx) { // drop the merged duplicates' storage
		colIdx = append(make([]int, 0, w), colIdx[:w]...)
		val = append(make([]float64, 0, w), val[:w]...)
	}
	return &CSR{rows: b.rows, cols: b.cols, rowPtr: rowPtr, colIdx: colIdx, val: val}
}

// CSR is a compressed-sparse-row matrix. It is immutable after assembly;
// solvers treat it as a read-only operator, which makes concurrent SpMV
// trivially safe. Its norms are computed once and remembered.
type CSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	val        []float64

	norms normMemo
}

// normMemo remembers a matrix's FrobeniusNorm and Norm2Est results. Both
// are deterministic functions of the immutable entries, and every campaign
// unit and job on a matrix asks for them again. A matrix derived from
// another (Scale, ScaleRowsCols, Transpose) starts with an empty memo.
type normMemo struct {
	frobOnce sync.Once
	frob     float64

	mu  sync.Mutex // guards est; held while an estimate is computed
	est map[norm2Args]float64
}

// norm2Args are the arguments of one Norm2Est call.
type norm2Args struct {
	maxIter int
	tol     float64
}

// NewCSRFromTriplets is a convenience constructor.
func NewCSRFromTriplets(r, c int, ts []Triplet) *CSR {
	b := NewBuilder(r, c)
	for _, t := range ts {
		b.Add(t.Row, t.Col, t.Val)
	}
	return b.Build()
}

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.val) }

// At returns element (i, j) with a binary search over row i. It is meant
// for tests and small inspections, not inner loops.
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("sparse.At: (%d,%d) out of %dx%d", i, j, m.rows, m.cols))
	}
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	k := sort.SearchInts(m.colIdx[lo:hi], j) + lo
	if k < hi && m.colIdx[k] == j {
		return m.val[k]
	}
	return 0
}

// Row returns the column indices and values of row i, aliasing internal
// storage; callers must not modify them.
func (m *CSR) Row(i int) (cols []int, vals []float64) {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	return m.colIdx[lo:hi], m.val[lo:hi]
}

// spmvParallelThreshold is the nnz count below which MatVecPool runs the
// serial product: a pool dispatch costs more than it saves on a small one.
const spmvParallelThreshold = 1 << 16

// MatVec computes dst = A x serially on the caller's goroutine, at every
// size; MatVecPool is the parallel variant.
func (m *CSR) MatVec(dst, x []float64) {
	if len(x) != m.cols || len(dst) != m.rows {
		panic(fmt.Sprintf("sparse.MatVec: A is %dx%d, x[%d], dst[%d]", m.rows, m.cols, len(x), len(dst)))
	}
	m.matVecRange(dst, x, 0, m.rows)
}

// MatVecPool computes dst = A x on the kernel pool's persistent workers,
// partitioning rows by nnz balance (kernel.PartitionNNZ) so a few dense
// rows cannot serialize the product. Row partitions write disjoint outputs
// with serial per-row rounding, so the result is bit-identical to MatVec
// for every pool width — a nil pool, or a matrix below the parallel
// threshold, simply delegates to MatVec.
func (m *CSR) MatVecPool(p *kernel.Pool, dst, x []float64) {
	if len(x) != m.cols || len(dst) != m.rows {
		panic(fmt.Sprintf("sparse.MatVecPool: A is %dx%d, x[%d], dst[%d]", m.rows, m.cols, len(x), len(dst)))
	}
	w := p.Workers()
	if w <= 1 || m.NNZ() < spmvParallelThreshold {
		m.MatVec(dst, x)
		return
	}
	// Over-partition mildly so the dynamic claim evens out residual
	// imbalance; determinism is untouched (partitions stay row-disjoint).
	bounds := kernel.PartitionNNZ(m.rowPtr, 4*w)
	p.Run("spmv", m.rows, len(bounds)-1, func(part int) {
		m.matVecRange(dst, x, bounds[part], bounds[part+1])
	})
}

func (m *CSR) matVecRange(dst, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.val[k] * x[m.colIdx[k]]
		}
		dst[i] = s
	}
}

// MatTVec computes dst = Aᵀ x (serial scatter; transpose once with
// Transpose() if this is on a hot path).
func (m *CSR) MatTVec(dst, x []float64) {
	if len(x) != m.rows || len(dst) != m.cols {
		panic(fmt.Sprintf("sparse.MatTVec: A is %dx%d, x[%d], dst[%d]", m.rows, m.cols, len(x), len(dst)))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			dst[m.colIdx[k]] += m.val[k] * xi
		}
	}
}

// Transpose returns Aᵀ as a new CSR matrix.
func (m *CSR) Transpose() *CSR {
	t := &CSR{
		rows:   m.cols,
		cols:   m.rows,
		rowPtr: make([]int, m.cols+1),
		colIdx: make([]int, m.NNZ()),
		val:    make([]float64, m.NNZ()),
	}
	for _, j := range m.colIdx {
		t.rowPtr[j+1]++
	}
	for j := 0; j < t.rows; j++ {
		t.rowPtr[j+1] += t.rowPtr[j]
	}
	next := make([]int, t.rows)
	copy(next, t.rowPtr[:t.rows])
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			j := m.colIdx[k]
			p := next[j]
			next[j]++
			t.colIdx[p] = i
			t.val[p] = m.val[k]
		}
	}
	return t
}

// Diagonal returns a copy of the main diagonal.
func (m *CSR) Diagonal() []float64 {
	n := min(m.rows, m.cols)
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = m.At(i, i)
	}
	return d
}

// FrobeniusNorm returns ‖A‖F = sqrt(Σ a_ij²). Per Eq. (3) of the paper it is
// an upper bound on ‖A‖₂ and therefore on every upper-Hessenberg entry the
// Arnoldi process can legally produce; it is the default detector bound.
func (m *CSR) FrobeniusNorm() float64 {
	m.norms.frobOnce.Do(func() { m.norms.frob = vec.Norm2(m.val) })
	return m.norms.frob
}

// Norm1 returns the maximum absolute column sum.
func (m *CSR) Norm1() float64 {
	colSum := make([]float64, m.cols)
	for k, j := range m.colIdx {
		colSum[j] += math.Abs(m.val[k])
	}
	return vec.NormInf(colSum)
}

// NormInf returns the maximum absolute row sum.
func (m *CSR) NormInf() float64 {
	var best float64
	for i := 0; i < m.rows; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += math.Abs(m.val[k])
		}
		if s > best {
			best = s
		}
	}
	return best
}

// Norm2Est estimates ‖A‖₂ = σmax(A) by power iteration on AᵀA, which needs
// only MatVec/MatTVec. It runs until the estimate changes by less than tol
// relatively, or maxIter iterations. The deterministic seed vector makes the
// estimate reproducible, so m remembers it for the same arguments.
func (m *CSR) Norm2Est(maxIter int, tol float64) float64 {
	m.norms.mu.Lock()
	defer m.norms.mu.Unlock()
	args := norm2Args{maxIter, tol}
	if est, ok := m.norms.est[args]; ok {
		return est
	}
	est := m.norm2Est(maxIter, tol)
	if m.norms.est == nil {
		m.norms.est = make(map[norm2Args]float64)
	}
	m.norms.est[args] = est
	return est
}

// norm2Est is Norm2Est without the memo.
func (m *CSR) norm2Est(maxIter int, tol float64) float64 {
	if m.rows == 0 || m.cols == 0 || m.NNZ() == 0 {
		return 0
	}
	x := make([]float64, m.cols)
	for i := range x {
		// Deterministic, non-degenerate seed: varying signs avoid landing in
		// the orthogonal complement of the dominant singular vector.
		x[i] = 1 + 0.5*math.Sin(float64(i+1))
	}
	ax := make([]float64, m.rows)
	prev := 0.0
	for it := 0; it < maxIter; it++ {
		nx := vec.Norm2(x)
		if nx == 0 {
			return 0
		}
		vec.Scale(1/nx, x)
		m.MatVec(ax, x)
		m.MatTVec(x, ax)
		est := math.Sqrt(vec.Norm2(x))
		if prev > 0 && math.Abs(est-prev) <= tol*est {
			return est
		}
		prev = est
	}
	return prev
}

// Scale multiplies every stored entry by alpha, returning a new matrix.
func (m *CSR) Scale(alpha float64) *CSR {
	out := &CSR{rows: m.rows, cols: m.cols, rowPtr: m.rowPtr, colIdx: m.colIdx, val: make([]float64, len(m.val))}
	for i, v := range m.val {
		out.val[i] = alpha * v
	}
	return out
}

// Triplets returns the stored entries in row-major order.
func (m *CSR) Triplets() []Triplet {
	ts := make([]Triplet, 0, m.NNZ())
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			ts = append(ts, Triplet{Row: i, Col: m.colIdx[k], Val: m.val[k]})
		}
	}
	return ts
}

// Dense expands the matrix to a row-major dense buffer (rows*cols floats),
// for tests on small matrices.
func (m *CSR) Dense() []float64 {
	d := make([]float64, m.rows*m.cols)
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			d[i*m.cols+m.colIdx[k]] = m.val[k]
		}
	}
	return d
}
