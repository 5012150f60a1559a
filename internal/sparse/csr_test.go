package sparse

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"sdcgmres/internal/vec"
)

func small() *CSR {
	// | 1 0 2 |
	// | 0 3 0 |
	// | 4 0 5 |
	return NewCSRFromTriplets(3, 3, []Triplet{
		{0, 0, 1}, {0, 2, 2}, {1, 1, 3}, {2, 0, 4}, {2, 2, 5},
	})
}

func randomCSR(rng *rand.Rand, r, c int, density float64) *CSR {
	b := NewBuilder(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rng.Float64() < density {
				b.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	m := small()
	if m.Rows() != 3 || m.Cols() != 3 || m.NNZ() != 5 {
		t.Fatalf("shape %dx%d nnz %d", m.Rows(), m.Cols(), m.NNZ())
	}
	if m.At(0, 2) != 2 || m.At(2, 0) != 4 || m.At(1, 0) != 0 {
		t.Fatal("At returned wrong values")
	}
}

func TestBuilderSumsDuplicates(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 0, 1)
	b.Add(0, 0, 2.5)
	b.Add(1, 1, -1)
	m := b.Build()
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2 after merging", m.NNZ())
	}
	if m.At(0, 0) != 3.5 {
		t.Fatalf("duplicate sum = %g", m.At(0, 0))
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	b := NewBuilder(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range Add")
		}
	}()
	b.Add(2, 0, 1)
}

func TestBuilderUnsortedInput(t *testing.T) {
	b := NewBuilder(2, 3)
	b.Add(1, 2, 6)
	b.Add(0, 1, 2)
	b.Add(1, 0, 4)
	b.Add(0, 0, 1)
	m := b.Build()
	want := []float64{1, 2, 0, 4, 0, 6}
	got := m.Dense()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Dense = %v, want %v", got, want)
		}
	}
}

// buildBySort is the comparison-sort assembly Builder.Build replaced: a
// stable sort by (row, col), then an in-order duplicate merge. It stays
// here as the reference the counting-sort assembly must match bit for bit.
func buildBySort(b *Builder) *CSR {
	ent := make([]Triplet, len(b.entries))
	copy(ent, b.entries)
	sort.SliceStable(ent, func(a, c int) bool {
		if ent[a].Row != ent[c].Row {
			return ent[a].Row < ent[c].Row
		}
		return ent[a].Col < ent[c].Col
	})
	w := 0
	for r := 0; r < len(ent); r++ {
		if w > 0 && ent[w-1].Row == ent[r].Row && ent[w-1].Col == ent[r].Col {
			ent[w-1].Val += ent[r].Val
			continue
		}
		ent[w] = ent[r]
		w++
	}
	ent = ent[:w]
	m := &CSR{
		rows:   b.rows,
		cols:   b.cols,
		rowPtr: make([]int, b.rows+1),
		colIdx: make([]int, len(ent)),
		val:    make([]float64, len(ent)),
	}
	for i, e := range ent {
		m.rowPtr[e.Row+1]++
		m.colIdx[i] = e.Col
		m.val[i] = e.Val
	}
	for i := 0; i < b.rows; i++ {
		m.rowPtr[i+1] += m.rowPtr[i]
	}
	return m
}

// sameBits reports whether two CSRs have identical shape, structure and
// value bits.
func sameBits(a, b *CSR) bool {
	if a.rows != b.rows || a.cols != b.cols || len(a.rowPtr) != len(b.rowPtr) ||
		len(a.colIdx) != len(b.colIdx) || len(a.val) != len(b.val) {
		return false
	}
	for i := range a.rowPtr {
		if a.rowPtr[i] != b.rowPtr[i] {
			return false
		}
	}
	for k := range a.colIdx {
		if a.colIdx[k] != b.colIdx[k] || math.Float64bits(a.val[k]) != math.Float64bits(b.val[k]) {
			return false
		}
	}
	return true
}

// randomBuilder draws triplets on a small coordinate range, so duplicates
// are common, with magnitudes spread wide enough that summing them in any
// other order changes the result's bits.
func randomBuilder(rng *rand.Rand) *Builder {
	r, c := rng.Intn(40), rng.Intn(40)
	b := NewBuilder(r, c)
	if r == 0 || c == 0 {
		return b
	}
	n := rng.Intn(4 * (r + c))
	for k := 0; k < n; k++ {
		i, j := rng.Intn(r), rng.Intn(c)
		if rng.Intn(3) == 0 { // crowd one row
			i = 0
		}
		b.Add(i, j, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(33)-16)))
	}
	return b
}

func TestBuildMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		b := randomBuilder(rng)
		got, want := b.Build(), buildBySort(b)
		if !sameBits(got, want) {
			t.Fatalf("trial %d (%dx%d, %d triplets): counting-sort assembly differs from the sort reference",
				trial, b.rows, b.cols, b.Len())
		}
		if cap(got.colIdx) != got.NNZ() || cap(got.val) != got.NNZ() {
			t.Fatalf("trial %d: storage capacity %d/%d for nnz %d", trial, cap(got.colIdx), cap(got.val), got.NNZ())
		}
	}
}

// BenchmarkBuild assembles a 2000-row matrix whose rows hold up to a few
// hundred unsorted entries with duplicates, by the counting sort and by
// the comparison-sort reference.
func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 2000
	bld := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		deg := 2 + rng.Intn(8)
		if i%50 == 0 {
			deg = 400 // a few dense rows, like circuit supply nets
		}
		for k := 0; k < deg; k++ {
			j := rng.Intn(n)
			bld.Add(i, j, 1)
			bld.Add(j, i, 1)
			bld.Add(i, i, -1)
		}
	}
	b.Run("counting", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bld.Build()
		}
	})
	b.Run("sort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buildBySort(bld)
		}
	})
}

func TestMatVecSmall(t *testing.T) {
	m := small()
	x := []float64{1, 2, 3}
	dst := make([]float64, 3)
	m.MatVec(dst, x)
	want := []float64{7, 6, 19}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("MatVec = %v, want %v", dst, want)
		}
	}
}

func TestMatVecMatchesDenseReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(20)
		c := 1 + rng.Intn(20)
		m := randomCSR(rng, r, c, 0.3)
		x := make([]float64, c)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := make([]float64, r)
		m.MatVec(got, x)
		d := m.Dense()
		for i := 0; i < r; i++ {
			var s float64
			for j := 0; j < c; j++ {
				s += d[i*c+j] * x[j]
			}
			if math.Abs(s-got[i]) > 1e-12*(1+math.Abs(s)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMatTVecAgainstTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := randomCSR(rng, 15, 9, 0.4)
	x := make([]float64, 15)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := make([]float64, 9)
	m.MatTVec(got, x)
	want := make([]float64, 9)
	m.Transpose().MatVec(want, x)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("MatTVec mismatch at %d", i)
		}
	}
}

func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomCSR(rng, 1+rng.Intn(12), 1+rng.Intn(12), 0.35)
		tt := m.Transpose().Transpose()
		if tt.Rows() != m.Rows() || tt.Cols() != m.Cols() || tt.NNZ() != m.NNZ() {
			return false
		}
		a, b := m.Dense(), tt.Dense()
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDiagonal(t *testing.T) {
	d := small().Diagonal()
	want := []float64{1, 3, 5}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("Diagonal = %v", d)
		}
	}
}

func TestNorms(t *testing.T) {
	m := small()
	// Frobenius: sqrt(1+4+9+16+25) = sqrt(55).
	if math.Abs(m.FrobeniusNorm()-math.Sqrt(55)) > 1e-14 {
		t.Fatalf("FrobeniusNorm = %g", m.FrobeniusNorm())
	}
	// Norm1: max col sum = col0: 1+4=5, col1: 3, col2: 2+5=7 → 7.
	if m.Norm1() != 7 {
		t.Fatalf("Norm1 = %g", m.Norm1())
	}
	// NormInf: max row sum = row2: 9.
	if m.NormInf() != 9 {
		t.Fatalf("NormInf = %g", m.NormInf())
	}
}

func TestNorm2EstDiagonal(t *testing.T) {
	m := NewCSRFromTriplets(3, 3, []Triplet{{0, 0, 2}, {1, 1, -7}, {2, 2, 3}})
	got := m.Norm2Est(200, 1e-12)
	if math.Abs(got-7) > 1e-6 {
		t.Fatalf("Norm2Est = %g, want 7", got)
	}
}

func TestNorm2EstBounds(t *testing.T) {
	// σmax <= ‖A‖F always; power method must respect that and also
	// lower-bound: ‖A‖₂ >= max |a_ij| for any unit basis pair... use
	// Frobenius/sqrt(rank) lower bound instead: just check est <= F + tol.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomCSR(rng, 2+rng.Intn(10), 2+rng.Intn(10), 0.4)
		if m.NNZ() == 0 {
			return true
		}
		est := m.Norm2Est(300, 1e-10)
		return est <= m.FrobeniusNorm()*(1+1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestScaleCSR(t *testing.T) {
	m := small().Scale(2)
	if m.At(2, 2) != 10 {
		t.Fatalf("Scale: %g", m.At(2, 2))
	}
	if small().At(2, 2) != 5 {
		t.Fatal("Scale must not mutate input")
	}
}

func TestTripletsRoundTrip(t *testing.T) {
	m := small()
	m2 := NewCSRFromTriplets(m.Rows(), m.Cols(), m.Triplets())
	a, b := m.Dense(), m2.Dense()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Triplets round trip failed")
		}
	}
}

func TestMatVecDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for dim mismatch")
		}
	}()
	small().MatVec(make([]float64, 3), make([]float64, 2))
}

func TestNorm2EstConsistentWithMatVec(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randomCSR(rng, 30, 30, 0.2)
	est := m.Norm2Est(500, 1e-12)
	// Check ‖Ax‖ <= est*‖x‖*(1+slack) on random probes.
	for trial := 0; trial < 20; trial++ {
		x := make([]float64, 30)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		ax := make([]float64, 30)
		m.MatVec(ax, x)
		if vec.Norm2(ax) > est*vec.Norm2(x)*(1+1e-6) {
			t.Fatalf("‖Ax‖=%g exceeds est*‖x‖=%g", vec.Norm2(ax), est*vec.Norm2(x))
		}
	}
}

func BenchmarkSpMV(b *testing.B) {
	rng := rand.New(rand.NewSource(77))
	n := 20000
	bld := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		bld.Add(i, i, 4)
		if i > 0 {
			bld.Add(i, i-1, -1+0.01*rng.Float64())
		}
		if i < n-1 {
			bld.Add(i, i+1, -1)
		}
	}
	m := bld.Build()
	x := vec.Ones(n)
	dst := make([]float64, n)
	b.SetBytes(int64(m.NNZ() * 12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MatVec(dst, x)
	}
}

// TestNormsRememberedPerMatrix: a matrix answers repeated norm queries
// with the bits it computed first, keeps estimates with different
// arguments apart, and a matrix derived from it computes its own.
func TestNormsRememberedPerMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := randomCSR(rng, 30, 30, 0.2)
	fresh := func() *CSR { return NewCSRFromTriplets(m.Rows(), m.Cols(), m.Triplets()) }
	same := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s = %g, want %g", what, got, want)
		}
	}
	same("FrobeniusNorm", m.FrobeniusNorm(), fresh().FrobeniusNorm())
	same("repeated FrobeniusNorm", m.FrobeniusNorm(), fresh().FrobeniusNorm())
	same("Norm2Est(300)", m.Norm2Est(300, 1e-8), fresh().Norm2Est(300, 1e-8))
	same("Norm2Est(2)", m.Norm2Est(2, 1e-8), fresh().Norm2Est(2, 1e-8))
	same("repeated Norm2Est(300)", m.Norm2Est(300, 1e-8), fresh().Norm2Est(300, 1e-8))
	if m.Norm2Est(2, 1e-8) == m.Norm2Est(300, 1e-8) {
		t.Fatal("estimates with different iteration caps were not kept apart")
	}
	s := m.Scale(3)
	scaled := fresh().Scale(3)
	same("scaled FrobeniusNorm", s.FrobeniusNorm(), NewCSRFromTriplets(30, 30, scaled.Triplets()).FrobeniusNorm())
	same("scaled Norm2Est", s.Norm2Est(300, 1e-8), NewCSRFromTriplets(30, 30, scaled.Triplets()).Norm2Est(300, 1e-8))
}
