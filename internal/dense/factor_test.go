package dense

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sdcgmres/internal/vec"
)

// --- Givens ---

func TestMakeGivensAnnihilates(t *testing.T) {
	cases := [][2]float64{{3, 4}, {0, 5}, {5, 0}, {0, 0}, {-2, 7}, {1e-200, 1e-200}, {1e200, -1e200}}
	for _, c := range cases {
		g, r := MakeGivens(c[0], c[1])
		ra, rb := g.Apply(c[0], c[1])
		if math.Abs(rb) > 1e-12*math.Max(1, math.Abs(r)) {
			t.Fatalf("MakeGivens(%g,%g): b not annihilated: %g", c[0], c[1], rb)
		}
		if math.Abs(ra-r) > 1e-12*math.Max(1, math.Abs(r)) {
			t.Fatalf("MakeGivens(%g,%g): r mismatch %g vs %g", c[0], c[1], ra, r)
		}
	}
}

func TestGivensPreservesNormProperty(t *testing.T) {
	f := func(a, b, x, y float64) bool {
		for _, v := range []*float64{&a, &b, &x, &y} {
			if math.IsNaN(*v) || math.IsInf(*v, 0) || math.Abs(*v) > 1e100 {
				*v = 1
			}
		}
		g, _ := MakeGivens(a, b)
		rx, ry := g.Apply(x, y)
		before := math.Hypot(x, y)
		after := math.Hypot(rx, ry)
		return math.Abs(before-after) <= 1e-10*(1+before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestGivensInverse(t *testing.T) {
	g, _ := MakeGivens(3, -4)
	x, y := 1.5, -2.5
	rx, ry := g.Apply(x, y)
	bx, by := g.ApplyInverse(rx, ry)
	if math.Abs(bx-x) > 1e-14 || math.Abs(by-y) > 1e-14 {
		t.Fatalf("ApplyInverse not inverse: (%g,%g)", bx, by)
	}
}

func TestGivensApplyRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	g, r := MakeGivens(m.At(0, 0), m.At(1, 0))
	g.ApplyRows(m, 0, 1, 0)
	if math.Abs(m.At(1, 0)) > 1e-14 {
		t.Fatalf("ApplyRows did not annihilate: %g", m.At(1, 0))
	}
	if math.Abs(m.At(0, 0)-r) > 1e-14 {
		t.Fatalf("ApplyRows r mismatch: %g vs %g", m.At(0, 0), r)
	}
}

// --- Triangular solves ---

func TestSolveUpperTriangular(t *testing.T) {
	r := FromRows([][]float64{{2, 1, 0}, {0, 3, 1}, {0, 0, 4}})
	y := []float64{1, 2, 3}
	z := make([]float64, 3)
	r.MatVec(z, y)
	got := SolveUpperTriangular(r, z)
	for i := range y {
		if math.Abs(got[i]-y[i]) > 1e-13 {
			t.Fatalf("SolveUpperTriangular = %v", got)
		}
	}
}

func TestSolveUpperTriangularSingularGivesNonFinite(t *testing.T) {
	r := FromRows([][]float64{{1, 1}, {0, 0}})
	y := SolveUpperTriangular(r, []float64{1, 1})
	if vec.AllFinite(y) {
		t.Fatalf("singular solve returned finite %v", y)
	}
}

func TestSolveLowerTriangular(t *testing.T) {
	l := FromRows([][]float64{{2, 0}, {1, 3}})
	y := []float64{1, -1}
	z := make([]float64, 2)
	l.MatVec(z, y)
	got := SolveLowerTriangular(l, z)
	for i := range y {
		if math.Abs(got[i]-y[i]) > 1e-13 {
			t.Fatalf("SolveLowerTriangular = %v", got)
		}
	}
}

func TestTriangularConditionEst(t *testing.T) {
	r := FromRows([][]float64{{4, 1}, {0, 2}})
	if got := TriangularConditionEst(r, 2); got != 2 {
		t.Fatalf("cond est = %g", got)
	}
	r.Set(1, 1, 0)
	if !math.IsInf(TriangularConditionEst(r, 2), 1) {
		t.Fatal("zero pivot should give +Inf")
	}
	if TriangularConditionEst(r, 0) != 1 {
		t.Fatal("empty block should give 1")
	}
}

// --- QR ---

func TestQRReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, dims := range [][2]int{{5, 5}, {8, 3}, {10, 7}} {
		m, n := dims[0], dims[1]
		a := randomMatrix(rng, m, n)
		f := ComputeQR(a)
		r := f.R()
		// Rebuild A column by column: A e_j = Q (R e_j extended with zeros).
		for j := 0; j < n; j++ {
			w := make([]float64, m)
			for i := 0; i <= j; i++ {
				w[i] = r.At(i, j)
			}
			f.QVec(w)
			for i := 0; i < m; i++ {
				if math.Abs(w[i]-a.At(i, j)) > 1e-12 {
					t.Fatalf("QR reconstruction (%dx%d) col %d row %d: %g vs %g", m, n, j, i, w[i], a.At(i, j))
				}
			}
		}
	}
}

func TestQROrthogonality(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := randomMatrix(rng, 7, 7)
	f := ComputeQR(a)
	x := make([]float64, 7)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	w := vec.Clone(x)
	f.QTVec(w)
	f.QVec(w)
	for i := range x {
		if math.Abs(w[i]-x[i]) > 1e-12 {
			t.Fatalf("Q Qᵀ x != x at %d: %g vs %g", i, w[i], x[i])
		}
	}
	if math.Abs(vec.Norm2(w)-vec.Norm2(x)) > 1e-12 {
		t.Fatal("Q not isometric")
	}
}

func TestQRSolveLSQConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := randomMatrix(rng, 9, 4)
	truth := []float64{1, -2, 0.5, 3}
	b := make([]float64, 9)
	a.MatVec(b, truth)
	got := f64s(ComputeQR(a).SolveLSQ(b))
	for i := range truth {
		if math.Abs(got[i]-truth[i]) > 1e-10 {
			t.Fatalf("QR LSQ = %v", got)
		}
	}
}

func f64s(x []float64) []float64 { return x }

// --- SVD ---

func TestSVDDiagonal(t *testing.T) {
	a := FromRows([][]float64{{3, 0}, {0, -4}})
	s := ComputeSVD(a)
	if math.Abs(s.S[0]-4) > 1e-13 || math.Abs(s.S[1]-3) > 1e-13 {
		t.Fatalf("singular values = %v", s.S)
	}
}

func TestSVDReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, dims := range [][2]int{{6, 6}, {9, 4}, {4, 9}, {1, 1}, {5, 1}} {
		a := randomMatrix(rng, dims[0], dims[1])
		s := ComputeSVD(a)
		// Rebuild U diag(S) Vᵀ.
		us := s.U.Clone()
		for j := 0; j < us.Cols; j++ {
			for i := 0; i < us.Rows; i++ {
				us.Set(i, j, us.At(i, j)*s.S[j])
			}
		}
		rec := us.Mul(s.V.Transpose())
		if !rec.Equalish(a, 1e-10) {
			t.Fatalf("SVD reconstruction failed for %dx%d", dims[0], dims[1])
		}
		// Sorted descending.
		for i := 1; i < len(s.S); i++ {
			if s.S[i] > s.S[i-1]+1e-14 {
				t.Fatalf("singular values not sorted: %v", s.S)
			}
		}
	}
}

func TestSVDOrthogonality(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a := randomMatrix(rng, 8, 5)
	s := ComputeSVD(a)
	utu := s.U.Transpose().Mul(s.U)
	if !utu.Equalish(Identity(5), 1e-10) {
		t.Fatal("Uᵀ U != I")
	}
	vtv := s.V.Transpose().Mul(s.V)
	if !vtv.Equalish(Identity(5), 1e-10) {
		t.Fatal("Vᵀ V != I")
	}
}

func TestSVDRankDeficient(t *testing.T) {
	// Rank-1 matrix from an outer product.
	a := NewMatrix(5, 3)
	u := []float64{1, 2, 3, 4, 5}
	v := []float64{1, -1, 2}
	for i := 0; i < 5; i++ {
		for j := 0; j < 3; j++ {
			a.Set(i, j, u[i]*v[j])
		}
	}
	s := ComputeSVD(a)
	if s.Rank(1e-10) != 1 {
		t.Fatalf("rank = %d, S = %v", s.Rank(1e-10), s.S)
	}
	if !math.IsInf(s.Cond2(), 1) && s.Cond2() < 1e12 {
		t.Fatalf("expected huge condition number, got %g", s.Cond2())
	}
}

func TestSVDSingularValuesMatchQRDiagonalForTriangular(t *testing.T) {
	// For a triangular matrix with orthogonal-ish structure the product of
	// singular values must equal |det| = |prod of diagonal entries|.
	r := FromRows([][]float64{{2, 1, 3}, {0, 0.5, -1}, {0, 0, 4}})
	s := ComputeSVD(r)
	prod := 1.0
	for _, sv := range s.S {
		prod *= sv
	}
	if math.Abs(prod-4.0) > 1e-10 {
		t.Fatalf("prod of singular values %g != |det| 4", prod)
	}
}

func TestSolveMinNormExactSystem(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := randomMatrix(rng, 6, 6)
	truth := []float64{1, 2, 3, 4, 5, 6}
	b := make([]float64, 6)
	a.MatVec(b, truth)
	got := SolveSVD(a, b, 1e-14)
	for i := range truth {
		if math.Abs(got[i]-truth[i]) > 1e-9 {
			t.Fatalf("SolveSVD = %v", got)
		}
	}
}

func TestSolveMinNormBoundedOnSingularSystem(t *testing.T) {
	// Singular system: plain triangular solve would blow up; the truncated
	// SVD solve must stay bounded — that is the paper's whole point about
	// regularizing the projected problem.
	a := FromRows([][]float64{{1, 1}, {1, 1}})
	b := []float64{1, 1}
	y := SolveSVD(a, b, 1e-12)
	if !vec.AllFinite(y) {
		t.Fatalf("truncated solve not finite: %v", y)
	}
	if vec.Norm2(y) > 10 {
		t.Fatalf("truncated solve not bounded: %v", y)
	}
	// And it should still (least-squares) fit: A y ≈ b.
	r := make([]float64, 2)
	a.MatVec(r, y)
	if math.Abs(r[0]-1) > 1e-10 || math.Abs(r[1]-1) > 1e-10 {
		t.Fatalf("residual too large: %v", r)
	}
}

func TestSVDPropertyNormEqualsLargestSingularValue(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomMatrix(rng, 5, 5)
		s := ComputeSVD(a)
		// ‖A x‖ <= σmax ‖x‖ for random probes.
		x := make([]float64, 5)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		ax := make([]float64, 5)
		a.MatVec(ax, x)
		return vec.Norm2(ax) <= s.S[0]*vec.Norm2(x)*(1+1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// --- HessLSQ ---

// buildHess produces a random (k+1)-by-k Hessenberg column sequence and
// feeds it through HessLSQ, returning the solver and the raw columns.
func buildHess(rng *rand.Rand, k int, beta float64) (*HessLSQ, [][]float64) {
	l := NewHessLSQ(k, beta)
	cols := make([][]float64, k)
	for j := 0; j < k; j++ {
		col := make([]float64, j+2)
		for i := range col {
			col[i] = rng.NormFloat64()
		}
		// Keep the subdiagonal comfortably nonzero so the triangular factor
		// stays well conditioned in these tests.
		col[j+1] = 1 + math.Abs(col[j+1])
		cols[j] = col
		l.AppendColumn(col)
	}
	return l, cols
}

func TestHessLSQMatchesDirectLeastSquares(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, k := range []int{1, 2, 5, 12} {
		beta := 2.5
		l, _ := buildHess(rng, k, beta)
		h := l.HColumnwise()
		// Direct dense solution via Householder QR on the (k+1)-by-k H.
		rhs := make([]float64, k+1)
		rhs[0] = beta
		want := ComputeQR(h).SolveLSQ(rhs)
		got := l.SolveTriangular()
		for i := 0; i < k; i++ {
			if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("k=%d: incremental %v vs direct %v", k, got, want)
			}
		}
		// Residual norms must agree too.
		res := make([]float64, k+1)
		h.MatVec(res, want)
		res[0] -= beta
		for i := 1; i < k+1; i++ {
			// res = H y - beta e1 (negated beta already applied to entry 0)
			_ = i
		}
		direct := vec.Norm2(res)
		if math.Abs(l.ResidualNorm()-direct) > 1e-9*(1+direct) {
			t.Fatalf("k=%d: residual %g vs direct %g", k, l.ResidualNorm(), direct)
		}
	}
}

func TestHessLSQResidualMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	l := NewHessLSQ(10, 1)
	prev := math.Inf(1)
	for j := 0; j < 10; j++ {
		col := make([]float64, j+2)
		for i := range col {
			col[i] = rng.NormFloat64()
		}
		r := l.AppendColumn(col)
		if r > prev+1e-14 {
			t.Fatalf("projected residual increased: %g -> %g at j=%d", prev, r, j)
		}
		prev = r
	}
}

func TestHessLSQRankRevealingAgreesWhenWellConditioned(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	l, _ := buildHess(rng, 6, 1.7)
	tri := l.SolveTriangular()
	rr := l.SolveRankRevealing(1e-14)
	for i := range tri {
		if math.Abs(tri[i]-rr[i]) > 1e-8*(1+math.Abs(tri[i])) {
			t.Fatalf("policies disagree on well-conditioned system: %v vs %v", tri, rr)
		}
	}
}

func TestHessLSQRankRevealingBoundedOnSingular(t *testing.T) {
	// Construct a Hessenberg sequence whose triangular factor becomes
	// numerically singular (second column parallel to first).
	l := NewHessLSQ(2, 1)
	l.AppendColumn([]float64{1, 1})
	l.AppendColumn([]float64{1, 1, 0})
	tri := l.SolveTriangular()
	if vec.AllFinite(tri) && vec.Norm2(tri) < 1e12 {
		t.Fatalf("expected blow-up from plain triangular solve, got %v (cond %g)", tri, l.RCondEst())
	}
	rr := l.SolveRankRevealing(1e-10)
	if !vec.AllFinite(rr) || vec.Norm2(rr) > 1e6 {
		t.Fatalf("rank-revealing solve not bounded: %v", rr)
	}
}

func TestHessLSQCondEstimates(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	l, _ := buildHess(rng, 5, 1)
	est := l.RCondEst()
	svd := l.RCondSVD()
	if est < 1 || svd < 1 {
		t.Fatalf("condition numbers below 1: est %g, svd %g", est, svd)
	}
	// The diagonal-ratio estimate must not exceed the true condition number
	// by definition (it is a lower bound).
	if est > svd*(1+1e-10) {
		t.Fatalf("diag estimate %g exceeds true cond %g", est, svd)
	}
}

func TestHessLSQLastSubdiag(t *testing.T) {
	l := NewHessLSQ(3, 1)
	if !math.IsNaN(l.LastSubdiag()) {
		t.Fatal("LastSubdiag before any column should be NaN")
	}
	l.AppendColumn([]float64{2, 0.25})
	if l.LastSubdiag() != 0.25 {
		t.Fatalf("LastSubdiag = %g", l.LastSubdiag())
	}
}

func TestHessLSQAppendPastMaxPanics(t *testing.T) {
	l := NewHessLSQ(1, 1)
	l.AppendColumn([]float64{1, 1})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic past maxIter")
		}
	}()
	l.AppendColumn([]float64{1, 1, 1})
}

func TestHessLSQWrongColumnLengthPanics(t *testing.T) {
	l := NewHessLSQ(3, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for wrong column length")
		}
	}()
	l.AppendColumn([]float64{1, 1, 1})
}

func BenchmarkJacobiSVD(b *testing.B) {
	for _, n := range []int{10, 25, 50} {
		b.Run(sizeTag(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(55))
			a := randomMatrix(rng, n, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = ComputeSVD(a)
			}
		})
	}
}

func BenchmarkHessLSQAppend(b *testing.B) {
	rng := rand.New(rand.NewSource(56))
	cols := make([][]float64, 50)
	for j := range cols {
		cols[j] = make([]float64, j+2)
		for i := range cols[j] {
			cols[j][i] = rng.NormFloat64()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := NewHessLSQ(50, 1)
		for _, c := range cols {
			l.AppendColumn(c)
		}
	}
}

func sizeTag(n int) string {
	switch {
	case n >= 50:
		return "k50"
	case n >= 25:
		return "k25"
	default:
		return "k10"
	}
}

// TestHessLSQResetAllocatesNothing: a reset HessLSQ of the same size
// appends and solves on its own storage. Every column allocated before
// Reset existed.
func TestHessLSQResetAllocatesNothing(t *testing.T) {
	const k = 10
	l, cols := buildHess(rand.New(rand.NewSource(44)), k, 1.5)
	allocs := testing.AllocsPerRun(20, func() {
		l.Reset(k, 1.5)
		for _, c := range cols {
			l.AppendColumn(c)
		}
		l.SolveTriangular()
	})
	if allocs != 0 {
		t.Fatalf("Reset + %d AppendColumn + SolveTriangular: %v allocations, want 0", k, allocs)
	}
}

// TestHessLSQResetMatchesFresh: a HessLSQ reset after a larger solve, with
// every buffer it keeps filled with NaN, gives the bits a new one gives.
func TestHessLSQResetMatchesFresh(t *testing.T) {
	const k = 8
	rng := rand.New(rand.NewSource(45))
	used, _ := buildHess(rng, k, 3)
	_, cols := buildHess(rng, k, 2)
	nan := math.NaN()
	for _, buf := range [][]float64{used.h.Data, used.r.Data, used.g, used.above[:cap(used.above)],
		used.y[:cap(used.y)], used.ice.xmin[:cap(used.ice.xmin)], used.ice.xmax[:cap(used.ice.xmax)]} {
		for i := range buf {
			buf[i] = nan
		}
	}
	fresh := NewHessLSQ(k, 2)
	used.Reset(k, 2)
	for j := 0; j < k-2; j++ { // leave the last columns unwritten
		if a, b := used.AppendColumn(cols[j]), fresh.AppendColumn(cols[j]); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("column %d: residual %g, want %g", j, a, b)
		}
	}
	same := func(what string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s[%d] = %g, want %g", what, i, got[i], want[i])
			}
		}
	}
	same("H", used.HColumnwise().Data, fresh.HColumnwise().Data)
	same("SolveTriangular", used.SolveTriangular(), fresh.SolveTriangular())
	same("SolveRankRevealing", used.SolveRankRevealing(1e-12), fresh.SolveRankRevealing(1e-12))
	same("conditions", []float64{used.RCondICE(), used.RCondSVD(), used.RCondEst(), used.ResidualNorm()},
		[]float64{fresh.RCondICE(), fresh.RCondSVD(), fresh.RCondEst(), fresh.ResidualNorm()})
}
