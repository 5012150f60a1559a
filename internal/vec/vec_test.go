package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return diff <= tol*scale
}

func TestNewAndFill(t *testing.T) {
	x := New(5)
	if len(x) != 5 {
		t.Fatalf("New(5) length = %d", len(x))
	}
	for _, v := range x {
		if v != 0 {
			t.Fatalf("New returned non-zero vector: %v", x)
		}
	}
	Fill(x, 3.5)
	for _, v := range x {
		if v != 3.5 {
			t.Fatalf("Fill(3.5) produced %v", x)
		}
	}
}

func TestOnes(t *testing.T) {
	x := Ones(7)
	for i, v := range x {
		if v != 1 {
			t.Fatalf("Ones()[%d] = %g", i, v)
		}
	}
}

func TestBasis(t *testing.T) {
	e := Basis(4, 2)
	want := []float64{0, 0, 1, 0}
	for i := range e {
		if e[i] != want[i] {
			t.Fatalf("Basis(4,2) = %v", e)
		}
	}
}

func TestBasisPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Basis(3,5) did not panic")
		}
	}()
	Basis(3, 5)
}

func TestCloneIndependence(t *testing.T) {
	x := []float64{1, 2, 3}
	y := Clone(x)
	y[0] = 99
	if x[0] != 1 {
		t.Fatal("Clone aliases original storage")
	}
}

func TestCopyLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Copy with mismatched lengths did not panic")
		}
	}()
	Copy(make([]float64, 2), make([]float64, 3))
}

func TestDotSmall(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if got := Dot(x, y); got != 32 {
		t.Fatalf("Dot = %g, want 32", got)
	}
}

func TestDotEmpty(t *testing.T) {
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %g", got)
	}
}

func TestDotMatchesNaiveWithinTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 10007
	x := make([]float64, n)
	y := make([]float64, n)
	var naive float64
	for i := range x {
		x[i] = rng.Float64() - 0.5
		y[i] = rng.Float64() - 0.5
		naive += x[i] * y[i]
	}
	if got := Dot(x, y); !almostEqual(got, naive, 1e-12) {
		t.Fatalf("Dot = %g, naive = %g", got, naive)
	}
}

func TestDotPropertySymmetric(t *testing.T) {
	f := func(a, b []float64) bool {
		n := min(len(a), len(b))
		x, y := Clone(a[:n]), Clone(b[:n])
		for i := range x {
			// Avoid overflowing products: Inf-Inf in the accumulator gives
			// NaN, and NaN != NaN would be a spurious failure.
			if math.IsNaN(x[i]) || math.Abs(x[i]) > 1e150 {
				x[i] = 1
			}
			if math.IsNaN(y[i]) || math.Abs(y[i]) > 1e150 {
				y[i] = 1
			}
		}
		return Dot(x, y) == Dot(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDotPropertyLinear(t *testing.T) {
	f := func(raw []float64, alphaRaw int8) bool {
		alpha := float64(alphaRaw)
		n := len(raw) / 2
		x, y := Clone(raw[:n]), Clone(raw[n:2*n])
		for i := range x {
			// Keep values bounded so the linearity check is not drowned
			// in rounding noise from wild magnitudes.
			if math.IsNaN(x[i]) || math.IsInf(x[i], 0) || math.Abs(x[i]) > 1e6 {
				x[i] = 1
			}
			if math.IsNaN(y[i]) || math.IsInf(y[i], 0) || math.Abs(y[i]) > 1e6 {
				y[i] = 1
			}
		}
		ax := Clone(x)
		Scale(alpha, ax)
		return almostEqual(Dot(ax, y), alpha*Dot(x, y), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNorm2KnownValues(t *testing.T) {
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Fatalf("Norm2(3,4) = %g", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Fatalf("Norm2(nil) = %g", got)
	}
}

func TestNorm2AvoidsOverflow(t *testing.T) {
	x := []float64{1e308, 1e308}
	got := Norm2(x)
	if math.IsInf(got, 0) || !almostEqual(got, 1e308*math.Sqrt2, 1e-12) {
		t.Fatalf("Norm2 overflow-prone: %g", got)
	}
}

func TestNorm2AvoidsUnderflow(t *testing.T) {
	x := []float64{1e-300, 1e-300}
	got := Norm2(x)
	if got == 0 || !almostEqual(got, 1e-300*math.Sqrt2, 1e-12) {
		t.Fatalf("Norm2 underflow-prone: %g", got)
	}
}

func TestNorm2PropertyScaling(t *testing.T) {
	f := func(raw []float64, s int8) bool {
		x := Clone(raw)
		for i := range x {
			if math.IsNaN(x[i]) || math.IsInf(x[i], 0) || math.Abs(x[i]) > 1e100 {
				x[i] = 0.5
			}
		}
		alpha := float64(s)
		sx := Clone(x)
		Scale(alpha, sx)
		return almostEqual(Norm2(sx), math.Abs(alpha)*Norm2(x), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNorm2TriangleInequality(t *testing.T) {
	f := func(raw []float64) bool {
		n := len(raw) / 2
		x, y := Clone(raw[:n]), Clone(raw[n:2*n])
		for i := range x {
			if math.IsNaN(x[i]) || math.IsInf(x[i], 0) || math.Abs(x[i]) > 1e100 {
				x[i] = 1
			}
			if math.IsNaN(y[i]) || math.IsInf(y[i], 0) || math.Abs(y[i]) > 1e100 {
				y[i] = 1
			}
		}
		s := make([]float64, n)
		Add(s, x, y)
		return Norm2(s) <= Norm2(x)+Norm2(y)+1e-9*(1+Norm2(x)+Norm2(y))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNormInf(t *testing.T) {
	if got := NormInf([]float64{1, -7, 3}); got != 7 {
		t.Fatalf("NormInf = %g", got)
	}
	if got := NormInf([]float64{1, math.NaN()}); !math.IsNaN(got) {
		t.Fatalf("NormInf should propagate NaN, got %g", got)
	}
}

func TestNorm1(t *testing.T) {
	if got := Norm1([]float64{1, -2, 3}); got != 6 {
		t.Fatalf("Norm1 = %g", got)
	}
}

func TestAxpy(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	Axpy(2, x, y)
	want := []float64{12, 24, 36}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy result %v, want %v", y, want)
		}
	}
}

func TestAxpyZeroAlphaNoOp(t *testing.T) {
	y := []float64{1, math.NaN(), 3}
	x := []float64{5, 5, 5}
	Axpy(0, x, y)
	if y[0] != 1 || y[2] != 3 || !math.IsNaN(y[1]) {
		t.Fatalf("Axpy(0,...) modified y: %v", y)
	}
}

func TestAxpyLarge(t *testing.T) {
	n := 1<<15 + 999
	x := Ones(n)
	y := make([]float64, n)
	Axpy(3, x, y)
	for i := 0; i < n; i += n / 17 {
		if y[i] != 3 {
			t.Fatalf("Axpy large: y[%d]=%g", i, y[i])
		}
	}
}

func TestScale(t *testing.T) {
	x := []float64{1, -2, 4}
	Scale(-0.5, x)
	want := []float64{-0.5, 1, -2}
	for i := range x {
		if x[i] != want[i] {
			t.Fatalf("Scale result %v", x)
		}
	}
}

func TestScaleLarge(t *testing.T) {
	n := 1 << 16
	x := Ones(n)
	Scale(2, x)
	for i := 0; i < n; i += n / 13 {
		if x[i] != 2 {
			t.Fatalf("Scale large: x[%d]=%g", i, x[i])
		}
	}
}

func TestAddSub(t *testing.T) {
	x := []float64{1, 2}
	y := []float64{3, 5}
	s := make([]float64, 2)
	d := make([]float64, 2)
	Add(s, x, y)
	Sub(d, y, x)
	if s[0] != 4 || s[1] != 7 {
		t.Fatalf("Add = %v", s)
	}
	if d[0] != 2 || d[1] != 3 {
		t.Fatalf("Sub = %v", d)
	}
}

func TestAllFinite(t *testing.T) {
	if !AllFinite([]float64{1, 2, 3}) {
		t.Fatal("AllFinite false for finite data")
	}
	if AllFinite([]float64{1, math.Inf(1)}) {
		t.Fatal("AllFinite true with +Inf")
	}
	if AllFinite([]float64{math.NaN()}) {
		t.Fatal("AllFinite true with NaN")
	}
}

func TestCauchySchwarzProperty(t *testing.T) {
	f := func(raw []float64) bool {
		n := len(raw) / 2
		x, y := Clone(raw[:n]), Clone(raw[n:2*n])
		for i := range x {
			if math.IsNaN(x[i]) || math.IsInf(x[i], 0) || math.Abs(x[i]) > 1e50 {
				x[i] = 0.25
			}
			if math.IsNaN(y[i]) || math.IsInf(y[i], 0) || math.Abs(y[i]) > 1e50 {
				y[i] = 0.25
			}
		}
		lhs := math.Abs(Dot(x, y))
		rhs := Norm2(x) * Norm2(y)
		return lhs <= rhs*(1+1e-12)+1e-300
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDot(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(sizeName(n), func(b *testing.B) {
			x := Ones(n)
			y := Ones(n)
			b.SetBytes(int64(16 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = Dot(x, y)
			}
		})
	}
}

func BenchmarkAxpy(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(sizeName(n), func(b *testing.B) {
			x := Ones(n)
			y := make([]float64, n)
			b.SetBytes(int64(24 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Axpy(1e-9, x, y)
			}
		})
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1000000:
		return "n1M"
	case n >= 100000:
		return "n100k"
	case n >= 10000:
		return "n10k"
	default:
		return "n1k"
	}
}

func TestSumKahanExactOnCancellation(t *testing.T) {
	// Classic compensated-summation stress: naive accumulation loses the
	// small term entirely; Kahan-Neumaier keeps it.
	x := []float64{1e100, 1.0, -1e100}
	if got := SumKahan(x); got != 1.0 {
		t.Fatalf("SumKahan = %g, want 1", got)
	}
	naive := 0.0
	for _, v := range x {
		naive += v
	}
	if naive == 1.0 {
		t.Skip("platform summed naively without error; stress invalid")
	}
}

func TestSumKahanMatchesNaiveOnBenignData(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	x := make([]float64, 1001)
	var naive float64
	for i := range x {
		x[i] = rng.NormFloat64()
		naive += x[i]
	}
	if got := SumKahan(x); !almostEqual(got, naive, 1e-12) {
		t.Fatalf("SumKahan %g vs naive %g", got, naive)
	}
}

func TestDotKahanAccuracy(t *testing.T) {
	// Products that cancel catastrophically: x·y = 1e100 - 1e100 + 4.
	x := []float64{1e50, -1e50, 2}
	y := []float64{1e50, 1e50, 2}
	if got := DotKahan(x, y); got != 4 {
		t.Fatalf("DotKahan = %g, want 4", got)
	}
}

func TestDotKahanLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DotKahan(make([]float64, 2), make([]float64, 3))
}

func TestSumKahanEmpty(t *testing.T) {
	if SumKahan(nil) != 0 {
		t.Fatal("empty sum")
	}
}
