package dense

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// feedTriangular pushes the columns of an upper-triangular matrix into an
// ICE estimator.
func feedTriangular(r *Matrix) *ICE {
	e := new(ICE)
	for j := 0; j < r.Cols; j++ {
		above := make([]float64, j)
		for i := 0; i < j; i++ {
			above[i] = r.At(i, j)
		}
		e.Append(above, r.At(j, j))
	}
	return e
}

func TestICEDiagonalExact(t *testing.T) {
	r := FromRows([][]float64{{4, 0, 0}, {0, 0.5, 0}, {0, 0, 2}})
	e := feedTriangular(r)
	if math.Abs(e.SigmaMaxEst()-4) > 1e-12 {
		t.Fatalf("σmax est = %g", e.SigmaMaxEst())
	}
	if math.Abs(e.SigmaMinEst()-0.5) > 1e-12 {
		t.Fatalf("σmin est = %g", e.SigmaMinEst())
	}
	if math.Abs(e.CondEst()-8) > 1e-10 {
		t.Fatalf("cond est = %g", e.CondEst())
	}
}

func TestICEEmptyAndSingleColumn(t *testing.T) {
	e := new(ICE)
	if e.CondEst() != 1 || e.K() != 0 {
		t.Fatal("empty estimator state")
	}
	e.Append(nil, -3)
	if e.SigmaMinEst() != 3 || e.SigmaMaxEst() != 3 || e.CondEst() != 1 {
		t.Fatalf("single column: %g %g", e.SigmaMinEst(), e.SigmaMaxEst())
	}
}

func TestICEZeroPivotGivesInfiniteCond(t *testing.T) {
	e := new(ICE)
	e.Append(nil, 2)
	e.Append([]float64{1}, 0)
	if !math.IsInf(e.CondEst(), 1) {
		t.Fatalf("cond est = %g, want +Inf", e.CondEst())
	}
}

func TestICEWrongColumnLengthPanics(t *testing.T) {
	e := new(ICE)
	e.Append(nil, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Append([]float64{1, 2}, 1)
}

// TestICEBoundsAreOneSided is the key property: the estimates must bracket
// inward (σ̂max ≤ σmax, σ̂min ≥ σmin), making CondEst a lower bound with no
// false alarms.
func TestICEBoundsAreOneSided(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(10)
		r := NewMatrix(k, k)
		for i := 0; i < k; i++ {
			for j := i; j < k; j++ {
				r.Set(i, j, rng.NormFloat64())
			}
			// Keep diagonals nonzero but allow wide scales.
			r.Set(i, i, r.At(i, i)+math.Copysign(0.1, r.At(i, i)))
		}
		e := feedTriangular(r)
		s := ComputeSVD(r)
		sigMax, sigMin := s.S[0], s.S[len(s.S)-1]
		tol := 1e-10 * (1 + sigMax)
		return e.SigmaMaxEst() <= sigMax+tol && e.SigmaMinEst() >= sigMin-tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestICEEstimateQualityOnGradedMatrix(t *testing.T) {
	// A graded triangular matrix with condition ~1e8: ICE must flag at
	// least a large fraction of the true condition number (ICE is known to
	// track within a modest factor).
	k := 12
	r := NewMatrix(k, k)
	for i := 0; i < k; i++ {
		r.Set(i, i, math.Pow(10, -float64(i)*8/float64(k-1)))
		for j := i + 1; j < k; j++ {
			r.Set(i, j, 0.1*r.At(i, i))
		}
	}
	e := feedTriangular(r)
	true2 := ComputeSVD(r).Cond2()
	if e.CondEst() > true2*(1+1e-8) {
		t.Fatalf("ICE overestimated: %g > %g", e.CondEst(), true2)
	}
	if e.CondEst() < true2/1e3 {
		t.Fatalf("ICE too weak: %g vs true %g", e.CondEst(), true2)
	}
}

func TestHessLSQICEMatchesSVDTrend(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	l, _ := buildHess(rng, 8, 1)
	ice := l.RCondICE()
	svd := l.RCondSVD()
	if ice > svd*(1+1e-8) {
		t.Fatalf("ICE %g exceeds exact cond %g", ice, svd)
	}
	if ice < 1 {
		t.Fatalf("ICE %g below 1", ice)
	}
}

func TestHessLSQICEDetectsNearSingularColumn(t *testing.T) {
	l := NewHessLSQ(3, 1)
	l.AppendColumn([]float64{1, 1})
	l.AppendColumn([]float64{1, 1, 1e-14})
	if l.RCondICE() < 1e10 {
		t.Fatalf("ICE missed near-singularity: %g", l.RCondICE())
	}
}
