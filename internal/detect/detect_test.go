package detect

import (
	"math"
	"testing"

	"sdcgmres/internal/fault"
	"sdcgmres/internal/gallery"
	"sdcgmres/internal/krylov"
)

func TestDetectorBounds(t *testing.T) {
	a := gallery.Poisson2D(10)
	frob := NewDetector(a, FrobeniusBound)
	spec := NewDetector(a, SpectralBound)
	// ‖A‖₂ ≈ 8 < ‖A‖F for Poisson; both bounds positive and ordered.
	if spec.Bound() >= frob.Bound() {
		t.Fatalf("spectral bound %g should be tighter than Frobenius %g", spec.Bound(), frob.Bound())
	}
	if math.Abs(spec.Bound()-8*1.01) > 0.2 {
		t.Fatalf("spectral bound %g, want ≈8", spec.Bound())
	}
}

func TestDetectorAcceptsLegalCoefficients(t *testing.T) {
	a := gallery.Poisson2D(6)
	d := NewDetector(a, FrobeniusBound)
	ctx := krylov.CoeffContext{InnerIteration: 1, Step: 1, Kind: krylov.Projection}
	for _, h := range []float64{0, 3.99, -3.99, 7.9, -7.9} {
		if _, err := d.Observe(ctx, h); err != nil {
			t.Fatalf("legal coefficient %g flagged: %v", h, err)
		}
	}
	s := d.Stats()
	if s.Checked != 5 || s.Violations != 0 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestDetectorFlagsExcessAndNonFinite(t *testing.T) {
	d := NewDetectorWithBound(10, FrobeniusBound)
	ctx := krylov.CoeffContext{OuterIteration: 2, InnerIteration: 3, Step: 1, Kind: krylov.Projection}
	cases := []float64{11, -1e6, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, h := range cases {
		v, err := d.Observe(ctx, h)
		if err == nil {
			t.Fatalf("coefficient %g not flagged", h)
		}
		// Pass-through: detection must not modify the value.
		if !math.IsNaN(h) && v != h {
			t.Fatalf("detector modified value: %g -> %g", h, v)
		}
		var viol *Violation
		if !asViolation(err, &viol) {
			t.Fatalf("error type: %T", err)
		}
		if viol.Bound != 10 {
			t.Fatalf("violation bound %g", viol.Bound)
		}
		if viol.Error() == "" {
			t.Fatal("empty violation message")
		}
	}
	s := d.Stats()
	if s.Violations != len(cases) || s.NonFinite != 3 {
		t.Fatalf("stats: %+v", s)
	}
	if len(d.Violations()) != len(cases) {
		t.Fatal("violation log length")
	}
}

func asViolation(err error, target **Violation) bool {
	v, ok := err.(*Violation)
	if ok {
		*target = v
	}
	return ok
}

func TestDetectorReset(t *testing.T) {
	d := NewDetectorWithBound(1, FrobeniusBound)
	d.Observe(krylov.CoeffContext{}, 5)
	d.Reset()
	s := d.Stats()
	if s.Checked != 0 || s.Violations != 0 || len(d.Violations()) != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestWouldDetectClassesMatchPaper(t *testing.T) {
	// The paper's whole premise: class-1 faults (×10¹⁵⁰) are detectable,
	// class-2 (×10⁻⁰·⁵) and class-3 (×10⁻³⁰⁰) are not — they shrink the
	// coefficient, which can never violate an upper bound.
	a := gallery.Poisson2D(10)
	d := NewDetector(a, FrobeniusBound)
	legal := 3.7 // a legitimate coefficient well inside the bound
	if !d.WouldDetect(fault.ClassLarge.Corrupt(legal)) {
		t.Fatal("class-1 fault must be detectable")
	}
	if d.WouldDetect(fault.ClassSlight.Corrupt(legal)) {
		t.Fatal("class-2 fault must be undetectable")
	}
	if d.WouldDetect(fault.ClassTiny.Corrupt(legal)) {
		t.Fatal("class-3 fault must be undetectable")
	}
	if !d.WouldDetect(math.NaN()) || !d.WouldDetect(math.Inf(1)) {
		t.Fatal("non-finite always detectable")
	}
}

func TestDetectorInvalidBoundPanics(t *testing.T) {
	for _, b := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bound %g should panic", b)
				}
			}()
			NewDetectorWithBound(b, FrobeniusBound)
		}()
	}
}

func TestDetectorInsideGMRESFaultFree(t *testing.T) {
	// End to end: a fault-free GMRES solve must produce zero violations —
	// the invariant really does hold for every coefficient.
	a := gallery.ConvectionDiffusion2D(7, 6, -2)
	b := make([]float64, a.Rows())
	a.MatVec(b, ones(a.Cols()))
	d := NewDetector(a, FrobeniusBound)
	res, err := krylov.GMRES(a, b, nil, krylov.Options{
		MaxIter: 49, Tol: 1e-10, Hooks: []krylov.CoeffHook{d},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
	s := d.Stats()
	if s.Violations != 0 {
		t.Fatalf("false positives: %+v", s)
	}
	if s.Checked == 0 {
		t.Fatal("detector saw no coefficients")
	}
}

func TestDetectorCatchesInjectedLargeFaultInGMRES(t *testing.T) {
	a := gallery.Poisson2D(6)
	b := make([]float64, a.Rows())
	a.MatVec(b, ones(a.Cols()))
	inj := fault.NewInjector(fault.ClassLarge, fault.Site{AggregateInner: 2, Step: fault.FirstMGS})
	d := NewDetector(a, FrobeniusBound)
	res, err := krylov.GMRES(a, b, nil, krylov.Options{
		MaxIter: 10, Tol: 0,
		Hooks:     []krylov.CoeffHook{inj, d}, // inject, then check
		OnHookErr: krylov.DetectRecord,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !inj.Fired() {
		t.Fatal("injector did not fire")
	}
	// The corrupted h(1,2) drives the MGS update w -= h q₁, so downstream
	// coefficients of the same iteration blow past the bound too: at least
	// one violation, and the first one is at the injected site.
	viol := d.Violations()
	if len(viol) == 0 {
		t.Fatal("detector missed the class-1 fault")
	}
	first := viol[0].Ctx
	if first.AggregateInner != 2 || first.Step != 1 || first.Kind != krylov.Projection {
		t.Fatalf("first violation at wrong site: %+v", first)
	}
	if len(res.HookEvents) != len(viol) {
		t.Fatalf("solver recorded %d events, detector %d", len(res.HookEvents), len(viol))
	}
}

func TestDetectorMissesSmallFaultInGMRES(t *testing.T) {
	a := gallery.Poisson2D(6)
	b := make([]float64, a.Rows())
	a.MatVec(b, ones(a.Cols()))
	inj := fault.NewInjector(fault.ClassSlight, fault.Site{AggregateInner: 2, Step: fault.FirstMGS})
	d := NewDetector(a, FrobeniusBound)
	_, err := krylov.GMRES(a, b, nil, krylov.Options{
		MaxIter: 10, Tol: 0,
		Hooks: []krylov.CoeffHook{inj, d},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !inj.Fired() {
		t.Fatal("injector did not fire")
	}
	if d.Stats().Violations != 0 {
		t.Fatal("class-2 fault should be undetectable by design")
	}
}

func TestDetectorCatchesNonFiniteHessenbergInGMRES(t *testing.T) {
	// End to end: a NaN or ±Inf Hessenberg entry — the footprint of a
	// corrupted reduction or overflowed accumulation — must trip the
	// detector even though NaN defeats plain magnitude comparisons.
	for _, tc := range []struct {
		name  string
		value float64
	}{
		{"nan", math.NaN()},
		{"+inf", math.Inf(1)},
		{"-inf", math.Inf(-1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := gallery.Poisson2D(6)
			b := make([]float64, a.Rows())
			a.MatVec(b, ones(a.Cols()))
			inj := fault.NewInjector(fault.SetValue{Value: tc.value}, fault.Site{AggregateInner: 2, Step: fault.FirstMGS})
			d := NewDetector(a, FrobeniusBound)
			_, err := krylov.GMRES(a, b, nil, krylov.Options{
				MaxIter: 10, Tol: 0,
				Hooks:     []krylov.CoeffHook{inj, d},
				OnHookErr: krylov.DetectRecord,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !inj.Fired() {
				t.Fatal("injector did not fire")
			}
			viol := d.Violations()
			if len(viol) == 0 {
				t.Fatalf("detector missed the %s Hessenberg entry", tc.name)
			}
			first := viol[0]
			if first.Ctx.AggregateInner != 2 || first.Ctx.Step != 1 {
				t.Fatalf("first violation at wrong site: %+v", first.Ctx)
			}
			if !math.IsNaN(first.Value) && !math.IsInf(first.Value, 0) {
				t.Fatalf("violation value %g, want the injected %g", first.Value, tc.value)
			}
			if d.Stats().NonFinite == 0 {
				t.Fatalf("NonFinite not counted: %+v", d.Stats())
			}
		})
	}
}

func ones(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	return x
}

// TestSpectralBoundComputedOncePerMatrix: the power method behind the
// spectral bound runs once per matrix. A second detector on the same matrix
// gets the same bound bits and allocates nothing but itself.
func TestSpectralBoundComputedOncePerMatrix(t *testing.T) {
	a := gallery.Poisson2D(12)
	want := NewDetector(a, SpectralBound).Bound()
	allocs := testing.AllocsPerRun(10, func() {
		if got := NewDetector(a, SpectralBound).Bound(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("second detector's bound %g, want %g", got, want)
		}
	})
	if allocs != 1 {
		t.Fatalf("NewDetector on a matrix with a known bound: %v allocations, want 1 (the detector)", allocs)
	}
}
