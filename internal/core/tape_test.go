package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"sdcgmres/internal/detect"
	"sdcgmres/internal/fault"
	"sdcgmres/internal/gallery"
	"sdcgmres/internal/krylov"
)

// tapeIters is the inner iteration count of the tape tests' solves.
const tapeIters = 6

// tapeConfig is the tape tests' solver configuration: Poisson n = 8 needs
// several outer iterations of tapeIters inner iterations each.
func tapeConfig(det DetectorConfig, hooks ...krylov.CoeffHook) Config {
	return Config{MaxOuter: 40, OuterTol: 1e-10, Inner: InnerConfig{Iterations: tapeIters, Hooks: hooks}, Detector: det}
}

// record runs SolveRecord and fails the test on an error.
func record(t *testing.T, s *Solver, b []float64) (*Result, *Tape) {
	t.Helper()
	res, tape, err := SolveRecord(context.Background(), s, b)
	if err != nil {
		t.Fatal(err)
	}
	return res, tape
}

// byRule solves as campaign units and service jobs do: resumed from tape
// when ResumeAt allows it, from scratch otherwise.
func byRule(t *testing.T, s *Solver, b []float64, tape *Tape, site int) *Result {
	t.Helper()
	var res *Result
	var err error
	if k := tape.ResumeAt(s, site); k > 0 {
		res, err = SolveResume(context.Background(), s, b, tape, k)
	} else {
		res, err = s.SolveCtx(context.Background(), b, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// injected returns a solver faulted at site with a fresh injector.
func injected(s func(...krylov.CoeffHook) *Solver, model fault.Model, site int) *Solver {
	return s(fault.NewInjector(model, fault.Site{AggregateInner: site, Step: fault.FirstMGS}))
}

// sameResult describes the first difference between two results, floats
// compared as bits, or returns "".
func sameResult(got, want *Result) string {
	bits := func(name string, g, w []float64) string {
		if len(g) != len(w) {
			return fmt.Sprintf("len(%s) %d, want %d", name, len(g), len(w))
		}
		for i := range g {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				return fmt.Sprintf("%s[%d] %g, want %g", name, i, g[i], w[i])
			}
		}
		return ""
	}
	switch {
	case got.Converged != want.Converged:
		return fmt.Sprintf("Converged %v, want %v", got.Converged, want.Converged)
	case math.Float64bits(got.FinalResidual) != math.Float64bits(want.FinalResidual):
		return fmt.Sprintf("FinalResidual %g, want %g", got.FinalResidual, want.FinalResidual)
	case got.Stats != want.Stats:
		return fmt.Sprintf("Stats %+v, want %+v", got.Stats, want.Stats)
	}
	if d := bits("X", got.X, want.X); d != "" {
		return d
	}
	return bits("ResidualHistory", got.ResidualHistory, want.ResidualHistory)
}

// TestResumeAtDetectorBound covers ResumeAt's detector screen against the
// failure-free tape: the bound is inclusive, so exactly the prefix's largest
// coefficient still resumes and the next float below it does not; a solver
// without a detector resumes whatever the bound; and a faulted solve the
// screen sends to scratch equals the reference.
func TestResumeAtDetectorBound(t *testing.T) {
	a := gallery.Poisson2D(8)
	b := rhsOnes(a)
	_, tape := record(t, New(a, tapeConfig(DetectorConfig{})), b)
	det := DetectorConfig{Enabled: true, Kind: detect.FrobeniusBound, Response: ResponseRestartInner}
	site := 3*tapeIters + 2 // in inner solve 4: three restorable outer iterations
	const k = 3
	s := New(a, tapeConfig(det))
	if got := tape.ResumeAt(s, site); got != k {
		t.Fatalf("ResumeAt = %d, want %d", got, k)
	}

	prefixMax := tape.PrefixMaxAbs(k)
	defer func(f func(*detect.Detector) float64) { detectorBound = f }(detectorBound)
	detectorBound = func(*detect.Detector) float64 { return prefixMax }
	if got := tape.ResumeAt(s, site); got != k {
		t.Fatalf("bound = prefix max: ResumeAt = %d, want %d", got, k)
	}
	detectorBound = func(*detect.Detector) float64 { return math.Nextafter(prefixMax, 0) }
	if got := tape.ResumeAt(s, site); got != 0 {
		t.Fatalf("bound below prefix max: ResumeAt = %d, want 0", got)
	}
	if got := tape.ResumeAt(New(a, tapeConfig(DetectorConfig{})), site); got != k {
		t.Fatalf("no detector: ResumeAt = %d, want %d (the bound must not matter)", got, k)
	}
	for _, model := range []fault.Model{fault.ClassLarge, fault.ClassSlight} {
		solver := func(h ...krylov.CoeffHook) *Solver { return New(a, tapeConfig(det, h...)) }
		got := byRule(t, injected(solver, model, site), b, tape, site)
		want, err := injected(solver, model, site).Solve(b, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := sameResult(got, want); d != "" {
			t.Fatalf("%v below the bound: %s", model, d)
		}
	}
}

// TestTapePrefix requires Prefix to keep exactly the inner solves wholly
// before a recording's fault, and to stop before an inner solve that a
// detector halted or whose sandbox failed. A failure-free recording is its
// own, complete prefix. Solves resumed from a prefix, at its last iteration
// included, equal the solves from scratch.
func TestTapePrefix(t *testing.T) {
	a := gallery.Poisson2D(8)
	b := rhsOnes(a)
	plain := func(h ...krylov.CoeffHook) *Solver { return New(a, tapeConfig(DetectorConfig{}, h...)) }
	ffRes, ff := record(t, plain(), b)
	n := ff.Len()
	if n < 6 {
		t.Fatalf("failure-free solve ran %d outer iterations, want at least 6", n)
	}
	if !ff.Complete() || ff.Prefix(0) != ff || ff.Prefix(n*tapeIters+1) != ff {
		t.Fatal("a failure-free recording is not its own complete prefix")
	}
	if got := ff.ResumeAt(plain(), 0); got != n-1 {
		t.Fatalf("complete tape, no fault: ResumeAt = %d, want %d", got, n-1)
	}

	// A fault in inner solve 4 leaves a prefix of three outer iterations.
	site := 3*tapeIters + 2
	_, rec := record(t, injected(plain, fault.ClassLarge, site), b)
	p := rec.Prefix(site)
	if p.Len() != 3 || p.Complete() {
		t.Fatalf("prefix holds %d iterations (complete %v), want 3 of a prefix", p.Len(), p.Complete())
	}
	if want := 8 * int64(7*a.Rows()+2+3+4); p.Bytes() != want {
		t.Fatalf("prefix bytes %d, want %d", p.Bytes(), want)
	}
	if got := p.ResumeAt(plain(), 0); got != 3 {
		t.Fatalf("failure-free solve: ResumeAt = %d, want the prefix's end 3", got)
	}
	if d := sameResult(byRule(t, plain(), b, p, 0), ffRes); d != "" {
		t.Fatalf("failure-free solve resumed at the prefix's end: %s", d)
	}
	for _, s := range []int{site, 5*tapeIters + 1, 2*tapeIters + 1} {
		want, err := injected(plain, fault.ClassSlight, s).Solve(b, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := sameResult(byRule(t, injected(plain, fault.ClassSlight, s), b, p, s), want); d != "" {
			t.Fatalf("site %d resumed from the prefix: %s", s, d)
		}
	}
	if _, err := SolveResume(context.Background(), plain(), b, p, 4); err == nil {
		t.Fatal("resumed past the prefix's end")
	}
	if rec.Prefix(tapeIters) != nil {
		t.Fatal("a fault in the first inner solve left a prefix")
	}

	// A detector halt in inner solve 3 cuts the prefix at two iterations,
	// before a later fault and without one.
	haltAt := 2*tapeIters + 1
	stop := krylov.CoeffHookFunc(func(ctx krylov.CoeffContext, h float64) (float64, error) {
		if ctx.AggregateInner == haltAt {
			return h, errors.New("halt")
		}
		return h, nil
	})
	_, rec = record(t, New(a, tapeConfig(DetectorConfig{Enabled: true, Response: ResponseHaltInner}, stop)), b)
	for _, s := range []int{0, 5*tapeIters + 1} {
		if got := rec.Prefix(s).Len(); got != 2 {
			t.Fatalf("halted inner solve 3, site %d: prefix holds %d iterations, want 2", s, got)
		}
	}

	// So does a sandbox failure in inner solve 3.
	bomb := krylov.CoeffHookFunc(func(ctx krylov.CoeffContext, h float64) (float64, error) {
		if ctx.AggregateInner == haltAt {
			panic("simulated hard fault in inner solve")
		}
		return h, nil
	})
	_, rec = record(t, plain(bomb), b)
	if got := rec.Prefix(0).Len(); got != 2 {
		t.Fatalf("failed sandbox in inner solve 3: prefix holds %d iterations, want 2", got)
	}
}
