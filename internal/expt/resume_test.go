package expt

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"sdcgmres/internal/core"
	"sdcgmres/internal/detect"
	"sdcgmres/internal/fault"
	"sdcgmres/internal/trace"
)

// untaped returns a copy of p without its failure-free tape, so every run
// on it is solved from scratch: the oracle resumed runs must match.
func untaped(p *Problem) *Problem {
	q := *p
	q.tape = nil
	return &q
}

// sameResult describes the first difference between two nested-solve
// results, comparing floats as bits, or returns "" when they are equal.
func sameResult(got, want *core.Result) string {
	switch {
	case got == nil || want == nil:
		if got != want {
			return fmt.Sprintf("result %v, want %v", got, want)
		}
		return ""
	case got.Converged != want.Converged:
		return fmt.Sprintf("Converged %v, want %v", got.Converged, want.Converged)
	case math.Float64bits(got.FinalResidual) != math.Float64bits(want.FinalResidual):
		return fmt.Sprintf("FinalResidual %g, want %g", got.FinalResidual, want.FinalResidual)
	case got.Stats != want.Stats:
		return fmt.Sprintf("Stats %+v, want %+v", got.Stats, want.Stats)
	}
	if d := sameBits("X", got.X, want.X); d != "" {
		return d
	}
	return sameBits("ResidualHistory", got.ResidualHistory, want.ResidualHistory)
}

func sameBits(name string, got, want []float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("len(%s) %d, want %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Sprintf("%s[%d] %g, want %g", name, i, got[i], want[i])
		}
	}
	return ""
}

// checkUnit runs one unit on p and on its untaped copy and fails the test
// unless the points and results are identical.
func checkUnit(t *testing.T, p, scratch *Problem, cfg SweepConfig, site int) {
	t.Helper()
	gotPt, got := runPoint(context.Background(), p, cfg, site)
	wantPt, want := runPoint(context.Background(), scratch, cfg, site)
	if gotPt != wantPt {
		t.Fatalf("%s %v %s site %d: point %+v, want %+v", p.Name, cfg.Model, cfg.Step, site, gotPt, wantPt)
	}
	if d := sameResult(got, want); d != "" {
		t.Fatalf("%s %v %s site %d: %s", p.Name, cfg.Model, cfg.Step, site, d)
	}
}

var (
	oracleModels    = []string{"large", "slight", "tiny", "bitflip:62"}
	oracleSteps     = []fault.StepSelector{fault.FirstMGS, fault.LastMGS}
	oracleDetectors = []core.DetectorConfig{
		{},
		{Enabled: true, Kind: detect.FrobeniusBound, Response: core.ResponseRestartInner},
		{Enabled: true, Kind: detect.FrobeniusBound, Response: core.ResponseHaltInner},
	}
)

// TestResumedUnitsMatchScratch is the resume oracle: units resumed from the
// failure-free tape equal units solved from scratch, point for point and
// result field for field, on the sweep-fleet problems. Every Poisson site
// and a stride of circuit sites run under each step and detector; the
// fault model rotates with the site, so each model strikes every inner
// solve. The race detector slows these single-goroutine solves about 30×
// and has nothing to find in them, so under it the sites are sampled more
// coarsely; TestPrefixSharedAcrossGoroutines is the race check.
func TestResumedUnitsMatchScratch(t *testing.T) {
	poissonStride, circuitStride := 1, 9
	if raceEnabled {
		poissonStride, circuitStride = 7, 67
	}
	cases := []struct {
		make   func() (*Problem, error)
		stride int
	}{
		{func() (*Problem, error) { return PoissonProblem(32, 10, 8) }, poissonStride},
		{func() (*Problem, error) { return CircuitProblem(2000, 10, 20) }, circuitStride},
	}
	for _, c := range cases {
		p, err := c.make()
		if err != nil {
			t.Fatal(err)
		}
		scratch := untaped(p)
		resumed := 0
		for site := 1; site <= p.FailureFreeOuter*p.InnerIters; site += c.stride {
			model, err := fault.ParseModel(oracleModels[(site/c.stride)%len(oracleModels)])
			if err != nil {
				t.Fatal(err)
			}
			for _, step := range oracleSteps {
				for _, det := range oracleDetectors {
					cfg := SweepConfig{Model: model, Step: step, Detector: det}
					if p.tape.ResumeAt(core.New(p.A, p.Config(det, nil)), site) > 0 {
						resumed++
					}
					checkUnit(t, p, scratch, cfg, site)
				}
			}
		}
		if resumed == 0 {
			t.Fatalf("%s: no unit resumed", p.Name)
		}
	}
}

// TestResumeFallsBackToScratch covers the eligibility check on a calibrated
// problem: an attached Recorder or OnOuter, a problem without a tape and a
// fault in the first inner solve each force a from-scratch solve that still
// equals the reference. The detector-bound cases run in core, beside the
// rule's test seam (TestResumeAtDetectorBound).
func TestResumeFallsBackToScratch(t *testing.T) {
	p := testProblem(t)
	scratch := untaped(p)
	det := core.DetectorConfig{Enabled: true, Kind: detect.FrobeniusBound, Response: core.ResponseRestartInner}
	site := 3*p.InnerIters + 2 // in inner solve 4: three restorable outer iterations
	const k = 3
	if got := p.tape.ResumeAt(core.New(p.A, p.Config(det, nil)), site); got != k {
		t.Fatalf("ResumeAt = %d, want %d", got, k)
	}
	for _, model := range []fault.Model{fault.ClassLarge, fault.ClassSlight} {
		checkUnit(t, p, scratch, SweepConfig{Model: model, Step: fault.FirstMGS, Detector: det}, site)
	}

	// Observers of the outer iteration must see every one of them.
	cfg := p.Config(det, nil)
	cfg.Recorder = trace.NewRecorder(1 << 14)
	s := core.New(p.A, cfg)
	if got := p.tape.ResumeAt(s, site); got != 0 {
		t.Fatalf("with a Recorder: ResumeAt = %d, want 0", got)
	}
	res, err := p.solve(context.Background(), s, site)
	if err != nil {
		t.Fatal(err)
	}
	outer := 0
	for _, ev := range cfg.Recorder.Events() {
		if ev.Kind == trace.KindIterResidual && ev.Inner == 0 {
			outer++
		}
	}
	if outer != res.Stats.OuterIterations {
		t.Fatalf("recorder saw %d outer residuals, solve ran %d", outer, res.Stats.OuterIterations)
	}
	want, err := core.New(p.A, p.Config(det, nil)).Solve(p.B, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := sameResult(res, want); d != "" {
		t.Fatalf("traced solve: %s", d)
	}

	cfg = p.Config(det, nil)
	calls := 0
	cfg.OnOuter = func(int, float64) { calls++ }
	s = core.New(p.A, cfg)
	if got := p.tape.ResumeAt(s, site); got != 0 {
		t.Fatalf("with OnOuter: ResumeAt = %d, want 0", got)
	}
	if res, err = p.solve(context.Background(), s, site); err != nil {
		t.Fatal(err)
	}
	if calls != res.Stats.OuterIterations {
		t.Fatalf("OnOuter called %d times, solve ran %d outer iterations", calls, res.Stats.OuterIterations)
	}

	if got := scratch.tape.ResumeAt(core.New(p.A, p.Config(det, nil)), site); got != 0 {
		t.Fatalf("problem without a tape: ResumeAt = %d, want 0", got)
	}
	for _, site := range []int{1, p.InnerIters} { // faults in the first inner solve
		if got := p.tape.ResumeAt(core.New(p.A, p.Config(det, nil)), site); got != 0 {
			t.Fatalf("site %d: ResumeAt = %d, want 0", site, got)
		}
	}
}

// TestPrefixSharedAcrossGoroutines resumes units of one problem from 8
// goroutines at once. Run it under -race: the tape is shared read-only, so
// any write to it after capture is a reported race, and the points must
// equal the sequential from-scratch ones. The goroutines also share the
// problem's workspaces: each unit returns its own for any other to take,
// so the list ends with at most one per goroutine.
func TestPrefixSharedAcrossGoroutines(t *testing.T) {
	p := testProblem(t)
	scratch := untaped(p)
	det := core.DetectorConfig{Enabled: true, Kind: detect.FrobeniusBound, Response: core.ResponseRestartInner}
	const goroutines, perG = 8, 4
	total := p.FailureFreeOuter * p.InnerIters
	cfgs := make([]SweepConfig, goroutines)
	sites := make([][]int, goroutines)
	want := make([][]SweepPoint, goroutines)
	for g := range cfgs {
		model := fault.ClassLarge
		if g%2 == 1 {
			model = fault.ClassSlight
		}
		cfgs[g] = SweepConfig{Model: model, Step: fault.FirstMGS, Detector: det}
		for i := 0; i < perG; i++ {
			site := p.InnerIters + 1 + (g*perG+i)*7%(total-p.InnerIters)
			sites[g] = append(sites[g], site)
			want[g] = append(want[g], RunPoint(context.Background(), scratch, cfgs[g], site))
		}
	}

	got := make([][]SweepPoint, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			<-start
			for _, site := range sites[g] {
				got[g] = append(got[g], RunPoint(context.Background(), p, cfgs[g], site))
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := len(p.work.free); n < 1 || n > goroutines {
		t.Errorf("%d units left %d workspaces on the list, want 1 to %d", goroutines*perG, n, goroutines)
	}
	for g := range got {
		for i := range got[g] {
			if got[g][i] != want[g][i] {
				t.Errorf("goroutine %d site %d: point %+v, want %+v", g, sites[g][i], got[g][i], want[g][i])
			}
		}
	}
	// The tape still reproduces the failure-free prefix after the shared use.
	for _, site := range []int{p.InnerIters + 1, total} {
		checkUnit(t, p, scratch, cfgs[0], site)
	}
}
