package expt

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"sdcgmres/internal/core"
	"sdcgmres/internal/detect"
	"sdcgmres/internal/fault"
	"sdcgmres/internal/krylov"
)

// TestRunPointSteadyStateAllocs: once a problem has run one unit, a unit's
// Krylov storage comes from the problem's workspaces, so RunPoint allocates
// only per-unit bookkeeping and the returned solution — far less than one
// inner solve's basis. The sites spread over the schedule, so both resumed
// and from-scratch units are measured.
func TestRunPointSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector slows these solves about 30x; the limits do not depend on it")
	}
	cases := []struct {
		make  func() (*Problem, error)
		limit uint64 // bytes per unit
	}{
		{func() (*Problem, error) { return PoissonProblem(32, 10, 8) }, 64 << 10},
		{func() (*Problem, error) { return CircuitProblem(2000, 10, 20) }, 128 << 10},
	}
	dets := []core.DetectorConfig{
		{},
		{Enabled: true, Kind: detect.FrobeniusBound, Response: core.ResponseRestartInner},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, c := range cases {
		p, err := c.make()
		if err != nil {
			t.Fatal(err)
		}
		total := p.FailureFreeOuter * p.InnerIters
		const units = 10
		for _, det := range dets {
			cfg := SweepConfig{Model: fault.ClassLarge, Step: fault.FirstMGS, Detector: det}
			RunPoint(ctx, p, cfg, total/2) // warm-up: the problem's first workspace
			// The runtime and the test framework may allocate on other
			// goroutines during a window, so take the best of three.
			best := ^uint64(0)
			for trial := 0; trial < 3; trial++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < units; i++ {
					RunPoint(ctx, p, cfg, 1+i*total/units)
				}
				runtime.ReadMemStats(&after)
				best = min(best, (after.TotalAlloc-before.TotalAlloc)/units)
			}
			t.Logf("%s detector %v: %d bytes per unit", p.Name, det.Enabled, best)
			if best >= c.limit {
				t.Errorf("%s detector %v: %d bytes per unit, want under %d", p.Name, det.Enabled, best, c.limit)
			}
		}
	}
}

// gateOp blocks the first MatVec made through it until release is closed,
// after signalling on entered.
type gateOp struct {
	krylov.Operator
	calls   *atomic.Int64
	entered chan<- struct{}
	release <-chan struct{}
}

func (g gateOp) MatVec(dst, x []float64) {
	if g.calls.Add(1) == 1 {
		g.entered <- struct{}{}
		<-g.release
	}
	g.Operator.MatVec(dst, x)
}

// TestAbandonedGuestStorageNotReused cancels a unit while its inner solve's
// guest is blocked, so the sandbox abandons the guest with its workspace,
// then releases the guest while units run on the same problem. The units
// must equal from-scratch ones, and under -race the released guest's
// writes to its inner storage and reads of the outer basis vector it was
// handed must touch nothing those units use.
func TestAbandonedGuestStorageNotReused(t *testing.T) {
	p := testProblem(t)
	scratch := untaped(p)
	det := core.DetectorConfig{Enabled: true, Kind: detect.FrobeniusBound, Response: core.ResponseRestartInner}
	cfg := SweepConfig{Model: fault.ClassLarge, Step: fault.FirstMGS, Detector: det}
	// A fault in the first inner solve: the unit runs from scratch, so the
	// blocked guest is handed a vector of the outer workspace, not the tape.
	site := 3
	RunPoint(context.Background(), p, cfg, site) // the list now holds a used workspace

	entered, release := make(chan struct{}), make(chan struct{})
	ccfg := p.Config(det, nil)
	ccfg.Inner.WrapOperator = func(op krylov.Operator) krylov.Operator {
		return gateOp{Operator: op, calls: new(atomic.Int64), entered: entered, release: release}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, err := p.solve(ctx, core.New(p.A, ccfg), site)
		done <- err
	}()
	<-entered
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled unit returned %v, want context.Canceled", err)
	}
	checkUnit(t, p, scratch, cfg, site) // on the canceled unit's workspace
	close(release)
	for _, s := range []int{1, site, p.FailureFreeOuter * p.InnerIters} {
		checkUnit(t, p, scratch, cfg, s)
	}
	// The guest finishes its fixed inner iterations on its own; wait for it
	// so the race detector sees all of its accesses within this test.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("abandoned guest still running: %d goroutines, %d before the unit", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
