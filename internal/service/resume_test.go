package service

import (
	"context"
	"sync"
	"testing"
	"time"
)

// oracleSolvers vary every solver field that shapes a failure-free prefix
// or screens one: each preconditioner, each detector response, both bounds
// and robust_first_solve. The two ilu0 configurations differ only in their
// detector, so they share one prefix per operator.
var oracleSolvers = []SolverSpec{
	{},
	{Precond: "jacobi", Detector: true},
	{Precond: "ssor", Detector: true, Response: "halt", Bound: "spectral"},
	{Precond: "ilu0", Detector: true, Response: "restart"},
	{Detector: true, Response: "restart", Bound: "spectral", RobustFirstSolve: true},
	{Precond: "jacobi", Detector: true, Response: "halt", RobustFirstSolve: true},
	{Precond: "ilu0", Detector: true, Response: "warn", Bound: "spectral"},
	{Precond: "ssor", RobustFirstSolve: true},
}

var oracleFaults = []FaultSpec{
	{Class: "large"}, {Class: "slight", Step: "last"}, {Class: "bitflip:62"}, {Class: "tiny", Step: "last"},
}

// runnerRecord runs spec through the engine's default runner, as a worker
// does, and returns its record's wire form.
func runnerRecord(t *testing.T, e *Engine, spec JobSpec) string {
	t.Helper()
	rec, err := e.cfg.Runner(context.Background(), &spec, nil, nil)
	if err != nil {
		t.Fatalf("runner: %v", err)
	}
	return recordJSON(t, rec)
}

// outcome describes a solve by its record's wire form, or by its error.
func outcome(t *testing.T, rec *SolveRecord, err error) string {
	t.Helper()
	if err != nil {
		return "error: " + err.Error()
	}
	return recordJSON(t, rec)
}

// TestJobResumeOracle is the resume oracle for jobs: at every fault site of
// small specs, under every oracle solver configuration, the engine's
// default runner reports exactly RunSpec's record, or its error. Sites run
// in descending order for half the configurations, so jobs resume inside a
// complete tape, and in ascending order for the rest, so jobs resume at the
// end of prefixes their predecessors recorded. At least one job per spec
// resumes. The race detector slows these single-goroutine solves about 20×
// and has nothing to find in them, so under it about five sites per
// configuration run; TestJobResumeConcurrentSubmissions is the race check.
func TestJobResumeOracle(t *testing.T) {
	specs := []struct {
		matrix MatrixSpec
		inner  int
		tol    float64
	}{
		{MatrixSpec{Kind: "poisson", N: 10}, 4, 0},
		{MatrixSpec{Kind: "convdiff", N: 10}, 4, 0},
		// The smallest legal circuit needs more than one outer iteration
		// only with one inner iteration and a tight tolerance.
		{MatrixSpec{Kind: "circuit", N: 3}, 1, 1e-15},
	}
	e := NewEngine(Config{Workers: 1})
	for _, sp := range specs {
		before := e.Metrics().JobResumes.Value()
		for i, solver := range oracleSolvers {
			solver.InnerIters, solver.Tol = sp.inner, sp.tol
			// The last site lies past the failure-free solve, so a
			// descending sweep starts by recording that solve whole.
			ff, err := RunSpec(context.Background(), &JobSpec{Matrix: sp.matrix, Solver: solver}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			sites := (ff.OuterIterations + 1) * sp.inner
			stride := 1
			if raceEnabled {
				stride = max(1, sites/5)
			}
			for j := 0; j < sites; j += stride {
				site := sites - j
				if i%2 == 1 {
					site = 1 + j
				}
				f := oracleFaults[j%len(oracleFaults)]
				f.At = site
				spec := JobSpec{Matrix: sp.matrix, Solver: solver, Fault: &f}
				rec, err := e.cfg.Runner(context.Background(), &spec, nil, nil)
				got := outcome(t, rec, err)
				rec, err = RunSpec(context.Background(), &spec, nil, nil)
				if want := outcome(t, rec, err); got != want {
					t.Fatalf("%s solver %+v fault %+v: runner record differs from RunSpec\n got %s\nwant %s",
						sp.matrix.Kind, solver, f, got, want)
				}
			}
		}
		if e.Metrics().JobResumes.Value() == before {
			t.Fatalf("%s: no job resumed", sp.matrix.Kind)
		}
	}
	m := e.Metrics()
	t.Logf("resumes=%d restored=%d prefixes=%d", m.JobResumes.Value(), m.JobOuterRestored.Value(), m.PrefixRecords.Value())
}

// TestJobResumeConcurrentSubmissions has 8 goroutines submit faulted jobs on
// one solver configuration while the first job's recording is in flight.
// Jobs record, offer and resume from one operator's prefix at once; every
// record must equal RunSpec's. Run it under -race.
func TestJobResumeConcurrentSubmissions(t *testing.T) {
	const goroutines, perG = 8, 4
	e := NewEngine(Config{Workers: 4, QueueDepth: goroutines*perG + 1})
	e.Start()
	defer e.Shutdown(context.Background())

	spec := func(site int) JobSpec {
		s := PoissonJob(24)
		s.Solver.InnerIters = 5
		s.Fault = &FaultSpec{Class: oracleFaults[site%len(oracleFaults)].Class, At: site}
		return s
	}
	first := spec(400) // past the failure-free solve: records it whole
	v, err := e.Submit(first)
	if err != nil {
		t.Fatal(err)
	}
	specs := make([][]JobSpec, goroutines)
	recs := make([][]*SolveRecord, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			specs[g] = append(specs[g], spec(1+(g*perG+i)*11%150))
		}
		go func() {
			defer wg.Done()
			var ids []string
			for _, s := range specs[g] {
				v, err := e.Submit(s)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				ids = append(ids, v.ID)
			}
			for _, id := range ids {
				recs[g] = append(recs[g], waitTerminalNoFatal(e, id).Result)
			}
		}()
	}
	wg.Wait()
	firstRec := waitTerminal(t, e, v.ID, 30*time.Second).Result
	if firstRec == nil || recordJSON(t, firstRec) != wantRunSpec(t, first) {
		t.Fatal("first job: engine record differs from RunSpec")
	}
	for g := range recs {
		for i, rec := range recs[g] {
			if rec == nil {
				t.Fatalf("goroutine %d job %d has no record", g, i)
			}
			if got, want := recordJSON(t, rec), wantRunSpec(t, specs[g][i]); got != want {
				t.Fatalf("goroutine %d job %d (site %d): engine record differs from RunSpec", g, i, specs[g][i].Fault.At)
			}
		}
	}
}

// waitTerminalNoFatal is waitTerminal for goroutines other than the test's:
// it returns the job's last view after 30 s without failing the test.
func waitTerminalNoFatal(e *Engine, id string) JobView {
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, _ := e.Job(id)
		if v.State.Terminal() || time.Now().After(deadline) {
			return v
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTracedEngineNeverResumes runs faulted jobs that would resume on a
// traced engine: every job has a Recorder, so none records or resumes a
// prefix, and every record still equals RunSpec's.
func TestTracedEngineNeverResumes(t *testing.T) {
	e := NewEngine(Config{Workers: 1, TraceCapacity: 1024})
	e.Start()
	defer e.Shutdown(context.Background())
	for _, at := range []int{400, 60, 30, 90} {
		spec := PoissonJob(16)
		spec.Fault = &FaultSpec{Class: "large", At: at}
		if got, want := recordJSON(t, runJob(t, e, spec)), wantRunSpec(t, spec); got != want {
			t.Fatalf("site %d: engine record differs from RunSpec", at)
		}
	}
	m := e.Metrics()
	if r, p := m.JobResumes.Value(), m.PrefixRecords.Value(); r != 0 || p != 0 {
		t.Fatalf("traced engine: %d resumes, %d prefixes stored, want none", r, p)
	}
}

// TestCanceledRecordingStoresNothing cancels a job that would record its
// operator's first prefix: it stores nothing, and the next job records.
func TestCanceledRecordingStoresNothing(t *testing.T) {
	e := NewEngine(Config{Workers: 1})
	spec := PoissonJob(16)
	spec.Fault = &FaultSpec{Class: "large", At: 60}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.cfg.Runner(ctx, &spec, nil, nil); err == nil {
		t.Fatal("canceled job ran to completion")
	}
	op, err := e.ops.operator(spec.Matrix)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(op.prefixes); n != 0 || e.Metrics().PrefixRecords.Value() != 0 {
		t.Fatalf("canceled recording stored %d prefixes", n)
	}
	runnerRecord(t, e, spec)
	if n := len(op.prefixes); n != 1 || e.Metrics().PrefixRecords.Value() != 1 {
		t.Fatalf("completed recording stored %d prefixes, want 1", n)
	}
}

// TestPrefixBudget charges prefixes to the operator cache's byte budget: a
// prefix that cannot fit beside its operator is not kept, one that fits is
// charged, and evicting its operator drops it with its bytes.
func TestPrefixBudget(t *testing.T) {
	spec := PoissonJob(16)
	spec.Fault = &FaultSpec{Class: "large", At: 60}
	a, err := spec.Matrix.Build()
	if err != nil {
		t.Fatal(err)
	}
	check := func(c *opCache, want int64) {
		t.Helper()
		c.mu.Lock()
		defer c.mu.Unlock()
		sum := int64(0)
		for el := c.lru.Front(); el != nil; el = el.Next() {
			sum += el.Value.(*operator).bytes
		}
		if c.bytes != want || sum != want {
			t.Fatalf("cache charges %d bytes, its operators %d, want %d", c.bytes, sum, want)
		}
	}
	solve := func(c *opCache) *operator {
		op, err := c.operator(spec.Matrix)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := solveSpec(context.Background(), &spec, op, nil, nil); err != nil {
			t.Fatal(err)
		}
		return op
	}

	tight := newOpCache(operatorBytes(a)+1024, NewMetrics())
	if op := solve(tight); len(op.prefixes) != 0 || tight.recorded.Value() != 0 {
		t.Fatal("a prefix larger than the budget was kept")
	}
	check(tight, operatorBytes(a))

	roomy := newOpCache(3*operatorBytes(a), NewMetrics())
	op := solve(roomy)
	if len(op.prefixes) != 1 {
		t.Fatalf("%d prefixes kept, want 1", len(op.prefixes))
	}
	var prefix int64
	for _, p := range op.prefixes {
		prefix = p.Bytes()
	}
	check(roomy, operatorBytes(a)+prefix)
	other, err := roomy.operator(MatrixSpec{Kind: "poisson", N: 20}) // evicts poisson-16
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := roomy.entries[spec.Matrix.Key()]; ok {
		t.Fatal("poisson-16 was not evicted")
	}
	check(roomy, other.bytes)
}
