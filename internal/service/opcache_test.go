package service

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

// recordJSON is a record's wire form with the wall-clock field zeroed.
func recordJSON(t *testing.T, rec *SolveRecord) string {
	t.Helper()
	r := *rec
	r.ElapsedMS = 0
	raw, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// runJob submits spec to e, waits for it, and returns its record.
func runJob(t *testing.T, e *Engine, spec JobSpec) *SolveRecord {
	t.Helper()
	v, err := e.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	v = waitTerminal(t, e, v.ID, 30*time.Second)
	if v.State != StateDone {
		t.Fatalf("job %s ended %s: %s", v.ID, v.State, v.Error)
	}
	return v.Result
}

// wantRunSpec is the uncached reference record for spec.
func wantRunSpec(t *testing.T, spec JobSpec) string {
	t.Helper()
	rec, err := RunSpec(context.Background(), &spec, nil, nil)
	if err != nil {
		t.Fatalf("RunSpec: %v", err)
	}
	return recordJSON(t, rec)
}

// cachedOps counts the engine's cached operators.
func cachedOps(e *Engine) int {
	e.ops.mu.Lock()
	defer e.ops.mu.Unlock()
	return len(e.ops.entries)
}

const opTestMM = "%%MatrixMarket matrix coordinate real general\n4 4 8\n" +
	"1 1 4.0\n2 2 4.0\n3 3 4.0\n4 4 4.0\n1 2 -1.0\n2 1 -1.0\n3 4 -1.5\n4 2 0.5\n"

// TestOperatorCacheMatchesRunSpec requires every job on a cached operator
// — the miss that builds it and a later hit with another fault — to report
// exactly RunSpec's record.
func TestOperatorCacheMatchesRunSpec(t *testing.T) {
	e := NewEngine(Config{Workers: 1})
	e.Start()
	defer e.Shutdown(context.Background())

	specs := []JobSpec{
		PoissonJob(12),
		{Matrix: MatrixSpec{Kind: "convdiff", N: 10}, Solver: SolverSpec{Precond: "ilu0"}},
		{Matrix: MatrixSpec{Kind: "circuit", N: 120}, Solver: SolverSpec{Detector: true, MaxOuter: 8}},
		MatrixMarketJob(opTestMM),
	}
	for i, spec := range specs {
		for pass, at := range []int{3, 7} { // miss, then hit
			spec.Fault = &FaultSpec{Class: "large", At: at}
			got := recordJSON(t, runJob(t, e, spec))
			if want := wantRunSpec(t, spec); got != want {
				t.Fatalf("%s pass %d: engine record differs from RunSpec\n got %s\nwant %s",
					spec.Matrix.Kind, pass, got, want)
			}
		}
		m := e.Metrics()
		if b, h := m.MatrixBuilds.Value(), m.MatrixCacheHits.Value(); b != int64(i+1) || h != int64(i+1) {
			t.Fatalf("after %s: builds=%d hits=%d, want %d each", spec.Matrix.Kind, b, h, i+1)
		}
	}
}

// TestOperatorCacheConcurrentJobs runs many jobs on one matrix at once:
// whichever builds finish, exactly one operator stays cached and every
// record matches RunSpec.
func TestOperatorCacheConcurrentJobs(t *testing.T) {
	e := NewEngine(Config{Workers: 4, QueueDepth: 32})
	e.Start()
	defer e.Shutdown(context.Background())

	const jobs = 12
	specs := make([]JobSpec, jobs)
	for i := range specs {
		specs[i] = PoissonJob(16)
		specs[i].Fault = &FaultSpec{Class: "slight", At: 1 + i}
	}
	recs := make([]*SolveRecord, jobs)
	var wg sync.WaitGroup
	wg.Add(jobs)
	for i := range specs {
		go func(i int) {
			defer wg.Done()
			v, err := e.Submit(specs[i])
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			deadline := time.Now().Add(30 * time.Second)
			for !v.State.Terminal() && time.Now().Before(deadline) {
				time.Sleep(2 * time.Millisecond)
				v, _ = e.Job(v.ID)
			}
			recs[i] = v.Result
		}(i)
	}
	wg.Wait()
	for i, rec := range recs {
		if rec == nil {
			t.Fatalf("job %d has no record", i)
		}
		if got, want := recordJSON(t, rec), wantRunSpec(t, specs[i]); got != want {
			t.Fatalf("job %d: engine record differs from RunSpec", i)
		}
	}
	if n := cachedOps(e); n != 1 {
		t.Fatalf("%d cached operators, want 1", n)
	}
	m := e.Metrics()
	if b, h := m.MatrixBuilds.Value(), m.MatrixCacheHits.Value(); b < 1 || b+h != jobs {
		t.Fatalf("builds=%d hits=%d over %d jobs", b, h, jobs)
	}
}

// TestOperatorCacheBound checks the byte budget: least-recently-used
// operators go first, an operator larger than the budget is never cached,
// and a failed build stores nothing.
func TestOperatorCacheBound(t *testing.T) {
	size := func(n int) int64 {
		a, _, err := BuildMatrix(MatrixSpec{Kind: "poisson", N: n})
		if err != nil {
			t.Fatal(err)
		}
		return operatorBytes(a)
	}
	c := newOpCache(size(4)+size(5), NewMetrics())
	get := func(n int) {
		if _, _, err := c.matrix(MatrixSpec{Kind: "poisson", N: n}); err != nil {
			t.Fatal(err)
		}
	}
	cached := func() string {
		c.mu.Lock()
		defer c.mu.Unlock()
		s := ""
		for el := c.lru.Front(); el != nil; el = el.Next() {
			s += fmt.Sprintf("%s ", el.Value.(*operator).name)
		}
		if len(c.entries) != c.lru.Len() || c.bytes > c.max {
			t.Fatalf("inconsistent cache: %d entries, %d listed, %d of %d bytes", len(c.entries), c.lru.Len(), c.bytes, c.max)
		}
		return s
	}

	get(4)
	get(5)
	get(4) // poisson-5 is now least recently used
	get(3)
	if got, want := cached(), "poisson-3x3 poisson-4x4 "; got != want {
		t.Fatalf("cached %q, want %q", got, want)
	}
	get(20) // larger than the whole budget
	if got, want := cached(), "poisson-3x3 poisson-4x4 "; got != want {
		t.Fatalf("after an oversized build: cached %q, want %q", got, want)
	}
	if _, _, err := c.matrix(MatrixSpec{Kind: "mm", MM: "%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1.0\n"}); err == nil {
		t.Fatal("non-square mm payload built")
	}
	if got, want := cached(), "poisson-3x3 poisson-4x4 "; got != want {
		t.Fatalf("after a failed build: cached %q, want %q", got, want)
	}
	if b, h := c.builds.Value(), c.hits.Value(); b != 5 || h != 1 {
		t.Fatalf("builds=%d hits=%d, want 5 and 1", b, h)
	}
}

// TestOperatorCachePanickingBuild runs a job whose matrix build panics:
// the sandbox fails the job, nothing is cached, and the engine goes on.
func TestOperatorCachePanickingBuild(t *testing.T) {
	e := NewEngine(Config{Workers: 1})
	e.Start()
	defer e.Shutdown(context.Background())

	v, err := e.Submit(CircuitJob(2)) // valid spec; the generator rejects n = 2
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if v = waitTerminal(t, e, v.ID, 10*time.Second); v.State != StateFailed {
		t.Fatalf("panicking build ended %s, want failed", v.State)
	}
	if n := cachedOps(e); n != 0 {
		t.Fatalf("%d operators cached after a panicking build", n)
	}
	runJob(t, e, PoissonJob(8))
}
