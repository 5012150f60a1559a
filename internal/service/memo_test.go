package service

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdcgmres/internal/kernel"
	"sdcgmres/internal/memo"
	"sdcgmres/internal/trace"
)

func smallSpec() JobSpec {
	return JobSpec{
		Matrix: MatrixSpec{Kind: "poisson", N: 12},
		Solver: SolverSpec{Kind: "gmres", InnerIters: 8, MaxOuter: 20},
	}
}

// TestMemoHitByteIdenticalRecord runs the real solver once, then requires
// the memoized answer to be byte-for-byte the fresh record — and to be
// served terminal straight from Submit, without touching the queue.
func TestMemoHitByteIdenticalRecord(t *testing.T) {
	c := memo.New(memo.Config{})
	e := NewEngine(Config{Workers: 1, Memo: c})
	e.Start()
	defer e.Shutdown(context.Background())

	first, err := e.Submit(smallSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	fresh := waitTerminal(t, e, first.ID, 10*time.Second)
	if fresh.State != StateDone {
		t.Fatalf("fresh job ended %s: %s", fresh.State, fresh.Error)
	}
	if fresh.FromMemo {
		t.Fatal("first execution must not be marked from_memo")
	}

	second, err := e.Submit(smallSpec())
	if err != nil {
		t.Fatalf("second submit: %v", err)
	}
	if second.State != StateDone || !second.FromMemo {
		t.Fatalf("second submit: state %s from_memo %v, want done from memo synchronously", second.State, second.FromMemo)
	}
	a, _ := json.Marshal(fresh.Result)
	b, _ := json.Marshal(second.Result)
	if string(a) != string(b) {
		t.Fatalf("memoized record differs from fresh:\nfresh: %s\nmemo:  %s", a, b)
	}

	st := c.Stats()
	if st.Hits < 1 || st.Puts < 1 {
		t.Fatalf("cache stats = %+v, want at least one put and one hit", st)
	}
	snap := e.Metrics().Snapshot()
	if snap["jobs_completed"] != 2 || snap["jobs_accepted"] != 2 {
		t.Fatalf("accepted/completed = %d/%d, want 2/2", snap["jobs_accepted"], snap["jobs_completed"])
	}
}

// TestMemoSingleflightCollapse floods the engine with identical jobs
// while the runner is gated: exactly one execution must happen, everyone
// else rides the leader's result.
func TestMemoSingleflightCollapse(t *testing.T) {
	const jobs = 6
	gate := make(chan struct{})
	var executions atomic.Int64
	runner := func(ctx context.Context, spec *JobSpec, _ *trace.Recorder, _ *kernel.Pool) (*SolveRecord, error) {
		executions.Add(1)
		<-gate
		return &SolveRecord{Problem: "stub", Solver: spec.SolverKind(), Converged: true}, nil
	}
	e := NewEngine(Config{Workers: jobs, QueueDepth: jobs, Runner: runner, Memo: memo.New(memo.Config{})})
	e.Start()
	defer e.Shutdown(context.Background())

	var mu sync.Mutex
	ids := make([]string, 0, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := e.Submit(smallSpec())
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			mu.Lock()
			ids = append(ids, v.ID)
			mu.Unlock()
		}()
	}
	wg.Wait()
	// Let every worker reach the singleflight gate, then release the leader.
	deadline := time.Now().Add(5 * time.Second)
	for executions.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(gate)

	for _, id := range ids {
		v := waitTerminal(t, e, id, 10*time.Second)
		if v.State != StateDone {
			t.Fatalf("job %s ended %s: %s", id, v.State, v.Error)
		}
	}
	if n := executions.Load(); n != 1 {
		t.Fatalf("runner executed %d times for %d identical jobs, want 1", n, jobs)
	}
}

// TestMemoNilCacheUnchangedWire proves the no-cache engine's wire form is
// untouched by the feature: no from_memo key ever appears.
func TestMemoNilCacheUnchangedWire(t *testing.T) {
	e := NewEngine(Config{Workers: 1, Runner: stubRunner(-1, 0)})
	e.Start()
	defer e.Shutdown(context.Background())
	v, err := e.Submit(smallSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	done := waitTerminal(t, e, v.ID, 5*time.Second)
	raw, _ := json.Marshal(done)
	if strings.Contains(string(raw), "from_memo") {
		t.Fatalf("nil-cache view leaked from_memo: %s", raw)
	}
	if e.MemoEnabled() {
		t.Fatal("MemoEnabled() = true without a cache")
	}
}

// TestSpecDigestNormalization pins the canonical-form rules: defaults
// spelled out or omitted digest identically, scheduling fields are
// excluded, and solve-relevant fields are not.
func TestSpecDigestNormalization(t *testing.T) {
	base := smallSpec()

	spelled := base
	spelled.Solver.Ortho = "mgs"
	spelled.Solver.Policy = "fallback"
	spelled.Solver.Precond = "none"
	if SpecDigest(&base) != SpecDigest(&spelled) {
		t.Fatal("spelled-out defaults must digest identically to omitted ones")
	}

	tenanted := base
	tenanted.Tenant = "alice"
	tenanted.Class = "batch"
	tenanted.DeadlineMS = 5000
	tenanted.TimeBudgetMS = 1000
	if SpecDigest(&base) != SpecDigest(&tenanted) {
		t.Fatal("scheduling fields must not change the digest")
	}

	// Detector knobs only matter when the detector is on.
	offA, offB := base, base
	offA.Solver.Bound = "frobenius"
	offB.Solver.Bound = "spectral"
	if SpecDigest(&offA) != SpecDigest(&offB) {
		t.Fatal("bound must not matter with the detector off")
	}
	onA, onB := offA, offB
	onA.Solver.Detector = true
	onB.Solver.Detector = true
	if SpecDigest(&onA) == SpecDigest(&onB) {
		t.Fatal("bound must matter with the detector on")
	}

	bigger := base
	bigger.Matrix.N = 13
	if SpecDigest(&base) == SpecDigest(&bigger) {
		t.Fatal("matrix size must change the digest")
	}

	faulted := base
	faulted.Fault = &FaultSpec{Class: "large", At: 3}
	if SpecDigest(&base) == SpecDigest(&faulted) {
		t.Fatal("fault injection must change the digest")
	}
}

// TestSpecDigestStable pins digests of every matrix kind: memo keys and
// store-warmed caches outlive a process, so the canonical form must not
// drift.
func TestSpecDigestStable(t *testing.T) {
	mm := "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 4.0\n2 2 4.0\n"
	cases := []struct {
		spec JobSpec
		want string
	}{
		{PoissonJob(48), "1adea3ab0b45d32e"},
		{CircuitJob(2000), "1e98460dd7e6dd3f"},
		{ConvDiffJob(48), "9c68298032546224"},
		{JobSpec{Matrix: MatrixSpec{Kind: "convdiff", N: 48, CX: 1, CY: 2}}, "8c71b10337232ff9"},
		{MatrixMarketJob(mm), "3e54832b702d504c"},
	}
	for _, c := range cases {
		if got := SpecDigest(&c.spec); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.spec.Matrix.Kind, got, c.want)
		}
	}
}

// TestMemoTraceEvent requires a memo-served job to carry a memo-hit event
// in its own trace.
func TestMemoTraceEvent(t *testing.T) {
	e := NewEngine(Config{Workers: 1, Runner: stubRunner(-1, 0), Memo: memo.New(memo.Config{}), TraceCapacity: 64})
	e.Start()
	defer e.Shutdown(context.Background())
	v, err := e.Submit(smallSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitTerminal(t, e, v.ID, 5*time.Second)
	hit, err := e.Submit(smallSpec())
	if err != nil {
		t.Fatalf("second submit: %v", err)
	}
	if !hit.FromMemo {
		t.Fatalf("second submit not memoized: %+v", hit)
	}
	events, err := e.JobTrace(hit.ID)
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	found := false
	for _, ev := range events {
		if ev.Kind == trace.KindMemoHit {
			found = true
		}
	}
	if !found {
		t.Fatalf("memo-served job's trace has no memo-hit event (%d events)", len(events))
	}
}
