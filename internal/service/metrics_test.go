package service

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 1000 {
		t.Fatalf("counter = %d, want 1000", c.Value())
	}
	c.Add(-5) // negative deltas ignored: counters are monotonic
	if c.Value() != 1000 {
		t.Fatalf("counter moved backwards: %d", c.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(0.1, 1, 10)
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	// 0.05 and 0.1 ≤ 0.1 (le is inclusive); 0.5 ≤ 1; 5 ≤ 10; 100 overflows.
	// Buckets are cumulative on export.
	var sb strings.Builder
	h.WritePrometheus(&sb, "h", "")
	for _, want := range []string{
		`h_bucket{le="0.1"} 2`,
		`h_bucket{le="1"} 3`,
		`h_bucket{le="10"} 4`,
		`h_bucket{le="+Inf"} 5`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, sb.String())
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	m := NewMetrics()
	m.JobsAccepted.Add(7)
	m.JobsRejected.Inc()
	m.ObserveSolve("ftgmres", 30*time.Millisecond)
	m.ObserveSolve("ftgmres", 2*time.Second)
	m.ObserveSolve("cg", 5*time.Millisecond)

	var sb strings.Builder
	m.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"solved_jobs_accepted_total 7",
		"solved_jobs_rejected_total 1",
		"solved_jobs_completed_total 0",
		`solved_solve_duration_seconds_count{solver="ftgmres"} 2`,
		`solved_solve_duration_seconds_count{solver="cg"} 1`,
		`solved_solve_duration_seconds_bucket{solver="ftgmres",le="+Inf"} 2`,
		"# TYPE solved_solve_duration_seconds histogram",
		"# TYPE solved_jobs_accepted_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotKeys(t *testing.T) {
	m := NewMetrics()
	m.JobsCompleted.Inc()
	snap := m.Snapshot()
	if snap["jobs_completed"] != 1 {
		t.Fatalf("snapshot: %v", snap)
	}
	if len(snap) != 21 {
		t.Fatalf("expected 21 counters, got %d", len(snap))
	}
}
