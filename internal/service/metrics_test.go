package service

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	c := NewMetrics().JobsAccepted
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
	m := NewMetrics()
	for _, v := range []time.Duration{500 * time.Microsecond, time.Millisecond, 500 * time.Millisecond, 5 * time.Second, 100 * time.Second} {
		m.ObserveSolve("gmres", v)
	}
	// 0.5 ms and 1 ms ≤ 0.001 (le is inclusive); 0.5 s ≤ 0.5; 5 s ≤ 5;
	// 100 s overflows. Buckets are cumulative on export.
	var sb strings.Builder
	m.WritePrometheus(&sb)
	for _, want := range []string{
		`solved_solve_duration_seconds_bucket{solver="gmres",le="0.001"} 2`,
		`solved_solve_duration_seconds_bucket{solver="gmres",le="0.5"} 3`,
		`solved_solve_duration_seconds_bucket{solver="gmres",le="5"} 4`,
		`solved_solve_duration_seconds_bucket{solver="gmres",le="30"} 4`,
		`solved_solve_duration_seconds_bucket{solver="gmres",le="+Inf"} 5`,
		`solved_solve_duration_seconds_count{solver="gmres"} 5`,
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
	if len(snap) != 24 {
		t.Fatalf("expected 24 counters, got %d", len(snap))
	}
	for _, k := range []string{"job_resumes", "job_outer_restored", "prefix_records"} {
		if _, ok := snap[k]; !ok {
			t.Fatalf("snapshot lacks %q: %v", k, snap)
		}
	}
}
