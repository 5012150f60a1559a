package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"sdcgmres/internal/kernel"
	"sdcgmres/internal/obs"
)

// Counter and Histogram are the fleet-wide metric primitives, now owned
// by the observability core. The aliases keep this package's exported
// surface (and its users — dist, tests) stable across the move.
type (
	// Counter is a monotonically increasing metric.
	Counter = obs.Counter
	// Histogram is a fixed-bucket latency histogram (cumulative on
	// export, as the Prometheus text format expects).
	Histogram = obs.Histogram
)

// NewHistogram builds a histogram with the given upper bounds (seconds),
// or the default latency buckets when none are given.
func NewHistogram(bounds ...float64) *Histogram { return obs.NewHistogram(bounds...) }

// Metrics is the service's observability registry: counters for the job
// lifecycle and the resilience machinery, plus per-solver-kind latency
// histograms. All methods are safe for concurrent use.
type Metrics struct {
	// Job lifecycle.
	JobsAccepted  Counter
	JobsRejected  Counter
	JobsCompleted Counter
	JobsFailed    Counter
	JobsTimedOut  Counter
	JobsCanceled  Counter
	// JobsShed counts jobs the QoS scheduler dropped after admission: their
	// deadline expired while queued (admission-time rejections count under
	// JobsRejected and the per-tenant qos registry).
	JobsShed Counter
	// Resilience activity, aggregated from completed jobs' records.
	DetectorFirings Counter
	FaultInjections Counter
	SandboxFailures Counter
	// Campaign lifecycle (the durable batch layer).
	CampaignsStarted   Counter
	CampaignsCompleted Counter
	CampaignsFailed    Counter
	CampaignsCanceled  Counter
	// Campaign unit activity.
	CampaignUnitsExecuted Counter
	CampaignUnitsSkipped  Counter
	// CampaignUnitsMemoized counts units satisfied by the cross-campaign
	// solve cache (journaled without executing).
	CampaignUnitsMemoized Counter
	CampaignUnitsFailed   Counter
	// StoreIngestErrors counts records the results store failed to absorb
	// (the journal stays authoritative; these flag warehouse divergence).
	StoreIngestErrors Counter
	// Operator cache activity of the engine's default runner: matrices
	// built on a miss, and jobs that reused a cached operator.
	MatrixBuilds    Counter
	MatrixCacheHits Counter

	mu    sync.Mutex
	solve map[string]*Histogram // per solver kind
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{solve: make(map[string]*Histogram)}
}

// ObserveSolve records one completed solve's latency under its solver kind.
func (m *Metrics) ObserveSolve(kind string, d time.Duration) {
	m.mu.Lock()
	h := m.solve[kind]
	if h == nil {
		h = NewHistogram()
		m.solve[kind] = h
	}
	m.mu.Unlock()
	h.Observe(d.Seconds())
}

// SolveHistogram returns the latency histogram for a solver kind (nil if
// nothing was observed yet).
func (m *Metrics) SolveHistogram(kind string) *Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.solve[kind]
}

// MeanServiceTime returns the mean completed-solve latency across every
// solver kind — the live service-rate estimate behind Retry-After advice
// and deadline shedding. Zero before any solve completes.
func (m *Metrics) MeanServiceTime() time.Duration {
	m.mu.Lock()
	hists := make([]*Histogram, 0, len(m.solve))
	for _, h := range m.solve {
		hists = append(hists, h)
	}
	m.mu.Unlock()
	var sum float64
	var total int64
	for _, h := range hists {
		s, n := h.SumCount()
		sum += s
		total += n
	}
	if total == 0 {
		return 0
	}
	return time.Duration(sum / float64(total) * float64(time.Second))
}

// Snapshot returns the counters by exported name, for tests and JSON use.
func (m *Metrics) Snapshot() map[string]int64 {
	return map[string]int64{
		"jobs_accepted":    m.JobsAccepted.Value(),
		"jobs_rejected":    m.JobsRejected.Value(),
		"jobs_completed":   m.JobsCompleted.Value(),
		"jobs_failed":      m.JobsFailed.Value(),
		"jobs_timed_out":   m.JobsTimedOut.Value(),
		"jobs_canceled":    m.JobsCanceled.Value(),
		"jobs_shed":        m.JobsShed.Value(),
		"detector_firings": m.DetectorFirings.Value(),
		"fault_injections": m.FaultInjections.Value(),
		"sandbox_failures": m.SandboxFailures.Value(),

		"campaigns_started":       m.CampaignsStarted.Value(),
		"campaigns_completed":     m.CampaignsCompleted.Value(),
		"campaigns_failed":        m.CampaignsFailed.Value(),
		"campaigns_canceled":      m.CampaignsCanceled.Value(),
		"campaign_units_executed": m.CampaignUnitsExecuted.Value(),
		"campaign_units_skipped":  m.CampaignUnitsSkipped.Value(),
		"campaign_units_memoized": m.CampaignUnitsMemoized.Value(),
		"campaign_units_failed":   m.CampaignUnitsFailed.Value(),
		"store_ingest_errors":     m.StoreIngestErrors.Value(),
		"matrix_builds":           m.MatrixBuilds.Value(),
		"matrix_cache_hits":       m.MatrixCacheHits.Value(),
	}
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4) — what GET /metrics serves.
func (m *Metrics) WritePrometheus(w io.Writer) {
	counters := []struct {
		name, help string
		c          *Counter
	}{
		{"solved_jobs_accepted_total", "Jobs admitted to the queue.", &m.JobsAccepted},
		{"solved_jobs_rejected_total", "Jobs rejected by admission control (queue full).", &m.JobsRejected},
		{"solved_jobs_completed_total", "Jobs whose solve completed.", &m.JobsCompleted},
		{"solved_jobs_failed_total", "Jobs whose solve errored or panicked.", &m.JobsFailed},
		{"solved_jobs_timed_out_total", "Jobs killed by their wall-clock budget.", &m.JobsTimedOut},
		{"solved_jobs_canceled_total", "Jobs canceled by the caller or by shutdown.", &m.JobsCanceled},
		{"solved_jobs_shed_total", "Jobs dropped by the QoS scheduler after their queued deadline expired.", &m.JobsShed},
		{"solved_detector_firings_total", "SDC detector violations across all jobs.", &m.DetectorFirings},
		{"solved_fault_injections_total", "Armed fault injectors that actually fired.", &m.FaultInjections},
		{"solved_sandbox_failures_total", "Inner solves rejected at the sandbox boundary.", &m.SandboxFailures},
		{"solved_campaigns_started_total", "Campaigns admitted by the manager.", &m.CampaignsStarted},
		{"solved_campaigns_completed_total", "Campaigns whose every unit is journaled.", &m.CampaignsCompleted},
		{"solved_campaigns_failed_total", "Campaigns stopped by compile or journal failure.", &m.CampaignsFailed},
		{"solved_campaigns_canceled_total", "Campaigns canceled by the caller or by shutdown.", &m.CampaignsCanceled},
		{"solved_campaign_units_executed_total", "Campaign units executed (not resumed from a journal).", &m.CampaignUnitsExecuted},
		{"solved_campaign_units_skipped_total", "Campaign units satisfied by a journal on resume.", &m.CampaignUnitsSkipped},
		{"solved_campaign_units_memoized_total", "Campaign units satisfied by the cross-campaign solve cache.", &m.CampaignUnitsMemoized},
		{"solved_campaign_units_failed_total", "Campaign units journaled as failed or timed out.", &m.CampaignUnitsFailed},
		{"solved_store_ingest_errors_total", "Records the results store failed to absorb.", &m.StoreIngestErrors},
		{"solved_matrix_builds_total", "Job operators built because the operator cache missed.", &m.MatrixBuilds},
		{"solved_matrix_cache_hits_total", "Jobs that solved on a cached operator.", &m.MatrixCacheHits},
	}
	for _, c := range counters {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.c.Value())
	}

	m.mu.Lock()
	kinds := make([]string, 0, len(m.solve))
	for k := range m.solve {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	hists := make([]*Histogram, len(kinds))
	for i, k := range kinds {
		hists[i] = m.solve[k]
	}
	m.mu.Unlock()

	if len(kinds) > 0 {
		fmt.Fprintf(w, "# HELP solved_solve_duration_seconds Completed solve wall-clock latency by solver kind.\n")
		fmt.Fprintf(w, "# TYPE solved_solve_duration_seconds histogram\n")
	}
	for i, k := range kinds {
		hists[i].WritePrometheus(w, "solved_solve_duration_seconds", fmt.Sprintf("solver=%q", k))
	}
}

// writeKernelMetrics renders a kernel-pool stats snapshot in the Prometheus
// text format: the engine's aggregate parallel width and its lifetime
// dispatch/chunk/fallback counters. All-zero (but still present, so
// dashboards can rely on the series) when the process runs sequential
// kernels.
func writeKernelMetrics(w io.Writer, s kernel.Stats) {
	gauges := []struct {
		name, help string
		v          int64
	}{
		{"solved_kernel_workers", "Total kernel-pool width across engine workers.", int64(s.Workers)},
		{"solved_kernel_dispatches_total", "Parallel kernel dispatches (helpers woken).", s.Dispatches},
		{"solved_kernel_chunks_total", "Kernel work items executed across all dispatches.", s.Chunks},
		{"solved_kernel_seq_fallbacks_total", "Kernel calls answered on the sequential fast path.", s.SeqFallbacks},
	}
	for _, g := range gauges {
		typ := "counter"
		if g.name == "solved_kernel_workers" {
			typ = "gauge"
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", g.name, g.help, g.name, typ, g.name, g.v)
	}
}
