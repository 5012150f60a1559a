package service

import (
	"io"
	"time"

	"sdcgmres/internal/kernel"
	"sdcgmres/internal/obs"
)

// Metrics is the service's observability registry: counters for the job
// lifecycle and the resilience machinery, plus per-solver-kind latency
// histograms. All methods are safe for concurrent use.
type Metrics struct {
	reg *obs.Registry

	// Job lifecycle.
	JobsAccepted  *obs.Counter
	JobsRejected  *obs.Counter
	JobsCompleted *obs.Counter
	JobsFailed    *obs.Counter
	JobsTimedOut  *obs.Counter
	JobsCanceled  *obs.Counter
	// JobsShed counts jobs the QoS scheduler dropped after admission: their
	// deadline expired while queued (admission-time rejections count under
	// JobsRejected and the per-tenant qos registry).
	JobsShed *obs.Counter
	// Resilience activity, aggregated from completed jobs' records.
	DetectorFirings *obs.Counter
	FaultInjections *obs.Counter
	SandboxFailures *obs.Counter
	// Campaign lifecycle (the durable batch layer).
	CampaignsStarted   *obs.Counter
	CampaignsCompleted *obs.Counter
	CampaignsFailed    *obs.Counter
	CampaignsCanceled  *obs.Counter
	// Campaign unit activity.
	CampaignUnitsExecuted *obs.Counter
	CampaignUnitsSkipped  *obs.Counter
	// CampaignUnitsMemoized counts units satisfied by the cross-campaign
	// solve cache (journaled without executing).
	CampaignUnitsMemoized *obs.Counter
	CampaignUnitsFailed   *obs.Counter
	// StoreIngestErrors counts records the results store failed to absorb
	// (the journal stays authoritative; these flag warehouse divergence).
	StoreIngestErrors *obs.Counter
	// Operator cache activity of the engine's default runner: matrices
	// built on a miss, and jobs that reused a cached operator.
	MatrixBuilds    *obs.Counter
	MatrixCacheHits *obs.Counter

	solve obs.HistogramVec // per solver kind
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	r := obs.NewRegistry()
	return &Metrics{
		reg:                   r,
		JobsAccepted:          r.Counter("solved_jobs_accepted_total", "Jobs admitted to the queue."),
		JobsRejected:          r.Counter("solved_jobs_rejected_total", "Jobs rejected by admission control (queue full)."),
		JobsCompleted:         r.Counter("solved_jobs_completed_total", "Jobs whose solve completed."),
		JobsFailed:            r.Counter("solved_jobs_failed_total", "Jobs whose solve errored or panicked."),
		JobsTimedOut:          r.Counter("solved_jobs_timed_out_total", "Jobs killed by their wall-clock budget."),
		JobsCanceled:          r.Counter("solved_jobs_canceled_total", "Jobs canceled by the caller or by shutdown."),
		JobsShed:              r.Counter("solved_jobs_shed_total", "Jobs dropped by the QoS scheduler after their queued deadline expired."),
		DetectorFirings:       r.Counter("solved_detector_firings_total", "SDC detector violations across all jobs."),
		FaultInjections:       r.Counter("solved_fault_injections_total", "Armed fault injectors that actually fired."),
		SandboxFailures:       r.Counter("solved_sandbox_failures_total", "Inner solves rejected at the sandbox boundary."),
		CampaignsStarted:      r.Counter("solved_campaigns_started_total", "Campaigns admitted by the manager."),
		CampaignsCompleted:    r.Counter("solved_campaigns_completed_total", "Campaigns whose every unit is journaled."),
		CampaignsFailed:       r.Counter("solved_campaigns_failed_total", "Campaigns stopped by compile or journal failure."),
		CampaignsCanceled:     r.Counter("solved_campaigns_canceled_total", "Campaigns canceled by the caller or by shutdown."),
		CampaignUnitsExecuted: r.Counter("solved_campaign_units_executed_total", "Campaign units executed (not resumed from a journal)."),
		CampaignUnitsSkipped:  r.Counter("solved_campaign_units_skipped_total", "Campaign units satisfied by a journal on resume."),
		CampaignUnitsMemoized: r.Counter("solved_campaign_units_memoized_total", "Campaign units satisfied by the cross-campaign solve cache."),
		CampaignUnitsFailed:   r.Counter("solved_campaign_units_failed_total", "Campaign units journaled as failed or timed out."),
		StoreIngestErrors:     r.Counter("solved_store_ingest_errors_total", "Records the results store failed to absorb."),
		MatrixBuilds:          r.Counter("solved_matrix_builds_total", "Job operators built because the operator cache missed."),
		MatrixCacheHits:       r.Counter("solved_matrix_cache_hits_total", "Jobs that solved on a cached operator."),
		solve:                 r.HistogramVec("solved_solve_duration_seconds", "Completed solve wall-clock latency by solver kind.", nil, "solver"),
	}
}

// ObserveSolve records one completed solve's latency under its solver kind.
func (m *Metrics) ObserveSolve(kind string, d time.Duration) {
	m.solve.With(kind).Observe(d.Seconds())
}

// MeanServiceTime returns the mean completed-solve latency across every
// solver kind — the live service-rate estimate behind Retry-After advice
// and deadline shedding. Zero before any solve completes.
func (m *Metrics) MeanServiceTime() time.Duration {
	var sum float64
	var total int64
	m.solve.Each(func(_ []string, h *obs.Histogram) {
		s, n := h.SumCount()
		sum += s
		total += n
	})
	if total == 0 {
		return 0
	}
	return time.Duration(sum / float64(total) * float64(time.Second))
}

// Snapshot returns the counters keyed by family name less the "solved_"
// prefix and "_total" suffix (e.g. "jobs_accepted"), for tests and JSON
// use.
func (m *Metrics) Snapshot() map[string]int64 { return m.reg.Counts("solved_") }

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4) — what GET /metrics serves.
func (m *Metrics) WritePrometheus(w io.Writer) { m.reg.WritePrometheus(w) }

// kernelMetrics exports the engine's kernel-pool stats: the aggregate
// parallel width and the lifetime dispatch/chunk/fallback counters.
// All-zero (but still present, so dashboards can rely on the series) when
// the process runs sequential kernels.
func kernelMetrics(e *Engine) *obs.Registry {
	r := obs.NewRegistry()
	var s kernel.Stats
	r.OnScrape(func() { s = e.KernelStats() })
	r.GaugeFunc("solved_kernel_workers", "Total kernel-pool width across engine workers.", func() float64 { return float64(s.Workers) })
	r.CounterFunc("solved_kernel_dispatches_total", "Parallel kernel dispatches (helpers woken).", func() float64 { return float64(s.Dispatches) })
	r.CounterFunc("solved_kernel_chunks_total", "Kernel work items executed across all dispatches.", func() float64 { return float64(s.Chunks) })
	r.CounterFunc("solved_kernel_seq_fallbacks_total", "Kernel calls answered on the sequential fast path.", func() float64 { return float64(s.SeqFallbacks) })
	return r
}
