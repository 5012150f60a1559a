package campaign

import (
	"io"

	"sdcgmres/internal/obs"
)

// Metrics is the coordinator's observability registry: lease lifecycle
// counters plus per-worker unit latency histograms, rendered in the
// Prometheus text exposition format. The families keep the dist_ prefix of
// the fleet's /metrics page. All methods are safe for concurrent use.
type Metrics struct {
	reg *obs.Registry

	// Lease lifecycle.
	LeasesGranted   *obs.Counter
	LeasesCompleted *obs.Counter
	LeasesExpired   *obs.Counter
	LeasesRenewed   *obs.Counter
	// Unit flow.
	UnitsCompleted *obs.Counter
	UnitsRequeued  *obs.Counter
	// UnitsMemoized counts units satisfied from the solve cache before
	// they could be leased to a worker.
	UnitsMemoized *obs.Counter
	// Trust boundary.
	RecordsRejected  *obs.Counter
	RecordsDuplicate *obs.Counter

	unitLatency obs.HistogramVec // per worker
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	r := obs.NewRegistry()
	return &Metrics{
		reg:              r,
		LeasesGranted:    r.Counter("dist_leases_granted_total", "Unit-batch leases granted to workers."),
		LeasesCompleted:  r.Counter("dist_leases_completed_total", "Leases whose every unit was completed."),
		LeasesExpired:    r.Counter("dist_leases_expired_total", "Leases expired by missed heartbeats (units requeued)."),
		LeasesRenewed:    r.Counter("dist_leases_renewed_total", "Lease heartbeat renewals."),
		UnitsCompleted:   r.Counter("dist_units_completed_total", "Units journaled from worker reports."),
		UnitsRequeued:    r.Counter("dist_units_requeued_total", "Units requeued from expired leases."),
		UnitsMemoized:    r.Counter("dist_units_memoized_total", "Units satisfied from the solve cache before leasing."),
		RecordsRejected:  r.Counter("dist_records_rejected_total", "Worker records rejected at the trust boundary."),
		RecordsDuplicate: r.Counter("dist_records_duplicate_total", "Duplicate records acknowledged without re-journaling."),
		unitLatency:      r.HistogramVec("dist_unit_duration_seconds", "Completed campaign-unit wall clock by worker.", nil, "worker"),
	}
}

// ObserveUnit records one completed unit's wall clock under its worker.
func (m *Metrics) ObserveUnit(worker string, seconds float64) {
	m.unitLatency.With(worker).Observe(seconds)
}

// Workers lists every worker that completed at least one unit, sorted.
func (m *Metrics) Workers() []string {
	var out []string
	m.unitLatency.Each(func(values []string, _ *obs.Histogram) { out = append(out, values[0]) })
	return out
}

// Snapshot returns the counters keyed by family name less the "dist_"
// prefix and "_total" suffix (e.g. "leases_granted"), for tests and JSON
// use.
func (m *Metrics) Snapshot() map[string]int64 { return m.reg.Counts("dist_") }

// WritePrometheus renders the registry in the Prometheus text exposition
// format. It is appended to GET /metrics on both the standalone host and a
// coordinating solved daemon.
func (m *Metrics) WritePrometheus(w io.Writer) { m.reg.WritePrometheus(w) }
