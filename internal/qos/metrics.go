package qos

import "sdcgmres/internal/obs"

// Metrics is the scheduler's per-tenant observability registry. All
// methods are safe for concurrent use.
type Metrics struct {
	reg       *obs.Registry
	admitted  obs.CounterVec
	throttled obs.CounterVec
	shed      obs.CounterVec
	depth     obs.GaugeVec
	wait      obs.HistogramVec
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	r := obs.NewRegistry()
	return &Metrics{
		reg:       r,
		admitted:  r.CounterVec("solved_qos_admitted_total", "Jobs admitted by the QoS scheduler.", "tenant"),
		throttled: r.CounterVec("solved_qos_throttled_total", "Jobs rejected by per-tenant rate limits.", "tenant"),
		shed:      r.CounterVec("solved_qos_shed_total", "Jobs rejected or dropped by admission control, by reason.", "tenant", "reason"),
		depth:     r.GaugeVec("solved_qos_queue_depth", "Jobs currently queued per tenant.", "tenant"),
		wait:      r.HistogramVec("solved_qos_wait_seconds", "Queue wait of dequeued jobs per tenant.", nil, "tenant"),
	}
}

// track creates a tenant's series at zero, so every tenant the scheduler
// knows is listed from the start.
func (m *Metrics) track(tenant string) {
	m.admitted.With(tenant)
	m.throttled.With(tenant)
	m.depth.With(tenant)
	m.wait.With(tenant)
}

// Admitted counts one admitted job.
func (m *Metrics) Admitted(tenant string) { m.admitted.With(tenant).Inc() }

// Shed counts one rejection or drop. Rate-limit rejections additionally
// count as throttled, so dashboards can split "too fast" from "too much".
func (m *Metrics) Shed(tenant string, reason Reason) {
	m.shed.With(tenant, string(reason)).Inc()
	if reason == ReasonThrottled {
		m.throttled.With(tenant).Inc()
	}
}

// Drop removes a tenant's series. The scheduler calls it when it evicts
// an idle dynamic tenant, so metric cardinality stays bounded alongside
// scheduler state.
func (m *Metrics) Drop(tenant string) {
	m.admitted.Delete(tenant)
	m.throttled.Delete(tenant)
	m.shed.Delete(tenant)
	m.depth.Delete(tenant)
	m.wait.Delete(tenant)
}

// ObserveWait records one dequeued job's queue wait in seconds.
func (m *Metrics) ObserveWait(tenant string, seconds float64) {
	m.wait.With(tenant).Observe(seconds)
}

// Snapshot returns a tenant's counters for tests and JSON use:
// "admitted", "throttled", and one "shed:<reason>" entry per reason seen.
// An unknown tenant has none.
func (m *Metrics) Snapshot(tenant string) map[string]int64 {
	return m.reg.Counts("solved_qos_", tenant)
}
