package obs

import (
	"io"
	"log/slog"
	"net/http"
	"time"
)

// redBuckets are the HTTP latency histogram bounds in seconds — tighter
// at the low end than the solve buckets because API round-trips are
// dominated by sub-millisecond handlers.
var redBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// RED is a per-route RED-metrics registry (rate, errors, duration) with
// consistent label conventions across every mux in the fleet:
//
//	<prefix>_http_requests_total{route,method}          counter
//	<prefix>_http_errors_total{route,class}             counter (class ∈ 4xx, 5xx)
//	<prefix>_http_request_duration_seconds{route}       histogram
//
// The service mux uses prefix "solved", the dist coordinator mux
// "dist" — distinct families so both registries can share one /metrics
// exposition without interleaving.
type RED struct {
	reg  *Registry
	reqs CounterVec
	errs CounterVec
	lat  HistogramVec
}

// NewRED builds an empty registry whose families are named
// <prefix>_http_*.
func NewRED(prefix string) *RED {
	r := NewRegistry()
	return &RED{
		reg:  r,
		reqs: r.CounterVec(prefix+"_http_requests_total", "HTTP requests served, by route and method.", "route", "method"),
		errs: r.CounterVec(prefix+"_http_errors_total", "HTTP error responses, by route and status class.", "route", "class"),
		lat:  r.HistogramVec(prefix+"_http_request_duration_seconds", "HTTP request latency, by route.", redBuckets, "route"),
	}
}

// Observe records one completed request. Nil receiver is a no-op.
func (m *RED) Observe(route, method string, status int, elapsed time.Duration) {
	if m == nil {
		return
	}
	m.reqs.With(route, method).Inc()
	if status >= 500 {
		m.errs.With(route, "5xx").Inc()
	} else if status >= 400 {
		m.errs.With(route, "4xx").Inc()
	}
	m.lat.With(route).Observe(elapsed.Seconds())
}

// WritePrometheus renders the registry in the text exposition format.
// Nil receiver writes nothing.
func (m *RED) WritePrometheus(w io.Writer) {
	if m == nil {
		return
	}
	m.reg.WritePrometheus(w)
}

// statusWriter captures the response status for RED accounting while
// passing Flush through for streaming handlers.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Instrument wraps next with the fleet's standard HTTP telemetry:
//
//   - adopts the request's X-Correlation-ID (minting one when absent),
//     stores it in the request context, and echoes it on the response;
//   - records RED metrics under the given route label (the registration
//     pattern, not the raw URL, so path parameters do not explode
//     cardinality);
//   - logs one debug record per request (warn for 5xx responses).
//
// red and log may each be nil — correlation propagation still works.
func Instrument(red *RED, log *Logger, route string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cid := r.Header.Get(Header)
		if cid == "" {
			cid = NewID()
		}
		ctx := With(r.Context(), Correlation{ID: cid})
		w.Header().Set(Header, cid)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(ctx))
		elapsed := time.Since(start)
		red.Observe(route, r.Method, sw.status, elapsed)
		level := slog.LevelDebug
		if sw.status >= 500 {
			level = slog.LevelWarn
		}
		if log.Enabled(level) {
			args := []any{"route", route, "method", r.Method, "status", sw.status,
				"elapsed_us", elapsed.Microseconds()}
			if level == slog.LevelWarn {
				log.Warn(ctx, "http request failed", args...)
			} else {
				log.Debug(ctx, "http request", args...)
			}
		}
	})
}
