package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"

	"sdcgmres/internal/campaign"
	"sdcgmres/internal/obs"
	"sdcgmres/internal/qos"
	"sdcgmres/internal/store"
	"sdcgmres/internal/trace"
)

// ServerOptions configures the HTTP layer.
type ServerOptions struct {
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// MaxBodyBytes caps request bodies (default 16 MiB — an inline Matrix
	// Market payload plus JSON overhead). Oversized submissions are
	// rejected with 413 before the decoder buffers them.
	MaxBodyBytes int64
	// Campaigns, when non-nil, mounts the /v1/campaigns API.
	Campaigns *CampaignManager
	// Mode is the role /healthz reports so fleet probes can tell a
	// standalone daemon, a distributed-campaign coordinator and a worker
	// apart (default "standalone").
	Mode string
	// LeaseBacklog, when non-nil, adds the coordinator's incomplete-unit
	// count (pending + leased) to /healthz.
	LeaseBacklog func() int
	// Dist, when non-nil, handles the distributed-campaign wire protocol:
	// it receives every request under /v1/dist/ and /v1/leases.
	Dist http.Handler
	// ExtraMetrics are appended to GET /metrics after the engine registry
	// (e.g. the dist coordinator's lease counters).
	ExtraMetrics []func(io.Writer)
	// Store, when non-nil, mounts the results-warehouse API
	// (POST /v1/results/query, GET /v1/campaigns/{id}/stats) and appends
	// the store gauges to GET /metrics.
	Store *store.Store
	// Log receives the HTTP request log and backs GET /v1/debug/logs
	// when built with a ring buffer. Nil disables request logging (the
	// correlation-ID middleware still runs).
	Log *obs.Logger
	// Introspector, when non-nil, enriches GET /v1/debug/status with
	// runtime vitals and registered subsystem snapshots and appends the
	// process gauges to GET /metrics.
	Introspector *obs.Introspector
}

// Server exposes an Engine over HTTP:
//
//	POST   /v1/jobs      submit a JobSpec    → 202 JobView | 400 | 429 | 503
//	GET    /v1/jobs      list jobs           → 200 {"jobs": [JobView]}
//	GET    /v1/jobs/{id} job status/result   → 200 JobView | 404
//	GET    /v1/jobs/{id}/trace flight-recorder stream (?format=jsonl|chrome) → 200 | 400 | 404
//	DELETE /v1/jobs/{id} cancel a job        → 200 JobView | 404 | 409
//	GET    /healthz      liveness/readiness  → 200 | 503 (draining)
//	GET    /metrics      Prometheus text exposition
//	/debug/pprof/*       (optional) runtime profiling
//
// and, when a CampaignManager is configured:
//
//	POST   /v1/campaigns      submit a campaign.Manifest → 202 CampaignView | 400 | 503
//	GET    /v1/campaigns      list campaigns             → 200 {"campaigns": [CampaignView]}
//	GET    /v1/campaigns/{id} campaign status/progress   → 200 CampaignView | 404
//	GET    /v1/campaigns/{id}/trace flight-recorder stream (?format=jsonl|chrome) → 200 | 400 | 404
//	DELETE /v1/campaigns/{id} cancel (journal survives)  → 200 CampaignView | 404 | 409
//
// and, when a results store is configured:
//
//	POST   /v1/results/query          store.Query → 200 store.QueryResult | 400
//	GET    /v1/campaigns/{id}/stats   server-side paper statistics (?diff=<campaign> adds a comparison) → 200 | 404
//
// Every /v1 route (plus /healthz and /metrics) runs behind the obs
// middleware: the request's X-Correlation-ID is adopted (or minted) into
// the request context and echoed on the response, and RED metrics are
// recorded per route under the solved_http_* families. The debug surface:
//
//	GET /v1/debug/status  consolidated self-report (build, runtime, subsystem snapshots, recent logs)
//	GET /v1/debug/logs    poll the log ring (?cid=&job=&campaign=&after=&limit=)
//
// The results and trace endpoints negotiate gzip response encoding via
// Accept-Encoding.
type Server struct {
	engine *Engine
	opts   ServerOptions
	mux    *http.ServeMux
	red    *obs.RED
	kernel *obs.Registry
}

// NewServer builds the HTTP front end for an engine.
func NewServer(engine *Engine, opts ServerOptions) *Server {
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 16 << 20
	}
	s := &Server{engine: engine, opts: opts, mux: http.NewServeMux(), red: obs.NewRED("solved"), kernel: kernelMetrics(engine)}
	// handle wraps every route in the shared telemetry middleware. The
	// route label is the registration pattern's path (not the raw URL),
	// keeping metric cardinality bounded.
	handle := func(pattern, route string, h http.HandlerFunc) {
		s.mux.Handle(pattern, obs.Instrument(s.red, opts.Log, route, h))
	}
	handle("POST /v1/jobs", "/v1/jobs", s.handleSubmit)
	handle("GET /v1/jobs", "/v1/jobs", s.handleList)
	handle("GET /v1/jobs/{id}", "/v1/jobs/{id}", s.handleGet)
	handle("GET /v1/jobs/{id}/trace", "/v1/jobs/{id}/trace", s.handleJobTrace)
	handle("DELETE /v1/jobs/{id}", "/v1/jobs/{id}", s.handleCancel)
	handle("GET /healthz", "/healthz", s.handleHealthz)
	handle("GET /metrics", "/metrics", s.handleMetrics)
	handle("GET /v1/debug/status", "/v1/debug/status", s.handleDebugStatus)
	handle("GET /v1/debug/logs", "/v1/debug/logs", s.handleDebugLogs)
	if opts.Campaigns != nil {
		handle("POST /v1/campaigns", "/v1/campaigns", s.handleCampaignSubmit)
		handle("GET /v1/campaigns", "/v1/campaigns", s.handleCampaignList)
		handle("GET /v1/campaigns/{id}", "/v1/campaigns/{id}", s.handleCampaignGet)
		handle("GET /v1/campaigns/{id}/trace", "/v1/campaigns/{id}/trace", s.handleCampaignTrace)
		handle("DELETE /v1/campaigns/{id}", "/v1/campaigns/{id}", s.handleCampaignCancel)
	}
	if opts.Store != nil {
		handle("POST /v1/results/query", "/v1/results/query", s.handleResultsQuery)
		handle("GET /v1/campaigns/{id}/stats", "/v1/campaigns/{id}/stats", s.handleCampaignStats)
	}
	if opts.Dist != nil {
		// The dist host carries its own RED registry (dist_http_*) and
		// correlation middleware; mounting it raw avoids double counting.
		s.mux.Handle("/v1/dist/", opts.Dist)
		s.mux.Handle("/v1/leases", opts.Dist)
		s.mux.Handle("/v1/leases/", opts.Dist)
	}
	if opts.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// decodeBody decodes a bounded JSON request body into v, writing the error
// response itself when decoding fails: 413 when the body exceeds the
// configured cap, 400 otherwise. It reports whether decoding succeeded.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return true
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("%s exceeds %d byte limit", what, mbe.Limit))
		return false
	}
	writeError(w, http.StatusBadRequest, "bad "+what+": "+err.Error())
	return false
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if !s.decodeBody(w, r, "job spec", &spec) {
		return
	}
	// The X-Tenant header names the tenant without touching the spec body;
	// an explicit spec field wins when both are present.
	if spec.Tenant == "" {
		spec.Tenant = r.Header.Get("X-Tenant")
	}
	view, err := s.engine.SubmitCtx(r.Context(), spec)
	var shed *qos.ShedError
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, view)
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.As(err, &shed):
		writeThrottled(w, shed.RetryAfterSeconds(), err.Error())
	default:
		writeError(w, http.StatusBadRequest, err.Error())
	}
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.engine.Jobs()})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	view, ok := s.engine.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrUnknownJob.Error())
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	view, err := s.engine.Cancel(r.PathValue("id"))
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, view)
	case errors.Is(err, ErrUnknownJob):
		writeError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, ErrNotCancelable):
		writeError(w, http.StatusConflict, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := http.StatusOK
	state := "ok"
	if s.engine.Draining() {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	mode := s.opts.Mode
	if mode == "" {
		mode = "standalone"
	}
	body := map[string]any{
		"status":  state,
		"mode":    mode,
		"workers": s.engine.Workers(),
		"queued":  s.engine.QueueLen(),
		"build":   obs.BuildInfo(),
	}
	if s.opts.Introspector != nil {
		body["uptime_seconds"] = s.opts.Introspector.Uptime().Seconds()
	}
	if s.opts.LeaseBacklog != nil {
		body["lease_backlog"] = s.opts.LeaseBacklog()
	}
	if s.engine.QoSEnabled() {
		body["qos"] = s.engine.QoSState()
	}
	if s.engine.MemoEnabled() {
		body["memo"] = s.engine.MemoStats()
	}
	writeJSON(w, status, body)
}

func (s *Server) handleCampaignSubmit(w http.ResponseWriter, r *http.Request) {
	var man campaign.Manifest
	if !s.decodeBody(w, r, "campaign manifest", &man) {
		return
	}
	view, err := s.opts.Campaigns.SubmitCtx(r.Context(), man)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, view)
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, ErrBusy):
		writeThrottled(w, s.engine.RetryAfter(), err.Error())
	default:
		writeError(w, http.StatusBadRequest, err.Error())
	}
}

func (s *Server) handleCampaignList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"campaigns": s.opts.Campaigns.Campaigns()})
}

func (s *Server) handleCampaignGet(w http.ResponseWriter, r *http.Request) {
	view, ok := s.opts.Campaigns.Campaign(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrUnknownCampaign.Error())
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleCampaignCancel(w http.ResponseWriter, r *http.Request) {
	view, err := s.opts.Campaigns.Cancel(r.PathValue("id"))
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, view)
	case errors.Is(err, ErrUnknownCampaign):
		writeError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, ErrCampaignTerminal):
		writeError(w, http.StatusConflict, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	events, err := s.engine.JobTrace(r.PathValue("id"))
	gw, finish := negotiateGzip(w, r)
	defer finish()
	writeTrace(gw, r, events, err)
}

func (s *Server) handleCampaignTrace(w http.ResponseWriter, r *http.Request) {
	events, err := s.opts.Campaigns.Trace(r.PathValue("id"))
	gw, finish := negotiateGzip(w, r)
	defer finish()
	writeTrace(gw, r, events, err)
}

// writeTrace serves a flight-recorder stream. ?format=jsonl (the default)
// streams one event per line; ?format=chrome emits a Chrome trace_event
// document loadable in about://tracing or Perfetto.
//
// Paging follows the v1 limit/cursor convention, opt-in so the default
// stays a complete stream: ?limit=N caps the page and a truncated
// response carries an X-Next-Cursor header whose value resumes the
// stream via ?cursor=.
func writeTrace(w http.ResponseWriter, r *http.Request, events []trace.Event, err error) {
	switch {
	case err == nil:
	case errors.Is(err, ErrNoTrace):
		writeError(w, http.StatusNotFound, err.Error()+" (start the daemon with tracing enabled)")
		return
	default:
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	q := r.URL.Query()
	start := 0
	if c := q.Get("cursor"); c != "" {
		pos, cerr := parseCursor(c)
		if cerr != nil {
			writeError(w, http.StatusBadRequest, cerr.Error())
			return
		}
		start = min(pos, len(events))
	}
	events = events[start:]
	if l := q.Get("limit"); l != "" {
		n, lerr := strconv.Atoi(l)
		if lerr != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("malformed limit %q (want a positive integer)", l))
			return
		}
		if n < len(events) {
			events = events[:n]
			w.Header().Set("X-Next-Cursor", encodeCursor(start+n))
		}
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "jsonl":
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = trace.WriteJSONL(w, events)
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		_ = trace.WriteChromeTrace(w, events)
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown trace format %q (want jsonl or chrome)", format))
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.engine.Metrics().WritePrometheus(w)
	s.kernel.WritePrometheus(w)
	s.engine.WriteQoSMetrics(w)
	s.engine.WriteMemoMetrics(w)
	if s.opts.Store != nil {
		s.opts.Store.WritePrometheus(w)
	}
	for _, extra := range s.opts.ExtraMetrics {
		extra(w)
	}
	obs.WriteBuildMetric(w)
	s.opts.Introspector.WritePrometheus(w)
	s.red.WritePrometheus(w)
}

// handleDebugStatus serves the consolidated self-report. ?logs=N bounds
// the recent-log tail (default 50, 0 disables).
func (s *Server) handleDebugStatus(w http.ResponseWriter, r *http.Request) {
	tail := 50
	if v := r.URL.Query().Get("logs"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("malformed logs %q (want a non-negative integer)", v))
			return
		}
		tail = n
	}
	st := s.opts.Introspector.Status(0)
	if tail > 0 {
		st.RecentLogs = s.opts.Log.Ring().Tail(tail)
	}
	if st.Sections == nil {
		st.Sections = map[string]any{}
	}
	mode := s.opts.Mode
	if mode == "" {
		mode = "standalone"
	}
	st.Sections["server"] = map[string]any{
		"mode":     mode,
		"draining": s.engine.Draining(),
		"workers":  s.engine.Workers(),
		"queued":   s.engine.QueueLen(),
	}
	writeJSON(w, http.StatusOK, st)
}

// LogsPage is the GET /v1/debug/logs payload: ring records newer than
// the requested cursor plus the newest sequence number to echo back on
// the next poll.
type LogsPage struct {
	Records []obs.LogRecord `json:"records"`
	NextSeq int64           `json:"next_seq"`
}

// handleDebugLogs polls the log ring. Filters: ?cid=, ?job=, ?campaign=
// (exact match, all optional); paging: ?after=<seq> and ?limit=N
// (default 500).
func (s *Server) handleDebugLogs(w http.ResponseWriter, r *http.Request) {
	ring := s.opts.Log.Ring()
	if ring == nil {
		writeError(w, http.StatusNotFound, "log ring disabled (start the daemon with -log-ring > 0)")
		return
	}
	q := r.URL.Query()
	after := int64(0)
	if v := q.Get("after"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("malformed after %q (want a non-negative integer)", v))
			return
		}
		after = n
	}
	limit := 500
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("malformed limit %q (want a positive integer)", v))
			return
		}
		limit = n
	}
	cid, job, camp := q.Get("cid"), q.Get("job"), q.Get("campaign")
	match := func(rec *obs.LogRecord) bool {
		if cid != "" && rec.CID != cid {
			return false
		}
		if job != "" && rec.Job != job {
			return false
		}
		if camp != "" && rec.Campaign != camp {
			return false
		}
		return true
	}
	recs, latest := ring.Since(after, limit, match)
	if recs == nil {
		recs = []obs.LogRecord{}
	}
	writeJSON(w, http.StatusOK, LogsPage{Records: recs, NextSeq: latest})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
