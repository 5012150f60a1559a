package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"sdcgmres/internal/campaign"
	"sdcgmres/internal/obs"
)

// maxDistBodyBytes bounds the wire-protocol request bodies the host decodes.
// A completion report carries at most a lease's worth of records — far under
// this — so the cap only exists to shed garbage.
const maxDistBodyBytes = 8 << 20

// closeGrace bounds WaitClosed, and a worker silent for longer is presumed
// dead. A live worker claims at least every Backoff.Max (5s by default)
// and polls the campaign one Poll interval after a closed claim.
const closeGrace = 10 * time.Second

// maxTrackedWorkers caps the worker names WaitClosed remembers, so requests
// under invented names cannot grow the host without bound.
const maxTrackedWorkers = 1024

// Host serves the distributed-campaign wire protocol over HTTP. It runs one
// campaign.Coordinator at a time and sequences successive campaigns to a
// connected fleet through a generation counter: workers poll GET
// /v1/dist/campaign, recompile when the generation moves, and drain for
// good when the host closes. The Host is an http.Handler, so it mounts
// standalone (paperfigs -fleet) or inside a service.Server (solved
// -coordinate) alike.
type Host struct {
	metrics *campaign.Metrics
	mux     *http.ServeMux
	log     *obs.Logger
	red     *obs.RED

	mu     sync.Mutex
	gen    int
	man    *campaign.Manifest
	coord  *campaign.Coordinator
	cid    string
	closed bool
	// contacts holds each named worker's last claim, heartbeat or report;
	// a worker leaves it once a campaign poll has answered it closed.
	contacts map[string]time.Time
}

// NewHost builds an idle host. A nil metrics registry gets a fresh one;
// passing a shared registry accumulates lease counters across campaigns,
// which is what a multi-figure paperfigs run wants. log may be nil
// (logging disabled); the wire-protocol routes are always wrapped in the
// fleet's standard HTTP telemetry — correlation-ID propagation and RED
// metrics under the "dist" prefix, so a coordinator mounted inside a
// service.Server keeps its families distinct from the service's.
func NewHost(m *campaign.Metrics, log *obs.Logger) *Host {
	if m == nil {
		m = campaign.NewMetrics()
	}
	h := &Host{metrics: m, mux: http.NewServeMux(), log: log.Named("dist"), red: obs.NewRED("dist"),
		contacts: make(map[string]time.Time)}
	handle := func(pattern, route string, hf http.HandlerFunc) {
		h.mux.Handle(pattern, obs.Instrument(h.red, h.log, route, hf))
	}
	handle("GET /v1/dist/campaign", "/v1/dist/campaign", h.handleCampaign)
	handle("GET /v1/dist/status", "/v1/dist/status", h.handleStatus)
	handle("POST /v1/leases", "/v1/leases", h.handleClaim)
	handle("POST /v1/leases/{id}/heartbeat", "/v1/leases/{id}/heartbeat", h.handleHeartbeat)
	handle("POST /v1/leases/{id}/records", "/v1/leases/{id}/records", h.handleComplete)
	// Standalone-mount conveniences; a wrapping service.Server shadows both
	// with its own richer handlers.
	handle("GET /metrics", "/metrics", h.handleMetrics)
	handle("GET /healthz", "/healthz", h.handleHealthz)
	return h
}

// ServeHTTP implements http.Handler.
func (h *Host) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// Metrics returns the host's registry (for /metrics wiring and tests).
func (h *Host) Metrics() *campaign.Metrics { return h.metrics }

// RED returns the host's HTTP telemetry registry (dist_http_* families),
// for embedding in a wrapping server's /metrics exposition.
func (h *Host) RED() *obs.RED { return h.red }

// Status snapshots the host the way GET /v1/dist/status reports it —
// also the runtime introspector's "leases" section.
func (h *Host) Status() StatusInfo {
	gen, co, closed := h.snapshot()
	info := StatusInfo{Generation: gen, State: StateIdle}
	if closed {
		info.State = StateClosed
	}
	if co != nil {
		info.State = StateRunning
		info.Stats = co.Stats()
	}
	return info
}

// Backlog reports the running campaign's incomplete-unit count (0 when
// idle), matching service.ServerOptions.LeaseBacklog.
func (h *Host) Backlog() int {
	h.mu.Lock()
	co := h.coord
	h.mu.Unlock()
	if co == nil {
		return 0
	}
	return co.Stats().Backlog()
}

// Close permanently transitions the host to StateClosed: connected workers
// observe it on their next poll and exit. A campaign still running keeps
// its coordinator until RunCampaign returns. Close does not block; see
// WaitClosed.
func (h *Host) Close() {
	h.mu.Lock()
	h.closed = true
	h.mu.Unlock()
}

// WaitClosed blocks after Close until every worker heard from within the
// last closeGrace has been answered StateClosed by a campaign poll — the
// answer on which it exits — or until closeGrace has passed. Serving until
// then lets workers exit cleanly instead of retrying a dead listener; a
// worker killed mid-campaign never polls again, hence the bound. The last
// answers may still be in flight when it returns, so stop the server with
// http.Server.Shutdown, which lets them finish, not Close.
func (h *Host) WaitClosed() {
	deadline := time.Now().Add(closeGrace)
	for time.Now().Before(deadline) && h.awaiting() {
		time.Sleep(10 * time.Millisecond)
	}
}

// awaiting reports whether a recently heard worker has not been told the
// host is closed.
func (h *Host) awaiting() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, last := range h.contacts {
		if time.Since(last) < closeGrace {
			return true
		}
	}
	return false
}

// touch records a named worker's contact.
func (h *Host) touch(worker string) {
	h.mu.Lock()
	if _, ok := h.contacts[worker]; worker != "" && (ok || len(h.contacts) < maxTrackedWorkers) {
		h.contacts[worker] = time.Now()
	}
	h.mu.Unlock()
}

// RunCampaign exposes one compiled campaign to the fleet and blocks until
// every unit is journaled, the journal fails, or ctx ends. On ctx
// cancellation the coordinator drains (no further grants) and the error is
// ctx.Err(); records journaled before the cut survive for a resume. It
// returns every record the campaign's units have, the resumed ones
// included.
func (h *Host) RunCampaign(ctx context.Context, c *campaign.Compiled, j *campaign.Journal, have map[string]campaign.Record, cfg campaign.CoordinatorConfig) (map[string]campaign.Record, error) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, ErrClosed
	}
	if h.coord != nil {
		h.mu.Unlock()
		return nil, ErrBusy
	}
	if cfg.Metrics == nil {
		cfg.Metrics = h.metrics
	}
	if cfg.Log == nil {
		cfg.Log = h.log
	}
	if cfg.CID == "" {
		// Adopt the submission's correlation ID when the caller threaded
		// one through ctx (solved -coordinate does); mint otherwise.
		if cfg.CID = obs.FromContext(ctx).ID; cfg.CID == "" {
			cfg.CID = obs.NewID()
		}
	}
	co := campaign.NewCoordinator(c, j, have, cfg)
	h.gen++
	h.man = &c.Manifest
	h.coord = co
	h.cid = cfg.CID
	gen := h.gen
	h.mu.Unlock()

	lctx := obs.With(context.Background(), obs.Correlation{ID: cfg.CID})
	h.log.Info(lctx, "campaign exposed to fleet", "generation", gen, "units", len(c.Units))

	defer func() {
		h.mu.Lock()
		h.coord = nil
		h.man = nil
		h.cid = ""
		h.mu.Unlock()
	}()

	select {
	case <-co.Done():
		h.log.Info(lctx, "campaign run finished", "generation", gen)
		return co.Records(), nil
	case <-co.Failed():
		h.log.Error(lctx, "campaign run failed", "generation", gen, "error", co.Err())
		return co.Records(), co.Err()
	case <-ctx.Done():
		co.Drain()
		h.log.Warn(lctx, "campaign run canceled, draining", "generation", gen)
		return co.Records(), ctx.Err()
	}
}

// snapshot returns the current generation, coordinator and closed flag.
func (h *Host) snapshot() (int, *campaign.Coordinator, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.gen, h.coord, h.closed
}

func (h *Host) handleCampaign(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	info := CampaignInfo{Generation: h.gen, State: StateIdle}
	switch {
	case h.coord != nil:
		info.State = StateRunning
		info.Manifest = h.man
		info.LeaseTTLMS = h.coord.LeaseTTL().Milliseconds()
		info.CorrelationID = h.cid
	case h.closed:
		info.State = StateClosed
	}
	h.mu.Unlock()
	distJSON(w, http.StatusOK, info)
	if info.State == StateClosed {
		// The worker exits on this answer, which may still be in flight
		// when WaitClosed returns; see there.
		h.mu.Lock()
		delete(h.contacts, r.URL.Query().Get("worker"))
		h.mu.Unlock()
	}
}

func (h *Host) handleStatus(w http.ResponseWriter, _ *http.Request) {
	distJSON(w, http.StatusOK, h.Status())
}

func (h *Host) handleClaim(w http.ResponseWriter, r *http.Request) {
	var req ClaimRequest
	if !distDecode(w, r, &req) {
		return
	}
	h.touch(req.Worker)
	gen, co, closed := h.snapshot()
	resp := ClaimResponse{Generation: gen, Closed: closed}
	// A stale or future generation gets no lease — the worker sees the
	// mismatch and refetches the campaign. Idle (co == nil) likewise.
	if co != nil && req.Generation == gen {
		lease, done, err := co.Claim(req.Worker, req.Max)
		if err != nil {
			distError(w, http.StatusInternalServerError, err.Error())
			return
		}
		resp.Lease = lease
		resp.Done = done
	}
	distJSON(w, http.StatusOK, resp)
}

func (h *Host) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !distDecode(w, r, &req) {
		return
	}
	h.touch(req.Worker)
	_, co, _ := h.snapshot()
	if co == nil {
		distError(w, http.StatusGone, campaign.ErrLeaseGone.Error())
		return
	}
	ttl, err := co.Heartbeat(r.PathValue("id"))
	if errors.Is(err, campaign.ErrLeaseGone) {
		distError(w, http.StatusGone, err.Error())
		return
	}
	distJSON(w, http.StatusOK, HeartbeatResponse{TTLMS: ttl.Milliseconds()})
}

func (h *Host) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !distDecode(w, r, &req) {
		return
	}
	h.touch(req.Worker)
	_, co, _ := h.snapshot()
	if co == nil {
		// The campaign ended (or never started); the records are late
		// duplicates at best. Acknowledge so the worker moves on.
		distJSON(w, http.StatusOK, campaign.CompleteResponse{Done: true})
		return
	}
	resp, err := co.Complete(r.PathValue("id"), req.Worker, req.Records)
	if err != nil {
		distError(w, http.StatusInternalServerError, err.Error())
		return
	}
	distJSON(w, http.StatusOK, resp)
}

func (h *Host) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	h.metrics.WritePrometheus(w)
	h.red.WritePrometheus(w)
	obs.WriteBuildMetric(w)
}

func (h *Host) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	gen, co, closed := h.snapshot()
	body := map[string]any{"status": "ok", "mode": "coordinator", "generation": gen}
	state := StateIdle
	if closed {
		state = StateClosed
	}
	if co != nil {
		state = StateRunning
		body["lease_backlog"] = co.Stats().Backlog()
	}
	body["state"] = state
	distJSON(w, http.StatusOK, body)
}

func distDecode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxDistBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return true
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		distError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request exceeds %d byte limit", mbe.Limit))
		return false
	}
	distError(w, http.StatusBadRequest, "bad request: "+err.Error())
	return false
}

func distJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func distError(w http.ResponseWriter, status int, msg string) {
	distJSON(w, status, map[string]string{"error": msg})
}
