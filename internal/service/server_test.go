package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sdcgmres/internal/trace"
)

func postJob(t *testing.T, url string, spec JobSpec) (*http.Response, JobView) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view JobView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, view
}

func getJob(t *testing.T, url, id string) JobView {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: status %d", id, resp.StatusCode)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return view
}

func waitJobHTTP(t *testing.T, url, id string, within time.Duration) JobView {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		v := getJob(t, url, id)
		if v.State.Terminal() {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s not terminal within %v", id, within)
	return JobView{}
}

// TestServerEndToEnd is the acceptance scenario: ≥16 concurrent solve
// submissions against a bounded 4-worker pool all complete or are cleanly
// rejected with 429, a deliberately hung job is killed by its deadline
// without affecting neighbors, the /metrics counters reconcile with what
// was submitted, and graceful shutdown drains the queue.
func TestServerEndToEnd(t *testing.T) {
	const concurrent = 20
	engine := NewEngine(Config{
		Workers:       4,
		QueueDepth:    8,
		DefaultBudget: 5 * time.Second,
		Runner:        stubRunner(9, 15*time.Millisecond), // N == 9 hangs
	})
	engine.Start()
	ts := httptest.NewServer(NewServer(engine, ServerOptions{}))
	defer ts.Close()

	// A deliberately hung job with a tight explicit budget.
	hungSpec := PoissonJob(9)
	hungSpec.TimeBudgetMS = 100
	resp, hung := postJob(t, ts.URL, hungSpec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("hung submit: status %d", resp.StatusCode)
	}

	// Concurrent burst against the bounded queue.
	var mu sync.Mutex
	var accepted []string
	rejected := 0
	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, view := postJob(t, ts.URL, PoissonJob(8))
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusAccepted:
				accepted = append(accepted, view.ID)
			case http.StatusTooManyRequests:
				rejected++
			default:
				t.Errorf("unexpected status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	if len(accepted)+rejected != concurrent {
		t.Fatalf("accounting: %d accepted + %d rejected != %d", len(accepted), rejected, concurrent)
	}
	if len(accepted) == 0 {
		t.Fatal("burst produced zero accepted jobs")
	}

	// Every accepted job completes; none is harmed by the hung neighbor.
	for _, id := range accepted {
		v := waitJobHTTP(t, ts.URL, id, 10*time.Second)
		if v.State != StateDone {
			t.Fatalf("job %s: %+v", id, v)
		}
	}

	// The hung job is killed by its own deadline, not the neighbors'.
	hv := waitJobHTTP(t, ts.URL, hung.ID, 10*time.Second)
	if hv.State != StateTimedOut {
		t.Fatalf("hung job: %+v", hv)
	}

	// Metrics reconcile with what the HTTP layer observed.
	m := engine.Metrics()
	wantAccepted := int64(len(accepted) + 1) // burst + hung job
	if got := m.JobsAccepted.Value(); got != wantAccepted {
		t.Fatalf("accepted counter = %d, want %d", got, wantAccepted)
	}
	if got := m.JobsRejected.Value(); got != int64(rejected) {
		t.Fatalf("rejected counter = %d, want %d", got, rejected)
	}
	if got := m.JobsCompleted.Value(); got != int64(len(accepted)) {
		t.Fatalf("completed counter = %d, want %d", got, len(accepted))
	}
	if got := m.JobsTimedOut.Value(); got != 1 {
		t.Fatalf("timed-out counter = %d, want 1", got)
	}
	terminal := m.JobsCompleted.Value() + m.JobsFailed.Value() + m.JobsTimedOut.Value() + m.JobsCanceled.Value()
	if terminal != m.JobsAccepted.Value() {
		t.Fatalf("lifecycle does not reconcile: %d terminal vs %d accepted", terminal, m.JobsAccepted.Value())
	}

	// The exposition endpoint agrees.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	expo, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		fmt.Sprintf("solved_jobs_accepted_total %d", wantAccepted),
		fmt.Sprintf("solved_jobs_rejected_total %d", rejected),
		"solved_jobs_timed_out_total 1",
		`solved_solve_duration_seconds_count{solver="ftgmres"}`,
	} {
		if !strings.Contains(string(expo), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, expo)
		}
	}

	// Graceful shutdown drains: admission stops, the drain completes.
	if err := engine.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, _ = postJob(t, ts.URL, PoissonJob(8))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while drained: status %d", resp.StatusCode)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while drained: status %d", hresp.StatusCode)
	}
}

// TestServerRealSolve drives the production runner end to end over HTTP:
// a real FT-GMRES job with a detected, restarted fault.
func TestServerRealSolve(t *testing.T) {
	engine := NewEngine(Config{Workers: 2, DefaultBudget: time.Minute})
	engine.Start()
	defer engine.Shutdown(context.Background())
	ts := httptest.NewServer(NewServer(engine, ServerOptions{}))
	defer ts.Close()

	spec := PoissonJob(16)
	spec.Fault = &FaultSpec{Class: "large", At: 5}
	resp, view := postJob(t, ts.URL, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	v := waitJobHTTP(t, ts.URL, view.ID, 30*time.Second)
	if v.State != StateDone || v.Result == nil {
		t.Fatalf("job: %+v", v)
	}
	if !v.Result.Converged || !v.Result.FaultFired || v.Result.Detections == 0 {
		t.Fatalf("record: %+v", v.Result)
	}
	if len(v.Result.ResidualHistory) == 0 {
		t.Fatal("record missing convergence history")
	}
	if engine.Metrics().DetectorFirings.Value() == 0 || engine.Metrics().FaultInjections.Value() == 0 {
		t.Fatal("resilience counters not aggregated")
	}
}

func TestServerValidationAndRouting(t *testing.T) {
	engine := NewEngine(Config{Workers: 1, Runner: stubRunner(-1, 0)})
	engine.Start()
	defer engine.Shutdown(context.Background())
	ts := httptest.NewServer(NewServer(engine, ServerOptions{}))
	defer ts.Close()

	// Invalid spec → 400 with the v1 envelope.
	for _, spec := range []JobSpec{
		{Matrix: MatrixSpec{Kind: "dense"}},
		MatrixMarketJob(mmOversize),
		MatrixMarketJob(mmFarOversize),
	} {
		body, _ := json.Marshal(spec)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var env ErrorEnvelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || env.Code != "invalid_request" {
			t.Fatalf("invalid spec %s: status %d, envelope %+v (%v)", body, resp.StatusCode, env, err)
		}
	}

	// Unknown JSON field → 400 (strict decoding).
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"matriks":{}}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d", resp.StatusCode)
	}

	// Unknown job → 404.
	resp, err = http.Get(ts.URL + "/v1/jobs/job-424242")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d", resp.StatusCode)
	}

	// List reflects submissions.
	_, v1 := postJob(t, ts.URL, PoissonJob(8))
	waitJobHTTP(t, ts.URL, v1.ID, time.Second)
	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].ID != v1.ID {
		t.Fatalf("list: %+v", list)
	}

	// Cancel of a terminal job → 409.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v1.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel terminal: status %d", resp.StatusCode)
	}

	// Healthz while live → 200.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
}

// TestServerOversizedBody413 pins the admission-side body cap: a payload
// exceeding MaxBodyBytes must be rejected with 413 on both submit
// endpoints, not decoded (400) or buffered unbounded.
func TestServerOversizedBody413(t *testing.T) {
	engine := NewEngine(Config{Workers: 1, Runner: stubRunner(-1, 0)})
	engine.Start()
	defer engine.Shutdown(context.Background())
	campaigns := NewCampaignManager(CampaignManagerConfig{Dir: t.TempDir()})
	defer campaigns.Shutdown(context.Background())
	ts := httptest.NewServer(NewServer(engine, ServerOptions{
		MaxBodyBytes: 256,
		Campaigns:    campaigns,
	}))
	defer ts.Close()

	huge := `{"padding": "` + strings.Repeat("x", 4096) + `"}`
	for _, path := range []string{"/v1/jobs", "/v1/campaigns"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		var body ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s oversized: status %d, want 413", path, resp.StatusCode)
		}
		if body.Code != "payload_too_large" {
			t.Fatalf("POST %s oversized: code %q, want payload_too_large", path, body.Code)
		}
		if !strings.Contains(body.Message, "256 byte limit") {
			t.Fatalf("POST %s oversized: message %q does not name the limit", path, body.Message)
		}
	}

	// A small valid-sized (if semantically bad) body still gets 400, so the
	// cap did not swallow normal validation.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"matriks":{}}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("small bad body: status %d, want 400", resp.StatusCode)
	}
}

// TestHealthzModeAndBacklog checks the fleet-probe contract: /healthz
// reports the daemon's role and, when wired, the coordinator's lease
// backlog.
func TestHealthzModeAndBacklog(t *testing.T) {
	getHealth := func(t *testing.T, url string) map[string]any {
		t.Helper()
		resp, err := http.Get(url + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body
	}

	engine := NewEngine(Config{Workers: 1, Runner: stubRunner(-1, 0)})
	engine.Start()
	defer engine.Shutdown(context.Background())

	ts := httptest.NewServer(NewServer(engine, ServerOptions{}))
	if body := getHealth(t, ts.URL); body["mode"] != "standalone" {
		t.Fatalf("default mode = %v, want standalone", body["mode"])
	} else if _, ok := body["lease_backlog"]; ok {
		t.Fatalf("standalone healthz must not report lease_backlog: %v", body)
	}
	ts.Close()

	ts = httptest.NewServer(NewServer(engine, ServerOptions{
		Mode:         "coordinator",
		LeaseBacklog: func() int { return 17 },
	}))
	defer ts.Close()
	body := getHealth(t, ts.URL)
	if body["mode"] != "coordinator" {
		t.Fatalf("mode = %v, want coordinator", body["mode"])
	}
	if got, ok := body["lease_backlog"].(float64); !ok || int(got) != 17 {
		t.Fatalf("lease_backlog = %v, want 17", body["lease_backlog"])
	}
}

// TestDistMountAndExtraMetrics checks that a configured dist handler
// receives /v1/dist/* and /v1/leases* traffic and that extra metrics
// writers reach GET /metrics.
func TestDistMountAndExtraMetrics(t *testing.T) {
	engine := NewEngine(Config{Workers: 1, Runner: stubRunner(-1, 0)})
	engine.Start()
	defer engine.Shutdown(context.Background())

	dist := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "dist:%s", r.URL.Path)
	})
	ts := httptest.NewServer(NewServer(engine, ServerOptions{
		Dist: dist,
		ExtraMetrics: []func(io.Writer){
			func(w io.Writer) { fmt.Fprintln(w, "dist_leases_granted_total 3") },
		},
	}))
	defer ts.Close()

	for _, path := range []string{"/v1/dist/campaign", "/v1/leases", "/v1/leases/lease-000001/records"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(raw) != "dist:"+path {
			t.Fatalf("GET %s routed to %q, want dist handler", path, raw)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), "dist_leases_granted_total 3") {
		t.Fatalf("extra metrics missing from exposition:\n%s", raw)
	}
}

// TestServerJobTraceEndpoint covers the flight-recorder sub-resource: with
// tracing enabled a finished job serves a parseable JSONL trace that
// reconstructs the solve (residuals, verdicts, strike), honours the chrome
// format, and rejects unknown formats; with tracing disabled the route
// 404s with a hint.
func TestServerJobTraceEndpoint(t *testing.T) {
	engine := NewEngine(Config{Workers: 2, DefaultBudget: time.Minute, TraceCapacity: 1 << 14})
	engine.Start()
	defer engine.Shutdown(context.Background())
	ts := httptest.NewServer(NewServer(engine, ServerOptions{}))
	defer ts.Close()

	spec := PoissonJob(12)
	spec.Fault = &FaultSpec{Class: "large", At: 5}
	resp, view := postJob(t, ts.URL, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	v := waitJobHTTP(t, ts.URL, view.ID, 30*time.Second)
	if v.State != StateDone || v.Result == nil {
		t.Fatalf("job: %+v", v)
	}

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(r.Body)
		r.Body.Close()
		return r, body
	}

	r, body := get("/v1/jobs/" + view.ID + "/trace")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("trace: status %d: %s", r.StatusCode, body)
	}
	if ct := r.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("trace content type %q", ct)
	}
	events, err := trace.ReadJSONL(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("trace not parseable: %v", err)
	}
	residuals, verdicts, strikes := 0, 0, 0
	for _, ev := range events {
		switch ev.Kind {
		case trace.KindIterResidual:
			residuals++
		case trace.KindDetectorVerdict:
			verdicts++
		case trace.KindFaultInjected:
			strikes++
		}
	}
	if residuals < len(v.Result.ResidualHistory) || verdicts == 0 || strikes == 0 {
		t.Fatalf("trace incomplete: %d residuals (history %d), %d verdicts, %d strikes",
			residuals, len(v.Result.ResidualHistory), verdicts, strikes)
	}

	r, body = get("/v1/jobs/" + view.ID + "/trace?format=chrome")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("chrome trace: status %d", r.StatusCode)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &chrome); err != nil || len(chrome.TraceEvents) == 0 {
		t.Fatalf("chrome trace invalid: %v (%d events)", err, len(chrome.TraceEvents))
	}

	if r, _ = get("/v1/jobs/" + view.ID + "/trace?format=nope"); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown format: status %d", r.StatusCode)
	}
	if r, _ = get("/v1/jobs/does-not-exist/trace"); r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d", r.StatusCode)
	}

	// Tracing off → 404 with the enable hint.
	off := NewEngine(Config{Workers: 1, DefaultBudget: time.Minute})
	off.Start()
	defer off.Shutdown(context.Background())
	ts2 := httptest.NewServer(NewServer(off, ServerOptions{}))
	defer ts2.Close()
	resp, view = postJob(t, ts2.URL, PoissonJob(8))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	waitJobHTTP(t, ts2.URL, view.ID, 30*time.Second)
	r2, err := http.Get(ts2.URL + "/v1/jobs/" + view.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	hint, _ := io.ReadAll(r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound || !strings.Contains(string(hint), "tracing") {
		t.Fatalf("untraced job: status %d body %q", r2.StatusCode, hint)
	}
}
