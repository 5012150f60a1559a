package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"path/filepath"

	"sdcgmres/internal/campaign"
	"sdcgmres/internal/dist"
	"sdcgmres/internal/obs"
	"sdcgmres/internal/service"
)

func TestParseFlagsDefaults(t *testing.T) {
	cfg, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != ":8080" || cfg.queueDepth != 64 || cfg.budget != 30*time.Second ||
		cfg.maxBudget != 5*time.Minute || cfg.retain != 1024 ||
		cfg.drainTimeout != 30*time.Second || cfg.pprof || cfg.campaignDir != "." {
		t.Fatalf("defaults: %+v", cfg)
	}
}

func TestParseFlagsOverrides(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-addr", ":9090", "-workers", "3", "-queue", "5",
		"-budget", "2s", "-pprof",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != ":9090" || cfg.workers != 3 || cfg.queueDepth != 5 ||
		cfg.budget != 2*time.Second || !cfg.pprof {
		t.Fatalf("overrides: %+v", cfg)
	}
}

func TestParseFlagsBad(t *testing.T) {
	if _, err := parseFlags([]string{"-budget", "soon"}); err == nil {
		t.Fatal("bad duration must fail")
	}
}

// TestDaemonWiring drives the production setup() end to end: submit a real
// solve job over HTTP, poll for the result, check metrics, then drain.
func TestDaemonWiring(t *testing.T) {
	cfg, err := parseFlags([]string{"-workers", "2", "-queue", "8", "-budget", "30s"})
	if err != nil {
		t.Fatal(err)
	}
	engine, campaigns, handler := setup(cfg)
	engine.Start()
	ts := httptest.NewServer(handler)
	defer ts.Close()
	defer campaigns.Shutdown(context.Background())

	spec := service.PoissonJob(12)
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var view service.JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/jobs/" + view.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if view.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", view)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if view.State != service.StateDone || view.Result == nil || !view.Result.Converged {
		t.Fatalf("job: %+v", view)
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	expo, err := io.ReadAll(mr.Body)
	if err != nil {
		t.Fatal(err)
	}
	mr.Body.Close()
	if !strings.Contains(string(expo), "solved_jobs_completed_total 1") {
		t.Fatalf("metrics:\n%s", expo)
	}

	if err := engine.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonCampaignWiring submits a tiny campaign through the production
// wiring and polls it to completion, checking the journal lands under
// -campaign-dir and the campaign counters reach /metrics.
func TestDaemonCampaignWiring(t *testing.T) {
	dir := t.TempDir()
	cfg, err := parseFlags([]string{"-workers", "2", "-campaign-dir", dir})
	if err != nil {
		t.Fatal(err)
	}
	engine, campaigns, handler := setup(cfg)
	engine.Start()
	ts := httptest.NewServer(handler)
	defer ts.Close()
	defer engine.Shutdown(context.Background())
	defer campaigns.Shutdown(context.Background())

	manifest := `{
	  "name": "wiring-test",
	  "problems": [{"kind": "poisson", "n": 8, "inner_iters": 6, "target_outer": 5}],
	  "models": ["slight"], "steps": ["first"], "stride": 7
	}`
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(manifest))
	if err != nil {
		t.Fatal(err)
	}
	var view service.CampaignView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if !strings.HasPrefix(view.Journal, dir) {
		t.Fatalf("journal %q not under -campaign-dir %q", view.Journal, dir)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/campaigns/" + view.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if view.State == service.CampaignDone || view.State == service.CampaignFailed ||
			view.State == service.CampaignCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign stuck: %+v", view)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if view.State != service.CampaignDone || view.Progress.Done != view.Progress.Total {
		t.Fatalf("campaign: %+v", view)
	}
	if _, err := os.Stat(view.Journal); err != nil {
		t.Fatalf("journal missing: %v", err)
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	expo, err := io.ReadAll(mr.Body)
	if err != nil {
		t.Fatal(err)
	}
	mr.Body.Close()
	if !strings.Contains(string(expo), "solved_campaigns_completed_total 1") {
		t.Fatalf("metrics:\n%s", expo)
	}
}

func TestPprofGating(t *testing.T) {
	for _, on := range []bool{false, true} {
		engine, _, handler := setup(cliConfig{workers: 1, queueDepth: 1, pprof: on})
		engine.Start()
		ts := httptest.NewServer(handler)
		resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if on && resp.StatusCode != http.StatusOK {
			t.Fatalf("pprof enabled: status %d", resp.StatusCode)
		}
		if !on && resp.StatusCode == http.StatusOK {
			t.Fatal("pprof must be gated off by default")
		}
		engine.Shutdown(context.Background())
		ts.Close()
	}
}

func TestParseFlagsDistDefaults(t *testing.T) {
	cfg, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.worker || cfg.coordinator != "" || cfg.workerName != "" || cfg.coordinate != "" ||
		cfg.leaseTTL != 30*time.Second || cfg.batch != 8 || cfg.distOut != "" {
		t.Fatalf("dist defaults: %+v", cfg)
	}
	cfg, err = parseFlags([]string{"-worker", "-coordinator", "http://c:1", "-worker-name", "w7", "-lease-ttl", "5s", "-batch", "3"})
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.worker || cfg.coordinator != "http://c:1" || cfg.workerName != "w7" ||
		cfg.leaseTTL != 5*time.Second || cfg.batch != 3 {
		t.Fatalf("dist overrides: %+v", cfg)
	}
}

func TestNewFleetWorkerValidation(t *testing.T) {
	if _, _, err := newFleetWorker(cliConfig{worker: true}); err == nil {
		t.Fatal("worker mode without -coordinator must fail")
	}
	w, name, err := newFleetWorker(cliConfig{worker: true, coordinator: "http://c:1/"})
	if err != nil || w == nil {
		t.Fatalf("newFleetWorker: %v", err)
	}
	if name == "" {
		t.Fatal("default worker name empty")
	}
}

// TestCoordinatorWiring drives the -coordinate server surface end to end: a
// dist host mounted in the full service server, a real dist worker talking
// to it over HTTP, healthz reporting coordinator mode with the lease
// backlog, and the dist counters reaching /metrics.
func TestCoordinatorWiring(t *testing.T) {
	cfg, err := parseFlags([]string{"-workers", "2"})
	if err != nil {
		t.Fatal(err)
	}
	host := dist.NewHost(nil, nil)
	engine, campaigns, handler := setupDist(cfg, host, nil)
	engine.Start()
	ts := httptest.NewServer(handler)
	defer ts.Close()
	defer engine.Shutdown(context.Background())
	defer campaigns.Shutdown(context.Background())

	man := campaign.Manifest{
		Name:     "wiring-dist",
		Problems: []campaign.ProblemSpec{{Kind: "poisson", N: 8, InnerIters: 6, TargetOuter: 5}},
		Models:   []string{"slight"},
		Steps:    []string{"first"},
		Stride:   3,
	}
	cache := dist.NewProblemCache()
	compiled, err := cache.Compile(man)
	if err != nil {
		t.Fatal(err)
	}
	journal, have, err := campaign.OpenJournal(filepath.Join(t.TempDir(), "dist.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	w := dist.NewWorker(dist.WorkerConfig{
		Coordinator: ts.URL, Name: "wired", Problems: cache, Poll: 10 * time.Millisecond,
	})
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	done := make(chan error, 1)
	go func() { done <- w.Run(wctx) }()

	fresh, err := host.RunCampaign(ctx, compiled, journal, have, campaign.CoordinatorConfig{BatchSize: 2, LeaseTTL: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) != len(compiled.Units) {
		t.Fatalf("fleet journaled %d of %d units", len(fresh), len(compiled.Units))
	}

	var hz map[string]any
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(hr.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hz["mode"] != "coordinator" {
		t.Fatalf("healthz mode: %+v", hz)
	}
	if _, ok := hz["lease_backlog"]; !ok {
		t.Fatalf("healthz missing lease_backlog: %+v", hz)
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	expo, err := io.ReadAll(mr.Body)
	if err != nil {
		t.Fatal(err)
	}
	mr.Body.Close()
	for _, want := range []string{"dist_leases_granted_total", "dist_unit_duration_seconds", `worker="wired"`} {
		if !strings.Contains(string(expo), want) {
			t.Fatalf("metrics missing %q:\n%s", want, expo)
		}
	}

	host.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("worker exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not exit after host close")
	}
}

func TestWorkerHandler(t *testing.T) {
	w, name, err := newFleetWorker(cliConfig{worker: true, coordinator: "http://c:1", workerName: "probe"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(workerHandler(w, name, "http://c:1", cliConfig{}))
	defer ts.Close()
	var hz map[string]any
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(hr.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hz["mode"] != "worker" || hz["worker"] != "probe" {
		t.Fatalf("worker healthz: %+v", hz)
	}
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	expo, err := io.ReadAll(mr.Body)
	mr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(expo), "dist_worker_units_executed_total 0") {
		t.Fatalf("worker metrics:\n%s", expo)
	}
	if errs := obs.LintPrometheusString(string(expo)); len(errs) > 0 {
		t.Fatalf("worker /metrics fails exposition lint: %v", errs)
	}
	if mr.Header.Get(obs.Header) == "" {
		t.Fatal("worker /metrics response lacks a correlation ID echo")
	}
	sr, err := http.Get(ts.URL + "/v1/debug/status?logs=5")
	if err != nil {
		t.Fatal(err)
	}
	var st obs.Status
	if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if st.Build.GoVersion == "" {
		t.Fatalf("worker debug status lacks build info: %+v", st)
	}
}
