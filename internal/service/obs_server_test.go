package service

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sdcgmres/internal/memo"
	"sdcgmres/internal/obs"
	"sdcgmres/internal/qos"
	"sdcgmres/internal/store"
)

// TestFullServerMetricsLint scrapes a server with every metrics-bearing
// subsystem wired — engine registry, QoS scheduler, memo cache, results
// store, RED middleware, introspector gauges, build info — after real
// traffic (including a throttled request) and requires the combined
// exposition to pass the strict text-format validator.
func TestFullServerMetricsLint(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	log := obs.NewLogger(obs.Options{Writer: io.Discard, Level: slog.LevelDebug, Ring: 256})
	intro := obs.NewIntrospector(log)
	intro.Register("probe", func() any { return map[string]any{"ok": true} })
	intro.RegisterGauge("solved_probe_gauge", "A test gauge.", func() float64 { return 1 })

	e := NewEngine(Config{
		Workers: 1,
		QoS: &qos.Config{
			Tenants: map[string]qos.TenantConfig{"slow": {Rate: 0.001, Burst: 1}},
		},
		Memo:   memo.New(memo.Config{}),
		Runner: stubRunner(-1, 0),
	})
	e.Start()
	defer e.Shutdown(context.Background())
	ts := httptest.NewServer(NewServer(e, ServerOptions{
		Store:        st,
		Log:          log,
		Introspector: intro,
	}))
	defer ts.Close()

	// Traffic: one accepted job, one throttled (grows the qos error
	// families), one 404 (grows the RED 4xx family).
	if resp := postJobTenant(t, ts.URL, "slow", PoissonJob(8)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d", resp.StatusCode)
	}
	// A different spec, so the memo cache (consulted before QoS admission)
	// cannot satisfy it.
	if resp := postJobTenant(t, ts.URL, "slow", PoissonJob(9)); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit: status %d, want 429", resp.StatusCode)
	}
	if resp, err := http.Get(ts.URL + "/v1/jobs/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("missing job: status %d, want 404", resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	expo := string(raw)
	for _, want := range []string{
		"solved_jobs_accepted_total", // engine registry
		"solved_qos_",                // QoS scheduler
		"solved_memo_",               // memo cache
		"solved_store_",              // results store
		"solved_http_requests_total", // RED middleware
		`class="4xx"`,                // RED error family, fed by the 404
		"solved_probe_gauge 1",       // introspector custom gauge
		"solved_goroutines",          // introspector runtime gauges
		"solved_build_info{",         // build identity
	} {
		if !strings.Contains(expo, want) {
			t.Fatalf("exposition missing %q:\n%s", want, expo)
		}
	}
	if errs := obs.LintPrometheusString(expo); len(errs) > 0 {
		for _, e := range errs {
			t.Errorf("lint: %v", e)
		}
		t.Fatalf("full-server /metrics fails exposition lint (%d problems)", len(errs))
	}
}

// TestQoSTenantLabelsAtTheTrustBoundary: tenant names come from the
// unauthenticated X-Tenant header and label the solved_qos_* series, so a
// tab or a byte that is not UTF-8 in one must still leave /metrics valid,
// with a series for each tenant.
func TestQoSTenantLabelsAtTheTrustBoundary(t *testing.T) {
	e := NewEngine(Config{Workers: 1, QoS: &qos.Config{}, Runner: stubRunner(-1, 0)})
	e.Start()
	defer e.Shutdown(context.Background())
	ts := httptest.NewServer(NewServer(e, ServerOptions{}))
	defer ts.Close()

	for i, tenant := range []string{"a\tb", "caf\xe9"} {
		if resp := postJobTenant(t, ts.URL, tenant, PoissonJob(8+i)); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit as %q: status %d", tenant, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	expo := string(raw)
	if errs := obs.LintPrometheusString(expo); len(errs) > 0 {
		t.Fatalf("/metrics fails exposition lint with %d problems, first: %v", len(errs), errs[0])
	}
	for _, want := range []string{
		"solved_qos_admitted_total{tenant=\"a\tb\"} 1",
		"solved_qos_admitted_total{tenant=\"caf\uFFFD\"} 1",
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("/metrics lacks %q:\n%s", want, expo)
		}
	}
}
