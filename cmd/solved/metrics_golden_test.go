package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"sdcgmres/internal/campaign"
	"sdcgmres/internal/dist"
	"sdcgmres/internal/expt"
	"sdcgmres/internal/memo"
	"sdcgmres/internal/obs"
	"sdcgmres/internal/qos"
	"sdcgmres/internal/service"
	"sdcgmres/internal/store"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics.golden from the current exposition")

// TestMetricsGolden pins the Prometheus exposition of every metric family
// the fleet serves. Fixed observations feed the engine counters and
// per-solver histograms, kernel stats, a QoS scheduler on a frozen clock,
// memo, store, dist, RED and the introspector's custom gauges; the test
// renders the daemon's /metrics (with the coordinator's ExtraMetrics), the
// standalone dist.Host /metrics, the worker handler's /metrics, and RED
// registries under the solved and worker prefixes.
//
// The comparison ignores the order of families and the header lines of
// families without samples. Everything else — every sample line, and the
// HELP and TYPE lines of every family with a sample — must match the
// golden file byte for byte, after masking the nine runtime gauges'
// values and solved_build_info's label values, which depend on the host
// and the binary rather than on the fixture.
func TestMetricsGolden(t *testing.T) {
	got := renderMetricPages(t)
	path := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := string(raw)
	g, w := normalizeExposition(got), normalizeExposition(want)
	if g == w {
		return
	}
	gl, wl := lineSet(g), lineSet(w)
	var diff strings.Builder
	for _, l := range strings.Split(w, "\n") {
		if !gl[l] {
			fmt.Fprintf(&diff, "- %s\n", l)
		}
	}
	for _, l := range strings.Split(g, "\n") {
		if !wl[l] {
			fmt.Fprintf(&diff, "+ %s\n", l)
		}
	}
	t.Fatalf("exposition differs from %s (- golden, + got):\n%s\nfull exposition:\n%s", path, diff.String(), got)
}

func lineSet(s string) map[string]bool {
	m := make(map[string]bool)
	for _, l := range strings.Split(s, "\n") {
		m[l] = true
	}
	return m
}

// renderMetricPages builds the fixture and returns the masked pages, each
// introduced by a "# page <name>" comment.
func renderMetricPages(t *testing.T) string {
	t.Helper()

	// QoS: two configured tenants and one dynamic tenant on a frozen
	// clock, so admissions, rejections, depths and waits are exact.
	clock := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	sched, err := qos.New[int](qos.Config{
		Tenants: map[string]qos.TenantConfig{
			"alpha": {Weight: 2, Rate: 1, Burst: 2},
			"beta":  {QueueDepth: 1},
		},
	}, qos.Options[int]{Now: func() time.Time { return clock }})
	if err != nil {
		t.Fatal(err)
	}
	push := func(tenant string, deadline time.Duration) {
		_ = sched.Push(tenant, qos.Batch, deadline, 0)
	}
	push("alpha", 0)
	push("alpha", 0)
	push("alpha", 0) // throttled: burst 2, and the frozen clock never refills
	push("beta", 0)
	push("beta", 0) // queue-full
	push("gamma", 100*time.Millisecond)
	push("gamma", 0)
	clock = clock.Add(250 * time.Millisecond) // gamma's first job expires
	for i := 0; i < 4; i++ {
		if _, ok := sched.Pop(); !ok {
			t.Fatal("scheduler closed early")
		}
	}
	push("beta", 0)
	push("gamma", 0)

	cache := memo.New(memo.Config{MaxBytes: 64})
	cache.Get("k1")
	cache.Put("k1", make([]byte, 40))
	cache.Get("k1")
	cache.Put("k2", make([]byte, 40)) // evicts k1
	cache.Warm("k3", make([]byte, 10))

	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	c, err := campaign.Compile(campaign.Manifest{
		Name:      "golden",
		Problems:  []campaign.ProblemSpec{{Kind: "poisson", N: 8, InnerIters: 6, TargetOuter: 5}},
		Models:    []string{"large"},
		Steps:     []string{"first"},
		Detectors: []campaign.DetectorSpec{{}},
		Stride:    6,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range c.Units {
		rec := campaign.Record{
			ID:        u.ID,
			Unit:      u,
			Point:     expt.SweepPoint{AggregateInner: u.Site, OuterIters: 5 + i%3, Converged: true},
			Outcome:   campaign.OutcomeOK,
			ElapsedMS: float64(1 + i),
		}
		if _, err := st.Ingest("golden", rec); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			_, _ = st.Ingest("golden", rec) // duplicate
			_, _ = st.Ingest("", rec)       // invalid: blank campaign
		}
	}

	engine := service.NewEngine(service.Config{Workers: 2, KernelWorkers: 4, QueueDepth: 8, Memo: cache})
	engine.Start()
	defer engine.Shutdown(context.Background())
	m := engine.Metrics()
	for i, c := range []*obs.Counter{
		m.JobsAccepted, m.JobsRejected, m.JobsCompleted, m.JobsFailed, m.JobsTimedOut,
		m.JobsCanceled, m.JobsShed, m.DetectorFirings, m.FaultInjections, m.SandboxFailures,
		m.CampaignsStarted, m.CampaignsCompleted, m.CampaignsFailed, m.CampaignsCanceled,
		m.CampaignUnitsExecuted, m.CampaignUnitsSkipped, m.CampaignUnitsMemoized,
		m.CampaignUnitsFailed, m.StoreIngestErrors, m.MatrixBuilds, m.MatrixCacheHits,
	} {
		c.Add(int64(i + 1))
	}
	m.ObserveSolve("ftgmres", 30*time.Millisecond)
	m.ObserveSolve("ftgmres", 2*time.Second)
	m.ObserveSolve("gmres", 5*time.Millisecond)

	host := dist.NewHost(nil, nil)
	dm := host.Metrics()
	for i, c := range []*obs.Counter{
		dm.LeasesGranted, dm.LeasesCompleted, dm.LeasesExpired, dm.LeasesRenewed,
		dm.UnitsCompleted, dm.UnitsRequeued, dm.UnitsMemoized, dm.RecordsRejected, dm.RecordsDuplicate,
	} {
		c.Add(int64(10 + i))
	}
	dm.ObserveUnit("w1", 0.02)
	dm.ObserveUnit("w1", 0.5)
	dm.ObserveUnit("w2", 3)
	feedRED(host.RED(), "/v1/leases", "/v1/leases/{id}/records")

	intro := obs.NewIntrospector(nil)
	registerSections(intro, engine, st, host)
	daemon := service.NewServer(engine, service.ServerOptions{
		Mode:         "coordinator",
		Dist:         host,
		LeaseBacklog: host.Backlog,
		Store:        st,
		Introspector: intro,
		ExtraMetrics: []func(io.Writer){host.Metrics().WritePrometheus, host.RED().WritePrometheus, sched.WritePrometheus},
	})

	w, name, err := newFleetWorker(cliConfig{worker: true, coordinator: "http://c:1", workerName: "w1"})
	if err != nil {
		t.Fatal(err)
	}
	worker := workerHandler(w, name, "http://c:1", cliConfig{intro: obs.NewIntrospector(nil)})

	solvedRED, workerRED := obs.NewRED("solved"), obs.NewRED("worker")
	feedRED(solvedRED, "/v1/jobs", "/v1/jobs/{id}")
	feedRED(workerRED, "/healthz", "/metrics")
	var reds strings.Builder
	solvedRED.WritePrometheus(&reds)
	workerRED.WritePrometheus(&reds)

	var out strings.Builder
	for _, p := range []struct{ name, body string }{
		{"daemon", scrape(daemon.ServeHTTP)},
		{"host", scrape(host.ServeHTTP)},
		{"worker", scrape(worker.ServeHTTP)},
		{"red", reds.String()},
	} {
		fmt.Fprintf(&out, "# page %s\n%s", p.name, maskExposition(p.body))
	}
	return out.String()
}

// feedRED records a fixed request mix on two routes: successes, a client
// error and a server error, with exact latencies.
func feedRED(red *obs.RED, a, b string) {
	red.Observe(a, "POST", 200, 2*time.Millisecond)
	red.Observe(a, "POST", 429, time.Millisecond)
	red.Observe(a, "GET", 200, 750*time.Microsecond)
	red.Observe(b, "GET", 503, 40*time.Millisecond)
	red.Observe(b, "GET", 404, 3*time.Second)
}

func scrape(serve func(rw http.ResponseWriter, r *http.Request)) string {
	rec := httptest.NewRecorder()
	serve(rec, httptest.NewRequest("GET", "/metrics", nil))
	return rec.Body.String()
}

// runtimeGauges read the process and the Go runtime, not the fixture.
var runtimeGauges = map[string]bool{
	"solved_uptime_seconds": true, "solved_goroutines": true,
	"solved_heap_alloc_bytes": true, "solved_heap_sys_bytes": true, "solved_heap_objects": true,
	"solved_gc_cycles_total": true, "solved_gc_pause_seconds_total": true,
	"solved_open_fds": true, "solved_gomaxprocs": true,
}

var labelValueRe = regexp.MustCompile(`="(?:[^"\\]|\\.)*"`)

// maskExposition blanks the runtime gauges' values and the build-info
// label values.
func maskExposition(s string) string {
	lines := strings.SplitAfter(s, "\n")
	for i, l := range lines {
		if name, _, ok := strings.Cut(l, " "); ok && runtimeGauges[name] {
			lines[i] = name + " <masked>\n"
		} else if strings.HasPrefix(l, "solved_build_info{") {
			lines[i] = labelValueRe.ReplaceAllString(l, `="<masked>"`)
		}
	}
	return strings.Join(lines, "")
}

// normalizeExposition reduces each page to what the golden comparison
// pins: the HELP and TYPE lines of every family that has a sample, sorted
// by family, then every sample line, sorted.
func normalizeExposition(s string) string {
	var out strings.Builder
	for _, page := range strings.Split(s, "# page ")[1:] {
		title, body, _ := strings.Cut(page, "\n")
		headers := make(map[string][]string)
		types := make(map[string]string)
		var samples []string
		for _, l := range strings.Split(body, "\n") {
			if l == "" {
				continue
			}
			if f := strings.SplitN(l, " ", 4); f[0] == "#" && len(f) >= 3 {
				headers[f[2]] = append(headers[f[2]], l)
				if f[1] == "TYPE" && len(f) == 4 {
					types[f[2]] = f[3]
				}
				continue
			}
			samples = append(samples, l)
		}
		fams := make(map[string]bool)
		for _, l := range samples {
			name := l[:strings.IndexAny(l, "{ ")]
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suf); ok && types[base] == "histogram" {
					name = base
				}
			}
			fams[name] = true
		}
		names := make([]string, 0, len(fams))
		for n := range fams {
			names = append(names, n)
		}
		sort.Strings(names)
		sort.Strings(samples)
		fmt.Fprintf(&out, "# page %s\n", title)
		for _, n := range names {
			for _, h := range headers[n] {
				out.WriteString(h + "\n")
			}
		}
		for _, l := range samples {
			out.WriteString(l + "\n")
		}
	}
	return out.String()
}
