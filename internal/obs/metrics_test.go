package obs

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	jobs := r.Counter("x_jobs_total", "Jobs.\nSecond line \\ backslash.")
	byRoute := r.CounterVec("x_requests_total", "Requests.", "route", "method")
	r.GaugeVec("x_unused", "Never observed, so never written.", "k")
	depth := r.GaugeVec("x_depth", "Depth.", "tenant")
	lat := r.HistogramVec("x_seconds", "Latency.", []float64{0.5, 2}, "route")
	r.GaugeFunc("x_ratio", "A float.", func() float64 { return 0.25 })
	r.CounterFunc("x_bytes_total", "An integral float.", func() float64 { return 67108864 })

	jobs.Add(3)
	byRoute.With("/b", "GET").Inc()
	byRoute.With("/a", "POST").Add(2)
	byRoute.With("/a", "GET").Inc()
	depth.With("beta").Set(-1)
	lat.With("/a").Observe(0.5)
	lat.With("/a").Observe(3)

	var sb strings.Builder
	r.WritePrometheus(&sb)
	want := `# HELP x_jobs_total Jobs.\nSecond line \\ backslash.
# TYPE x_jobs_total counter
x_jobs_total 3
# HELP x_requests_total Requests.
# TYPE x_requests_total counter
x_requests_total{route="/a",method="GET"} 1
x_requests_total{route="/a",method="POST"} 2
x_requests_total{route="/b",method="GET"} 1
# HELP x_depth Depth.
# TYPE x_depth gauge
x_depth{tenant="beta"} -1
# HELP x_seconds Latency.
# TYPE x_seconds histogram
x_seconds_bucket{route="/a",le="0.5"} 1
x_seconds_bucket{route="/a",le="2"} 1
x_seconds_bucket{route="/a",le="+Inf"} 2
x_seconds_sum{route="/a"} 3.5
x_seconds_count{route="/a"} 2
# HELP x_ratio A float.
# TYPE x_ratio gauge
x_ratio 0.25
# HELP x_bytes_total An integral float.
# TYPE x_bytes_total counter
x_bytes_total 67108864
`
	if sb.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", sb.String(), want)
	}
	if errs := LintPrometheusString(sb.String()); len(errs) > 0 {
		t.Fatalf("lint: %v", errs)
	}
}

func TestRegistryRejectsInvalidDefinitions(t *testing.T) {
	for name, define := range map[string]func(r *Registry){
		"duplicate family":     func(r *Registry) { r.Counter("a_total", "h"); r.GaugeVec("a_total", "h") },
		"histogram sample":     func(r *Registry) { r.HistogramVec("a", "h", nil); r.Counter("a_count", "h") },
		"bad metric name":      func(r *Registry) { r.Counter("a-b", "h") },
		"bad label name":       func(r *Registry) { r.CounterVec("a", "h", "x-y") },
		"reserved label name":  func(r *Registry) { r.CounterVec("a", "h", "__x") },
		"repeated label":       func(r *Registry) { r.CounterVec("a", "h", "x", "x") },
		"le on a histogram":    func(r *Registry) { r.HistogramVec("a", "h", nil, "le") },
		"too many labels":      func(r *Registry) { r.CounterVec("a", "h", "a", "b", "c", "d", "e", "f") },
		"unsorted buckets":     func(r *Registry) { r.HistogramVec("a", "h", []float64{1, 1}) },
		"wrong label arity":    func(r *Registry) { r.CounterVec("a", "h", "x").With("1", "2") },
		"missing label values": func(r *Registry) { r.HistogramVec("a", "h", nil, "x").With() },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			define(NewRegistry())
		})
	}
}

// TestRegistryEscapesLabelValues is the trust-boundary property: label
// values arrive from request headers, so any bytes must render valid
// text. Values that differ only in invalid UTF-8 share one series.
func TestRegistryEscapesLabelValues(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("x_total", "h", "v")
	for _, v := range []string{"a\tb", "q\"uote", `back\slash`, "new\nline", "caf\xe9", "caf\xea"} {
		c.With(v).Inc()
	}
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	if errs := LintPrometheusString(out); len(errs) > 0 {
		t.Fatalf("lint: %v\n%s", errs, out)
	}
	for _, want := range []string{
		"x_total{v=\"a\tb\"} 1",
		`x_total{v="q\"uote"} 1`,
		`x_total{v="back\\slash"} 1`,
		`x_total{v="new\nline"} 1`,
		"x_total{v=\"caf\uFFFD\"} 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in\n%s", want, out)
		}
	}
}

func TestRegistryDeleteAndCounts(t *testing.T) {
	r := NewRegistry()
	admitted := r.CounterVec("q_admitted_total", "h", "tenant")
	shed := r.CounterVec("q_shed_total", "h", "tenant", "reason")
	r.CounterFunc("q_func_total", "h", func() float64 { return 1 })
	admitted.With("a").Add(2)
	admitted.With("b").Inc()
	shed.With("a", "full").Inc()
	shed.With("a", "late").Add(3)
	shed.With("b", "full").Inc()

	got := r.Counts("q_", "a")
	if len(got) != 3 || got["admitted"] != 2 || got["shed:full"] != 1 || got["shed:late"] != 3 {
		t.Fatalf("Counts(a) = %v", got)
	}
	if got := r.Counts("q_"); len(got) != 5 || got["admitted:b"] != 1 {
		t.Fatalf("Counts() = %v", got)
	}
	shed.Delete("a")
	admitted.Delete("a")
	if got := r.Counts("q_", "a"); len(got) != 0 {
		t.Fatalf("after Delete(a): %v", got)
	}
	if got := r.Counts("q_", "b"); len(got) != 2 {
		t.Fatalf("Delete(a) touched b: %v", got)
	}
}

// TestRegistryConcurrentUse drives series creation, updates and deletes
// from several goroutines while two others scrape; run it under -race.
// The OnScrape snapshot is a plain variable: scrapes must be serialized.
func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("c_total", "h", "k")
	g := r.GaugeVec("g", "h", "k")
	h := r.HistogramVec("h_seconds", "h", nil, "k")
	scrapes := 0
	r.OnScrape(func() { scrapes++ })
	r.GaugeFunc("scrapes", "h", func() float64 { return float64(scrapes) })
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 300; j++ {
				k := strconv.Itoa(j % 7)
				c.With(k).Inc()
				g.With(k).Set(int64(j))
				h.With(k).Observe(float64(j))
				if j%50 == 0 {
					c.Delete(k)
				}
			}
		}()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 30; j++ {
				var sb strings.Builder
				r.WritePrometheus(&sb)
				if errs := LintPrometheusString(sb.String()); len(errs) > 0 {
					t.Errorf("lint: %v", errs)
					return
				}
				r.Counts("")
			}
		}()
	}
	wg.Wait()
}

// FuzzRegistryLabels: any label value, on a counter family and on a
// histogram family, renders text the strict linter accepts.
func FuzzRegistryLabels(f *testing.F) {
	f.Add("plain")
	f.Fuzz(func(t *testing.T, v string) {
		r := NewRegistry()
		r.CounterVec("fuzz_total", "Fuzzed label values.", "v", "w").With(v, "fixed").Inc()
		r.HistogramVec("fuzz_seconds", "Fuzzed label values.", nil, "v").With(v).Observe(1)
		var sb strings.Builder
		r.WritePrometheus(&sb)
		if errs := LintPrometheusString(sb.String()); len(errs) > 0 {
			t.Fatalf("label value %q: %v\n%s", v, errs, sb.String())
		}
	})
}
