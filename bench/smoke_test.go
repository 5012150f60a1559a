package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload at the tiny size on one seed, untraced and
// traced, and checks the output contract: the correctness gate passes and
// every end-to-end or per-layer name is printed with its unit, both on a
// "# " line and in the final JSON object.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range sortedWorkloads() {
		for _, traced := range []bool{false, true} {
			o := options{workload: name, seed: 7, window: time.Second, trace: traced, tiny: true,
				setups: 1, dir: t.TempDir()}
			rep, err := execute(context.Background(), workloads[name], o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			var out bytes.Buffer
			if err := rep.write(&out, defs); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res resultOut
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", name, traced,
					res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics in the result, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q != %q", name, traced, d.name, m.Unit, d.unit)
				}
				if !printedWithUnit(lines, d) {
					t.Errorf("%s trace=%v: no \"# %s ... %s\" line", name, traced, d.name, d.unit)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if _, ok := rep.vals[d.name]; !ok {
						t.Errorf("%s: end-to-end metric %s not measured: %s", name, d.name, rep.missing[d.name])
					}
				}
			}
		}
	}
}

func printedWithUnit(lines []string, d metricDef) bool {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) >= 4 && f[0] == "#" && f[1] == d.name && f[3] == d.unit {
			return true
		}
	}
	return false
}

func sortedWorkloads() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestBenchmarkJSONMatchesModel holds BENCHMARK.json and the metric table
// in model.go in step: same workloads, names, units and directions.
func TestBenchmarkJSONMatchesModel(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(sortedWorkloads(), ","); got != want {
		t.Errorf("workloads %s, want %s", got, want)
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d] = %s/%s/%s, want %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	for _, c := range jobClasses {
		found := false
		for _, d := range perLayer {
			found = found || d.name == "class."+c+".solve_p50_ms"
		}
		if !found {
			t.Errorf("job class %s has no class.%s.solve_p50_ms metric", c, c)
		}
	}
}

func TestPercentileGuard(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 90); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if _, ok := percentile(xs[:99], 90); ok {
		t.Error("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if v, ok := percentile(xs[:20], 50); !ok || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10, true", v, ok)
	}
}

func TestUnionNS(t *testing.T) {
	s := []span{{0, 10}, {5, 15}, {20, 30}, {-5, 2}, {40, 50}}
	if got := unionNS(s, 0, 45); got != 15+10+5 {
		t.Errorf("unionNS = %d, want 30", got)
	}
}
