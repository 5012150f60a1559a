package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// minBeyond is the fewest samples a percentile must have above it before
// it is printed: a tail read from fewer samples does not repeat.
const minBeyond = 10

// report collects one run's metrics, the sample count behind each, and the
// metrics that could not be measured (with the reason).
type report struct {
	vals    map[string]float64
	samples map[string]int
	missing map[string]string
	notes   []string

	attempted, failed int
	correct           bool
}

func newReport() *report {
	return &report{
		vals:    map[string]float64{},
		samples: map[string]int{},
		missing: map[string]string{},
		correct: true,
	}
}

// set records a metric measured from n samples.
func (r *report) set(name string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.skip(name, fmt.Sprintf("not finite (%v)", v))
		return
	}
	r.vals[name] = v
	r.samples[name] = n
	delete(r.missing, name)
}

// skip records why a metric could not be measured in this run.
func (r *report) skip(name, why string) {
	if _, ok := r.vals[name]; !ok {
		r.missing[name] = why
	}
}

// note adds a human-readable line to the run's output.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts failed ops and clears the correctness gate.
func (r *report) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed += n
	r.correct = false
	r.note("FAIL: "+format, args...)
}

// pct records percentile q (0..100) of xs, refusing when fewer than
// minBeyond samples lie above it.
func (r *report) pct(name string, xs []float64, q float64) {
	v, ok := percentile(xs, q)
	if !ok {
		r.skip(name, fmt.Sprintf("p%g needs >= %d samples beyond it, have %d samples", q, minBeyond, len(xs)))
		return
	}
	r.set(name, v, len(xs))
}

// part is one piece of a timed window — a campaign of sweep-fleet, a
// twentieth of the window of jobs-http — with the ops it completed, the
// wall and process CPU time it took (the speed probe's excluded), and the
// median speed-probe time in it.
type part struct {
	ops       int
	wall, cpu time.Duration
	probeUS   float64
}

// cpuRates is each part's ops per second of process CPU time, scaled to
// the reference machine speed.
func cpuRates(parts []part) []float64 {
	out := make([]float64, len(parts))
	for i, p := range parts {
		out[i] = float64(p.ops) / p.cpu.Seconds() * speedAdjust(p.probeUS)
	}
	return out
}

// throughput books ops_per_cpu_s and ops_per_s, the medians over the
// window's parts of their speed-adjusted ops per CPU second and of their
// ops per wall second, so a slow stretch of a shared machine moves a few
// parts rather than the whole figure, and env.probe_us. It returns
// ops_per_cpu_s.
func (r *report) throughput(parts []part, kind string) float64 {
	wall := make([]float64, len(parts))
	raw := make([]float64, len(parts))
	probe := make([]float64, len(parts))
	for i, p := range parts {
		wall[i] = float64(p.ops) / p.wall.Seconds()
		raw[i] = float64(p.ops) / p.cpu.Seconds()
		probe[i] = p.probeUS
	}
	cpu := cpuRates(parts)
	r.set("ops_per_cpu_s", median(cpu), len(cpu))
	r.set("ops_per_s", median(wall), len(wall))
	r.set("env.probe_us", median(probe), len(probe))
	r.note("ops_per_cpu_s = median over %d %ss of speed-adjusted ops per CPU second, in order %.4g", len(cpu), kind, cpu)
	r.note("unadjusted ops per CPU second: median %.4g, in order %.4g", median(raw), raw)
	r.note("speed probe us: median %.4g, in order %.4g", median(probe), probe)
	r.note("ops_per_s = median over %d %ss of ops per wall second, in order %.4g", len(wall), kind, wall)
	return median(cpu)
}

// setUp starts a workload o.setups times (once for a traced run) under a
// speed probe and closes every instance but the last, which it returns.
// It books setup_s, the median over the set-ups of their process CPU time
// adjusted to the reference machine speed.
func setUp[T any](o options, rep *report, start func(i int) (T, error), close func(T)) (T, error) {
	n := o.setups
	if o.trace {
		n = 1
	}
	probe := startProbe()
	defer probe.stop()
	var cpu, raw, wall []float64
	var last T
	for i := 0; i < n; i++ {
		clk := startClock()
		x, err := start(i)
		if err != nil {
			var zero T
			return zero, err
		}
		p := probe.part(clk, startClock(), 0)
		cpu = append(cpu, p.cpu.Seconds()/speedAdjust(p.probeUS))
		raw = append(raw, p.cpu.Seconds())
		wall = append(wall, p.wall.Seconds())
		if i < n-1 {
			close(x)
		}
		last = x
	}
	rep.set("setup_s", median(cpu), n)
	rep.note("set-up: median %.4g s speed-adjusted process CPU (%.4g s unadjusted, %.4g s wall) over %d set-ups",
		median(cpu), median(raw), median(wall), n)
	return last, nil
}

// traceOverhead books trace.overhead_frac: the share of the untraced
// window's ops_per_cpu_s the traced window's parts lose.
func (r *report) traceOverhead(untraced float64, traced []part) {
	r.set("trace.overhead_frac", 1-median(cpuRates(traced))/untraced, len(traced))
}

// percentile returns the nearest-rank percentile q of xs and whether at
// least minBeyond samples lie strictly beyond its rank.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return s[rank-1], false
	}
	return s[rank-1], true
}

// median is the plain median (no tail guard), for summaries of a handful
// of repeated measurements such as set-up times.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// write prints the human-readable lines (each prefixed "# ") and, last, the
// one-line JSON result holding every metric of defs. A metric this run
// could not measure is printed as 0 and listed by name with the reason.
func (r *report) write(w io.Writer, defs []metricDef) error {
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	out := resultOut{Correct: r.correct && r.attempted > 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricOut, len(defs))}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Failed = 1
	}
	for _, d := range defs {
		v, ok := r.vals[d.name]
		if ok {
			fmt.Fprintf(w, "# %-36s %14.6g %-6s n=%d\n", d.name, v, d.unit, r.samples[d.name])
		} else {
			why := r.missing[d.name]
			if why == "" {
				why = "not measured by this workload"
			}
			fmt.Fprintf(w, "# %-36s %14s %-6s not measured: %s\n", d.name, "-", d.unit, why)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}
