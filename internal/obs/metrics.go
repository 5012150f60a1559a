package obs

import (
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"
)

// Counter is a monotonically increasing integer metric. The zero value is
// ready to use; a registry's counter families hand out the counters they
// export.
type Counter struct {
	n atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds d (negative deltas are ignored: counters only go up).
func (c *Counter) Add(d int64) {
	if d > 0 {
		c.n.Add(d)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Gauge is an integer metric that can go up and down.
type Gauge struct {
	n atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.n.Store(v) }

// defaultBuckets are the latency histogram upper bounds in seconds.
var defaultBuckets = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}

// Histogram is a fixed-bucket histogram (cumulative on export, as the
// Prometheus text format expects). Histogram families create them.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64 // per-bucket, counts[len(bounds)] = overflow (+Inf)
	sum    float64
	total  int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.total++
}

// SumCount returns the running sum and observation count in one locked
// read, for callers aggregating means across several histograms.
func (h *Histogram) SumCount() (sum float64, count int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum, h.total
}

// maxLabels bounds a family's label names. It sizes the array that keys
// a family's series, so looking a series up never allocates.
const maxLabels = 5

type labelKey [maxLabels]string

// Registry holds metric families and renders them in the Prometheus text
// exposition format (version 0.0.4); its WritePrometheus is the repo's
// only exposition writer. The text it writes is valid by construction:
//
//   - metric and label names are checked, and a family name (or a sample
//     name a histogram writes) registered twice panics, at registration;
//   - label names are declared once per family, and With panics when
//     given the wrong number of values;
//   - each family with a sample gets one HELP and one TYPE line, followed
//     by all its series, sorted by label values, labels in declared order;
//   - label values are made valid UTF-8 (invalid bytes become U+FFFD, so
//     values differing only there share a series) and escaped per the
//     text format.
//
// Families appear in registration order; a labelled family with no
// series is left out. All methods are safe for concurrent use.
type Registry struct {
	mu     sync.Mutex // guards fams, names and scrape
	fams   []*family
	names  map[string]bool // every sample name the families write
	scrape []func()

	// writing serializes scrapes, so the snapshot an OnScrape hook takes
	// is the one its func-backed families read.
	writing sync.Mutex
}

type family struct {
	name, help, typ string
	labels          []string
	bounds          []float64      // histogram bucket upper bounds
	les             []string       // the bounds as "le" label values, then "+Inf"
	fn              func() float64 // func-backed family: its one value, read at scrape

	mu     sync.Mutex
	series map[labelKey]*series
}

type series struct {
	key labelKey
	c   Counter
	g   Gauge
	h   *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// Counter registers an unlabelled counter family and returns its counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// CounterVec registers a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) CounterVec {
	return CounterVec{vec{r.add(&family{name: name, help: help, typ: "counter", labels: labels})}}
}

// GaugeVec registers a gauge family with the given label names.
func (r *Registry) GaugeVec(name, help string, labels ...string) GaugeVec {
	return GaugeVec{vec{r.add(&family{name: name, help: help, typ: "gauge", labels: labels})}}
}

// HistogramVec registers a histogram family with the given bucket upper
// bounds (nil selects the default latency buckets, in seconds) and label
// names.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) HistogramVec {
	if bounds == nil {
		bounds = defaultBuckets
	}
	return HistogramVec{vec{r.add(&family{name: name, help: help, typ: "histogram", labels: labels, bounds: slices.Clone(bounds)})}}
}

// CounterFunc registers an unlabelled counter whose value fn reports at
// each scrape; integral values are written as integers.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.add(&family{name: name, help: help, typ: "counter", fn: fn})
}

// GaugeFunc registers an unlabelled gauge whose value fn reports at each
// scrape; integral values are written as integers.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.add(&family{name: name, help: help, typ: "gauge", fn: fn})
}

// OnScrape registers fn to run at the start of every WritePrometheus,
// before any value is read: the place to take one snapshot that several
// func-backed families share. Scrapes of one registry are serialized, so
// the snapshot needs no lock of its own.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	r.scrape = append(r.scrape, fn)
	r.mu.Unlock()
}

// add validates and registers a family, panicking on a definition that
// could render invalid text.
func (r *Registry) add(f *family) *family {
	bad := func(what string) { panic("obs: metric " + strconv.Quote(f.name) + ": " + what) }
	if !metricNameRe.MatchString(f.name) {
		bad("invalid name")
	}
	if len(f.labels) > maxLabels {
		bad("more than " + strconv.Itoa(maxLabels) + " labels")
	}
	f.labels = slices.Clone(f.labels)
	for i, l := range f.labels {
		if !labelNameRe.MatchString(l) || strings.HasPrefix(l, "__") || slices.Contains(f.labels[:i], l) ||
			(l == "le" && f.typ == "histogram") {
			bad("invalid or repeated label " + strconv.Quote(l))
		}
	}
	f.help = strings.ToValidUTF8(f.help, "\uFFFD")
	names := []string{f.name}
	if f.typ == "histogram" {
		for i, b := range f.bounds {
			if i > 0 && b <= f.bounds[i-1] {
				bad("bucket bounds must increase")
			}
			f.les = append(f.les, strconv.FormatFloat(b, 'g', -1, 64))
		}
		f.les = append(f.les, "+Inf")
		names = append(names, f.name+"_bucket", f.name+"_sum", f.name+"_count")
	}
	f.series = make(map[labelKey]*series)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range names {
		if r.names[n] {
			bad("registered twice")
		}
	}
	for _, n := range names {
		r.names[n] = true
	}
	r.fams = append(r.fams, f)
	return f
}

// vec is the label-addressed series set shared by the family handles.
type vec struct{ f *family }

// CounterVec is a labelled counter family.
type CounterVec struct{ vec }

// GaugeVec is a labelled gauge family.
type GaugeVec struct{ vec }

// HistogramVec is a labelled histogram family.
type HistogramVec struct{ vec }

// With returns the counter for the label values, creating it at zero on
// first use.
func (v CounterVec) With(values ...string) *Counter { return &v.with(values).c }

// With returns the gauge for the label values, creating it at zero on
// first use.
func (v GaugeVec) With(values ...string) *Gauge { return &v.with(values).g }

// With returns the histogram for the label values, creating it empty on
// first use.
func (v HistogramVec) With(values ...string) *Histogram { return v.with(values).h }

// Each calls fn for every series, in label-value order.
func (v HistogramVec) Each(fn func(values []string, h *Histogram)) {
	for _, s := range v.f.sorted() {
		fn(s.key[:len(v.f.labels)], s.h)
	}
}

// Delete removes every series whose leading label values equal values
// (all of the family's series when values is empty).
func (v vec) Delete(values ...string) {
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	for k := range v.f.series {
		if k.hasPrefix(values) {
			delete(v.f.series, k)
		}
	}
}

func (v vec) with(values []string) *series {
	f := v.f
	if len(values) != len(f.labels) {
		panic("obs: metric " + strconv.Quote(f.name) + " takes " + strconv.Itoa(len(f.labels)) + " label values")
	}
	var k labelKey
	for i, s := range values {
		k[i] = validUTF8(s)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.series[k]
	if s == nil {
		s = &series{key: k}
		if f.typ == "histogram" {
			s.h = &Histogram{bounds: f.bounds, counts: make([]int64, len(f.les))}
		}
		f.series[k] = s
	}
	return s
}

func validUTF8(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	return strings.ToValidUTF8(s, "\uFFFD")
}

func (k *labelKey) hasPrefix(values []string) bool {
	for i, v := range values {
		if k[i] != validUTF8(v) {
			return false
		}
	}
	return true
}

// sorted snapshots the family's series in label-value order.
func (f *family) sorted() []*series {
	f.mu.Lock()
	ss := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		ss = append(ss, s)
	}
	f.mu.Unlock()
	sort.Slice(ss, func(i, j int) bool { return slices.Compare(ss[i].key[:], ss[j].key[:]) < 0 })
	return ss
}

// Counts returns the value of every counter series whose leading label
// values equal match, keyed by its family name less prefix and the
// "_total" suffix, then ":" and each remaining label value. It is the
// registry behind the subsystems' Snapshot maps; func-backed counters
// are not included.
func (r *Registry) Counts(prefix string, match ...string) map[string]int64 {
	r.mu.Lock()
	fams := r.fams
	r.mu.Unlock()
	out := make(map[string]int64)
	for _, f := range fams {
		if f.typ != "counter" || f.fn != nil || len(f.labels) < len(match) {
			continue
		}
		base := strings.TrimSuffix(strings.TrimPrefix(f.name, prefix), "_total")
		for _, s := range f.sorted() {
			if !s.key.hasPrefix(match) {
				continue
			}
			key := base
			for _, v := range s.key[len(match):len(f.labels)] {
				key += ":" + v
			}
			out[key] = s.c.Value()
		}
	}
	return out
}

// WritePrometheus runs the OnScrape hooks, then renders every family.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.writing.Lock()
	defer r.writing.Unlock()
	r.mu.Lock()
	fams, scrape := r.fams, r.scrape
	r.mu.Unlock()
	for _, fn := range scrape {
		fn()
	}
	var b []byte
	for _, f := range fams {
		b = f.appendTo(b)
	}
	w.Write(b)
}

func (f *family) appendTo(b []byte) []byte {
	var ss []*series
	if f.fn == nil {
		if ss = f.sorted(); len(ss) == 0 {
			return b
		}
	}
	b = append(append(b, "# HELP "...), f.name...)
	b = appendEscaped(append(b, ' '), f.help, false)
	b = append(append(b, "\n# TYPE "...), f.name...)
	b = append(append(append(b, ' '), f.typ...), '\n')
	if f.fn != nil {
		return append(appendValue(f.appendName(b, "", nil, ""), f.fn()), '\n')
	}
	for _, s := range ss {
		switch f.typ {
		case "counter":
			b = append(strconv.AppendInt(f.appendName(b, "", &s.key, ""), s.c.Value(), 10), '\n')
		case "gauge":
			b = append(strconv.AppendInt(f.appendName(b, "", &s.key, ""), s.g.n.Load(), 10), '\n')
		default:
			b = f.appendHistogram(b, s)
		}
	}
	return b
}

func (f *family) appendHistogram(b []byte, s *series) []byte {
	h := s.h
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := int64(0)
	for i, le := range f.les {
		cum += h.counts[i]
		b = append(strconv.AppendInt(f.appendName(b, "_bucket", &s.key, le), cum, 10), '\n')
	}
	b = append(strconv.AppendFloat(f.appendName(b, "_sum", &s.key, ""), h.sum, 'g', -1, 64), '\n')
	return append(strconv.AppendInt(f.appendName(b, "_count", &s.key, ""), h.total, 10), '\n')
}

// appendName appends `name<suffix>{labels,le="..."} ` (no braces when
// there are no labels).
func (f *family) appendName(b []byte, suffix string, k *labelKey, le string) []byte {
	b = append(append(b, f.name...), suffix...)
	if len(f.labels) == 0 && le == "" {
		return append(b, ' ')
	}
	b = append(b, '{')
	for i, l := range f.labels {
		b = append(append(b, l...), `="`...)
		b = append(appendEscaped(b, k[i], true), '"', ',')
	}
	if le != "" {
		b = append(append(append(b, `le="`...), le...), '"', ',')
	}
	b[len(b)-1] = '}'
	return append(b, ' ')
}

// appendEscaped escapes backslash and newline, and with quote also the
// double quote: the text format's rules for label values (quote) and
// HELP text.
func appendEscaped(b []byte, s string, quote bool) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\\':
			b = append(b, `\\`...)
		case c == '\n':
			b = append(b, `\n`...)
		case c == '"' && quote:
			b = append(b, `\"`...)
		default:
			b = append(b, c)
		}
	}
	return b
}

// appendValue writes integral values as integers and others with %g.
func appendValue(b []byte, v float64) []byte {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
