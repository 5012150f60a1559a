package obs

import (
	"io"
	"os"
	"runtime"
	"sync"
	"time"
)

// RuntimeSample is one point-in-time reading of the Go runtime and
// process vitals served by GET /v1/debug/status and exported as gauges.
type RuntimeSample struct {
	SampledAt      time.Time `json:"sampled_at"`
	Goroutines     int       `json:"goroutines"`
	HeapAllocBytes uint64    `json:"heap_alloc_bytes"`
	HeapSysBytes   uint64    `json:"heap_sys_bytes"`
	HeapObjects    uint64    `json:"heap_objects"`
	GCCycles       uint32    `json:"gc_cycles"`
	GCPauseTotalMS float64   `json:"gc_pause_total_ms"`
	OpenFDs        int       `json:"open_fds"`
	GoMaxProcs     int       `json:"gomaxprocs"`
	NumCPU         int       `json:"num_cpu"`
}

// Status is the consolidated self-report: build identity, uptime, the
// latest runtime sample, every registered subsystem snapshot, and the
// tail of the log ring.
type Status struct {
	Build         Build          `json:"build"`
	UptimeSeconds float64        `json:"uptime_seconds"`
	Runtime       RuntimeSample  `json:"runtime"`
	Sections      map[string]any `json:"sections,omitempty"`
	RecentLogs    []LogRecord    `json:"recent_logs,omitempty"`
}

// Introspector samples process vitals, exports them as Prometheus
// gauges, and assembles the /v1/debug/status document from
// snapshot callbacks each subsystem registers (qos, memo, store, kernel,
// leases, worker pools). The nil *Introspector is valid and inert:
// Status on it returns a bare build-info document.
type Introspector struct {
	start time.Time
	log   *Logger

	reg *Registry

	mu       sync.Mutex
	sections map[string]func() any
}

// NewIntrospector builds an introspector that stamps RecentLogs from
// log's ring buffer (log may be nil).
func NewIntrospector(log *Logger) *Introspector {
	r := NewRegistry()
	in := &Introspector{
		start:    time.Now(),
		log:      log,
		reg:      r,
		sections: make(map[string]func() any),
	}
	var s RuntimeSample
	r.OnScrape(func() { s = sampleRuntime() })
	r.GaugeFunc("solved_uptime_seconds", "Seconds since the process started.", func() float64 { return time.Since(in.start).Seconds() })
	r.GaugeFunc("solved_goroutines", "Live goroutine count.", func() float64 { return float64(s.Goroutines) })
	r.GaugeFunc("solved_heap_alloc_bytes", "Bytes of allocated heap objects.", func() float64 { return float64(s.HeapAllocBytes) })
	r.GaugeFunc("solved_heap_sys_bytes", "Bytes of heap obtained from the OS.", func() float64 { return float64(s.HeapSysBytes) })
	r.GaugeFunc("solved_heap_objects", "Live heap object count.", func() float64 { return float64(s.HeapObjects) })
	r.CounterFunc("solved_gc_cycles_total", "Completed GC cycles.", func() float64 { return float64(s.GCCycles) })
	r.CounterFunc("solved_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.", func() float64 { return s.GCPauseTotalMS / 1e3 })
	r.GaugeFunc("solved_open_fds", "Open file descriptors (-1 where unavailable).", func() float64 { return float64(s.OpenFDs) })
	r.GaugeFunc("solved_gomaxprocs", "GOMAXPROCS setting.", func() float64 { return float64(s.GoMaxProcs) })
	return in
}

// Register adds a named snapshot section to the status document. fn is
// called on every Status request; its result must be JSON-marshalable.
// Nil receiver is a no-op.
func (in *Introspector) Register(name string, fn func() any) {
	if in == nil || fn == nil {
		return
	}
	in.mu.Lock()
	in.sections[name] = fn
	in.mu.Unlock()
}

// RegisterGauge exports fn as a Prometheus gauge under name (read on
// every metrics scrape — keep fn cheap). Registering a name twice
// panics. Nil receiver is a no-op.
func (in *Introspector) RegisterGauge(name, help string, fn func() float64) {
	if in == nil || fn == nil {
		return
	}
	in.reg.GaugeFunc(name, help, fn)
}

// sampleRuntime takes a live runtime reading.
func sampleRuntime() RuntimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return RuntimeSample{
		SampledAt:      time.Now(),
		Goroutines:     runtime.NumGoroutine(),
		HeapAllocBytes: ms.HeapAlloc,
		HeapSysBytes:   ms.HeapSys,
		HeapObjects:    ms.HeapObjects,
		GCCycles:       ms.NumGC,
		GCPauseTotalMS: float64(ms.PauseTotalNs) / 1e6,
		OpenFDs:        countFDs(),
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
	}
}

// countFDs reads the process's open file-descriptor count from
// /proc/self/fd (-1 where unavailable, e.g. non-Linux).
func countFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// Uptime reports how long this introspector (≈ the process) has been
// running. Zero on a nil receiver.
func (in *Introspector) Uptime() time.Duration {
	if in == nil {
		return 0
	}
	return time.Since(in.start)
}

// Status assembles the consolidated self-report with up to tailLogs
// recent log records. Works on a nil receiver (build info only).
func (in *Introspector) Status(tailLogs int) Status {
	st := Status{Build: BuildInfo()}
	if in == nil {
		return st
	}
	st.UptimeSeconds = time.Since(in.start).Seconds()
	st.Runtime = sampleRuntime()
	in.mu.Lock()
	names := make([]string, 0, len(in.sections))
	fns := make([]func() any, 0, len(in.sections))
	for name, fn := range in.sections {
		names = append(names, name)
		fns = append(fns, fn)
	}
	in.mu.Unlock()
	if len(names) > 0 {
		st.Sections = make(map[string]any, len(names))
		for i, name := range names {
			st.Sections[name] = fns[i]()
		}
	}
	if tailLogs > 0 {
		st.RecentLogs = in.log.Ring().Tail(tailLogs)
	}
	return st
}

// WritePrometheus renders the process gauges: runtime vitals from a
// fresh sample, uptime, and every registered custom gauge. Nil receiver
// writes nothing.
func (in *Introspector) WritePrometheus(w io.Writer) {
	if in == nil {
		return
	}
	in.reg.WritePrometheus(w)
}
