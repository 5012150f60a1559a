package main

import (
	"encoding/json"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The machine's speed changes under a run. On the 2-vCPU shared VM this
// benchmark was built on, a fixed single-threaded loop took either about
// 300 or about 480 us of thread CPU time, switching every few seconds, and
// the workloads' ops per CPU second moved with it. A speed probe measures
// that beside the workload: a goroutine on its own OS thread runs a fixed
// piece of the benchmark's own code (probeWork, which no change to the
// program can speed up) every probeEvery and records the thread CPU time
// each call took. Each part of a window carries the median probe time in
// it, and ops_per_cpu_s is scaled by (probe time / probeRefUS)^probeAlpha.
const (
	probeEvery = 50 * time.Millisecond
	// probeRefUS sets the scale of the adjusted figure: the probe's usual
	// time on the machine the benchmark was built on, so that there the
	// adjusted and raw figures read alike.
	probeRefUS = 400.0
	// probeAlpha is how strongly the workloads follow the probe: regressing
	// log part rate on log probe time within runs gave slopes of -0.41
	// (sweep-fleet) and -0.52 (jobs-http).
	probeAlpha = 0.5
)

// speedAdjust is the factor that scales a rate measured while the probe
// took probeUS to the reference speed.
func speedAdjust(probeUS float64) float64 {
	return math.Pow(probeUS/probeRefUS, probeAlpha)
}

// threadCPU is the CPU time the calling OS thread has used.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// probeWork is the probe's fixed work: a sparse matrix-vector product
// loop over 2000 rows of 7 pseudo-random columns, then a little
// allocation and JSON encoding, like the mix of numerics and runtime work
// the workloads do.
type probeWork struct {
	cols []int32
	vals []float64
	x, y []float64
}

type probeRow struct {
	ID   int       `json:"id"`
	Name string    `json:"name"`
	Vals []float64 `json:"vals"`
}

func newProbeWork() *probeWork {
	const n, perRow = 2000, 7
	w := &probeWork{cols: make([]int32, n*perRow), vals: make([]float64, n*perRow),
		x: make([]float64, n), y: make([]float64, n)}
	for i := range w.cols {
		w.cols[i] = int32((i*2654435761 + 12345) % n)
		w.vals[i] = 1 / float64(1+i%perRow) / perRow
	}
	for i := range w.x {
		w.x[i] = math.Sin(float64(i))
	}
	return w
}

func (w *probeWork) run() {
	n := len(w.y)
	for rep := 0; rep < 8; rep++ {
		for i := 0; i < n; i++ {
			v := 0.0
			for k := i * 7; k < i*7+7; k++ {
				v += w.vals[k] * w.x[w.cols[k]]
			}
			w.y[i] = v
		}
		w.x, w.y = w.y, w.x
	}
	rows := make([]probeRow, 0, 32)
	for i := 0; i < 64; i++ {
		rows = append(rows, probeRow{ID: i, Name: "row", Vals: []float64{float64(i), w.x[i%n]}})
		if len(rows) == cap(rows) {
			b, _ := json.Marshal(rows)
			w.x[i%n] += float64(len(b)) * 1e-15
			rows = rows[:0]
		}
	}
}

// probeSample is one timed probeWork call, stamped when it ended.
type probeSample struct {
	at  time.Time
	cpu time.Duration
}

// speedProbe runs probeWork every probeEvery until stopped.
type speedProbe struct {
	mu      sync.Mutex
	samples []probeSample
	stopc   chan struct{}
	done    chan struct{}
}

func startProbe() *speedProbe {
	p := &speedProbe{stopc: make(chan struct{}), done: make(chan struct{})}
	ready := make(chan struct{})
	go func(ready chan struct{}) {
		defer close(p.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		w := newProbeWork()
		t := time.NewTicker(probeEvery)
		defer t.Stop()
		for {
			c := threadCPU()
			w.run()
			s := probeSample{time.Now(), threadCPU() - c}
			p.mu.Lock()
			p.samples = append(p.samples, s)
			p.mu.Unlock()
			if ready != nil {
				close(ready) // every part has a sample at or before its start
				ready = nil
			}
			select {
			case <-p.stopc:
				return
			case <-t.C:
			}
		}
	}(ready)
	<-ready
	return p
}

func (p *speedProbe) stop() {
	close(p.stopc)
	<-p.done
}

// between returns the median probe time in microseconds of the calls that
// ended in [a, b) — or of the last call before b if none did — and the
// CPU time those calls used, which the caller takes out of the part's.
func (p *speedProbe) between(a, b time.Time) (float64, time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var us []float64
	var used time.Duration
	last := -1
	for i, s := range p.samples {
		if !s.at.Before(b) {
			break
		}
		last = i
		if !s.at.Before(a) {
			us = append(us, float64(s.cpu)/1e3)
			used += s.cpu
		}
	}
	if len(us) == 0 {
		return float64(p.samples[last].cpu) / 1e3, 0
	}
	sort.Float64s(us)
	return us[len(us)/2], used
}

// part is the part of a window from one clock reading to another, in
// which ops completed, with the probe's CPU time taken out of the part's.
func (p *speedProbe) part(from, to cpuClock, ops int) part {
	probeUS, used := p.between(from.wall, to.wall)
	return part{ops: ops, wall: to.wall.Sub(from.wall), cpu: to.cpu - from.cpu - used, probeUS: probeUS}
}
