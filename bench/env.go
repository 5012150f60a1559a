package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTimes is one /proc/stat "cpu" line: total jiffies and steal jiffies.
type cpuTimes struct{ total, steal uint64 }

func readCPUTimes() cpuTimes {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTimes{}
	}
	fields := strings.Fields(sc.Text())
	var t cpuTimes
	// user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already counted in user, so stop after steal.
	for i := 1; i < len(fields) && i <= 8; i++ {
		v, _ := strconv.ParseUint(fields[i], 10, 64)
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

// stealFrac is the share of all CPU time between a and b that the
// hypervisor stole.
func stealFrac(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// procCPU is the CPU time the process has used so far, user plus system.
// Time the hypervisor stole or other processes ran is not in it.
func procCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads VmHWM, the process's peak resident set.
func peakRSSMiB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuClock is one reading of the wall clock and the process CPU time.
type cpuClock struct {
	wall time.Time
	cpu  time.Duration
}

func startClock() cpuClock { return cpuClock{time.Now(), procCPU()} }

// rtSnap is the runtime's allocation and CPU accounting at one instant.
type rtSnap struct {
	at             time.Time
	proc           time.Duration // procCPU
	bytes, mallocs uint64
	gcCPU, cpu     float64
	steal          cpuTimes
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func snapRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtSamples))
	copy(s, rtSamples)
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSnap{at: time.Now(), proc: procCPU(), bytes: uint64(val(0)), mallocs: uint64(val(1)),
		gcCPU: val(2), cpu: val(3), steal: readCPUTimes()}
}

// rssInterval is how often the window's peak-RSS mark is read and reset.
// rss_peak_mb is the median of these interval peaks: the peak of a whole
// window is one sample, set by wherever the GC happened to trigger, and
// does not repeat.
const rssInterval = 250 * time.Millisecond

// timedWindow watches one timed window: the runtime counters at its start
// and a goroutine collecting interval peaks of the resident set.
type timedWindow struct {
	start rtSnap
	stop  chan struct{}
	done  chan []float64
}

// resetPeakRSS resets VmHWM to the current RSS (Linux >= 4.0). Where that
// fails the interval peaks cover everything before them, which is still an
// upper bound.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

func startWindow() *timedWindow {
	w := &timedWindow{stop: make(chan struct{}), done: make(chan []float64, 1)}
	resetPeakRSS()
	w.start = snapRuntime()
	go func() {
		var peaks []float64
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				peaks = append(peaks, peakRSSMiB())
				resetPeakRSS()
			case <-w.stop:
				w.done <- append(peaks, peakRSSMiB())
				return
			}
		}
	}()
	return w
}

// end stops the window and books rss_peak_mb and its allocation, GC and
// steal metrics, given the ops it completed.
func (w *timedWindow) end(r *report, ops int) {
	close(w.stop)
	peaks := <-w.done
	b := snapRuntime()
	r.set("rss_peak_mb", median(peaks), len(peaks))
	r.windowRuntime(w.start, b, ops)
	r.note("window: %d ops in %.3f s wall, %.3f s process CPU", ops, b.at.Sub(w.start.at).Seconds(), (b.proc - w.start.proc).Seconds())
}

// windowRuntime books the allocation, GC and steal metrics of one timed
// window that completed ops operations.
func (r *report) windowRuntime(a, b rtSnap, ops int) {
	if ops > 0 {
		r.set("alloc.mb_per_op", float64(b.bytes-a.bytes)/float64(ops)/(1<<20), ops)
		r.set("alloc.allocs_per_op", float64(b.mallocs-a.mallocs)/float64(ops), ops)
	}
	if cpu := b.cpu - a.cpu; cpu > 0 {
		r.set("gc.cpu_frac", (b.gcCPU-a.gcCPU)/cpu, 1)
	} else {
		r.skip("gc.cpu_frac", "runtime CPU accounting not updated within the window")
	}
	steal := stealFrac(a.steal, b.steal)
	r.set("env.steal_frac", steal, 1)
	r.note("env steal_frac=%.4g over the %.3f s window", steal, b.at.Sub(a.at).Seconds())
}

// envRecord describes the machine and build a run was taken on.
func envRecord(seed int64, dir string) []string {
	return []string{
		fmt.Sprintf("env seed=%d commit=%s go=%s", seed, gitCommit(), runtime.Version()),
		fmt.Sprintf("env cpu=%q nproc=%d gomaxprocs=%d", cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0)),
		fmt.Sprintf("env work_dir_fs=%s", fsType(dir)),
	}
}

// gitCommit reads HEAD from the .git directory of the working directory
// (the repository root); a source checkout without git metadata reports
// "unknown".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	name := strings.TrimPrefix(ref, "ref: ")
	if id, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
		return strings.TrimSpace(string(id))
	}
	if packed, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[1] == name {
				return f[0]
			}
		}
	}
	return "unknown"
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir by its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
