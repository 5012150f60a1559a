// Command bench is the repository's end-to-end benchmark. It drives the
// solver platform in-process — the campaign runner, the dist fleet over
// loopback HTTP, and the solved job service through its client — on one of
// two seeded workloads, measures for a fixed window, checks every output
// against an independent reference, and prints its metrics.
//
//	bench --workload sweep-fleet|jobs-http --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line of standard output is a JSON object carrying
// the end-to-end metrics; with --trace 1 it carries the per-layer metrics of
// a separate traced run (see model.go). Every other output line starts with
// "# ": the environment record, poll intervals, sample counts and any
// correctness failure. Infrastructure errors exit 1 without a result.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	// tiny shrinks every workload to a few seconds of work for the smoke
	// test; the metrics it prints are not comparable to full-size runs.
	tiny bool
	// setups is how many times the workload is set up; setup_s is their
	// median.
	setups int
	// dir holds the run's journals and stores.
	dir string
}

// rng derives an independent deterministic stream for one use of the seed.
func (o options) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(o.seed*1_000_003 + stream))
}

type workloadFunc func(ctx context.Context, o options, rep *report) error

var workloads = map[string]workloadFunc{
	"sweep-fleet": runSweepFleet,
	"jobs-http":   runJobsHTTP,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "length of the timed window in seconds")
	traced := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %v)\n", *name, names)
		return 2
	}
	if *seconds <= 0 || *traced < 0 || *traced > 1 {
		fmt.Fprintln(stderr, "bench: bad --seconds or --trace")
		return 2
	}
	// Size everything for the machine: one scheduler thread per CPU.
	runtime.GOMAXPROCS(runtime.NumCPU())

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	dir := filepath.Join(wd, ".bench_build", "work", fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	o := options{workload: *name, seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		trace: *traced == 1, setups: 7, dir: dir}
	if o.trace {
		// The traced run measures an untraced and a traced window, each
		// half as long, so it takes about as long as an untraced run.
		o.window /= 2
	}
	rep, err := execute(context.Background(), wl, o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	if err := rep.write(stdout, defs); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// execute runs one workload under the run's overall deadline and books the
// process-wide metrics.
func execute(ctx context.Context, wl workloadFunc, o options) (*report, error) {
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()
	rep := newReport()
	for _, line := range envRecord(o.seed, o.dir) {
		rep.note("%s", line)
	}
	if err := wl(ctx, o, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	rep.note("ops attempted=%d failed=%d failed_frac=%.6g", rep.attempted, rep.failed,
		float64(rep.failed)/float64(max(rep.attempted, 1)))
	return rep, nil
}
