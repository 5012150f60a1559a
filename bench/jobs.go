package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sdcgmres/client"
	"sdcgmres/internal/memo"
	"sdcgmres/internal/service"
)

const (
	jobClients = 2
	// jobPoll is the client's wait between GetJob polls; fresh jobs take
	// 10-130 ms.
	jobPoll = 2 * time.Millisecond
	// jobTraceCap is the per-job flight-recorder ring of the traced run.
	jobTraceCap = 1024
	hitClass    = "memo-hit"
)

// jobMix is one round of a client's closed loop: 20 submissions, a quarter
// of them repeats of that client's own finished specs. The shares put p50
// inside the poisson48_ft band and p90 inside the circuit2000_ft band of
// the sorted latencies, away from every class boundary (hits < convdiff <
// poisson48 < poisson64 < circuit).
var jobMix = []struct {
	class string
	n     int
}{
	{hitClass, 5},
	{"convdiff48_ilu0", 3},
	{"poisson48_ft", 5},
	{"poisson64_gmres", 3},
	{"circuit2000_ft", 4},
}

// classSite is the highest fault site of each class: about the aggregate
// inner iterations its failure-free solve runs.
var classSite = map[string]int{
	"poisson48_ft":    175,
	"convdiff48_ilu0": 75,
	"poisson64_gmres": 120,
	"circuit2000_ft":  600,
}

// classSpec builds a job of one class with a single fault.
func classSpec(class string, f service.FaultSpec) service.JobSpec {
	ft := service.SolverSpec{Kind: "ftgmres", Detector: true, Response: "restart"}
	var s service.JobSpec
	switch class {
	case "poisson48_ft":
		s = service.JobSpec{Matrix: service.MatrixSpec{Kind: "poisson", N: 48}, Solver: ft}
	case "convdiff48_ilu0":
		s = service.JobSpec{Matrix: service.MatrixSpec{Kind: "convdiff", N: 48},
			Solver: service.SolverSpec{Kind: "ftgmres", Precond: "ilu0"}}
	case "poisson64_gmres":
		s = service.JobSpec{Matrix: service.MatrixSpec{Kind: "poisson", N: 64},
			Solver: service.SolverSpec{Kind: "gmres", MaxOuter: 150}}
	case "circuit2000_ft":
		s = service.JobSpec{Matrix: service.MatrixSpec{Kind: "circuit", N: 2000}, Solver: ft}
	default:
		panic("bench: unknown job class " + class)
	}
	s.Fault = &f
	return s
}

// plannedJob is one submission of a client's seeded sequence.
type plannedJob struct {
	class string // the spec's class; hits keep their original's class
	spec  service.JobSpec
	hit   bool // repeats an earlier, finished spec of the same client
}

// jobGen produces one client's deterministic request sequence. Fresh
// specs never repeat: each client draws fault sites of its own parity, and
// a digest set rejects duplicates.
type jobGen struct {
	client int
	rng    *rand.Rand
	ft     []string // fault models for the FT-GMRES classes
	gmres  []string // fault models that keep plain GMRES running
	seen   map[string]bool
	fresh  []plannedJob
	tiny   bool
}

func newJobGen(o options, client int) *jobGen {
	bit, scale := seededModels(o)
	return &jobGen{
		client: client,
		rng:    o.rng(100 + int64(client)),
		ft:     []string{"large", "slight", "tiny", bit, scale},
		gmres:  []string{"slight", "tiny"},
		seen:   map[string]bool{},
		tiny:   o.tiny,
	}
}

func (g *jobGen) freshJob(class string) plannedJob {
	models := g.ft
	if class == "poisson64_gmres" {
		models = g.gmres
	}
	for {
		f := service.FaultSpec{
			Class: models[g.rng.Intn(len(models))],
			At:    1 + g.client + 2*g.rng.Intn(classSite[class]/2),
			Step:  []string{"first", "last"}[g.rng.Intn(2)],
		}
		s := classSpec(class, f)
		d := service.SpecDigest(&s)
		if g.seen[d] {
			continue
		}
		g.seen[d] = true
		p := plannedJob{class: class, spec: s}
		g.fresh = append(g.fresh, p)
		return p
	}
}

func (g *jobGen) hitJob() plannedJob {
	p := g.fresh[g.rng.Intn(len(g.fresh))]
	p.hit = true
	return p
}

// warmUp is one fresh job of every class, then one memo hit.
func (g *jobGen) warmUp() []plannedJob {
	var out []plannedJob
	for _, c := range jobClasses {
		out = append(out, g.freshJob(c))
	}
	return append(out, g.hitJob())
}

// round is the next shuffled round of jobMix.
func (g *jobGen) round() []plannedJob {
	var slots []string
	for _, m := range jobMix {
		n := m.n
		if g.tiny {
			n = (n + 2) / 3
		}
		for i := 0; i < n; i++ {
			slots = append(slots, m.class)
		}
	}
	g.rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	out := make([]plannedJob, len(slots))
	for i, c := range slots {
		if c == hitClass {
			out[i] = g.hitJob()
		} else {
			out[i] = g.freshJob(c)
		}
	}
	return out
}

// jobSample is one observed job.
type jobSample struct {
	plannedJob
	view         service.JobView
	err          error
	start, end   time.Time
	submit       time.Duration
	polls        int
	submitEndsAt time.Time
}

func (s jobSample) latency() time.Duration { return s.end.Sub(s.start) }

// jobClient is one closed-loop caller: it submits, polls until the job is
// terminal, and only then sends the next request.
type jobClient struct {
	c   *client.Client
	gen *jobGen
}

func (jc *jobClient) do(ctx context.Context, p plannedJob) jobSample {
	s := jobSample{plannedJob: p, start: time.Now()}
	view, err := jc.c.SubmitJob(ctx, p.spec)
	s.submitEndsAt = time.Now()
	s.submit = s.submitEndsAt.Sub(s.start)
	for err == nil && !view.State.Terminal() {
		if err = sleepCtx(ctx, jobPoll); err != nil {
			break
		}
		view, err = jc.c.GetJob(ctx, view.ID)
		s.polls++
	}
	s.end = time.Now()
	s.view, s.err = view, err
	return s
}

// loop runs whole rounds until the window has elapsed, counting each job
// in done as it is observed terminal, and returns the samples.
func (jc *jobClient) loop(ctx context.Context, window time.Duration, start time.Time, done *atomic.Int64) []jobSample {
	var out []jobSample
	for r := 0; r == 0 || time.Since(start) < window; r++ {
		for _, p := range jc.gen.round() {
			out = append(out, jc.do(ctx, p))
			done.Add(1)
		}
	}
	return out
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// jobServer is solved's job surface with its defaults: FIFO admission,
// one engine worker per CPU, sequential kernels, and the memo cache on.
type jobServer struct {
	engine  *service.Engine
	srv     *http.Server
	served  chan struct{}
	url     string
	clients []*jobClient
	warm    [][]jobSample
	once    sync.Once
}

func startJobServer(ctx context.Context, o options, traceCap int) (*jobServer, error) {
	js := &jobServer{served: make(chan struct{})}
	js.engine = service.NewEngine(service.Config{
		Workers:       runtime.NumCPU(),
		TraceCapacity: traceCap,
		Memo:          memo.New(memo.Config{MaxBytes: memo.DefaultMaxBytes}),
	})
	handler := service.NewServer(js.engine, service.ServerOptions{})
	js.engine.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		js.close()
		return nil, err
	}
	js.srv = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(js.served)
		_ = js.srv.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	js.url = "http://" + ln.Addr().String()
	for i := 0; i < jobClients; i++ {
		hc := &http.Client{Timeout: 60 * time.Second, Transport: loopbackTransport()}
		js.clients = append(js.clients, &jobClient{c: client.New(js.url, hc), gen: newJobGen(o, i)})
	}
	js.warm = js.each(func(jc *jobClient) []jobSample {
		var out []jobSample
		for _, p := range jc.gen.warmUp() {
			out = append(out, jc.do(ctx, p))
		}
		return out
	})
	return js, nil
}

// each runs f for every client concurrently and collects the results.
func (js *jobServer) each(f func(*jobClient) []jobSample) [][]jobSample {
	out := make([][]jobSample, len(js.clients))
	var wg sync.WaitGroup
	wg.Add(len(js.clients))
	for i, jc := range js.clients {
		go func() {
			defer wg.Done()
			out[i] = f(jc)
		}()
	}
	wg.Wait()
	return out
}

// window runs the closed loop on every client and returns the samples per
// client and the window cut into parts of a twentieth of its length, with
// the jobs observed terminal in each.
func (js *jobServer) window(ctx context.Context, o options) ([][]jobSample, []part) {
	start := time.Now()
	var done atomic.Int64
	stop := make(chan struct{})
	sliced := make(chan []part, 1)
	probe := startProbe()
	defer probe.stop()
	go func() { sliced <- slices(o.window/20, &done, stop, probe) }()
	per := make([][]jobSample, len(js.clients))
	var wg sync.WaitGroup
	wg.Add(len(js.clients))
	for i, jc := range js.clients {
		go func() {
			defer wg.Done()
			per[i] = jc.loop(ctx, o.window, start, &done)
		}()
	}
	wg.Wait()
	close(stop)
	return per, <-sliced
}

// slices cuts the time until stop closes into parts of length d, each
// with the growth of done over it. The last, shorter part is kept only if
// it is at least half as long or the only one.
func slices(d time.Duration, done *atomic.Int64, stop <-chan struct{}, probe *speedProbe) []part {
	var out []part
	t := time.NewTicker(d)
	defer t.Stop()
	prev, n0 := startClock(), done.Load()
	for {
		select {
		case <-stop:
			if now := startClock(); len(out) == 0 || now.wall.Sub(prev.wall) >= d/2 {
				out = append(out, probe.part(prev, now, int(done.Load()-n0)))
			}
			return out
		case <-t.C:
			now, n := startClock(), done.Load()
			out = append(out, probe.part(prev, now, int(n-n0)))
			prev, n0 = now, n
		}
	}
}

func (js *jobServer) close() {
	js.once.Do(func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if js.srv != nil {
			_ = js.srv.Shutdown(sctx) // bounded by sctx; Close follows
			_ = js.srv.Close()
			<-js.served
		}
		_ = js.engine.Shutdown(sctx) // the loop is closed; nothing is queued
	})
}

func runJobsHTTP(ctx context.Context, o options, rep *report) error {
	rep.note("jobs-http: service.NewServer (FIFO, %d workers, memo on, sequential kernels), closed loop of %d client.Clients over loopback, job-wait poll %v, rounds of %v",
		runtime.NumCPU(), jobClients, jobPoll, jobMix)
	js, err := setUp(o, rep, func(int) (*jobServer, error) {
		return startJobServer(ctx, o, 0)
	}, (*jobServer).close)
	if err != nil {
		return err
	}
	defer js.close()

	tw := startWindow()
	per, parts := js.window(ctx, o)
	samples := flatten(per)
	tw.end(rep, len(samples))
	perCPU := rep.throughput(parts, "slice")
	// Memo caches are per server, so the gate checks each server's jobs
	// as one group.
	groups := [][]jobSample{append(flatten(js.warm), samples...)}
	if err := scrapeMetrics(ctx, rep, js.url); err != nil {
		return err
	}
	js.close()

	jobLayers(rep, samples)
	if !o.trace {
		rep.note("latency: op_p50_ms=%.4g op_p90_ms=%.4g over %d jobs (p90 printed only with >= %d beyond)",
			rep.vals["op_p50_ms"], rep.vals["op_p90_ms"], len(samples), minBeyond)
	}
	if o.trace {
		tjs, err := startJobServer(ctx, o, jobTraceCap)
		if err != nil {
			return err
		}
		defer tjs.close()
		t0 := time.Now()
		tper, tparts := tjs.window(ctx, o)
		t1 := time.Now()
		events := 0
		var covered int64
		for _, cs := range tper {
			var sp []span
			for _, s := range cs {
				sp = append(sp, span{s.start.UnixNano(), s.submitEndsAt.UnixNano()})
				if s.view.StartedAt != nil && s.view.FinishedAt != nil {
					sp = append(sp, span{s.view.StartedAt.UnixNano(), s.view.FinishedAt.UnixNano()})
				}
				if evs, err := tjs.engine.JobTrace(s.view.ID); err == nil {
					events += len(evs)
				}
			}
			covered += unionNS(sp, t0.UnixNano(), t1.UnixNano())
		}
		tsamples := flatten(tper)
		rep.traceOverhead(perCPU, tparts)
		rep.set("trace.coverage_frac", float64(covered)/(float64(jobClients)*float64(t1.Sub(t0))), len(tsamples))
		rep.note("traced window: %d jobs, TraceCapacity %d, %d flight-recorder events; coverage spans: SubmitJob call and the job's run (StartedAt..FinishedAt)",
			len(tsamples), jobTraceCap, events)
		groups = append(groups, append(flatten(tjs.warm), tsamples...))
		tjs.close()
	}
	return gateJobs(ctx, rep, groups)
}

func flatten(per [][]jobSample) []jobSample {
	var out []jobSample
	for _, s := range per {
		out = append(out, s...)
	}
	return out
}

// jobLayers books the jobs-http per-layer metrics of the untraced window.
func jobLayers(rep *report, samples []jobSample) {
	var lat, submit, wait, build, hitLat []float64
	solve := map[string][]float64{}
	polls, hits := 0, 0
	for _, s := range samples {
		lat = append(lat, ms(s.latency()))
		polls += s.polls
		if s.err != nil || s.view.Result == nil {
			continue
		}
		if s.view.FromMemo {
			hits++
			hitLat = append(hitLat, ms(s.latency()))
			continue
		}
		submit = append(submit, ms(s.submit))
		if s.view.StartedAt != nil && s.view.FinishedAt != nil {
			wait = append(wait, ms(s.view.StartedAt.Sub(s.view.SubmittedAt)))
			build = append(build, ms(s.view.FinishedAt.Sub(*s.view.StartedAt))-s.view.Result.ElapsedMS)
		}
		solve[s.class] = append(solve[s.class], s.view.Result.ElapsedMS)
	}
	rep.pct("op_p50_ms", lat, 50)
	rep.pct("op_p90_ms", lat, 90)
	rep.pct("service.submit_p50_ms", submit, 50)
	rep.pct("service.queue_wait_p50_ms", wait, 50)
	rep.pct("service.queue_wait_p90_ms", wait, 90)
	rep.pct("service.build_p50_ms", build, 50)
	for _, c := range jobClasses {
		rep.pct("class."+c+".solve_p50_ms", solve[c], 50)
	}
	if len(samples) > 0 {
		rep.set("memo.hit_ratio", float64(hits)/float64(len(samples)), len(samples))
		rep.set("client.polls_per_job", float64(polls)/float64(len(samples)), len(samples))
	}
	rep.pct("memo.hit_p50_ms", hitLat, 50)
}

// gateJobs is the jobs-http correctness gate over every observed job
// (warm-ups included), grouped by server: each must reach state done
// without error; a planned repeat must come from the memo byte-identical
// to its first execution on that server; a fresh job must not, and its
// record must equal service.RunSpec on the same spec with elapsed_ms
// excluded.
func gateJobs(ctx context.Context, rep *report, groups [][]jobSample) error {
	type check struct {
		idx  int
		spec service.JobSpec
	}
	var fresh []check
	var all []jobSample
	var server []int
	for g, ss := range groups {
		all = append(all, ss...)
		for range ss {
			server = append(server, g)
		}
	}
	first := map[string][]byte{} // server/spec digest -> first execution's record
	bad := make([]string, len(all))
	for i, s := range all {
		switch {
		case s.err != nil:
			bad[i] = s.err.Error()
		case s.view.State != service.StateDone || s.view.Result == nil:
			bad[i] = fmt.Sprintf("state %s: %s", s.view.State, s.view.Error)
		case s.hit != s.view.FromMemo:
			bad[i] = fmt.Sprintf("planned hit=%v but from_memo=%v", s.hit, s.view.FromMemo)
		}
		if bad[i] != "" {
			continue
		}
		raw, err := json.Marshal(s.view.Result)
		if err != nil {
			return err
		}
		d := fmt.Sprintf("%d/%s", server[i], service.SpecDigest(&s.spec))
		if s.hit {
			if want, ok := first[d]; !ok || string(want) != string(raw) {
				bad[i] = "memo hit differs from its first execution"
			}
			continue
		}
		if _, ok := first[d]; !ok {
			first[d] = raw
		}
		fresh = append(fresh, check{i, s.spec})
	}

	// Recompute every fresh job with service.RunSpec, two at a time.
	var wg sync.WaitGroup
	next := make(chan check)
	var mu sync.Mutex
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				spec := c.spec
				want, err := service.RunSpec(ctx, &spec, nil, nil)
				got := *all[c.idx].view.Result
				msg := ""
				if err != nil {
					msg = "reference RunSpec: " + err.Error()
				} else {
					w := *want
					w.ElapsedMS, got.ElapsedMS = 0, 0
					a, _ := json.Marshal(w)
					b, _ := json.Marshal(got)
					if string(a) != string(b) {
						msg = "record differs from service.RunSpec"
					}
				}
				if msg != "" {
					mu.Lock()
					bad[c.idx] = msg
					mu.Unlock()
				}
			}
		}()
	}
	for _, c := range fresh {
		next <- c
	}
	close(next)
	wg.Wait()

	failed := 0
	for i, b := range bad {
		if b == "" {
			continue
		}
		if failed++; failed <= 5 {
			rep.note("job %s (%s, hit=%v): %s", all[i].view.ID, all[i].class, all[i].hit, b)
		}
	}
	rep.attempted += len(all)
	rep.fail(failed, "%d of %d jobs failed the gate", failed, len(all))
	rep.note("correctness: %d fresh jobs recomputed with service.RunSpec (elapsed_ms excluded), %d memo hits compared byte-for-byte",
		len(fresh), len(all)-len(fresh))
	return nil
}
