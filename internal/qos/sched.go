package qos

import (
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"sdcgmres/internal/trace"
)

// Options is the runtime wiring of a Scheduler — the knobs that come from
// the host process rather than the config file.
type Options[T any] struct {
	// Now is the scheduler's clock (default time.Now). Tests inject a
	// deterministic clock so no scheduling test ever sleeps.
	Now func() time.Time
	// Workers is the service parallelism draining the queue, used to
	// scale queue depth into estimated wait (default 1).
	Workers int
	// ServiceTime supplies the live mean per-job service time (e.g. from
	// the service's latency histograms). Nil or a zero return disables
	// deadline estimation at admission — jobs are then only shed when
	// their deadline actually expires in the queue. The callback runs
	// under the scheduler lock and must not call back into the scheduler.
	ServiceTime func() time.Duration
	// OnShed is invoked (outside the scheduler lock) for every job whose
	// deadline expires while queued — the host marks the job terminal
	// without it ever occupying a worker. Admission-time rejections do
	// not reach OnShed; they surface as *ShedError from Push.
	OnShed func(tenant string, v T)
	// Recorder receives qos-admit / qos-shed flight-recorder events
	// (nil = tracing off, one pointer check per event).
	Recorder *trace.Recorder
	// TraceOf extracts a queued value's own flight recorder so Push can
	// record the qos-admit event under the scheduler lock — before any
	// worker can pop the job — with the accurate post-admit depth. A nil
	// callback or a nil recorder disables per-job admission events. The
	// callback runs under the scheduler lock and must not call back into
	// the scheduler.
	TraceOf func(v T) *trace.Recorder
}

// item is one queued job with its scheduling coordinates.
type item[T any] struct {
	v        T
	enqueued time.Time
	deadline time.Time // zero = none; absolute must-start-by time
	vft      float64   // WFQ virtual finish time within its band
}

// tenantState is one tenant's live scheduling state.
type tenantState[T any] struct {
	name       string
	cfg        TenantConfig
	dynamic    bool // not named in the config; counts against MaxTenants
	bucket     bucket
	brk        breaker
	queues     [numClasses][]item[T]
	lastFinish [numClasses]float64
	queued     int // total across bands
}

// band is one priority class's WFQ virtual clock.
type band struct {
	vtime float64
}

// Scheduler is the multi-tenant replacement for the engine's flat FIFO:
// Push is non-blocking admission (rate limits, queue bounds, deadline
// estimates, circuit breakers), Pop blocks until a job is runnable and
// picks it by priority band (with aging) and weighted fairness within
// the band. A nil *Scheduler is not used as a disabled scheduler — the
// host keeps its plain FIFO when QoS is unconfigured — so every method
// here assumes a receiver built by New.
type Scheduler[T any] struct {
	cfg Config
	opt Options[T]
	met *Metrics

	mu       sync.Mutex
	nonEmpty *sync.Cond
	closed   bool
	tenants  map[string]*tenantState[T]
	names    []string // sorted; deterministic iteration for WFQ ties
	dynamics int      // live tenantStates not named in the config
	bands    [numClasses]band
	total    int
}

// New builds a scheduler from a validated config. Tenants named in the
// config are pre-created so state snapshots and metrics list them from
// the start; unlisted tenants materialize on first use under cfg.Default.
func New[T any](cfg Config, opt Options[T]) (*Scheduler[T], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if opt.Now == nil {
		opt.Now = time.Now
	}
	if opt.Workers <= 0 {
		opt.Workers = 1
	}
	s := &Scheduler[T]{
		cfg:     cfg,
		opt:     opt,
		met:     NewMetrics(),
		tenants: make(map[string]*tenantState[T]),
	}
	s.nonEmpty = sync.NewCond(&s.mu)
	s.met.reg.OnScrape(func() {
		for name, n := range s.Depths() {
			s.met.depth.With(name).Set(int64(n))
		}
	})
	now := opt.Now()
	for _, name := range cfg.TenantNames() {
		s.tenantLocked(name, now)
	}
	return s, nil
}

// Metrics returns the scheduler's per-tenant registry.
func (s *Scheduler[T]) Metrics() *Metrics { return s.met }

// tenantLocked finds or creates a tenant's state. Callers hold s.mu
// (or, from New, exclusive access). Tenant names come from the
// unauthenticated X-Tenant header, so tenants not named in the config
// ("dynamic") are bounded by cfg.MaxTenants: at the cap an idle dynamic
// tenant is evicted to make room, and when none is evictable the new
// name shares the default tenant's state so a client cycling fresh
// names cannot grow scheduler memory or metric cardinality without
// limit.
func (s *Scheduler[T]) tenantLocked(name string, now time.Time) *tenantState[T] {
	if ts := s.tenants[name]; ts != nil {
		return ts
	}
	tc, configured := s.cfg.Tenants[name]
	if !configured {
		tc = s.cfg.Default
	}
	dynamic := !configured && name != DefaultTenant
	if dynamic && s.cfg.MaxTenants >= 0 && s.dynamics >= s.cfg.MaxTenants && !s.evictLocked(now) {
		return s.tenantLocked(DefaultTenant, now)
	}
	tc = tc.withDefaults(s.cfg)
	ts := &tenantState[T]{
		name:    name,
		cfg:     tc,
		dynamic: dynamic,
		bucket:  newBucket(tc.Rate, tc.Burst),
		brk:     newBreaker(s.cfg.BreakerThreshold, time.Duration(s.cfg.BreakerCooldown)),
	}
	s.tenants[name] = ts
	s.met.track(name)
	if dynamic {
		s.dynamics++
	}
	i := sort.SearchStrings(s.names, name)
	s.names = append(s.names, "")
	copy(s.names[i+1:], s.names[i:])
	s.names[i] = name
	return ts
}

// evictLocked recycles one idle dynamic tenant — empty queues, a quiet
// closed breaker, and a full token bucket, so eviction can never be
// abused to reset a rate limit or forget a trip. Its metrics series go
// with it, keeping /metrics cardinality bounded alongside scheduler
// state. Reports whether a slot was freed.
func (s *Scheduler[T]) evictLocked(now time.Time) bool {
	for _, name := range s.names {
		ts := s.tenants[name]
		if !ts.dynamic || ts.queued > 0 {
			continue
		}
		if ts.brk.state != BreakerClosed || ts.brk.consecutive > 0 || ts.brk.probe {
			continue
		}
		if ts.bucket.level(now) < ts.bucket.burst {
			continue
		}
		delete(s.tenants, name)
		i := sort.SearchStrings(s.names, name)
		s.names = append(s.names[:i], s.names[i+1:]...)
		s.dynamics--
		s.met.Drop(name)
		return true
	}
	return false
}

// estWaitLocked estimates how long a job admitted now would wait for a
// worker: live queue depth × mean service time ÷ worker count. Zero when
// no service-time estimate exists yet.
func (s *Scheduler[T]) estWaitLocked() time.Duration {
	if s.opt.ServiceTime == nil {
		return 0
	}
	st := s.opt.ServiceTime()
	if st <= 0 {
		return 0
	}
	return time.Duration(int64(st) * int64(s.total) / int64(s.opt.Workers))
}

// Push admits v for tenant under the given priority class, or rejects it
// immediately: ErrClosed when draining, or a *ShedError naming the reason
// and a retry-after. deadline, when positive, is the job's budget to
// *start executing*; a job that cannot make it is shed at admission
// (estimated wait already too long) or at dequeue (budget expired while
// queued, via Options.OnShed).
func (s *Scheduler[T]) Push(tenant string, class Class, deadline time.Duration, v T) error {
	if tenant == "" {
		tenant = DefaultTenant
	}
	if class < 0 || class >= numClasses {
		class = Batch
	}
	now := s.opt.Now()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	ts := s.tenantLocked(tenant, now)
	// At the dynamic-tenant cap an unlisted name collapses into the
	// default tenant's state; account it under the name whose limits
	// actually apply.
	tenant = ts.name
	shed := func(reason Reason, retry time.Duration) error {
		s.mu.Unlock()
		s.met.Shed(tenant, reason)
		s.opt.Recorder.QoSShed(tenant, string(reason), 0, retry.Seconds())
		return &ShedError{Tenant: tenant, Reason: reason, RetryAfter: retry}
	}
	if ok, retry := ts.brk.admit(now); !ok {
		return shed(ReasonBreaker, retry)
	}
	if ts.queued >= ts.cfg.QueueDepth {
		retry := s.estWaitLocked()
		if retry <= 0 {
			retry = time.Second
		}
		return shed(ReasonQueueFull, retry)
	}
	if deadline > 0 {
		if wait := s.estWaitLocked(); wait > deadline {
			return shed(ReasonDeadline, wait)
		}
	}
	// The token spend comes last so a job rejected by a later check never
	// burns rate budget — except there is no later check; keep it last.
	if ok, retry := ts.bucket.take(now); !ok {
		return shed(ReasonThrottled, retry)
	}
	ts.brk.noteAdmitted(now)

	b := &s.bands[class]
	start := b.vtime
	if ts.lastFinish[class] > start {
		start = ts.lastFinish[class]
	}
	finish := start + 1/float64(ts.cfg.Weight)
	ts.lastFinish[class] = finish
	var dl time.Time
	if deadline > 0 {
		dl = now.Add(deadline)
	}
	ts.queues[class] = append(ts.queues[class], item[T]{v: v, enqueued: now, deadline: dl, vft: finish})
	ts.queued++
	s.total++
	depth := s.total
	if s.opt.TraceOf != nil {
		// Under the lock: the job's qos-admit event lands on its trace
		// before any worker can pop it and record run events.
		s.opt.TraceOf(v).QoSAdmit(tenant, class.String(), depth)
	}
	s.nonEmpty.Signal()
	s.mu.Unlock()

	s.met.Admitted(tenant)
	s.opt.Recorder.QoSAdmit(tenant, class.String(), depth)
	return nil
}

// shedNotice is one expired-in-queue drop, delivered after the lock is
// released.
type shedNotice[T any] struct {
	tenant string
	v      T
	waited time.Duration
}

// pickLocked removes and returns the next item by (aged) priority band
// and WFQ order, with its tenant name. ok is false when nothing is
// queued.
func (s *Scheduler[T]) pickLocked(now time.Time) (item[T], string, bool) {
	aging := time.Duration(s.cfg.AgingStep)
	bestBand, bestEff := -1, math.MaxInt32
	var bestOldest time.Time
	for bi := 0; bi < numClasses; bi++ {
		var oldest time.Time
		empty := true
		for _, name := range s.names {
			q := s.tenants[name].queues[bi]
			if len(q) == 0 {
				continue
			}
			empty = false
			if oldest.IsZero() || q[0].enqueued.Before(oldest) {
				oldest = q[0].enqueued
			}
		}
		if empty {
			continue
		}
		eff := bi
		if aging > 0 {
			eff -= int(now.Sub(oldest) / aging)
			if eff < 0 {
				eff = 0
			}
		}
		// Ties on effective band go to the older head: an aged-up band that
		// has clamped at the top must eventually beat fresh arrivals there,
		// or aging would not be starvation-proof.
		if eff < bestEff || (eff == bestEff && oldest.Before(bestOldest)) {
			bestEff, bestBand, bestOldest = eff, bi, oldest
		}
	}
	if bestBand < 0 {
		return item[T]{}, "", false
	}
	var pick *tenantState[T]
	for _, name := range s.names {
		ts := s.tenants[name]
		if len(ts.queues[bestBand]) == 0 {
			continue
		}
		if pick == nil || ts.queues[bestBand][0].vft < pick.queues[bestBand][0].vft {
			pick = ts
		}
	}
	it := ts0pop(&pick.queues[bestBand])
	pick.queued--
	s.total--
	if it.vft > s.bands[bestBand].vtime {
		s.bands[bestBand].vtime = it.vft
	}
	return it, pick.name, true
}

// ts0pop removes and returns the head of a sub-queue, releasing the
// reference for GC.
func ts0pop[T any](q *[]item[T]) item[T] {
	it := (*q)[0]
	(*q)[0] = item[T]{}
	*q = (*q)[1:]
	return it
}

// fire delivers expired-drop notices outside the scheduler lock.
func (s *Scheduler[T]) fire(sheds []shedNotice[T]) {
	for _, n := range sheds {
		s.met.Shed(n.tenant, ReasonExpired)
		s.opt.Recorder.QoSShed(n.tenant, string(ReasonExpired), float64(n.waited.Milliseconds()), 0)
		if s.opt.OnShed != nil {
			s.opt.OnShed(n.tenant, n.v)
		}
	}
}

// Pop blocks until a runnable job is available and returns it, skipping —
// and reporting via OnShed — any job whose deadline expired while it
// waited. The second result is false when the scheduler is closed and
// fully drained, the workers' exit signal (same contract as FIFO.Pop).
func (s *Scheduler[T]) Pop() (T, bool) {
	var zero T
	s.mu.Lock()
	for {
		var sheds []shedNotice[T]
		now := s.opt.Now()
		for {
			it, tenant, ok := s.pickLocked(now)
			if !ok {
				break
			}
			if !it.deadline.IsZero() && now.After(it.deadline) {
				sheds = append(sheds, shedNotice[T]{tenant: tenant, v: it.v, waited: now.Sub(it.enqueued)})
				continue
			}
			s.mu.Unlock()
			s.fire(sheds)
			s.met.ObserveWait(tenant, now.Sub(it.enqueued).Seconds())
			return it.v, true
		}
		if len(sheds) > 0 {
			// Deliver drops without holding the lock, then reassess: new
			// work may have arrived meanwhile.
			s.mu.Unlock()
			s.fire(sheds)
			s.mu.Lock()
			continue
		}
		if s.closed {
			s.mu.Unlock()
			return zero, false
		}
		s.nonEmpty.Wait()
	}
}

// ReportOutcome feeds one finished job's fate into the tenant's circuit
// breaker: ok is "the guest behaved" (no sandbox panic, no wall-clock
// timeout).
func (s *Scheduler[T]) ReportOutcome(tenant string, ok bool) {
	if tenant == "" {
		tenant = DefaultTenant
	}
	now := s.opt.Now()
	s.mu.Lock()
	s.tenantLocked(tenant, now).brk.report(now, ok)
	s.mu.Unlock()
}

// ReleaseProbe frees a tenant's half-open probe slot when an admitted
// job died without ever producing an outcome — canceled while queued,
// or shed because its deadline expired in the queue. Without it a lost
// probe would reject the tenant's every future job until the breaker's
// probe timeout (one cooldown) elapsed. Unknown tenants are a no-op:
// their breakers hold no probe.
func (s *Scheduler[T]) ReleaseProbe(tenant string) {
	if tenant == "" {
		tenant = DefaultTenant
	}
	s.mu.Lock()
	if ts := s.tenants[tenant]; ts != nil {
		ts.brk.releaseProbe()
	}
	s.mu.Unlock()
}

// Len returns the number of queued jobs across all tenants.
func (s *Scheduler[T]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Depths snapshots the per-tenant queue depths.
func (s *Scheduler[T]) Depths() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.tenants))
	for name, ts := range s.tenants {
		out[name] = ts.queued
	}
	return out
}

// TenantState is one tenant's scheduler snapshot, the /healthz wire form.
type TenantState struct {
	Tenant  string  `json:"tenant"`
	Queued  int     `json:"queued"`
	Weight  int     `json:"weight"`
	Tokens  float64 `json:"tokens"`
	Breaker string  `json:"breaker"`
}

// State snapshots every known tenant, sorted by name.
func (s *Scheduler[T]) State() []TenantState {
	now := s.opt.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TenantState, 0, len(s.names))
	for _, name := range s.names {
		ts := s.tenants[name]
		out = append(out, TenantState{
			Tenant:  name,
			Queued:  ts.queued,
			Weight:  ts.cfg.Weight,
			Tokens:  ts.bucket.level(now),
			Breaker: ts.brk.current(now),
		})
	}
	return out
}

// WritePrometheus renders the per-tenant qos metrics, with the queue-depth
// gauges read live, in the text exposition format.
func (s *Scheduler[T]) WritePrometheus(w io.Writer) { s.met.reg.WritePrometheus(w) }

// Close stops admission and wakes every blocked Pop. Already-queued jobs
// remain poppable: closing drains, it does not discard (the FIFO
// contract).
func (s *Scheduler[T]) Close() {
	s.mu.Lock()
	s.closed = true
	s.nonEmpty.Broadcast()
	s.mu.Unlock()
}
