package qos

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is the deterministic scheduler clock: tests advance it
// explicitly and never sleep.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func mustScheduler(t *testing.T, cfg Config, opt Options[int]) *Scheduler[int] {
	t.Helper()
	s, err := New[int](cfg, opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func mustPush(t *testing.T, s *Scheduler[int], tenant string, class Class, deadline time.Duration, v int) {
	t.Helper()
	if err := s.Push(tenant, class, deadline, v); err != nil {
		t.Fatalf("Push(%s, %d): %v", tenant, v, err)
	}
}

func shedReason(t *testing.T, err error) *ShedError {
	t.Helper()
	var se *ShedError
	if !errors.As(err, &se) {
		t.Fatalf("error %v is not a *ShedError", err)
	}
	return se
}

// TestWFQWeightSplit is the ISSUE acceptance check: two backlogged tenants
// with a 3:1 weight config split completed jobs 3:1 under a deterministic
// clock.
func TestWFQWeightSplit(t *testing.T) {
	clk := newFakeClock()
	s := mustScheduler(t, Config{
		Tenants: map[string]TenantConfig{
			"alpha": {Weight: 3},
			"beta":  {Weight: 1},
		},
		QueueDepth: 100,
	}, Options[int]{Now: clk.Now})

	for i := 0; i < 40; i++ {
		mustPush(t, s, "alpha", Batch, 0, i)
		mustPush(t, s, "beta", Batch, 0, 100+i)
	}
	counts := map[string]int{}
	for i := 0; i < 40; i++ {
		v, ok := s.Pop()
		if !ok {
			t.Fatalf("Pop %d: closed", i)
		}
		if v < 100 {
			counts["alpha"]++
		} else {
			counts["beta"]++
		}
	}
	// 40 pops at weights 3:1 → exactly 30/10; the ±10% band in the issue
	// covers nondeterministic schedulers, which this clock removes.
	if counts["alpha"] != 30 || counts["beta"] != 10 {
		t.Fatalf("split = %v, want alpha:30 beta:10", counts)
	}
}

// TestIdleTenantShareRedistributes: with beta idle, alpha takes the full
// capacity; when beta returns it is served promptly instead of catching up
// on banked virtual time.
func TestIdleTenantShareRedistributes(t *testing.T) {
	clk := newFakeClock()
	s := mustScheduler(t, Config{
		Tenants: map[string]TenantConfig{
			"alpha": {Weight: 3},
			"beta":  {Weight: 1},
		},
		QueueDepth: 100,
	}, Options[int]{Now: clk.Now})

	for i := 0; i < 10; i++ {
		mustPush(t, s, "alpha", Batch, 0, i)
	}
	for i := 0; i < 5; i++ {
		if v, ok := s.Pop(); !ok || v >= 100 {
			t.Fatalf("pop %d with beta idle = %d, %v; want alpha", i, v, ok)
		}
	}
	mustPush(t, s, "beta", Batch, 0, 100)
	gotBeta := false
	for i := 0; i < 4 && !gotBeta; i++ {
		v, ok := s.Pop()
		if !ok {
			t.Fatal("Pop: closed")
		}
		gotBeta = v == 100
	}
	if !gotBeta {
		t.Fatal("beta not served within 4 pops of rejoining; its idle time banked virtual credit against it")
	}
}

func TestPriorityClassOrdering(t *testing.T) {
	clk := newFakeClock()
	s := mustScheduler(t, Config{QueueDepth: 10}, Options[int]{Now: clk.Now})

	mustPush(t, s, "t", Background, 0, 3)
	mustPush(t, s, "t", Batch, 0, 2)
	mustPush(t, s, "t", Interactive, 0, 1)
	for want := 1; want <= 3; want++ {
		v, ok := s.Pop()
		if !ok || v != want {
			t.Fatalf("pop = %d, %v; want %d (interactive > batch > background)", v, ok, want)
		}
	}
}

// TestAgingPreventsStarvation: a background job stuck behind a constant
// interactive stream promotes one band per AgingStep and eventually wins.
func TestAgingPreventsStarvation(t *testing.T) {
	clk := newFakeClock()
	s := mustScheduler(t, Config{QueueDepth: 100, AgingStep: Duration(10 * time.Second)}, Options[int]{Now: clk.Now})

	mustPush(t, s, "t", Background, 0, 999)
	mustPush(t, s, "t", Interactive, 0, 1)
	if v, _ := s.Pop(); v != 1 {
		t.Fatalf("fresh background beat interactive: got %d", v)
	}

	// 20s of waiting promotes background two bands, to effective
	// interactive; its older timestamp then wins the tie.
	clk.Advance(20 * time.Second)
	mustPush(t, s, "t", Interactive, 0, 2)
	if v, _ := s.Pop(); v != 999 {
		t.Fatalf("aged background still starved: got %d", v)
	}
	if v, _ := s.Pop(); v != 2 {
		t.Fatal("interactive job lost")
	}
}

func TestAgingDisabled(t *testing.T) {
	clk := newFakeClock()
	s := mustScheduler(t, Config{QueueDepth: 100, AgingStep: Duration(-1)}, Options[int]{Now: clk.Now})
	mustPush(t, s, "t", Background, 0, 999)
	clk.Advance(time.Hour)
	mustPush(t, s, "t", Interactive, 0, 1)
	if v, _ := s.Pop(); v != 1 {
		t.Fatalf("aging disabled but background promoted: got %d", v)
	}
}

func TestThrottleShedAndRecovery(t *testing.T) {
	clk := newFakeClock()
	s := mustScheduler(t, Config{
		Tenants:    map[string]TenantConfig{"slow": {Rate: 1, Burst: 2}},
		QueueDepth: 10,
	}, Options[int]{Now: clk.Now})

	mustPush(t, s, "slow", Batch, 0, 1)
	mustPush(t, s, "slow", Batch, 0, 2)
	se := shedReason(t, s.Push("slow", Batch, 0, 3))
	if se.Reason != ReasonThrottled {
		t.Fatalf("reason = %s, want throttled", se.Reason)
	}
	if se.RetryAfter != time.Second {
		t.Fatalf("retry = %v, want 1s (1 token at 1/s)", se.RetryAfter)
	}
	if got := s.Metrics().Snapshot("slow"); got["throttled"] != 1 || got["shed:throttled"] != 1 {
		t.Fatalf("metrics = %v", got)
	}
	clk.Advance(time.Second)
	mustPush(t, s, "slow", Batch, 0, 3)
}

func TestPerTenantQueueBound(t *testing.T) {
	clk := newFakeClock()
	s := mustScheduler(t, Config{QueueDepth: 2}, Options[int]{Now: clk.Now})

	mustPush(t, s, "a", Batch, 0, 1)
	mustPush(t, s, "a", Batch, 0, 2)
	se := shedReason(t, s.Push("a", Batch, 0, 3))
	if se.Reason != ReasonQueueFull {
		t.Fatalf("reason = %s, want queue-full", se.Reason)
	}
	if se.RetryAfterSeconds() < 1 {
		t.Fatal("queue-full advice below 1s")
	}
	// The bound is per tenant: another tenant still gets in.
	mustPush(t, s, "b", Batch, 0, 4)
}

// TestRetryAfterSecondsEstimate: the scheduler's backoff advice is queued
// jobs × mean service time ÷ workers in whole seconds, ceiling, minimum 1,
// and a queue-full rejection carries the same advice.
func TestRetryAfterSecondsEstimate(t *testing.T) {
	s := mustScheduler(t, Flat(4), Options[int]{Workers: 2, ServiceTime: func() time.Duration { return 3 * time.Second }})
	if got := s.RetryAfterSeconds(); got != 1 {
		t.Fatalf("empty queue: RetryAfterSeconds = %d, want 1", got)
	}
	for i := 0; i < 3; i++ {
		mustPush(t, s, DefaultTenant, Batch, 0, i)
	}
	// 3 queued × 3s ÷ 2 workers = 4.5s.
	if got := s.RetryAfterSeconds(); got != 5 {
		t.Fatalf("3 queued: RetryAfterSeconds = %d, want 5", got)
	}
	mustPush(t, s, DefaultTenant, Batch, 0, 3)
	se := shedReason(t, s.Push(DefaultTenant, Batch, 0, 4))
	if se.Reason != ReasonQueueFull || se.RetryAfterSeconds() != 6 || s.RetryAfterSeconds() != 6 {
		t.Fatalf("full queue: %v, scheduler advice %ds, want queue-full and 6s from both", se, s.RetryAfterSeconds())
	}
}

func TestDeadlineShedAtAdmission(t *testing.T) {
	clk := newFakeClock()
	s := mustScheduler(t, Config{QueueDepth: 100}, Options[int]{
		Now:         clk.Now,
		Workers:     1,
		ServiceTime: func() time.Duration { return time.Second },
	})

	for i := 0; i < 3; i++ {
		mustPush(t, s, "t", Batch, 0, i)
	}
	// Estimated wait = 3 queued × 1s ÷ 1 worker = 3s > the 1s budget.
	se := shedReason(t, s.Push("t", Batch, time.Second, 99))
	if se.Reason != ReasonDeadline {
		t.Fatalf("reason = %s, want deadline", se.Reason)
	}
	if se.RetryAfterSeconds() != 3 {
		t.Fatalf("retry = %ds, want 3 (the estimated wait)", se.RetryAfterSeconds())
	}
	// A budget above the estimate is admitted.
	mustPush(t, s, "t", Batch, 5*time.Second, 100)
}

func TestExpiredWhileQueuedDroppedAtPop(t *testing.T) {
	clk := newFakeClock()
	var dropped []int
	s := mustScheduler(t, Config{QueueDepth: 100}, Options[int]{
		Now:    clk.Now,
		OnShed: func(tenant string, v int) { dropped = append(dropped, v) },
	})

	mustPush(t, s, "t", Batch, 100*time.Millisecond, 1)
	mustPush(t, s, "t", Batch, 0, 2)
	clk.Advance(200 * time.Millisecond)

	v, ok := s.Pop()
	if !ok || v != 2 {
		t.Fatalf("pop = %d, %v; want the unexpired job 2", v, ok)
	}
	if len(dropped) != 1 || dropped[0] != 1 {
		t.Fatalf("OnShed got %v, want [1]", dropped)
	}
	if got := s.Metrics().Snapshot("t"); got["shed:expired"] != 1 {
		t.Fatalf("metrics = %v, want shed:expired 1", got)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after drain", s.Len())
	}
}

func TestBreakerShedsAfterBadRun(t *testing.T) {
	clk := newFakeClock()
	s := mustScheduler(t, Config{
		QueueDepth:       10,
		BreakerThreshold: 2,
		BreakerCooldown:  Duration(10 * time.Second),
	}, Options[int]{Now: clk.Now})

	s.ReportOutcome("hostile", false)
	s.ReportOutcome("hostile", false)
	se := shedReason(t, s.Push("hostile", Batch, 0, 1))
	if se.Reason != ReasonBreaker {
		t.Fatalf("reason = %s, want breaker", se.Reason)
	}
	if se.RetryAfter != 10*time.Second {
		t.Fatalf("retry = %v, want the 10s cooldown", se.RetryAfter)
	}
	// Other tenants are unaffected.
	mustPush(t, s, "friendly", Batch, 0, 2)

	// Cooldown over: exactly one probe is admitted.
	clk.Advance(10 * time.Second)
	mustPush(t, s, "hostile", Batch, 0, 3)
	if se := shedReason(t, s.Push("hostile", Batch, 0, 4)); se.Reason != ReasonBreaker {
		t.Fatalf("second probe reason = %s, want breaker", se.Reason)
	}
	// The probe behaves: breaker closes.
	s.ReportOutcome("hostile", true)
	mustPush(t, s, "hostile", Batch, 0, 5)

	st := s.State()
	for _, ts := range st {
		if ts.Tenant == "hostile" && ts.Breaker != BreakerClosed {
			t.Fatalf("hostile breaker = %s, want closed", ts.Breaker)
		}
	}
}

// TestBreakerProbeReleasedWhenLost is the lockout regression: the
// half-open probe job dies without ever reporting an outcome (canceled
// while queued, expired in queue) and ReleaseProbe frees the slot so the
// tenant is not rejected forever.
func TestBreakerProbeReleasedWhenLost(t *testing.T) {
	clk := newFakeClock()
	s := mustScheduler(t, Config{
		QueueDepth:       10,
		BreakerThreshold: 1,
		BreakerCooldown:  Duration(10 * time.Second),
	}, Options[int]{Now: clk.Now})

	s.ReportOutcome("t", false)
	clk.Advance(10 * time.Second)
	mustPush(t, s, "t", Batch, 0, 1) // claims the probe slot
	if se := shedReason(t, s.Push("t", Batch, 0, 2)); se.Reason != ReasonBreaker {
		t.Fatalf("probe slot not held: reason = %s", se.Reason)
	}
	// The probe dies without an outcome; releasing the slot lets the next
	// job probe instead.
	s.ReleaseProbe("t")
	mustPush(t, s, "t", Batch, 0, 3)
	// An unknown tenant holds no probe: no-op, no new state.
	s.ReleaseProbe("stranger")
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
}

// TestBreakerProbeTimeoutBackstop: even without an explicit release, a
// probe outstanding for a whole cooldown is presumed lost and its slot
// is reclaimed by the next admission attempt.
func TestBreakerProbeTimeoutBackstop(t *testing.T) {
	clk := newFakeClock()
	s := mustScheduler(t, Config{
		QueueDepth:       10,
		BreakerThreshold: 1,
		BreakerCooldown:  Duration(10 * time.Second),
	}, Options[int]{Now: clk.Now})

	s.ReportOutcome("t", false)
	clk.Advance(10 * time.Second)
	mustPush(t, s, "t", Batch, 0, 1) // probe claimed, never reported
	clk.Advance(5 * time.Second)
	if se := shedReason(t, s.Push("t", Batch, 0, 2)); se.RetryAfter != 5*time.Second {
		t.Fatalf("retry = %v, want the probe's remaining 5s", se.RetryAfter)
	}
	clk.Advance(5 * time.Second) // probe out a full cooldown: presumed lost
	mustPush(t, s, "t", Batch, 0, 3)
}

// TestBreakerIgnoresPreTripSuccess: a job admitted before the trip that
// completes fine must not close an open breaker or end a half-open probe
// it never was — otherwise interleaved successes and failures (the common
// partial-failure case) would keep the breaker from ever holding open.
func TestBreakerIgnoresPreTripSuccess(t *testing.T) {
	clk := newFakeClock()
	s := mustScheduler(t, Config{
		QueueDepth:       10,
		BreakerThreshold: 2,
		BreakerCooldown:  Duration(10 * time.Second),
	}, Options[int]{Now: clk.Now})

	s.ReportOutcome("t", false)
	s.ReportOutcome("t", false)
	// Open; a pre-trip in-flight job reporting success must not close it.
	s.ReportOutcome("t", true)
	if se := shedReason(t, s.Push("t", Batch, 0, 1)); se.Reason != ReasonBreaker {
		t.Fatalf("open breaker closed by pre-trip success: reason = %s", se.Reason)
	}
	// Half-open with no probe claimed: a straggler success still must not
	// close it — the next push is the one probe, the one after is shed.
	clk.Advance(10 * time.Second)
	s.ReportOutcome("t", true)
	mustPush(t, s, "t", Batch, 0, 2)
	if se := shedReason(t, s.Push("t", Batch, 0, 3)); se.Reason != ReasonBreaker {
		t.Fatalf("half-open closed by straggler success: reason = %s", se.Reason)
	}
	// The probe's own success closes it.
	s.ReportOutcome("t", true)
	mustPush(t, s, "t", Batch, 0, 4)
	mustPush(t, s, "t", Batch, 0, 5)
}

// TestDynamicTenantCapEvictsAndCollapses bounds the damage of a client
// cycling fresh X-Tenant names: unlisted tenants beyond max_tenants
// recycle an idle slot when one exists (dropping its metrics series) and
// otherwise share the default tenant's state.
func TestDynamicTenantCapEvictsAndCollapses(t *testing.T) {
	clk := newFakeClock()
	s := mustScheduler(t, Config{QueueDepth: 10, MaxTenants: 1}, Options[int]{Now: clk.Now})

	mustPush(t, s, "a", Batch, 0, 1)
	// "a" is busy (queued job): a second dynamic name cannot evict it and
	// collapses into the default tenant's state and accounting.
	mustPush(t, s, "b", Batch, 0, 2)
	if got := s.Metrics().Snapshot(DefaultTenant); got["admitted"] != 1 {
		t.Fatalf("collapsed admit not on default: %v", got)
	}
	names := func() []string {
		var out []string
		for _, st := range s.State() {
			out = append(out, st.Tenant)
		}
		return out
	}
	if got := names(); len(got) != 2 || got[0] != "a" || got[1] != DefaultTenant {
		t.Fatalf("tenants = %v, want [a default]", got)
	}

	// Drain; "a" goes idle and the next fresh name evicts it, metrics
	// series included.
	s.Pop()
	s.Pop()
	mustPush(t, s, "c", Batch, 0, 3)
	if got := names(); len(got) != 2 || got[0] != "c" || got[1] != DefaultTenant {
		t.Fatalf("tenants after evict = %v, want [c default]", got)
	}
	if got := s.Metrics().Snapshot("a"); len(got) != 0 {
		t.Fatalf("evicted tenant a still has metrics: %v", got)
	}
	s.Pop()

	// Eviction never resets a rate limit: with its bucket not yet
	// refilled, "c" is not evictable, so "d" collapses; after the refill
	// it is.
	s2 := mustScheduler(t, Config{
		QueueDepth: 10, MaxTenants: 1,
		Default: TenantConfig{Rate: 1, Burst: 1},
	}, Options[int]{Now: clk.Now})
	mustPush(t, s2, "c", Batch, 0, 1)
	s2.Pop()
	mustPush(t, s2, "d", Batch, 0, 2) // c's bucket empty: collapses to default
	se := shedReason(t, s2.Push("d", Batch, 0, 3))
	if se.Tenant != DefaultTenant || se.Reason != ReasonThrottled {
		t.Fatalf("collapsed shed = %+v, want default throttled", se)
	}
	clk.Advance(time.Second) // c refills; the next fresh name evicts it
	mustPush(t, s2, "e", Batch, 0, 4)
	found := false
	for _, st := range s2.State() {
		if st.Tenant == "c" {
			found = true
		}
	}
	if found {
		t.Fatal("refilled idle tenant c not evicted at the cap")
	}
}

// TestDynamicTenantCapUnbounded: a negative max_tenants disables the cap.
func TestDynamicTenantCapUnbounded(t *testing.T) {
	clk := newFakeClock()
	s := mustScheduler(t, Config{QueueDepth: 10, MaxTenants: -1}, Options[int]{Now: clk.Now})
	for _, name := range []string{"a", "b", "c", "d"} {
		mustPush(t, s, name, Batch, 0, 1)
	}
	if got := len(s.State()); got != 4 {
		t.Fatalf("tenants = %d, want 4 (cap disabled)", got)
	}
}

func TestPushAfterCloseAndDrain(t *testing.T) {
	clk := newFakeClock()
	s := mustScheduler(t, Config{QueueDepth: 10}, Options[int]{Now: clk.Now})
	mustPush(t, s, "t", Batch, 0, 1)
	mustPush(t, s, "t", Batch, 0, 2)
	s.Close()
	if err := s.Push("t", Batch, 0, 3); !errors.Is(err, ErrClosed) {
		t.Fatalf("Push after Close = %v, want ErrClosed", err)
	}
	// Close drains: queued jobs still pop, then ok=false.
	for want := 1; want <= 2; want++ {
		if v, ok := s.Pop(); !ok || v != want {
			t.Fatalf("drain pop = %d, %v; want %d", v, ok, want)
		}
	}
	if _, ok := s.Pop(); ok {
		t.Fatal("Pop after drain reported ok")
	}
}

func TestCloseWakesBlockedPop(t *testing.T) {
	clk := newFakeClock()
	s := mustScheduler(t, Config{QueueDepth: 10}, Options[int]{Now: clk.Now})
	done := make(chan bool)
	go func() {
		_, ok := s.Pop()
		done <- ok
	}()
	// Pop has nothing; Close must wake it with ok=false.
	time.Sleep(10 * time.Millisecond)
	s.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("woken Pop reported ok")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Pop still blocked after Close")
	}
}

func TestPopBlocksUntilPush(t *testing.T) {
	clk := newFakeClock()
	s := mustScheduler(t, Config{QueueDepth: 10}, Options[int]{Now: clk.Now})
	got := make(chan int)
	go func() {
		v, _ := s.Pop()
		got <- v
	}()
	mustPush(t, s, "t", Batch, 0, 42)
	select {
	case v := <-got:
		if v != 42 {
			t.Fatalf("pop = %d, want 42", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Pop never woke")
	}
}

func TestDefaultTenantFallback(t *testing.T) {
	clk := newFakeClock()
	s := mustScheduler(t, Config{
		Default:    TenantConfig{Rate: 1, Burst: 1},
		QueueDepth: 10,
	}, Options[int]{Now: clk.Now})

	// The empty tenant normalizes to "default" and inherits Default's rate.
	mustPush(t, s, "", Batch, 0, 1)
	se := shedReason(t, s.Push("", Batch, 0, 2))
	if se.Tenant != DefaultTenant || se.Reason != ReasonThrottled {
		t.Fatalf("shed = %+v, want default tenant throttled", se)
	}
	if got := s.Metrics().Snapshot(DefaultTenant); got["admitted"] != 1 {
		t.Fatalf("metrics = %v", got)
	}
}

func TestStateAndPrometheus(t *testing.T) {
	clk := newFakeClock()
	s := mustScheduler(t, Config{
		Tenants:    map[string]TenantConfig{"alpha": {Weight: 3, Rate: 5}},
		QueueDepth: 10,
	}, Options[int]{Now: clk.Now})
	mustPush(t, s, "alpha", Batch, 0, 1)
	mustPush(t, s, "beta", Interactive, 0, 2)

	st := s.State()
	if len(st) != 2 || st[0].Tenant != "alpha" || st[1].Tenant != "beta" {
		t.Fatalf("State = %+v, want [alpha beta]", st)
	}
	if st[0].Weight != 3 || st[0].Queued != 1 || st[0].Breaker != BreakerClosed {
		t.Fatalf("alpha state = %+v", st[0])
	}

	s.Pop()
	var b strings.Builder
	s.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`solved_qos_admitted_total{tenant="alpha"} 1`,
		`solved_qos_admitted_total{tenant="beta"} 1`,
		// beta's job is interactive, so it popped first.
		`solved_qos_queue_depth{tenant="alpha"} 1`,
		`solved_qos_queue_depth{tenant="beta"} 0`,
		`solved_qos_wait_seconds_count{tenant="beta"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q\n%s", want, out)
		}
	}
}

func TestConcurrentPushPop(t *testing.T) {
	// Real clock; exercises lock discipline under -race.
	s := mustScheduler(t, Config{QueueDepth: 1000}, Options[int]{})
	const producers, each = 4, 50
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			tenant := string(rune('a' + p))
			for i := 0; i < each; i++ {
				for s.Push(tenant, Class(i%3), 0, p*1000+i) != nil {
					// Only queue-full is possible here; retry.
				}
			}
		}(p)
	}
	got := make(map[int]bool)
	var mu sync.Mutex
	var cg sync.WaitGroup
	for c := 0; c < 3; c++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			for {
				v, ok := s.Pop()
				if !ok {
					return
				}
				mu.Lock()
				got[v] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	s.Close()
	cg.Wait()
	if len(got) != producers*each {
		t.Fatalf("consumed %d distinct values, want %d", len(got), producers*each)
	}
}
