package dist

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sdcgmres/internal/campaign"
	"sdcgmres/internal/memo"
)

// testManifest is a tiny real campaign: poisson 8x8, one model, one step,
// stride 3 — 10 units (failure-free aggregate inner count 30).
func testManifest() campaign.Manifest {
	return campaign.Manifest{
		Name:     "dist-test",
		Problems: []campaign.ProblemSpec{{Kind: "poisson", N: 8, InnerIters: 6, TargetOuter: 5}},
		Models:   []string{"slight"},
		Steps:    []string{"first"},
		Stride:   3,
	}
}

var (
	compileOnce sync.Once
	compiled    *campaign.Compiled
	compileErr  error
	sharedCache = NewProblemCache()
)

// compileTest compiles the shared test campaign once per test binary;
// calibration dominates the cost and is identical across tests.
func compileTest(t *testing.T) *campaign.Compiled {
	t.Helper()
	compileOnce.Do(func() {
		compiled, compileErr = sharedCache.Compile(testManifest())
	})
	if compileErr != nil {
		t.Fatalf("compile test campaign: %v", compileErr)
	}
	return compiled
}

// openTestJournal opens a fresh journal in a temp dir.
func openTestJournal(t *testing.T) (*campaign.Journal, map[string]campaign.Record) {
	t.Helper()
	j, have, err := campaign.OpenJournal(filepath.Join(t.TempDir(), "j.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j, have
}

// fakeRecord fabricates a valid record for a unit without running the
// experiment — coordinator unit tests exercise bookkeeping, not solvers.
func fakeRecord(u campaign.Unit) campaign.Record {
	rec := campaign.Record{ID: u.ID, Unit: u, Outcome: campaign.OutcomeOK, ElapsedMS: 1.5}
	rec.Point.AggregateInner = u.Site
	rec.Point.OuterIters = 5
	rec.Point.Converged = true
	return rec
}

// fakeClock is a settable Now for expiry tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
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

func TestCoordinatorLifecycle(t *testing.T) {
	c := compileTest(t)
	j, have := openTestJournal(t)
	co := campaign.NewCoordinator(c, j, have, campaign.CoordinatorConfig{BatchSize: 4})

	var got []campaign.Unit
	for {
		l, done, err := co.Claim("w1", 0)
		if err != nil {
			t.Fatal(err)
		}
		if l == nil && !done {
			t.Fatalf("claim stalled with %d/%d units", len(got), len(c.Units))
		}
		if l == nil {
			t.Fatal("done before any completion")
		}
		got = append(got, l.Units...)
		resp, err := co.Complete(l.ID, "w1", recordsFor(l.Units))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Rejected != 0 || resp.Accepted != len(l.Units) {
			t.Fatalf("complete: %+v", resp)
		}
		if resp.Done {
			break
		}
	}
	if len(got) != len(c.Units) {
		t.Fatalf("granted %d units, campaign has %d", len(got), len(c.Units))
	}
	select {
	case <-co.Done():
	default:
		t.Fatal("Done not closed after final completion")
	}
	if _, done, _ := co.Claim("w2", 0); !done {
		t.Fatal("claim after completion must report done")
	}
	m := co.Metrics().Snapshot()
	if m["units_completed"] != int64(len(c.Units)) || m["leases_expired"] != 0 {
		t.Fatalf("metrics: %+v", m)
	}
	st := co.Stats()
	if st.Done != st.Total || st.Pending != 0 || st.Leased != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func recordsFor(units []campaign.Unit) []campaign.Record {
	recs := make([]campaign.Record, len(units))
	for i, u := range units {
		recs[i] = fakeRecord(u)
	}
	return recs
}

func TestCoordinatorExpiryRequeues(t *testing.T) {
	c := compileTest(t)
	j, have := openTestJournal(t)
	clock := &fakeClock{t: time.Unix(1000, 0)}
	co := campaign.NewCoordinator(c, j, have, campaign.CoordinatorConfig{
		BatchSize: 3, LeaseTTL: 10 * time.Second, Now: clock.Now,
	})

	dead, _, err := co.Claim("doomed", 0)
	if err != nil || dead == nil {
		t.Fatalf("claim: %v %v", dead, err)
	}
	// The doomed worker completes one unit, then vanishes.
	if _, err := co.Complete(dead.ID, "doomed", recordsFor(dead.Units[:1])); err != nil {
		t.Fatal(err)
	}
	clock.Advance(11 * time.Second)

	// The next claim sweeps the expired lease and re-grants its two
	// outstanding units first, in their original order.
	l2, _, err := co.Claim("healthy", 0)
	if err != nil || l2 == nil {
		t.Fatalf("claim after expiry: %v %v", l2, err)
	}
	if l2.Units[0].ID != dead.Units[1].ID || l2.Units[1].ID != dead.Units[2].ID {
		t.Fatalf("requeued units not granted first: got %v want prefix %v", l2.Units, dead.Units[1:])
	}
	m := co.Metrics().Snapshot()
	if m["leases_expired"] != 1 || m["units_requeued"] != 2 {
		t.Fatalf("metrics after expiry: %+v", m)
	}

	// Heartbeating the dead lease fails; completing against it still lands
	// the records (at-least-once: work survives lease loss).
	if _, err := co.Heartbeat(dead.ID); err != campaign.ErrLeaseGone {
		t.Fatalf("heartbeat on expired lease: %v", err)
	}
	resp, err := co.Complete(dead.ID, "doomed", recordsFor(dead.Units[1:2]))
	if err != nil || resp.Accepted != 1 {
		t.Fatalf("late completion: %+v %v", resp, err)
	}
	// The late-completed unit must leave the healthy worker's lease so it
	// is not run twice.
	st := co.Stats()
	for _, li := range st.Leases {
		if li.ID == l2.ID && li.Units != len(l2.Units)-1 {
			t.Fatalf("late completion did not shrink the re-grant: %+v", li)
		}
	}
}

func TestCoordinatorHeartbeatExtends(t *testing.T) {
	c := compileTest(t)
	j, have := openTestJournal(t)
	clock := &fakeClock{t: time.Unix(1000, 0)}
	co := campaign.NewCoordinator(c, j, have, campaign.CoordinatorConfig{
		BatchSize: 2, LeaseTTL: 10 * time.Second, Now: clock.Now,
	})
	l, _, err := co.Claim("w1", 0)
	if err != nil || l == nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		clock.Advance(8 * time.Second)
		if _, err := co.Heartbeat(l.ID); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
	}
	if m := co.Metrics().Snapshot(); m["leases_expired"] != 0 || m["leases_renewed"] != 5 {
		t.Fatalf("metrics: %+v", m)
	}
	if resp, err := co.Complete(l.ID, "w1", recordsFor(l.Units)); err != nil || resp.Accepted != len(l.Units) {
		t.Fatalf("complete after renewals: %+v %v", resp, err)
	}
}

func TestCoordinatorRejectsTamperedRecords(t *testing.T) {
	c := compileTest(t)
	j, have := openTestJournal(t)
	co := campaign.NewCoordinator(c, j, have, campaign.CoordinatorConfig{BatchSize: 4})
	l, _, err := co.Claim("w1", 0)
	if err != nil || l == nil {
		t.Fatal(err)
	}
	u := l.Units[0]

	tampered := fakeRecord(u)
	tampered.Unit.Site += 3 // breaks the content hash

	foreign := fakeRecord(campaign.Unit{ID: "0123456789abcdef", Problem: u.Problem,
		Model: u.Model, Step: u.Step, Detector: u.Detector, Site: 999})

	wrongSite := fakeRecord(u)
	wrongSite.Point.AggregateInner = u.Site + 1

	badOutcome := fakeRecord(u)
	badOutcome.Outcome = "fabricated"

	resp, err := co.Complete(l.ID, "w1", []campaign.Record{tampered, foreign, wrongSite, badOutcome})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 0 || resp.Rejected != 4 {
		t.Fatalf("tampered records accepted: %+v", resp)
	}
	if m := co.Metrics().Snapshot(); m["records_rejected"] != 4 || m["units_completed"] != 0 {
		t.Fatalf("metrics: %+v", m)
	}
	// The genuine record still lands.
	if resp, err = co.Complete(l.ID, "w1", recordsFor(l.Units[:1])); err != nil || resp.Accepted != 1 {
		t.Fatalf("genuine record: %+v %v", resp, err)
	}
}

func TestCoordinatorDuplicateIdempotent(t *testing.T) {
	c := compileTest(t)
	j, have := openTestJournal(t)
	co := campaign.NewCoordinator(c, j, have, campaign.CoordinatorConfig{BatchSize: 2})
	l, _, err := co.Claim("w1", 0)
	if err != nil || l == nil {
		t.Fatal(err)
	}
	if _, err := co.Complete(l.ID, "w1", recordsFor(l.Units)); err != nil {
		t.Fatal(err)
	}
	// The same report again (a retried POST): acknowledged, not journaled.
	resp, err := co.Complete(l.ID, "w1", recordsFor(l.Units))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != len(l.Units) || resp.Rejected != 0 {
		t.Fatalf("duplicate report: %+v", resp)
	}
	m := co.Metrics().Snapshot()
	if m["records_duplicate"] != int64(len(l.Units)) || m["units_completed"] != int64(len(l.Units)) {
		t.Fatalf("metrics: %+v", m)
	}
	// The journal must hold each unit exactly once.
	j.Close()
	_, reread, err := campaign.OpenJournal(j.Path())
	if err != nil {
		t.Fatal(err)
	}
	if len(reread) != len(l.Units) {
		t.Fatalf("journal holds %d records, want %d", len(reread), len(l.Units))
	}
}

func TestCoordinatorResumeSkipsJournaled(t *testing.T) {
	c := compileTest(t)
	j, have := openTestJournal(t)
	// Pre-journal the first 4 units, as a crashed prior run would have.
	for _, u := range c.Units[:4] {
		rec := fakeRecord(u)
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
		have[u.ID] = rec
	}
	co := campaign.NewCoordinator(c, j, have, campaign.CoordinatorConfig{BatchSize: 100})
	l, _, err := co.Claim("w1", 0)
	if err != nil || l == nil {
		t.Fatal(err)
	}
	if len(l.Units) != len(c.Units)-4 {
		t.Fatalf("resume granted %d units, want %d", len(l.Units), len(c.Units)-4)
	}
	for _, u := range l.Units {
		if _, done := have[u.ID]; done {
			t.Fatalf("journaled unit %s re-granted", u.ID)
		}
	}
	st := co.Stats()
	if st.Done != 4 {
		t.Fatalf("resume stats: %+v", st)
	}
}

func TestCoordinatorDrainStopsGrants(t *testing.T) {
	c := compileTest(t)
	j, have := openTestJournal(t)
	co := campaign.NewCoordinator(c, j, have, campaign.CoordinatorConfig{BatchSize: 2})
	l, _, err := co.Claim("w1", 0)
	if err != nil || l == nil {
		t.Fatal(err)
	}
	co.Drain()
	if l2, done, _ := co.Claim("w2", 0); l2 != nil || done {
		t.Fatalf("drain must stop grants: lease=%v done=%v", l2, done)
	}
	// The outstanding lease still completes.
	if resp, err := co.Complete(l.ID, "w1", recordsFor(l.Units)); err != nil || resp.Accepted != len(l.Units) {
		t.Fatalf("complete while draining: %+v %v", resp, err)
	}
	if st := co.Stats(); !st.Draining || st.Leased != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCoordinatorClaimMaxCapsBatch(t *testing.T) {
	c := compileTest(t)
	j, have := openTestJournal(t)
	co := campaign.NewCoordinator(c, j, have, campaign.CoordinatorConfig{BatchSize: 8})
	l, _, err := co.Claim("w1", 3)
	if err != nil || l == nil {
		t.Fatal(err)
	}
	if len(l.Units) != 3 {
		t.Fatalf("max=3 granted %d units", len(l.Units))
	}
	if l.Remaining != len(c.Units)-3 {
		t.Fatalf("remaining %d, want %d", l.Remaining, len(c.Units)-3)
	}
}

func TestCoordinatorOnRecordHook(t *testing.T) {
	c := compileTest(t)
	j, have := openTestJournal(t)
	var seen []campaign.Record
	co := campaign.NewCoordinator(c, j, have, campaign.CoordinatorConfig{
		BatchSize: 4,
		OnRecord:  func(rec campaign.Record) { seen = append(seen, rec) },
	})
	l, _, err := co.Claim("w1", 0)
	if err != nil || l == nil {
		t.Fatal(err)
	}

	// A tampered record is rejected and must never reach the hook.
	tampered := fakeRecord(l.Units[0])
	tampered.Unit.Site += 3
	if _, err := co.Complete(l.ID, "w1", []campaign.Record{tampered}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 0 {
		t.Fatalf("rejected record reached OnRecord: %d calls", len(seen))
	}

	// Fresh completions fire the hook exactly once per record, in order.
	if _, err := co.Complete(l.ID, "w1", recordsFor(l.Units)); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(l.Units) {
		t.Fatalf("OnRecord fired %d times, want %d", len(seen), len(l.Units))
	}
	for i, u := range l.Units {
		if seen[i].ID != u.ID {
			t.Fatalf("OnRecord[%d] = %s, want %s", i, seen[i].ID, u.ID)
		}
	}

	// A duplicate report (retried POST) is acknowledged but never re-fires.
	if _, err := co.Complete(l.ID, "w1", recordsFor(l.Units)); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(l.Units) {
		t.Fatalf("duplicate report re-fired OnRecord: %d calls, want %d", len(seen), len(l.Units))
	}
}

// TestCoordinatorMemoProbesEachUnitOnce pins the memo lookup to one probe
// per unit, made when the unit would be granted: draining the 10-unit
// campaign in batches of 2 against an empty cache misses once per unit. A
// probe of the whole queue on every claim misses 10+8+6+4+2 = 30 times.
func TestCoordinatorMemoProbesEachUnitOnce(t *testing.T) {
	c := compileTest(t)
	j, have := openTestJournal(t)
	cache := memo.New(memo.Config{})
	co := campaign.NewCoordinator(c, j, have, campaign.CoordinatorConfig{BatchSize: 2, Memo: cache})
	for {
		l, done, err := co.Claim("w1", 0)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		if l == nil {
			t.Fatal("claim stalled with no lease outstanding")
		}
		if _, err := co.Complete(l.ID, "w1", recordsFor(l.Units)); err != nil {
			t.Fatal(err)
		}
	}
	if got := cache.Stats().Misses; got != int64(len(c.Units)) {
		t.Fatalf("memo misses = %d, want one per unit (%d)", got, len(c.Units))
	}
}

// TestCoordinatorProgressETA pins the ETA: elapsed time per executed unit
// times the units remaining. Two workers that execute half the campaign in
// 10s leave an ETA of 10s; the elapsed time already counts both workers.
func TestCoordinatorProgressETA(t *testing.T) {
	c := compileTest(t)
	j, have := openTestJournal(t)
	clock := &fakeClock{t: time.Unix(1000, 0)}
	co := campaign.NewCoordinator(c, j, have, campaign.CoordinatorConfig{Now: clock.Now})
	half := len(c.Units) / 2
	l1, _, err := co.Claim("w1", half/2)
	if err != nil || l1 == nil {
		t.Fatalf("claim: %v %v", l1, err)
	}
	l2, _, err := co.Claim("w2", half-half/2)
	if err != nil || l2 == nil {
		t.Fatalf("claim: %v %v", l2, err)
	}
	if p := co.Progress(); p.ETAMS != 0 {
		t.Fatalf("ETA before any unit finished: %+v", p)
	}
	clock.Advance(10 * time.Second)
	for worker, l := range map[string]*campaign.Lease{"w1": l1, "w2": l2} {
		if _, err := co.Complete(l.ID, worker, recordsFor(l.Units)); err != nil {
			t.Fatal(err)
		}
	}
	p := co.Progress()
	if p.Executed != half || p.Done != half || p.ElapsedMS != 10000 || p.ETAMS != 10000 {
		t.Fatalf("progress after half the units in 10s: %+v, want ETA 10000 ms", p)
	}
}
