package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"sdcgmres/internal/memo"
	"sdcgmres/internal/obs"
	"sdcgmres/internal/trace"
)

// ErrLeaseGone: the lease expired (its units were requeued) or never
// existed. Workers may keep reporting finished records — completion is
// idempotent — but should stop working the batch.
var ErrLeaseGone = errors.New("campaign: lease gone")

// Options parameterizes a local campaign run (NewRunner).
type Options struct {
	// Workers bounds concurrent units (default GOMAXPROCS).
	Workers int
	// UnitBudget, when positive, replaces the manifest's per-unit deadline
	// (unit_budget_ms, default 2 minutes); it can go below 1 ms.
	UnitBudget time.Duration
	// KernelWorkers is the total shared-memory kernel budget for the run
	// (0 = kernels run sequentially). Each campaign worker gets a
	// persistent pool of max(1, KernelWorkers/Workers) kernel workers, so
	// unit concurrency times pool width never oversubscribes the budget.
	// Kernels are bitwise deterministic: records and aggregate CSVs are
	// identical for every KernelWorkers value.
	KernelWorkers int
	// Recorder, OnRecord, Memo and OnMemo mean what the CoordinatorConfig
	// fields of the same names mean; the Recorder also receives each
	// unit's lifecycle (UnitStart/UnitEnd and its sandbox outcome).
	Recorder *trace.Recorder
	OnRecord func(Record)
	Memo     *memo.Cache
	OnMemo   func(Record)
}

// CoordinatorConfig parameterizes a Coordinator.
type CoordinatorConfig struct {
	// LeaseTTL is how long a granted or renewed lease stays valid without
	// a heartbeat (default 30s).
	LeaseTTL time.Duration
	// BatchSize is the unit count per lease (default 8). Smaller batches
	// lose less work to a dead worker; larger ones amortize round-trips.
	BatchSize int
	// Metrics receives coordinator observations (default: fresh registry).
	Metrics *Metrics
	// Recorder, when non-nil, receives lease lifecycle trace events
	// (LeaseGranted on Claim, LeaseExpired on sweep) and memo hits. Purely
	// observational; lease behaviour is unchanged.
	Recorder *trace.Recorder
	// OnRecord, when non-nil, observes every record a worker produced —
	// exactly once per unit, after it is durably appended, with no
	// coordinator lock held (the results-store ingest hook). Duplicate and
	// rejected worker records are never surfaced.
	OnRecord func(Record)
	// OnMemo, when non-nil, observes every record journaled from the memo
	// cache instead of a worker, with the same guarantees as OnRecord.
	OnMemo func(Record)
	// Now is the clock (default time.Now; tests substitute a fake).
	Now func() time.Time
	// Log receives lease-lifecycle records (nil = disabled, free). Every
	// record carries CID so fleet-wide log joins land on one ID.
	Log *obs.Logger
	// CID is the campaign's correlation ID, stamped on log records and
	// trace events.
	CID string
	// Memo, when non-nil, is the cross-campaign solve cache: each unit is
	// looked up once, when it would be granted, and a cached record that
	// passes the same trust-boundary checks as a worker record is
	// journaled in its place. Fresh OK records are published back. Cached
	// records are byte-identical to fresh ones (bit-deterministic
	// kernels), so journals and aggregate CSVs do not change. Nil changes
	// nothing.
	Memo *memo.Cache
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 30 * time.Second
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 8
	}
	if c.Metrics == nil {
		c.Metrics = NewMetrics()
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Lease is a batch of units granted to one worker until it expires.
type Lease struct {
	// ID names the lease in heartbeat and completion calls.
	ID string `json:"id"`
	// Units are the experiments to run.
	Units []Unit `json:"units"`
	// TTLMS is how long the lease lives without a heartbeat renewal.
	TTLMS int64 `json:"ttl_ms"`
	// Remaining is the coordinator's unleased backlog after this grant.
	Remaining int `json:"remaining"`
}

// CompleteResponse acknowledges a completion report.
type CompleteResponse struct {
	// Accepted counts records journaled or recognized as duplicates.
	Accepted int `json:"accepted"`
	// Rejected counts records that failed validation (not part of the
	// campaign, ID hash mismatch, malformed outcome).
	Rejected int `json:"rejected"`
	// Done: the campaign completed with this report.
	Done bool `json:"done,omitempty"`
}

// LeaseInfo is one active lease in a status snapshot.
type LeaseInfo struct {
	ID     string `json:"id"`
	Worker string `json:"worker"`
	// Units is the lease's outstanding (not yet completed) unit count.
	Units int `json:"units"`
	// ExpiresInMS is the time left before the lease is requeued.
	ExpiresInMS int64 `json:"expires_in_ms"`
}

// Stats is a point-in-time lease snapshot of a coordinator.
type Stats struct {
	// Total is the campaign's unit count.
	Total int `json:"total"`
	// Done counts journaled units (including those resumed from the
	// journal at startup).
	Done int `json:"done"`
	// Pending counts units waiting to be leased.
	Pending int `json:"pending"`
	// Leased counts units currently out on active leases.
	Leased int `json:"leased"`
	// Draining: the coordinator grants no further leases.
	Draining bool `json:"draining,omitempty"`
	// Leases lists the active leases.
	Leases []LeaseInfo `json:"leases,omitempty"`
}

// Backlog is the incomplete-unit count — what a fleet health probe wants.
func (s Stats) Backlog() int { return s.Pending + s.Leased }

// Progress is a point-in-time snapshot of a run.
type Progress struct {
	// Total is the campaign's unit count.
	Total int `json:"total"`
	// Done counts units with a journal record (skipped + memoized +
	// executed).
	Done int `json:"done"`
	// Skipped counts units satisfied by the journal at startup — the
	// resume path's savings.
	Skipped int `json:"skipped"`
	// Memoized counts units satisfied by the cross-campaign solve cache
	// (journaled without executing). Omitted when zero, so runs without
	// a cache serialize exactly as before.
	Memoized int `json:"memoized,omitempty"`
	// Executed counts units this run actually ran.
	Executed int `json:"executed"`
	// Failed counts executed units whose experiment errored or panicked.
	Failed int `json:"failed"`
	// TimedOut counts executed units killed by the per-unit deadline.
	TimedOut int `json:"timed_out"`
	// ElapsedMS is wall-clock time since the coordinator opened.
	ElapsedMS float64 `json:"elapsed_ms"`
	// ETAMS estimates the remaining wall clock from the executed-unit rate
	// (0 until at least one unit finished, or when nothing remains).
	ETAMS float64 `json:"eta_ms,omitempty"`
	// FailuresByProblem breaks failures down per problem shard.
	FailuresByProblem map[string]int `json:"failures_by_problem,omitempty"`
}

// lease is the coordinator's record of one granted batch.
type lease struct {
	id          string
	worker      string
	units       []Unit          // granted order, for deterministic requeue
	outstanding map[string]bool // unit IDs not yet completed
	expires     time.Time
}

// Coordinator shards one compiled campaign across workers via expiring
// leases and owns the journal the records merge into. It is the only
// executor: a remote fleet drives it over the dist wire protocol, and the
// local Runner drives it with in-process goroutines. Expiry is swept lazily
// on every call — the workers' own claim polling drives dead-worker
// detection, so no background goroutine is needed.
//
// The execution model is at-least-once: an expired lease's units are
// requeued and may be executed again elsewhere, and a worker that outlived
// its lease may still report them. Content-derived unit IDs make that
// harmless — the first valid record of a unit is journaled, later ones are
// acknowledged as duplicates and dropped.
type Coordinator struct {
	cfg      CoordinatorConfig
	compiled *Compiled
	journal  *Journal
	lctx     context.Context // carries the campaign correlation for log records
	started  time.Time

	mu         sync.Mutex
	units      map[string]Unit   // campaign membership by unit ID
	have       map[string]Record // the campaign's records, resumed ones included
	pending    []Unit            // unleased incomplete units, FIFO
	leases     map[string]*lease
	nextLease  int64
	remaining  int // campaign units without a record
	draining   bool
	journalErr error
	prog       Progress // the counters; Progress derives the rest

	done   chan struct{} // closed when remaining hits 0
	failed chan struct{} // closed on the first journal write error
	once   sync.Once
}

// NewCoordinator builds a coordinator for a compiled campaign against an
// open journal. have is the journal's record set at open time: units it
// already satisfies are never leased (the resume path); records for
// unknown unit IDs are ignored, so journals may be shared across manifests.
func NewCoordinator(c *Compiled, j *Journal, have map[string]Record, cfg CoordinatorConfig) *Coordinator {
	cfg = cfg.withDefaults()
	co := &Coordinator{
		cfg:      cfg,
		compiled: c,
		journal:  j,
		lctx:     obs.With(context.Background(), obs.Correlation{ID: cfg.CID}),
		started:  cfg.Now(),
		units:    make(map[string]Unit, len(c.Units)),
		have:     make(map[string]Record, len(c.Units)),
		leases:   make(map[string]*lease),
		done:     make(chan struct{}),
		failed:   make(chan struct{}),
	}
	for _, u := range c.Units {
		co.units[u.ID] = u
		if rec, ok := have[u.ID]; ok {
			co.have[u.ID] = rec
			continue
		}
		co.pending = append(co.pending, u)
	}
	co.remaining = len(co.pending)
	co.prog.Skipped = len(co.have)
	co.cfg.Recorder.Correlate(cfg.CID)
	co.cfg.Log.Info(co.lctx, "coordinator open",
		"units", len(c.Units), "resumed", len(co.have), "pending", co.remaining)
	if co.remaining == 0 {
		co.markDoneLocked()
	}
	return co
}

// markDoneLocked closes done exactly once, logging the completion.
func (co *Coordinator) markDoneLocked() {
	co.once.Do(func() {
		close(co.done)
		co.cfg.Log.Info(co.lctx, "campaign complete", "units", len(co.compiled.Units))
	})
}

// Metrics returns the coordinator's registry.
func (co *Coordinator) Metrics() *Metrics { return co.cfg.Metrics }

// LeaseTTL returns the lifetime of a lease without a heartbeat.
func (co *Coordinator) LeaseTTL() time.Duration { return co.cfg.LeaseTTL }

// Done is closed once every campaign unit is journaled.
func (co *Coordinator) Done() <-chan struct{} { return co.done }

// Failed is closed on the first journal write error: durability is broken,
// so the coordinator stops granting and completing.
func (co *Coordinator) Failed() <-chan struct{} { return co.failed }

// Err returns the journal error that failed the coordinator, if any.
func (co *Coordinator) Err() error {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.journalErr
}

// Records returns every record the campaign's units have: the ones the
// journal held at open and the ones journaled since.
func (co *Coordinator) Records() map[string]Record {
	co.mu.Lock()
	defer co.mu.Unlock()
	out := make(map[string]Record, len(co.have))
	for k, v := range co.have {
		out[k] = v
	}
	return out
}

// Drain stops further lease grants; outstanding leases may still complete.
func (co *Coordinator) Drain() {
	co.mu.Lock()
	co.draining = true
	co.mu.Unlock()
}

// sweepLocked requeues every expired lease's outstanding units. Requeued
// units go to the front of the queue in their granted order, so recovered
// work is retried before new work is started.
func (co *Coordinator) sweepLocked(now time.Time) {
	for id, l := range co.leases {
		if !now.After(l.expires) {
			continue
		}
		var back []Unit
		for _, u := range l.units {
			if l.outstanding[u.ID] {
				back = append(back, u)
			}
		}
		co.pending = append(back, co.pending...)
		delete(co.leases, id)
		co.cfg.Metrics.LeasesExpired.Inc()
		co.cfg.Metrics.UnitsRequeued.Add(int64(len(back)))
		co.cfg.Recorder.LeaseExpired(id, l.worker, len(back))
		co.cfg.Log.Warn(co.lctx, "lease expired",
			"lease", id, "worker", l.worker, "requeued", len(back))
	}
}

// Claim grants a lease of up to max units (0 = the configured batch size).
// done reports that every unit is journaled — nothing will ever be granted
// again. A nil lease with done false means "nothing available right now":
// the backlog is fully leased out or the coordinator is draining; retry
// after a backoff.
func (co *Coordinator) Claim(worker string, max int) (_ *Lease, done bool, err error) {
	co.mu.Lock()
	lease, done, memoed, err := co.claimLocked(worker, max)
	co.mu.Unlock()
	// Surface memo-served records outside the lock, mirroring Complete.
	if co.cfg.OnMemo != nil {
		for _, rec := range memoed {
			co.cfg.OnMemo(rec)
		}
	}
	return lease, done, err
}

// claimLocked does Claim's work under co.mu. It fills the grant from the
// head of the queue, journaling the units the memo cache satisfies, so each
// unit is looked up once, and returns those records.
func (co *Coordinator) claimLocked(worker string, max int) (_ *Lease, done bool, memoed []Record, err error) {
	if co.journalErr != nil {
		return nil, false, nil, co.journalErr
	}
	now := co.cfg.Now()
	co.sweepLocked(now)
	if co.remaining == 0 {
		return nil, true, nil, nil
	}
	if co.draining {
		return nil, false, nil, nil
	}
	n := co.cfg.BatchSize
	if max > 0 && max < n {
		n = max
	}
	units := make([]Unit, 0, min(n, len(co.pending)))
	for len(units) < n && len(co.pending) > 0 {
		u := co.pending[0]
		co.pending = co.pending[1:]
		rec, size, ok := co.memoLocked(u)
		if !ok {
			units = append(units, u)
			continue
		}
		if err := co.appendLocked(rec); err != nil {
			return nil, false, memoed, err
		}
		co.prog.Memoized++
		memoed = append(memoed, rec)
		co.cfg.Metrics.UnitsMemoized.Inc()
		co.cfg.Recorder.MemoHit(memo.UnitKey(u.ID), "hit", size)
	}
	if len(units) == 0 {
		// The cache satisfied the rest of the queue, or every remaining
		// unit is out on a lease.
		if co.remaining > 0 {
			return nil, false, memoed, nil
		}
		if err := co.finishLocked(); err != nil {
			return nil, false, memoed, err
		}
		return nil, true, memoed, nil
	}

	co.nextLease++
	l := &lease{
		id:          fmt.Sprintf("lease-%06d", co.nextLease),
		worker:      worker,
		units:       units,
		outstanding: make(map[string]bool, len(units)),
		expires:     now.Add(co.cfg.LeaseTTL),
	}
	for _, u := range units {
		l.outstanding[u.ID] = true
	}
	co.leases[l.id] = l
	co.cfg.Metrics.LeasesGranted.Inc()
	co.cfg.Recorder.LeaseGranted(l.id, worker, len(units))
	co.cfg.Log.Debug(co.lctx, "lease granted",
		"lease", l.id, "worker", worker, "units", len(units), "pending", len(co.pending))
	return &Lease{
		ID:        l.id,
		Units:     units,
		TTLMS:     co.cfg.LeaseTTL.Milliseconds(),
		Remaining: len(co.pending),
	}, false, memoed, nil
}

// memoLocked resolves a unit from the cross-campaign solve cache. A payload
// counts only if it decodes to a record carrying exactly this unit with an
// OK outcome and passes the checks a worker record must pass; anything
// else is a miss and the unit is leased. size is the payload's length.
func (co *Coordinator) memoLocked(u Unit) (Record, int, bool) {
	if co.cfg.Memo == nil {
		return Record{}, 0, false
	}
	raw, ok := co.cfg.Memo.Get(memo.UnitKey(u.ID))
	if !ok {
		return Record{}, 0, false
	}
	var rec Record // declared here so that only a cache hit allocates it
	if err := json.Unmarshal(raw, &rec); err != nil ||
		rec.Unit != u || rec.Outcome != OutcomeOK || !co.validLocked(rec) {
		return Record{}, 0, false
	}
	return rec, len(raw), true
}

// appendLocked journals one campaign record and books its unit as done. A
// write error is terminal: every later call returns it and Failed closes,
// because running on without durability would break the resume contract.
func (co *Coordinator) appendLocked(rec Record) error {
	if err := co.journal.Append(rec); err != nil {
		co.failLocked(err)
		return err
	}
	co.have[rec.ID] = rec
	co.remaining--
	return nil
}

// finishLocked syncs the journal after its last unit and closes Done.
func (co *Coordinator) finishLocked() error {
	if err := co.journal.Sync(); err != nil {
		co.failLocked(fmt.Errorf("campaign: sync journal: %w", err))
		return co.journalErr
	}
	co.markDoneLocked()
	return nil
}

func (co *Coordinator) failLocked(err error) {
	co.journalErr = err
	close(co.failed)
}

// Heartbeat renews a lease's TTL. ErrLeaseGone means the lease expired (its
// units are requeued) or never existed.
func (co *Coordinator) Heartbeat(leaseID string) (time.Duration, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	now := co.cfg.Now()
	co.sweepLocked(now)
	l, ok := co.leases[leaseID]
	if !ok {
		return 0, ErrLeaseGone
	}
	l.expires = now.Add(co.cfg.LeaseTTL)
	co.cfg.Metrics.LeasesRenewed.Inc()
	return co.cfg.LeaseTTL, nil
}

// validLocked applies the trust-boundary checks to one worker record.
func (co *Coordinator) validLocked(rec Record) bool {
	if rec.ID == "" || rec.Unit.ID != rec.ID || !rec.Unit.VerifyID() {
		return false
	}
	u, ok := co.units[rec.ID]
	if !ok || u != rec.Unit {
		return false
	}
	switch rec.Outcome {
	case OutcomeOK, OutcomeFailed, OutcomeTimedOut:
	default:
		return false
	}
	// Whatever the outcome, the engine always records the unit's own site.
	return rec.Point.AggregateInner == u.Site
}

// Complete journals a worker's finished records. The lease may already be
// gone — records are still accepted (at-least-once execution); duplicates
// of already-journaled units are acknowledged without re-journaling. A
// journal write error is terminal: it is returned, Failed() closes, and
// every later call errors, because running on without durability would
// break the resume contract.
func (co *Coordinator) Complete(leaseID, worker string, recs []Record) (CompleteResponse, error) {
	co.mu.Lock()
	resp, accepted, err := co.completeLocked(leaseID, worker, recs)
	co.mu.Unlock()
	// Publish accepted OK records to the solve cache outside the lock, so
	// later claims (and other campaigns sharing the cache) skip them. Only
	// OK records are cached: a timeout or failure is an artifact of this
	// machine and budget, not of the unit's content.
	if co.cfg.Memo != nil {
		for _, rec := range accepted {
			if rec.Outcome != OutcomeOK {
				continue
			}
			if b, merr := json.Marshal(rec); merr == nil {
				co.cfg.Memo.Put(memo.UnitKey(rec.ID), b)
			}
		}
	}
	// Surface newly journaled records outside the lock, so an ingest hook
	// (which may hit its own disk) never stalls claims and heartbeats.
	if co.cfg.OnRecord != nil {
		for _, rec := range accepted {
			co.cfg.OnRecord(rec)
		}
	}
	if len(recs) > 0 && co.cfg.Log.Enabled(slog.LevelDebug) {
		co.cfg.Log.Debug(obs.With(co.lctx, obs.Correlation{Lease: leaseID, Worker: worker}),
			"records reported", "accepted", resp.Accepted, "rejected", resp.Rejected, "done", resp.Done)
	}
	return resp, err
}

// completeLocked does Complete's work under co.mu and returns the records
// newly journaled by this call.
func (co *Coordinator) completeLocked(leaseID, worker string, recs []Record) (CompleteResponse, []Record, error) {
	if co.journalErr != nil {
		return CompleteResponse{}, nil, co.journalErr
	}
	now := co.cfg.Now()
	co.sweepLocked(now)
	l := co.leases[leaseID] // may be nil: expired or foreign
	var resp CompleteResponse
	var accepted []Record
	for _, rec := range recs {
		if !co.validLocked(rec) {
			resp.Rejected++
			co.cfg.Metrics.RecordsRejected.Inc()
			continue
		}
		if _, dup := co.have[rec.ID]; dup {
			resp.Accepted++
			co.cfg.Metrics.RecordsDuplicate.Inc()
			co.forgetLocked(l, rec.ID)
			continue
		}
		if err := co.appendLocked(rec); err != nil {
			return resp, accepted, err
		}
		resp.Accepted++
		accepted = append(accepted, rec)
		co.bookLocked(rec)
		co.cfg.Metrics.UnitsCompleted.Inc()
		co.cfg.Metrics.ObserveUnit(worker, rec.ElapsedMS/1000)
		co.forgetLocked(l, rec.ID)
	}
	if l != nil && len(l.outstanding) == 0 {
		delete(co.leases, l.id)
		co.cfg.Metrics.LeasesCompleted.Inc()
	}
	if co.remaining == 0 {
		resp.Done = true
		if err := co.finishLocked(); err != nil {
			return resp, accepted, err
		}
	}
	return resp, accepted, nil
}

// bookLocked counts an executed record into the progress counters.
func (co *Coordinator) bookLocked(rec Record) {
	co.prog.Executed++
	switch rec.Outcome {
	case OutcomeFailed:
		co.prog.Failed++
	case OutcomeTimedOut:
		co.prog.TimedOut++
	default:
		return
	}
	if co.prog.FailuresByProblem == nil {
		co.prog.FailuresByProblem = map[string]int{}
	}
	co.prog.FailuresByProblem[rec.Unit.Problem]++
}

// forgetLocked erases a completed unit everywhere it might still be queued:
// the reporting lease, any other lease holding it after an expiry-requeue
// cycle, and the pending queue — so nobody re-executes finished work.
func (co *Coordinator) forgetLocked(reporter *lease, unitID string) {
	if reporter != nil && reporter.outstanding[unitID] {
		delete(reporter.outstanding, unitID)
		return
	}
	for id, l := range co.leases {
		if l.outstanding[unitID] {
			delete(l.outstanding, unitID)
			if len(l.outstanding) == 0 {
				delete(co.leases, id)
				co.cfg.Metrics.LeasesCompleted.Inc()
			}
			return
		}
	}
	for i, u := range co.pending {
		if u.ID == unitID {
			co.pending = append(co.pending[:i], co.pending[i+1:]...)
			return
		}
	}
}

// Stats snapshots the leases (sweeping expired ones first).
func (co *Coordinator) Stats() Stats {
	co.mu.Lock()
	defer co.mu.Unlock()
	now := co.cfg.Now()
	co.sweepLocked(now)
	s := Stats{
		Total:    len(co.compiled.Units),
		Done:     len(co.compiled.Units) - co.remaining,
		Pending:  len(co.pending),
		Draining: co.draining,
	}
	for _, l := range co.leases {
		s.Leased += len(l.outstanding)
		s.Leases = append(s.Leases, LeaseInfo{
			ID:          l.id,
			Worker:      l.worker,
			Units:       len(l.outstanding),
			ExpiresInMS: l.expires.Sub(now).Milliseconds(),
		})
	}
	return s
}

// Progress snapshots the run. The ETA is the elapsed time per executed unit
// times the units remaining: the elapsed time already reflects how many
// workers ran at once.
func (co *Coordinator) Progress() Progress {
	co.mu.Lock()
	defer co.mu.Unlock()
	p := co.prog
	p.Total = len(co.compiled.Units)
	p.Done = p.Total - co.remaining
	elapsed := co.cfg.Now().Sub(co.started)
	p.ElapsedMS = float64(elapsed) / float64(time.Millisecond)
	if p.Executed > 0 && co.remaining > 0 {
		p.ETAMS = p.ElapsedMS * float64(co.remaining) / float64(p.Executed)
	}
	if co.prog.FailuresByProblem != nil {
		p.FailuresByProblem = make(map[string]int, len(co.prog.FailuresByProblem))
		for k, v := range co.prog.FailuresByProblem {
			p.FailuresByProblem[k] = v
		}
	}
	return p
}
