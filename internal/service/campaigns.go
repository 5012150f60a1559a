package service

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sdcgmres/internal/campaign"
	"sdcgmres/internal/memo"
	"sdcgmres/internal/obs"
	"sdcgmres/internal/store"
	"sdcgmres/internal/trace"
)

// Campaign manager API errors.
var (
	// ErrUnknownCampaign: no campaign with that ID.
	ErrUnknownCampaign = errors.New("service: unknown campaign")
	// ErrCampaignTerminal: the campaign already reached a terminal state.
	ErrCampaignTerminal = errors.New("service: campaign already terminal")
	// ErrBusy: the manager is at its active-campaign cap; retry later. The
	// HTTP layer maps it to 429 with a Retry-After header.
	ErrBusy = errors.New("service: too many active campaigns")
)

// Campaign lifecycle states.
const (
	// CampaignCompiling: manifest accepted, problems calibrating.
	CampaignCompiling = "compiling"
	// CampaignRunning: units executing against the journal.
	CampaignRunning = "running"
	// CampaignDone: every unit journaled.
	CampaignDone = "done"
	// CampaignFailed: compilation or the journal failed.
	CampaignFailed = "failed"
	// CampaignCanceled: stopped by the caller or by shutdown; the journal
	// keeps everything finished, so resubmitting the manifest resumes.
	CampaignCanceled = "canceled"
)

// CampaignView is the API snapshot of one campaign.
type CampaignView struct {
	ID   string `json:"id"`
	Name string `json:"name"`
	// CID is the correlation ID stamped on every log record and trace
	// event this campaign produced — the grep key that joins them.
	CID      string            `json:"cid,omitempty"`
	Hash     string            `json:"manifest_hash"`
	State    string            `json:"state"`
	Journal  string            `json:"journal,omitempty"`
	Error    string            `json:"error,omitempty"`
	Progress campaign.Progress `json:"progress"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// managedCampaign is the manager's mutable record of one campaign.
type managedCampaign struct {
	mu       sync.Mutex
	id       string
	cid      string // correlation ID; immutable after construction
	manifest campaign.Manifest
	hash     string
	state    string
	journal  string
	errMsg   string
	runner   *campaign.Runner
	final    campaign.Progress
	cancel   context.CancelFunc
	trace    *trace.Recorder

	submitted time.Time
	started   time.Time
	finished  time.Time
}

func (c *managedCampaign) view() CampaignView {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := CampaignView{
		ID:          c.id,
		Name:        c.manifest.Name,
		CID:         c.cid,
		Hash:        c.hash,
		State:       c.state,
		Journal:     c.journal,
		Error:       c.errMsg,
		SubmittedAt: c.submitted,
	}
	if !c.started.IsZero() {
		t := c.started
		v.StartedAt = &t
	}
	if !c.finished.IsZero() {
		t := c.finished
		v.FinishedAt = &t
	}
	switch {
	case c.runner != nil && c.state == CampaignRunning:
		v.Progress = c.runner.Progress()
	default:
		v.Progress = c.final
	}
	return v
}

// CampaignManagerConfig parameterizes a CampaignManager.
type CampaignManagerConfig struct {
	// Dir is where journals live (default "."). Journal files are keyed by
	// campaign name and manifest hash, so resubmitting a manifest resumes
	// its journal.
	Dir string
	// Workers bounds each campaign's concurrent units (default GOMAXPROCS).
	Workers int
	// KernelWorkers is the total shared-memory kernel budget per campaign
	// run (0 = sequential kernels); the campaign engine splits it across
	// its unit workers. Journals and CSVs are identical for every value.
	KernelWorkers int
	// Metrics receives campaign observations (default: a fresh registry).
	Metrics *Metrics
	// TraceCapacity, when positive, gives every campaign a flight
	// recorder ring of that many events capturing unit lifecycles and
	// sandbox outcomes, queryable via Trace. Tracing never changes what a
	// campaign journals. Zero disables it.
	TraceCapacity int
	// Store, when non-nil, receives every campaign record keyed by the
	// campaign's name: the journal's record set on resume, then each fresh
	// record as it lands. Ingest is idempotent (content-derived IDs), so
	// the resume replay plus the live feed never double-count. The journal
	// stays authoritative — a store error is counted, not fatal.
	Store *store.Store
	// MaxActive bounds concurrently non-terminal campaigns; Submit returns
	// ErrBusy beyond it (0 = unlimited, today's behavior).
	MaxActive int
	// Memo, when non-nil, is the cross-campaign solve cache shared with
	// the job engine: units whose content-derived ID is cached are
	// journaled from the cache instead of executing, and fresh OK
	// records are published back. Nil changes nothing.
	Memo *memo.Cache
	// Log receives the manager's structured lifecycle records (campaign
	// accepted / running / terminal, per-unit outcomes at debug level),
	// each stamped with the campaign's correlation ID. Nil disables
	// logging; journals and CSVs are byte-identical either way.
	Log *obs.Logger
}

// CampaignManager runs durable fault-injection campaigns inside the daemon:
// it compiles submitted manifests, executes them through the campaign engine
// against on-disk journals, and exposes their progress. It is the batch
// counterpart of the per-job Engine.
type CampaignManager struct {
	cfg    CampaignManagerConfig
	nextID atomic.Int64
	drain  atomic.Bool
	wg     sync.WaitGroup

	baseCtx   context.Context
	cancelAll context.CancelFunc

	mu        sync.Mutex
	campaigns map[string]*managedCampaign
	order     []string
}

// NewCampaignManager builds a manager.
func NewCampaignManager(cfg CampaignManagerConfig) *CampaignManager {
	if cfg.Dir == "" {
		cfg.Dir = "."
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetrics()
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &CampaignManager{
		cfg:       cfg,
		baseCtx:   ctx,
		cancelAll: cancel,
		campaigns: make(map[string]*managedCampaign),
	}
}

// Metrics returns the manager's registry.
func (m *CampaignManager) Metrics() *Metrics { return m.cfg.Metrics }

// JournalPath returns where a manifest's journal lives: the manifest's
// JournalName in the manager's directory.
func (m *CampaignManager) JournalPath(man campaign.Manifest) string {
	return filepath.Join(m.cfg.Dir, man.JournalName())
}

// Submit validates and launches a campaign with a fresh correlation ID;
// see SubmitCtx.
func (m *CampaignManager) Submit(man campaign.Manifest) (CampaignView, error) {
	return m.SubmitCtx(context.Background(), man)
}

// SubmitCtx validates and launches a campaign, adopting the correlation
// ID carried by ctx (minting one when absent) so the campaign's logs and
// trace join the submitting request. Compilation (problem calibration)
// runs asynchronously: the returned view is in state "compiling" and
// progresses from there.
func (m *CampaignManager) SubmitCtx(ctx context.Context, man campaign.Manifest) (CampaignView, error) {
	if m.drain.Load() {
		return CampaignView{}, ErrDraining
	}
	if err := man.Validate(); err != nil {
		return CampaignView{}, err
	}
	if m.cfg.MaxActive > 0 && m.activeCount() >= m.cfg.MaxActive {
		return CampaignView{}, ErrBusy
	}
	cid := obs.FromContext(ctx).ID
	if cid == "" {
		cid = obs.NewID()
	}
	runCtx, cancel := context.WithCancel(m.baseCtx)
	c := &managedCampaign{
		id:        fmt.Sprintf("cmp-%06d", m.nextID.Add(1)),
		cid:       cid,
		manifest:  man,
		hash:      man.Hash(),
		state:     CampaignCompiling,
		journal:   m.JournalPath(man),
		cancel:    cancel,
		submitted: time.Now(),
	}
	if m.cfg.TraceCapacity > 0 {
		c.trace = trace.NewRecorder(m.cfg.TraceCapacity)
		c.trace.Correlate(cid)
	}
	m.mu.Lock()
	m.campaigns[c.id] = c
	m.order = append(m.order, c.id)
	m.mu.Unlock()
	m.cfg.Metrics.CampaignsStarted.Inc()
	if l := m.cfg.Log; l != nil {
		l.Info(m.campaignCtx(c), "campaign accepted",
			"name", man.Name, "hash", c.hash, "journal", c.journal)
	}
	// Take the view before the campaign starts: once it runs, its state
	// may already have moved past compiling.
	view := c.view()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		defer cancel()
		m.execute(runCtx, c)
	}()
	return view, nil
}

// campaignCtx builds the logging context carrying a campaign's
// correlation identity.
func (m *CampaignManager) campaignCtx(c *managedCampaign) context.Context {
	return obs.With(context.Background(), obs.Correlation{ID: c.cid, Campaign: c.id})
}

// activeCount counts campaigns that have not reached a terminal state.
func (m *CampaignManager) activeCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, c := range m.campaigns {
		c.mu.Lock()
		switch c.state {
		case CampaignCompiling, CampaignRunning:
			n++
		}
		c.mu.Unlock()
	}
	return n
}

// execute drives one campaign from compile to a terminal state.
func (m *CampaignManager) execute(ctx context.Context, c *managedCampaign) {
	met := m.cfg.Metrics
	log := m.cfg.Log
	lctx := m.campaignCtx(c)
	fail := func(err error) {
		c.mu.Lock()
		c.state = CampaignFailed
		c.errMsg = err.Error()
		c.finished = time.Now()
		c.mu.Unlock()
		met.CampaignsFailed.Inc()
		log.Error(lctx, "campaign failed", "error", err.Error())
	}

	compiled, err := campaign.Compile(c.manifest)
	if err != nil {
		fail(err)
		return
	}
	if ctx.Err() != nil {
		m.finishCanceled(c, campaign.Progress{Total: len(compiled.Units)})
		return
	}
	j, have, err := campaign.OpenJournal(c.journal)
	if err != nil {
		fail(err)
		return
	}
	defer j.Close()

	storeName := c.manifest.Name
	if m.cfg.Store != nil {
		// Backfill the warehouse with what the journal already holds (the
		// resume path). Re-running a finished campaign replays everything;
		// content-derived IDs make that a no-op.
		if _, err := m.cfg.Store.IngestAll(storeName, have); err != nil {
			met.StoreIngestErrors.Inc()
		}
	}

	runner := campaign.NewRunner(compiled, j, have, campaign.Options{
		Workers:       m.cfg.Workers,
		KernelWorkers: m.cfg.KernelWorkers,
		OnRecord: func(rec campaign.Record) {
			met.CampaignUnitsExecuted.Inc()
			if rec.Outcome != campaign.OutcomeOK {
				met.CampaignUnitsFailed.Inc()
			}
			if m.cfg.Store != nil {
				if _, err := m.cfg.Store.Ingest(storeName, rec); err != nil {
					met.StoreIngestErrors.Inc()
				}
			}
			log.Debug(lctx, "unit executed", "unit", rec.ID,
				"outcome", rec.Outcome, "elapsed_ms", rec.ElapsedMS)
		},
		Memo: m.cfg.Memo,
		OnMemo: func(rec campaign.Record) {
			met.CampaignUnitsMemoized.Inc()
			if m.cfg.Store != nil {
				if _, err := m.cfg.Store.Ingest(storeName, rec); err != nil {
					met.StoreIngestErrors.Inc()
				}
			}
			log.Debug(lctx, "unit served from memo cache", "unit", rec.ID)
		},
		Recorder: c.trace,
	})
	met.CampaignUnitsSkipped.Add(int64(runner.Progress().Skipped))
	c.mu.Lock()
	c.runner = runner
	c.state = CampaignRunning
	c.started = time.Now()
	c.mu.Unlock()
	log.Info(lctx, "campaign running", "units", len(compiled.Units), "resumed", len(have))

	err = runner.Run(ctx)
	prog := runner.Progress()
	switch {
	case err == nil:
		c.mu.Lock()
		c.state = CampaignDone
		c.final = prog
		c.finished = time.Now()
		c.mu.Unlock()
		met.CampaignsCompleted.Inc()
		log.Info(lctx, "campaign done",
			"executed", prog.Executed, "skipped", prog.Skipped, "failed", prog.Failed)
	case errors.Is(err, context.Canceled):
		m.finishCanceled(c, prog)
		log.Warn(lctx, "campaign canceled")
	default:
		c.mu.Lock()
		c.state = CampaignFailed
		c.errMsg = err.Error()
		c.final = prog
		c.finished = time.Now()
		c.mu.Unlock()
		met.CampaignsFailed.Inc()
		log.Error(lctx, "campaign failed", "error", err.Error())
	}
}

func (m *CampaignManager) finishCanceled(c *managedCampaign, prog campaign.Progress) {
	c.mu.Lock()
	c.state = CampaignCanceled
	c.errMsg = "canceled; journal retains finished units, resubmit to resume"
	c.final = prog
	c.finished = time.Now()
	c.mu.Unlock()
	m.cfg.Metrics.CampaignsCanceled.Inc()
}

// Trace returns a campaign's recorded flight-recorder events,
// oldest-first. It returns ErrUnknownCampaign for unknown IDs and
// ErrNoTrace when the manager runs without a TraceCapacity.
func (m *CampaignManager) Trace(id string) ([]trace.Event, error) {
	m.mu.Lock()
	c, ok := m.campaigns[id]
	m.mu.Unlock()
	if !ok {
		return nil, ErrUnknownCampaign
	}
	if c.trace == nil {
		return nil, ErrNoTrace
	}
	return c.trace.Events(), nil
}

// Campaign returns a snapshot of one campaign.
func (m *CampaignManager) Campaign(id string) (CampaignView, bool) {
	m.mu.Lock()
	c, ok := m.campaigns[id]
	m.mu.Unlock()
	if !ok {
		return CampaignView{}, false
	}
	return c.view(), true
}

// Campaigns snapshots every campaign in submission order.
func (m *CampaignManager) Campaigns() []CampaignView {
	m.mu.Lock()
	cs := make([]*managedCampaign, len(m.order))
	for i, id := range m.order {
		cs[i] = m.campaigns[id]
	}
	m.mu.Unlock()
	views := make([]CampaignView, len(cs))
	for i, c := range cs {
		views[i] = c.view()
	}
	return views
}

// Cancel stops a compiling or running campaign. The journal keeps every
// finished unit; resubmitting the same manifest resumes from it.
func (m *CampaignManager) Cancel(id string) (CampaignView, error) {
	m.mu.Lock()
	c, ok := m.campaigns[id]
	m.mu.Unlock()
	if !ok {
		return CampaignView{}, ErrUnknownCampaign
	}
	c.mu.Lock()
	terminal := c.state == CampaignDone || c.state == CampaignFailed || c.state == CampaignCanceled
	cancel := c.cancel
	c.mu.Unlock()
	if terminal {
		return c.view(), ErrCampaignTerminal
	}
	cancel()
	return c.view(), nil
}

// Shutdown stops admission, cancels running campaigns, and waits for them
// to reach terminal states (or ctx to expire). Journals survive, so every
// interrupted campaign resumes on resubmission.
func (m *CampaignManager) Shutdown(ctx context.Context) error {
	m.drain.Store(true)
	m.cancelAll()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
