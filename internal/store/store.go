// Package store is the results warehouse: an embedded, pure-Go database of
// campaign unit results. On disk it is an append-only log of CRC32C-framed
// JSON records (internal/frame's binary format) split into fixed-size
// segments; in memory it is an append-only record arena plus an index keyed
// by (campaign, problem, model, step, detector) that is rebuilt on open and
// maintained on every append.
//
// Identity is content-derived end to end: a stored record is keyed by its
// campaign name plus the unit's sha256-derived ID, so ingest is idempotent —
// replaying a journal after a kill-and-resume, or absorbing the duplicate
// acknowledgments of at-least-once distributed execution, changes nothing.
// First write wins, exactly matching the journal's and the coordinator's
// semantics, which is what keeps statistics computed from a store equal to
// statistics computed from the journal it mirrors.
//
// Reads are snapshot-isolated: a Snapshot captures the record arena at a
// point in time and every scan over it sees exactly that state, however many
// ingests land afterwards. Segment compaction runs in the background when
// enough duplicate frames have accumulated (the footprint of re-ingested
// journals across restarts) and rewrites the log without blocking snapshots.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"sdcgmres/internal/campaign"
	"sdcgmres/internal/frame"
	"sdcgmres/internal/obs"
)

// Rec is one warehoused result: a finished campaign unit tagged with the
// campaign it belongs to.
type Rec struct {
	Campaign string          `json:"campaign"`
	Record   campaign.Record `json:"record"`
}

// Key is the record's content-derived identity: campaign name plus the
// unit's sha256-derived ID. Two ingests of the same unit of the same
// campaign collide here, which is the idempotency guarantee.
func (r Rec) Key() string { return r.Campaign + "\x00" + r.Record.ID }

// Store API errors.
var (
	// ErrInvalidRecord: the record failed the trust-boundary checks (blank
	// or mismatched unit ID, unknown outcome, site/point mismatch).
	ErrInvalidRecord = errors.New("store: invalid record")
	// ErrClosed: the store was closed.
	ErrClosed = errors.New("store: closed")
)

// Options parameterizes a store.
type Options struct {
	// SegmentBytes rolls the active segment when it exceeds this size
	// (default 4 MiB).
	SegmentBytes int64
	// CompactMinGarbage is the duplicate-frame fraction that triggers
	// background compaction after open or a segment roll (default 0.25).
	CompactMinGarbage float64
	// NoBackgroundCompact disables automatic compaction (tests drive
	// Compact explicitly; the gauges still report the garbage).
	NoBackgroundCompact bool
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.CompactMinGarbage <= 0 {
		o.CompactMinGarbage = 0.25
	}
	return o
}

// campIndex is one campaign's in-memory index.
type campIndex struct {
	// units maps unit IDs to arena positions.
	units map[string]int
	// series maps series keys to arena positions in ingest order.
	series map[campaign.SeriesKey][]int
}

// Store is the open warehouse. All methods are safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu     sync.RWMutex
	recs   []Rec // append-only arena; never mutated in place
	byKey  map[string]int
	camps  map[string]*campIndex
	closed bool

	active     *os.File
	activeSeq  int
	activeSize int64
	sealed     []string // sealed segment paths, oldest first

	frames      int64 // live frames across all segments
	garbage     int64 // duplicate/dropped frames still on disk
	dups        int64 // duplicate ingests dropped since open
	invalid     int64 // invalid ingests rejected since open
	compactions int64

	compactMu sync.Mutex // serializes compaction passes
	wg        sync.WaitGroup

	reg *obs.Registry
}

// segName renders the dir-relative segment file name for a sequence number.
func segName(seq int) string { return fmt.Sprintf("seg-%06d.seg", seq) }

// Open opens (creating if needed) the store rooted at dir, replaying every
// segment into the in-memory arena and index. A torn or bit-rotted tail in
// the newest segment — the footprint of a crash mid-append — is truncated
// away; corruption anywhere else fails the open, because it means data that
// was once acknowledged is gone.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: mkdir: %w", err)
	}
	s := &Store{
		dir:   dir,
		opts:  opts,
		byKey: make(map[string]int),
		camps: make(map[string]*campIndex),
	}
	s.reg = s.metrics()
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil {
		return nil, fmt.Errorf("store: list segments: %w", err)
	}
	sort.Strings(names)
	for i, name := range names {
		last := i == len(names)-1
		if err := s.replaySegment(name, last); err != nil {
			return nil, err
		}
	}
	// Continue the newest segment if it has room; otherwise start a new one.
	seq := 1
	if len(names) > 0 {
		lastName := names[len(names)-1]
		fmt.Sscanf(filepath.Base(lastName), "seg-%06d.seg", &seq)
		fi, err := os.Stat(lastName)
		if err != nil {
			return nil, fmt.Errorf("store: stat segment: %w", err)
		}
		if fi.Size() < opts.SegmentBytes {
			f, err := os.OpenFile(lastName, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, fmt.Errorf("store: open segment: %w", err)
			}
			s.active, s.activeSeq, s.activeSize = f, seq, fi.Size()
			s.sealed = names[:len(names)-1]
		} else {
			s.sealed = names
			seq++
		}
	}
	if s.active == nil {
		if err := s.openActive(seq); err != nil {
			return nil, err
		}
	}
	if !opts.NoBackgroundCompact && s.shouldCompactLocked() {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.Compact()
		}()
	}
	return s, nil
}

// openActive creates a fresh active segment with the given sequence number.
func (s *Store) openActive(seq int) error {
	path := filepath.Join(s.dir, segName(seq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: create segment: %w", err)
	}
	s.active, s.activeSeq, s.activeSize = f, seq, 0
	return nil
}

// replaySegment reads one segment into the arena. Only the final segment
// may carry a damaged tail; it is truncated to the last verified frame.
func (s *Store) replaySegment(path string, last bool) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: open segment: %w", err)
	}
	fr := frame.NewReader(f)
	for {
		payload, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			f.Close()
			if !last || (!errors.Is(err, frame.ErrTorn) && !errors.Is(err, frame.ErrTooLarge)) {
				return fmt.Errorf("store: segment %s corrupt: %w", filepath.Base(path), err)
			}
			// Damaged tail of the newest segment: truncate to the last
			// verified frame and carry on.
			if terr := os.Truncate(path, fr.ValidBytes()); terr != nil {
				return fmt.Errorf("store: truncate segment tail: %w", terr)
			}
			return nil
		}
		var rec Rec
		if err := json.Unmarshal(payload, &rec); err != nil {
			// The frame verified its checksum, so this is a writer bug,
			// not bit rot — never ignore it.
			f.Close()
			return fmt.Errorf("store: segment %s: bad record: %w", filepath.Base(path), err)
		}
		s.frames++
		if !s.addLocked(rec) {
			s.garbage++ // duplicate frame persisted by an earlier process
		}
	}
	return f.Close()
}

// addLocked appends rec to the arena and index if its key is new.
// Caller holds mu (or has exclusive access during Open).
func (s *Store) addLocked(rec Rec) bool {
	key := rec.Key()
	if _, dup := s.byKey[key]; dup {
		return false
	}
	pos := len(s.recs)
	s.recs = append(s.recs, rec)
	s.byKey[key] = pos
	ci := s.camps[rec.Campaign]
	if ci == nil {
		ci = &campIndex{units: make(map[string]int), series: make(map[campaign.SeriesKey][]int)}
		s.camps[rec.Campaign] = ci
	}
	ci.units[rec.Record.ID] = pos
	sk := rec.Record.Unit.SeriesKey()
	ci.series[sk] = append(ci.series[sk], pos)
	return true
}

// validate applies the coordinator's trust-boundary checks: content-hash
// integrity, a known outcome, and the point recorded at the unit's own site.
func validate(campaignName string, rec campaign.Record) error {
	if campaignName == "" {
		return fmt.Errorf("%w: blank campaign", ErrInvalidRecord)
	}
	if rec.ID == "" || rec.Unit.ID != rec.ID || !rec.Unit.VerifyID() {
		return fmt.Errorf("%w: unit ID fails content-hash verification", ErrInvalidRecord)
	}
	switch rec.Outcome {
	case campaign.OutcomeOK, campaign.OutcomeFailed, campaign.OutcomeTimedOut:
	default:
		return fmt.Errorf("%w: unknown outcome %q", ErrInvalidRecord, rec.Outcome)
	}
	if rec.Point.AggregateInner != rec.Unit.Site {
		return fmt.Errorf("%w: point site %d does not match unit site %d",
			ErrInvalidRecord, rec.Point.AggregateInner, rec.Unit.Site)
	}
	return nil
}

// Ingest stores one finished unit under the given campaign name. It returns
// added == false (with no error) when the record is a duplicate — the
// at-least-once ingest path — and ErrInvalidRecord for records failing the
// trust-boundary checks.
func (s *Store) Ingest(campaignName string, rec campaign.Record) (added bool, err error) {
	if err := validate(campaignName, rec); err != nil {
		s.mu.Lock()
		s.invalid++
		s.mu.Unlock()
		return false, err
	}
	r := Rec{Campaign: campaignName, Record: rec}
	payload, err := json.Marshal(r)
	if err != nil {
		return false, fmt.Errorf("store: marshal record: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, ErrClosed
	}
	if _, dup := s.byKey[r.Key()]; dup {
		s.dups++
		return false, nil
	}
	if _, err := frame.WriteRecord(s.active, payload); err != nil {
		return false, fmt.Errorf("store: append segment: %w", err)
	}
	s.activeSize += frame.EncodedLen(payload)
	s.frames++
	s.addLocked(r)
	if s.activeSize >= s.opts.SegmentBytes {
		if err := s.rollLocked(); err != nil {
			return true, err
		}
		if !s.opts.NoBackgroundCompact && s.shouldCompactLocked() {
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.Compact()
			}()
		}
	}
	return true, nil
}

// IngestAll ingests a journal's record set under one campaign in
// deterministic (unit-ID-sorted) order — the resume path that backfills a
// store from records the journal already held. It returns how many records
// were new.
func (s *Store) IngestAll(campaignName string, recs map[string]campaign.Record) (added int, err error) {
	ids := make([]string, 0, len(recs))
	for id := range recs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		ok, err := s.Ingest(campaignName, recs[id])
		if err != nil {
			return added, err
		}
		if ok {
			added++
		}
	}
	return added, nil
}

// rollLocked seals the active segment and opens the next one.
func (s *Store) rollLocked() error {
	if err := s.active.Sync(); err != nil {
		return fmt.Errorf("store: sync segment: %w", err)
	}
	if err := s.active.Close(); err != nil {
		return fmt.Errorf("store: close segment: %w", err)
	}
	s.sealed = append(s.sealed, filepath.Join(s.dir, segName(s.activeSeq)))
	return s.openActive(s.activeSeq + 1)
}

// shouldCompactLocked reports whether the on-disk garbage fraction warrants
// a compaction pass.
func (s *Store) shouldCompactLocked() bool {
	return s.garbage > 0 && s.frames > 0 &&
		float64(s.garbage)/float64(s.frames) >= s.opts.CompactMinGarbage
}

// Compact rewrites the segment log from the live arena, dropping duplicate
// frames. Safe to call concurrently with ingests and snapshots; passes are
// serialized. The live record set and every open Snapshot are unaffected —
// compaction touches only the files.
func (s *Store) Compact() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	old := append(append([]string(nil), s.sealed...), filepath.Join(s.dir, segName(s.activeSeq)))
	if err := s.active.Close(); err != nil {
		return fmt.Errorf("store: close active: %w", err)
	}

	// Rewrite the arena into a fresh chain numbered after the old one, so
	// a crash mid-compaction leaves a readable (if duplicated) log: old
	// segments still replay first, new ones dedup behind them.
	seq := s.activeSeq + 1
	var newFiles []string
	var f *os.File
	var size int64
	open := func() error {
		path := filepath.Join(s.dir, segName(seq))
		var err error
		f, err = os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return fmt.Errorf("store: create compacted segment: %w", err)
		}
		newFiles = append(newFiles, path)
		size = 0
		return nil
	}
	if err := open(); err != nil {
		return err
	}
	frames := int64(0)
	for _, rec := range s.recs {
		payload, err := json.Marshal(rec)
		if err != nil {
			f.Close()
			return fmt.Errorf("store: marshal record: %w", err)
		}
		if size > 0 && size+frame.EncodedLen(payload) > s.opts.SegmentBytes {
			if err := f.Sync(); err != nil {
				return fmt.Errorf("store: sync compacted segment: %w", err)
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("store: close compacted segment: %w", err)
			}
			seq++
			if err := open(); err != nil {
				return err
			}
		}
		if _, err := frame.WriteRecord(f, payload); err != nil {
			f.Close()
			return fmt.Errorf("store: write compacted segment: %w", err)
		}
		size += frame.EncodedLen(payload)
		frames++
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: sync compacted segment: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: close compacted segment: %w", err)
	}
	// The new chain is durable; the old one can go.
	for _, path := range old {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("store: remove old segment: %w", err)
		}
	}
	s.sealed = newFiles[:len(newFiles)-1]
	s.activeSeq = seq
	s.activeSize = size
	s.frames = frames
	s.garbage = 0
	s.compactions++
	af, err := os.OpenFile(newFiles[len(newFiles)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: reopen active: %w", err)
	}
	s.active = af
	return nil
}

// Sync flushes the active segment to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.active.Sync()
}

// Close syncs and closes the store after any in-flight background
// compaction finishes. Further calls error with ErrClosed.
func (s *Store) Close() error {
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.active.Sync(); err != nil {
		s.active.Close()
		return err
	}
	return s.active.Close()
}

// Stats is a point-in-time gauge snapshot.
type Stats struct {
	// Records is the live (deduplicated) record count.
	Records int `json:"records"`
	// Campaigns is the distinct campaign count.
	Campaigns int `json:"campaigns"`
	// Segments is the on-disk segment file count (sealed + active).
	Segments int `json:"segments"`
	// Bytes is the active segment's size plus all sealed segments' sizes as
	// of their sealing (approximate during compaction).
	Bytes int64 `json:"bytes"`
	// Frames counts on-disk frames, GarbageFrames the duplicates among
	// them awaiting compaction.
	Frames        int64 `json:"frames"`
	GarbageFrames int64 `json:"garbage_frames"`
	// DupDropped / InvalidDropped count ingests rejected since open.
	DupDropped     int64 `json:"dup_dropped"`
	InvalidDropped int64 `json:"invalid_dropped"`
	// Compactions counts completed compaction passes since open.
	Compactions int64 `json:"compactions"`
}

// Stats snapshots the gauges.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Records:        len(s.recs),
		Campaigns:      len(s.camps),
		Segments:       len(s.sealed) + 1,
		Bytes:          s.activeSize,
		Frames:         s.frames,
		GarbageFrames:  s.garbage,
		DupDropped:     s.dups,
		InvalidDropped: s.invalid,
		Compactions:    s.compactions,
	}
	for _, path := range s.sealed {
		if fi, err := os.Stat(path); err == nil {
			st.Bytes += fi.Size()
		}
	}
	return st
}

// metrics builds the registry of store gauges and counters, read from
// one Stats snapshot per scrape.
func (s *Store) metrics() *obs.Registry {
	r := obs.NewRegistry()
	var st Stats
	r.OnScrape(func() { st = s.Stats() })
	r.GaugeFunc("store_records", "Live (deduplicated) records in the store.", func() float64 { return float64(st.Records) })
	r.GaugeFunc("store_campaigns", "Distinct campaigns in the store.", func() float64 { return float64(st.Campaigns) })
	r.GaugeFunc("store_segments", "Segment files on disk (sealed + active).", func() float64 { return float64(st.Segments) })
	r.GaugeFunc("store_bytes", "Approximate segment bytes on disk.", func() float64 { return float64(st.Bytes) })
	r.GaugeFunc("store_garbage_frames", "Duplicate frames awaiting compaction.", func() float64 { return float64(st.GarbageFrames) })
	r.CounterFunc("store_ingest_duplicates_total", "Duplicate ingests dropped since open.", func() float64 { return float64(st.DupDropped) })
	r.CounterFunc("store_ingest_invalid_total", "Invalid ingests rejected since open.", func() float64 { return float64(st.InvalidDropped) })
	r.CounterFunc("store_compactions_total", "Segment compaction passes since open.", func() float64 { return float64(st.Compactions) })
	return r
}

// WritePrometheus renders the store gauges in the text exposition format,
// for mounting into a service /metrics endpoint.
func (s *Store) WritePrometheus(w io.Writer) { s.reg.WritePrometheus(w) }
