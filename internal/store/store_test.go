package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"sdcgmres/internal/campaign"
	"sdcgmres/internal/expt"
)

// testCompiled calibrates one small campaign shared by the package's tests
// and benchmarks: 1 problem × 2 detectors × 1 step × 2 models × 10 sites =
// 40 units.
var (
	compileOnce sync.Once
	compiled    *campaign.Compiled
	compileErr  error
)

func testCompiled(tb testing.TB) *campaign.Compiled {
	tb.Helper()
	compileOnce.Do(func() {
		compiled, compileErr = campaign.Compile(campaign.Manifest{
			Name:     "store-test",
			Problems: []campaign.ProblemSpec{{Kind: "poisson", N: 8, InnerIters: 6, TargetOuter: 5}},
			Models:   []string{"slight", "large"},
			Steps:    []string{"first"},
			Detectors: []campaign.DetectorSpec{
				{},
				{Enabled: true, Bound: "frobenius", Response: "restart"},
			},
			Stride: 3,
		})
	})
	if compileErr != nil {
		tb.Fatalf("compile: %v", compileErr)
	}
	return compiled
}

// fabricateRecords builds deterministic records for every compiled unit —
// the store's inputs are journal records, so tests need not run real
// experiments to exercise ingest, query and CSV identity.
func fabricateRecords(c *campaign.Compiled) map[string]campaign.Record {
	recs := make(map[string]campaign.Record, len(c.Units))
	for i, u := range c.Units {
		recs[u.ID] = campaign.Record{
			ID:   u.ID,
			Unit: u,
			Point: expt.SweepPoint{
				AggregateInner: u.Site,
				OuterIters:     5 + (u.Site+i)%4,
				Converged:      u.Site%5 != 0,
				Detections:     u.Site % 3,
				FaultFired:     u.Site%4 != 0,
				WrongAnswer:    u.Site%7 == 0,
			},
			Outcome:   campaign.OutcomeOK,
			ElapsedMS: float64(1 + u.Site%9),
		}
	}
	return recs
}

func openTest(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestStoreRoundTrip(t *testing.T) {
	c := testCompiled(t)
	recs := fabricateRecords(c)
	dir := t.TempDir()

	s := openTest(t, dir, Options{})
	added, err := s.IngestAll("store-test", recs)
	if err != nil {
		t.Fatal(err)
	}
	if added != len(recs) {
		t.Fatalf("added %d, want %d", added, len(recs))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the index rebuilds from segments and every record survives.
	s2 := openTest(t, dir, Options{})
	sn := s2.Snapshot()
	got := sn.Records("store-test")
	if len(got) != len(recs) {
		t.Fatalf("reopened with %d records, want %d", len(got), len(recs))
	}
	for id, want := range recs {
		if got[id] != want {
			t.Fatalf("record %s changed across reopen:\n got %+v\nwant %+v", id, got[id], want)
		}
	}
	st := s2.Stats()
	if st.Records != len(recs) || st.Campaigns != 1 || st.GarbageFrames != 0 {
		t.Fatalf("stats after clean reopen: %+v", st)
	}
}

func TestStoreIdempotentReingest(t *testing.T) {
	c := testCompiled(t)
	recs := fabricateRecords(c)
	dir := t.TempDir()

	s := openTest(t, dir, Options{})
	if _, err := s.IngestAll("store-test", recs); err != nil {
		t.Fatal(err)
	}
	snapBefore := s.Snapshot()
	csvBefore := allSeriesCSVs(t, snapBefore, "store-test")
	sizeBefore := segmentBytes(t, dir)

	// Replay the whole journal again — the kill-and-resume double ingest.
	added, err := s.IngestAll("store-test", recs)
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 {
		t.Fatalf("re-ingest added %d records, want 0", added)
	}
	st := s.Stats()
	if st.DupDropped != int64(len(recs)) {
		t.Fatalf("dup counter %d, want %d", st.DupDropped, len(recs))
	}
	if st.Records != len(recs) {
		t.Fatalf("record count %d after re-ingest, want %d", st.Records, len(recs))
	}
	// Duplicates are dropped before the disk write: no garbage accrues.
	if got := segmentBytes(t, dir); got != sizeBefore {
		t.Fatalf("segment bytes grew %d -> %d on duplicate ingest", sizeBefore, got)
	}
	// And the statistics inputs are unchanged: regenerated CSVs identical.
	csvAfter := allSeriesCSVs(t, s.Snapshot(), "store-test")
	if len(csvAfter) != len(csvBefore) {
		t.Fatalf("series count changed: %d -> %d", len(csvBefore), len(csvAfter))
	}
	for name, want := range csvBefore {
		if !bytes.Equal(csvAfter[name], want) {
			t.Fatalf("series %s CSV changed after duplicate ingest", name)
		}
	}
}

// allSeriesCSVs regenerates every series CSV of a campaign, keyed by file
// name.
func allSeriesCSVs(t *testing.T, sn *Snapshot, name string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, key := range sn.SeriesKeys(name) {
		var buf bytes.Buffer
		if err := sn.WriteSeriesCSV(&buf, name, key); err != nil {
			t.Fatalf("write series csv: %v", err)
		}
		out[key.FileName(name)] = buf.Bytes()
	}
	return out
}

func segmentBytes(t *testing.T, dir string) int64 {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, name := range names {
		fi, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	return total
}

// TestStoreCSVByteIdentity is the warehouse's core contract: CSVs
// regenerated from the store must be byte-identical to the engine
// aggregator's output over the same records.
func TestStoreCSVByteIdentity(t *testing.T) {
	c := testCompiled(t)
	recs := fabricateRecords(c)

	s := openTest(t, t.TempDir(), Options{})
	if _, err := s.IngestAll("store-test", recs); err != nil {
		t.Fatal(err)
	}
	series, err := c.Aggregate(recs)
	if err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()
	if got, want := len(sn.SeriesKeys("store-test")), len(series); got != want {
		t.Fatalf("store sees %d series, aggregator %d", got, want)
	}
	for _, sr := range series {
		var want, got bytes.Buffer
		if err := sr.WriteCSV(&want); err != nil {
			t.Fatal(err)
		}
		if err := sn.WriteSeriesCSV(&got, "store-test", sr.Key); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("series %v: store CSV differs from aggregator CSV\nstore:\n%s\naggregator:\n%s",
				sr.Key, got.String(), want.String())
		}
	}
}

func TestStoreRejectsInvalidRecords(t *testing.T) {
	c := testCompiled(t)
	recs := fabricateRecords(c)
	s := openTest(t, t.TempDir(), Options{})

	var any campaign.Record
	for _, r := range recs {
		any = r
		break
	}

	cases := []campaign.Record{}
	tampered := any
	tampered.Unit.Site++ // content no longer hashes to the claimed ID
	cases = append(cases, tampered)
	badOutcome := any
	badOutcome.Outcome = "maybe"
	cases = append(cases, badOutcome)
	badPoint := any
	badPoint.Point.AggregateInner = any.Unit.Site + 1
	cases = append(cases, badPoint)
	blank := any
	blank.ID, blank.Unit.ID = "", ""
	cases = append(cases, blank)

	for i, rec := range cases {
		if _, err := s.Ingest("store-test", rec); !errors.Is(err, ErrInvalidRecord) {
			t.Fatalf("case %d: got %v, want ErrInvalidRecord", i, err)
		}
	}
	if _, err := s.Ingest("", any); !errors.Is(err, ErrInvalidRecord) {
		t.Fatalf("blank campaign: got %v, want ErrInvalidRecord", err)
	}
	if st := s.Stats(); st.InvalidDropped != int64(len(cases)+1) || st.Records != 0 {
		t.Fatalf("stats after invalid ingests: %+v", st)
	}
}

func TestStoreTornSegmentTailTruncated(t *testing.T) {
	c := testCompiled(t)
	recs := fabricateRecords(c)
	dir := t.TempDir()

	s := openTest(t, dir, Options{})
	if _, err := s.IngestAll("store-test", recs); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail of the newest segment mid-frame.
	names, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	last := names[len(names)-1]
	raw, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, Options{})
	got := s2.Snapshot().Records("store-test")
	if len(got) != len(recs)-1 {
		t.Fatalf("got %d records after torn tail, want %d", len(got), len(recs)-1)
	}
	// The torn record re-ingests cleanly (the at-least-once path).
	added, err := s2.IngestAll("store-test", recs)
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 {
		t.Fatalf("re-ingest after torn tail added %d, want 1", added)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := openTest(t, dir, Options{})
	if got := s3.Snapshot().Records("store-test"); len(got) != len(recs) {
		t.Fatalf("got %d records after repair, want %d", len(got), len(recs))
	}
}

// TestStoreBitRotMidSegmentRejected: a flipped bit anywhere but the newest
// segment's tail means acknowledged data is gone — the open must fail.
func TestStoreBitRotMidSegmentRejected(t *testing.T) {
	c := testCompiled(t)
	recs := fabricateRecords(c)
	dir := t.TempDir()

	s := openTest(t, dir, Options{SegmentBytes: 1024})
	if _, err := s.IngestAll("store-test", recs); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if len(names) < 2 {
		t.Fatalf("want multiple segments, got %d", len(names))
	}
	raw, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(names[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{SegmentBytes: 1024}); err == nil {
		t.Fatal("bit rot in a sealed segment must fail the open")
	}
}

// TestStoreCompaction: duplicate frames on disk (two stores' segments
// merged into one directory — the rsync-a-fleet's-results use case) are
// deduplicated in memory at open, counted as garbage, and removed from
// disk by compaction without disturbing the live record set.
func TestStoreCompaction(t *testing.T) {
	c := testCompiled(t)
	recs := fabricateRecords(c)
	dir := t.TempDir()

	s := openTest(t, dir, Options{NoBackgroundCompact: true})
	if _, err := s.IngestAll("store-test", recs); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Duplicate every frame by appending the segment to itself.
	names, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	raw, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(names[0], append(raw, raw...), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, Options{NoBackgroundCompact: true})
	st := s2.Stats()
	if st.Records != len(recs) {
		t.Fatalf("duplicated segments: %d live records, want %d", st.Records, len(recs))
	}
	if st.GarbageFrames != int64(len(recs)) {
		t.Fatalf("garbage frames %d, want %d", st.GarbageFrames, len(recs))
	}
	sizeDup := segmentBytes(t, dir)

	sn := s2.Snapshot() // snapshots survive compaction untouched
	if err := s2.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	st = s2.Stats()
	if st.GarbageFrames != 0 || st.Compactions != 1 || st.Records != len(recs) {
		t.Fatalf("stats after compaction: %+v", st)
	}
	if got := segmentBytes(t, dir); got >= sizeDup {
		t.Fatalf("compaction did not shrink segments: %d -> %d", sizeDup, got)
	}
	if got := sn.Records("store-test"); len(got) != len(recs) {
		t.Fatalf("snapshot lost records during compaction: %d", len(got))
	}

	// The store keeps working after compaction: append, close, reopen.
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := openTest(t, dir, Options{NoBackgroundCompact: true})
	if got := s3.Snapshot().Records("store-test"); len(got) != len(recs) {
		t.Fatalf("reopen after compaction: %d records, want %d", len(got), len(recs))
	}
	if st := s3.Stats(); st.GarbageFrames != 0 {
		t.Fatalf("garbage persisted past compaction: %+v", st)
	}
}

func TestStoreSegmentRoll(t *testing.T) {
	c := testCompiled(t)
	recs := fabricateRecords(c)
	dir := t.TempDir()
	s := openTest(t, dir, Options{SegmentBytes: 700, NoBackgroundCompact: true})
	if _, err := s.IngestAll("store-test", recs); err != nil {
		t.Fatal(err)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if len(names) < 3 {
		t.Fatalf("want the log split across segments, got %d files", len(names))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, Options{SegmentBytes: 700, NoBackgroundCompact: true})
	if got := s2.Snapshot().Records("store-test"); len(got) != len(recs) {
		t.Fatalf("multi-segment reopen: %d records, want %d", len(got), len(recs))
	}
}

func TestStoreQuery(t *testing.T) {
	c := testCompiled(t)
	recs := fabricateRecords(c)
	s := openTest(t, t.TempDir(), Options{})
	if _, err := s.IngestAll("store-test", recs); err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()

	all := sn.Query(Query{Campaign: "store-test"})
	if all.Total != len(recs) || len(all.Records) != len(recs) {
		t.Fatalf("unfiltered query: total %d, page %d, want %d", all.Total, len(all.Records), len(recs))
	}
	// Deterministic order: series by key, sites ascending within a series.
	for i := 1; i < len(all.Records); i++ {
		a, b := all.Records[i-1].Record.Unit, all.Records[i].Record.Unit
		if a.SeriesKey() == b.SeriesKey() && a.Site > b.Site {
			t.Fatalf("sites out of order at %d: %d then %d", i, a.Site, b.Site)
		}
	}

	filtered := sn.Query(Query{Campaign: "store-test", Model: "large", Detector: "off"})
	want := 0
	for _, r := range recs {
		if r.Unit.Model == "large" && r.Unit.Detector == "off" {
			want++
		}
	}
	if filtered.Total != want {
		t.Fatalf("filtered total %d, want %d", filtered.Total, want)
	}
	for _, r := range filtered.Records {
		if r.Record.Unit.Model != "large" || r.Record.Unit.Detector != "off" {
			t.Fatalf("filter leak: %+v", r.Record.Unit)
		}
	}

	sites := sn.Query(Query{Campaign: "store-test", SiteMin: 4, SiteMax: 10})
	for _, r := range sites.Records {
		if r.Record.Unit.Site < 4 || r.Record.Unit.Site > 10 {
			t.Fatalf("site filter leak: site %d", r.Record.Unit.Site)
		}
	}

	// Pagination tiles the full result set without overlap.
	var paged []Rec
	for off := 0; ; off += 7 {
		page := sn.Query(Query{Campaign: "store-test", Offset: off, Limit: 7})
		paged = append(paged, page.Records...)
		if len(page.Records) < 7 {
			break
		}
	}
	if len(paged) != len(recs) {
		t.Fatalf("pagination covered %d records, want %d", len(paged), len(recs))
	}
	for i, r := range paged {
		if r != all.Records[i] {
			t.Fatalf("pagination order diverges at %d", i)
		}
	}

	if miss := sn.Query(Query{Campaign: "no-such-campaign"}); miss.Total != 0 {
		t.Fatalf("unknown campaign matched %d records", miss.Total)
	}
}

// TestStoreSnapshotIsolation: a snapshot taken before an ingest never sees
// it.
func TestStoreSnapshotIsolation(t *testing.T) {
	c := testCompiled(t)
	recs := fabricateRecords(c)
	s := openTest(t, t.TempDir(), Options{})

	ids := make([]string, 0, len(recs))
	for id := range recs {
		ids = append(ids, id)
	}
	half := len(ids) / 2
	for _, id := range ids[:half] {
		if _, err := s.Ingest("store-test", recs[id]); err != nil {
			t.Fatal(err)
		}
	}
	sn := s.Snapshot()
	for _, id := range ids[half:] {
		if _, err := s.Ingest("store-test", recs[id]); err != nil {
			t.Fatal(err)
		}
	}
	if got := sn.Len(); got != half {
		t.Fatalf("snapshot sees %d records, want %d", got, half)
	}
	if got := sn.Records("store-test"); len(got) != half {
		t.Fatalf("snapshot campaign records %d, want %d", len(got), half)
	}
	if got := s.Snapshot().Records("store-test"); len(got) != len(recs) {
		t.Fatalf("fresh snapshot records %d, want %d", len(got), len(recs))
	}
}
