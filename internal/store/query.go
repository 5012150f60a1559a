package store

import (
	"fmt"
	"io"
	"sort"

	"sdcgmres/internal/campaign"
	"sdcgmres/internal/expt"
)

// Snapshot is a point-in-time view of the store. It captures the record
// arena at creation; ingests landing afterwards are invisible to every scan
// over it, so a multi-part report (tables + heatmaps + CSVs) computed from
// one snapshot is internally consistent even under live ingest.
type Snapshot struct {
	s *Store
	n int   // arena length at capture
	r []Rec // full-capacity-capped arena slice
}

// Snapshot captures the store's current state for isolated reads.
func (s *Store) Snapshot() *Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return &Snapshot{s: s, n: len(s.recs), r: s.recs[:len(s.recs):len(s.recs)]}
}

// Len returns the record count the snapshot sees.
func (sn *Snapshot) Len() int { return sn.n }

// CampaignInfo summarizes one campaign in a snapshot.
type CampaignInfo struct {
	Name    string `json:"name"`
	Records int    `json:"records"`
	Series  int    `json:"series"`
}

// Campaigns lists the snapshot's campaigns sorted by name.
func (sn *Snapshot) Campaigns() []CampaignInfo {
	sn.s.mu.RLock()
	defer sn.s.mu.RUnlock()
	var out []CampaignInfo
	for name, ci := range sn.s.camps {
		info := CampaignInfo{Name: name}
		for _, positions := range ci.series {
			live := 0
			for _, pos := range positions {
				if pos < sn.n {
					live++
				}
			}
			if live > 0 {
				info.Series++
				info.Records += live
			}
		}
		if info.Records > 0 {
			out = append(out, info)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SeriesKeys lists one campaign's sweep series keys in deterministic
// (problem, model, step, detector) order.
func (sn *Snapshot) SeriesKeys(campaignName string) []campaign.SeriesKey {
	sn.s.mu.RLock()
	defer sn.s.mu.RUnlock()
	ci := sn.s.camps[campaignName]
	if ci == nil {
		return nil
	}
	var keys []campaign.SeriesKey
	for key, positions := range ci.series {
		for _, pos := range positions {
			if pos < sn.n {
				keys = append(keys, key)
				break
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool { return seriesKeyLess(keys[i], keys[j]) })
	return keys
}

func seriesKeyLess(a, b campaign.SeriesKey) bool {
	if a.Problem != b.Problem {
		return a.Problem < b.Problem
	}
	if a.Model != b.Model {
		return a.Model < b.Model
	}
	if a.Step != b.Step {
		return a.Step < b.Step
	}
	return a.Detector < b.Detector
}

// Records returns one campaign's records keyed by unit ID — the exact shape
// campaign.(*Compiled).Aggregate consumes, which is what lets a store-backed
// aggregation reuse the engine's own code path.
func (sn *Snapshot) Records(campaignName string) map[string]campaign.Record {
	sn.s.mu.RLock()
	defer sn.s.mu.RUnlock()
	ci := sn.s.camps[campaignName]
	if ci == nil {
		return nil
	}
	out := make(map[string]campaign.Record, len(ci.units))
	for id, pos := range ci.units {
		if pos < sn.n {
			out[id] = sn.r[pos].Record
		}
	}
	return out
}

// seriesPositions returns one series' arena positions visible to the
// snapshot, sorted by fault site.
func (sn *Snapshot) seriesPositions(campaignName string, key campaign.SeriesKey) []int {
	sn.s.mu.RLock()
	ci := sn.s.camps[campaignName]
	var positions []int
	if ci != nil {
		for _, pos := range ci.series[key] {
			if pos < sn.n {
				positions = append(positions, pos)
			}
		}
	}
	sn.s.mu.RUnlock()
	sort.Slice(positions, func(i, j int) bool {
		return sn.r[positions[i]].Record.Unit.Site < sn.r[positions[j]].Record.Unit.Site
	})
	return positions
}

// SeriesData is one sweep series reconstructed from the store: the
// analysis-side equivalent of campaign.Series, rebuilt from journaled unit
// fields alone (no recalibration — the problem key carries the failure-free
// outer count and inner geometry the statistics need).
type SeriesData struct {
	// Key identifies the curve; Spec is its parsed problem.
	Key  campaign.SeriesKey
	Spec campaign.ProblemSpec
	// Config is the sweep configuration shared by the series' units,
	// decoded from the key by campaign.SeriesKey.SweepConfig, with the
	// stride inferred from the sites present.
	Config expt.SweepConfig
	// Sites is the reconstructed site grid (1, 1+stride, …, ≤ total);
	// Points holds one point per grid site, zero-valued where missing —
	// matching what campaign.Aggregate emits for an interrupted campaign.
	Sites  []int
	Points []expt.SweepPoint
	// Recs are the present records in site order.
	Recs []Rec
	// Missing counts grid sites with no record; Failed counts records
	// journaled as failed or timed-out.
	Missing, Failed int
}

// Complete reports whether every grid site has a record.
func (sd *SeriesData) Complete() bool { return sd.Missing == 0 }

// SeriesData rebuilds one series from the snapshot. It errors when the
// series is absent or its keys do not parse (which would mean a foreign
// record slipped past ingest validation).
func (sn *Snapshot) SeriesData(campaignName string, key campaign.SeriesKey) (*SeriesData, error) {
	positions := sn.seriesPositions(campaignName, key)
	if len(positions) == 0 {
		return nil, fmt.Errorf("store: campaign %q has no series %v", campaignName, key)
	}
	spec, err := campaign.ParseProblemKey(key.Problem)
	if err != nil {
		return nil, fmt.Errorf("store: series %v: %w", key, err)
	}
	cfg, err := key.SweepConfig()
	if err != nil {
		return nil, fmt.Errorf("store: series %v: %w", key, err)
	}

	sd := &SeriesData{Key: key, Spec: spec, Config: cfg}
	bySite := make(map[int]Rec, len(positions))
	for _, pos := range positions {
		rec := sn.r[pos]
		sd.Recs = append(sd.Recs, rec)
		bySite[rec.Record.Unit.Site] = rec
	}
	// Reconstruct the unit compiler's site grid 1, 1+stride, … ≤ total.
	// Sites are 1 + k·stride, so the stride is the gcd of (site−1) over the
	// present records; total comes from the problem key's geometry.
	total := spec.TargetOuter * spec.InnerIters
	stride := 0
	for site := range bySite {
		stride = gcd(stride, site-1)
	}
	if stride <= 0 {
		stride = 1
	}
	sd.Config.Stride = stride
	for site := 1; site <= total; site += stride {
		sd.Sites = append(sd.Sites, site)
		rec, ok := bySite[site]
		if !ok {
			sd.Missing++
			sd.Points = append(sd.Points, expt.SweepPoint{})
			continue
		}
		if rec.Record.Outcome != campaign.OutcomeOK {
			sd.Failed++
		}
		sd.Points = append(sd.Points, rec.Record.Point)
	}
	return sd, nil
}

// WriteSeriesCSV regenerates one series' sweep CSV from the store, routed
// through the exact writer the engine's aggregator uses
// (expt.WriteSweepCSV), with the problem display name and sweep
// configuration rebuilt from the journaled unit keys. For a complete
// series the output is byte-identical to the engine's aggregate CSV.
func (sn *Snapshot) WriteSeriesCSV(w io.Writer, campaignName string, key campaign.SeriesKey) error {
	sd, err := sn.SeriesData(campaignName, key)
	if err != nil {
		return err
	}
	return expt.WriteSweepCSV(w, sd.Spec.DisplayName(), sd.Config, sd.Points)
}

func gcd(a, b int) int {
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Query selects records. Zero-valued fields match everything; string fields
// match exactly against the unit's manifest-spelled keys ("poisson/16/8/6",
// "large", "first", "on/frobenius/restart").
type Query struct {
	Campaign string `json:"campaign,omitempty"`
	Problem  string `json:"problem,omitempty"`
	Model    string `json:"model,omitempty"`
	Step     string `json:"step,omitempty"`
	Detector string `json:"detector,omitempty"`
	Outcome  string `json:"outcome,omitempty"`
	// SiteMin/SiteMax bound the fault site inclusively (0 = unbounded).
	SiteMin int `json:"site_min,omitempty"`
	SiteMax int `json:"site_max,omitempty"`
	// Offset/Limit paginate the matched set (Limit 0 = no cap).
	Offset int `json:"offset,omitempty"`
	Limit  int `json:"limit,omitempty"`
}

// matches reports whether a record passes the query's filters.
func (q Query) matches(r Rec) bool {
	u := r.Record.Unit
	switch {
	case q.Problem != "" && u.Problem != q.Problem,
		q.Model != "" && u.Model != q.Model,
		q.Step != "" && u.Step != q.Step,
		q.Detector != "" && u.Detector != q.Detector,
		q.Outcome != "" && r.Record.Outcome != q.Outcome,
		q.SiteMin > 0 && u.Site < q.SiteMin,
		q.SiteMax > 0 && u.Site > q.SiteMax:
		return false
	}
	return true
}

// QueryResult is a page of matched records plus the unpaginated total.
type QueryResult struct {
	Total   int   `json:"total"`
	Records []Rec `json:"records"`
}

// Query scans the snapshot in deterministic order — campaigns by name,
// series by key, sites ascending — applying the filters via the index, and
// returns the requested page.
func (sn *Snapshot) Query(q Query) QueryResult {
	var names []string
	if q.Campaign != "" {
		names = []string{q.Campaign}
	} else {
		for _, info := range sn.Campaigns() {
			names = append(names, info.Name)
		}
	}
	res := QueryResult{Records: []Rec{}}
	for _, name := range names {
		for _, key := range sn.SeriesKeys(name) {
			// Index-level pruning: skip whole series the filters exclude.
			if (q.Problem != "" && key.Problem != q.Problem) ||
				(q.Model != "" && key.Model != q.Model) ||
				(q.Step != "" && key.Step != q.Step) ||
				(q.Detector != "" && key.Detector != q.Detector) {
				continue
			}
			for _, pos := range sn.seriesPositions(name, key) {
				rec := sn.r[pos]
				if !q.matches(rec) {
					continue
				}
				if res.Total >= q.Offset && (q.Limit <= 0 || len(res.Records) < q.Limit) {
					res.Records = append(res.Records, rec)
				}
				res.Total++
			}
		}
	}
	return res
}
