package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"sdcgmres/internal/campaign"
	"sdcgmres/internal/expt"
	"sdcgmres/internal/store"
	"sdcgmres/internal/store/analyze"
)

// reportCompiled calibrates the shared test campaign once per binary:
// poisson 8×8, two models, one step, stride 3 — 20 units across 2 series.
var (
	compileOnce sync.Once
	compiled    *campaign.Compiled
	compileErr  error
)

func reportCompiled(t *testing.T) *campaign.Compiled {
	t.Helper()
	compileOnce.Do(func() {
		compiled, compileErr = campaign.Compile(campaign.Manifest{
			Name:     "report-test",
			Problems: []campaign.ProblemSpec{{Kind: "poisson", N: 8, InnerIters: 6, TargetOuter: 5}},
			Models:   []string{"slight", "large"},
			Steps:    []string{"first"},
			Stride:   3,
		})
	})
	if compileErr != nil {
		t.Fatalf("compile: %v", compileErr)
	}
	return compiled
}

func fabricate(c *campaign.Compiled, extra int) map[string]campaign.Record {
	recs := make(map[string]campaign.Record, len(c.Units))
	for _, u := range c.Units {
		recs[u.ID] = campaign.Record{
			ID:   u.ID,
			Unit: u,
			Point: expt.SweepPoint{
				AggregateInner: u.Site,
				OuterIters:     5 + extra + u.Site%3,
				Converged:      true,
				Detections:     u.Site % 2,
				FaultFired:     true,
			},
			Outcome:   campaign.OutcomeOK,
			ElapsedMS: 1,
		}
	}
	return recs
}

// seedStore fills a fresh warehouse with the fabricated campaign and a
// +1-outer-slower copy for diff runs, returning the store directory.
func seedStore(t *testing.T) string {
	t.Helper()
	c := reportCompiled(t)
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.IngestAll("report-test", fabricate(c, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.IngestAll("report-slow", fabricate(c, 1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func runReport(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	return out.String()
}

func TestReportListsCampaigns(t *testing.T) {
	dir := seedStore(t)
	out := runReport(t, "-store-dir", dir)
	if !strings.Contains(out, "report-test") || !strings.Contains(out, "report-slow") {
		t.Fatalf("listing missing campaigns:\n%s", out)
	}
}

func TestReportRendersStats(t *testing.T) {
	dir := seedStore(t)
	out := runReport(t, "-store-dir", dir, "-campaign", "report-test")
	for _, want := range []string{
		"campaign report-test: 20 records, 2 series",
		"poisson-8x8",
		"detector confusion",
		`fault class "large"`,
		`fault class "slight"`,
		"impact map",
		"first |",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report lacks %q:\n%s", want, out)
		}
	}
}

func TestReportDiff(t *testing.T) {
	dir := seedStore(t)
	out := runReport(t, "-store-dir", dir, "-campaign", "report-slow", "-diff", "report-test")
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "2 significant regression(s)") {
		t.Fatalf("slow-vs-base diff:\n%s", out)
	}
	out = runReport(t, "-store-dir", dir, "-campaign", "report-test", "-diff", "report-slow")
	if !strings.Contains(out, "0 significant regression(s)") {
		t.Fatalf("base-vs-slow diff:\n%s", out)
	}
}

func TestReportJSON(t *testing.T) {
	dir := seedStore(t)
	out := runReport(t, "-store-dir", dir, "-campaign", "report-test", "-diff", "report-slow", "-json")
	var payload struct {
		Stats *analyze.CampaignStats `json:"stats"`
		Diff  *analyze.Diff          `json:"diff"`
	}
	if err := json.Unmarshal([]byte(out), &payload); err != nil {
		t.Fatalf("json output invalid: %v\n%s", err, out)
	}
	if payload.Stats == nil || payload.Stats.Records != 20 || payload.Diff == nil {
		t.Fatalf("json payload: %+v", payload)
	}
}

// TestReportCSVByteIdentity is the warehouse proof at the CLI level: the
// CSVs sdcreport regenerates from the store are byte-identical to what the
// engine's own aggregator writes from the same records, under the same
// filenames the solved coordinator uses, one file per series — also when
// two problems share a model, step and detector.
func TestReportCSVByteIdentity(t *testing.T) {
	two, err := campaign.Compile(campaign.Manifest{
		Name: "report-two",
		Problems: []campaign.ProblemSpec{
			{Kind: "poisson", N: 8, InnerIters: 6, TargetOuter: 5},
			{Kind: "poisson", N: 10, InnerIters: 6, TargetOuter: 5},
		},
		Models: []string{"slight", "large"},
		Steps:  []string{"first"},
		Stride: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*campaign.Compiled{reportCompiled(t), two} {
		name := c.Manifest.Name
		recs := fabricate(c, 0)
		dir := t.TempDir()
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.IngestAll(name, recs); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		csvDir := t.TempDir()
		out := runReport(t, "-store-dir", dir, "-campaign", name, "-csv-out", csvDir)
		if !strings.Contains(out, "wrote ") {
			t.Fatalf("%s: csv-out wrote nothing:\n%s", name, out)
		}

		series, err := c.Aggregate(recs)
		if err != nil {
			t.Fatal(err)
		}
		files, err := os.ReadDir(csvDir)
		if err != nil {
			t.Fatal(err)
		}
		if len(series) == 0 || len(files) != len(series) {
			t.Fatalf("%s: %d CSV files for %d series", name, len(files), len(series))
		}
		for _, sr := range series {
			var engine bytes.Buffer
			if err := sr.WriteCSV(&engine); err != nil {
				t.Fatal(err)
			}
			file := sr.Key.FileName(name)
			got, err := os.ReadFile(filepath.Join(csvDir, file))
			if err != nil {
				t.Fatalf("regenerated CSV missing: %v", err)
			}
			if !bytes.Equal(got, engine.Bytes()) {
				t.Fatalf("%s differs from engine aggregate output:\nstore:\n%s\nengine:\n%s",
					file, got, engine.Bytes())
			}
		}
	}
}

func TestReportErrors(t *testing.T) {
	dir := seedStore(t)
	if err := run([]string{"-campaign", "x"}, &bytes.Buffer{}); err == nil {
		t.Fatal("missing -store-dir must fail")
	}
	if err := run([]string{"-store-dir", dir, "-campaign", "no-such"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown campaign must fail")
	}
	if err := run([]string{"-store-dir", dir, "-campaign", "report-test", "-diff", "no-such"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown diff baseline must fail")
	}
}
