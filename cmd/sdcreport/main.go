// Command sdcreport renders the paper's Section VII statistics straight
// from a results-warehouse directory (internal/store) — the offline
// counterpart of the solved daemon's GET /v1/campaigns/{id}/stats endpoint.
// Both run the same analysis (internal/store/analyze) over the same
// snapshot machinery, so a report and a stats response never disagree.
//
// Usage:
//
//	sdcreport -store-dir DIR                   # list warehoused campaigns
//	sdcreport -store-dir DIR -campaign NAME    # full text report
//	          [-diff BASELINE]                 # + significance diff vs BASELINE
//	          [-csv-out DIR]                   # + regenerate per-series sweep CSVs
//	          [-json]                          # machine-readable stats instead
//	          [-width 100]                     # heatmap/histogram width
//
// The regenerated CSVs route through the engine's own aggregate writer, so
// for complete campaigns they are byte-identical to the CSVs the solved
// coordinator writes — `cmp` proves the warehouse lost nothing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"text/tabwriter"

	"sdcgmres/internal/store"
	"sdcgmres/internal/store/analyze"
	"sdcgmres/internal/textplot"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "sdcreport: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole CLI, split from main so tests drive it in-process.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("sdcreport", flag.ContinueOnError)
	var (
		storeDir = fs.String("store-dir", "", "results warehouse directory (required)")
		camp     = fs.String("campaign", "", "campaign to report on (empty = list campaigns)")
		diff     = fs.String("diff", "", "baseline campaign for a significance diff")
		csvOut   = fs.String("csv-out", "", "regenerate per-series sweep CSVs into this directory")
		asJSON   = fs.Bool("json", false, "emit the stats bundle as JSON instead of text")
		width    = fs.Int("width", 100, "heatmap and histogram width in characters")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storeDir == "" {
		return fmt.Errorf("-store-dir is required")
	}
	st, err := store.Open(*storeDir, store.Options{NoBackgroundCompact: true})
	if err != nil {
		return err
	}
	defer st.Close()
	sn := st.Snapshot()

	if *camp == "" {
		return listCampaigns(w, sn)
	}
	stats, err := analyze.Campaign(sn, *camp)
	if err != nil {
		return err
	}
	var d *analyze.Diff
	if *diff != "" {
		if d, err = analyze.DiffCampaigns(sn, *diff, *camp); err != nil {
			return err
		}
	}

	if *asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Stats *analyze.CampaignStats `json:"stats"`
			Diff  *analyze.Diff          `json:"diff,omitempty"`
		}{stats, d}); err != nil {
			return err
		}
	} else {
		renderStats(w, stats, *width)
		if d != nil {
			renderDiff(w, d)
		}
	}

	if *csvOut != "" {
		if err := writeCSVs(w, sn, *camp, *csvOut); err != nil {
			return err
		}
	}
	return nil
}

func listCampaigns(w io.Writer, sn *store.Snapshot) error {
	camps := sn.Campaigns()
	if len(camps) == 0 {
		fmt.Fprintln(w, "store is empty")
		return nil
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "CAMPAIGN\tRECORDS\tSERIES")
	for _, c := range camps {
		fmt.Fprintf(tw, "%s\t%d\t%d\n", c.Name, c.Records, c.Series)
	}
	return tw.Flush()
}

func renderStats(w io.Writer, cs *analyze.CampaignStats, width int) {
	fmt.Fprintf(w, "campaign %s: %d records, %d series\n\n", cs.Campaign, cs.Records, len(cs.Series))

	fmt.Fprintln(w, "series (overhead = extra outer iterations over the failure-free baseline)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "PROBLEM\tMODEL\tSTEP\tDETECTOR\tSITES\tMISS\tFAIL\tMEAN EXTRA [95% CI]\tP50\tP90\tMAX\tWORST%\tRECALL\tPREC\tNOCONV\tSILENT")
	for _, s := range cs.Series {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\t%d\t%d\t%.2f [%.2f, %.2f]\t%d\t%d\t%d\t%.1f\t%.2f\t%.2f\t%d\t%d\n",
			s.Problem, s.Key.Model, s.Key.Step, s.Key.Detector,
			s.Sites, s.Missing, s.Failed,
			s.MeanExtraCI.Point, s.MeanExtraCI.Low, s.MeanExtraCI.High,
			s.Extra.P50, s.Extra.P90, s.Extra.Max, s.WorstPctIncrease,
			s.Confusion.Recall, s.Confusion.Precision, s.NotConverged, s.SilentFailures)
	}
	tw.Flush()

	fmt.Fprintln(w, "\ndetector confusion (positives = experiments whose fault struck)")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "MODEL\tSTEP\tDETECTOR\tTP\tFN\tFP\tTN\tRECALL\tPRECISION\tFALL-OUT")
	for _, s := range cs.Series {
		c := s.Confusion
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%d\t%d\t%.3f\t%.3f\t%.3f\n",
			s.Key.Model, s.Key.Step, s.Key.Detector,
			c.TruePositives, c.FalseNegatives, c.FalsePositives, c.TrueNegatives,
			c.Recall, c.Precision, c.FallOut)
	}
	tw.Flush()

	for _, cls := range cs.Classes {
		fmt.Fprintf(w, "\nfault class %q: mean extra %.2f [%.2f, %.2f], p50 %d, p90 %d, max %d over %d runs\n",
			cls.Model, cls.MeanExtraCI.Point, cls.MeanExtraCI.Low, cls.MeanExtraCI.High,
			cls.Extra.P50, cls.Extra.P90, cls.Extra.Max, cls.Extra.Count)
		textplot.Histogram(w, "", binsToValues(cls.ExtraHist), width/2)
	}

	for _, hm := range cs.Heatmaps {
		fmt.Fprintf(w, "\nimpact map %s model=%s detector=%s (x = fault site, '.' guides every %d inner iterations)\n",
			hm.Problem, hm.Model, hm.Detector, hm.InnerIters)
		cells := make([][]float64, len(hm.Extra))
		for i, row := range hm.Extra {
			cells[i] = make([]float64, len(row))
			for j, v := range row {
				if v < 0 {
					cells[i][j] = math.NaN()
				} else {
					cells[i][j] = float64(v)
				}
			}
		}
		if err := textplot.HeatGrid(w, textplot.Grid{
			Rows:       hm.Steps,
			Cols:       hm.Sites,
			Cells:      cells,
			GuideEvery: hm.InnerIters,
		}, width); err != nil {
			fmt.Fprintf(w, "(heatmap unavailable: %v)\n", err)
		}
	}
}

// binsToValues expands a histogram back into raw values for textplot.
func binsToValues(bins []analyze.HistBin) []int {
	var vs []int
	for _, b := range bins {
		for i := 0; i < b.Count; i++ {
			vs = append(vs, b.Value)
		}
	}
	return vs
}

func renderDiff(w io.Writer, d *analyze.Diff) {
	fmt.Fprintf(w, "\ndiff: %s (B) vs baseline %s (A); delta = B − A extra outers over paired sites\n", d.B, d.A)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "MODEL\tSTEP\tDETECTOR\tPAIRED\tMEAN A\tMEAN B\tDELTA [95% CI]\tVERDICT")
	for _, s := range d.Series {
		verdict := "~ no significant change"
		switch {
		case s.Regression:
			verdict = "REGRESSION"
		case s.Significant:
			verdict = "improvement"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.2f\t%.2f\t%+.2f [%+.2f, %+.2f]\t%s\n",
			s.Key.Model, s.Key.Step, s.Key.Detector, s.Paired,
			s.MeanExtraA, s.MeanExtraB,
			s.DeltaCI.Point, s.DeltaCI.Low, s.DeltaCI.High, verdict)
	}
	tw.Flush()
	for _, k := range d.OnlyA {
		fmt.Fprintf(w, "only in %s: %s\n", d.A, k.String())
	}
	for _, k := range d.OnlyB {
		fmt.Fprintf(w, "only in %s: %s\n", d.B, k.String())
	}
	fmt.Fprintf(w, "%d significant regression(s)\n", d.Regressions)
}

// writeCSVs regenerates every series CSV of the campaign from the snapshot,
// named exactly as the solved coordinator names its aggregate output.
func writeCSVs(w io.Writer, sn *store.Snapshot, camp, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, key := range sn.SeriesKeys(camp) {
		path := filepath.Join(dir, key.FileName(camp))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := sn.WriteSeriesCSV(f, camp, key); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", path)
	}
	return nil
}
