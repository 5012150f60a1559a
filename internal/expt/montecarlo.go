package expt

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"sdcgmres/internal/core"
	"sdcgmres/internal/fault"
)

// MCConfig parameterizes a randomized SDC campaign — an extension beyond
// the paper's exhaustive sweeps: instead of enumerating one fault class at
// one MGS position, sample (site, step, model) uniformly, including bit
// flips in every field of the IEEE-754 word, and build the penalty and
// detection statistics an operator of a production system would want.
type MCConfig struct {
	// Trials is the number of random experiments.
	Trials int
	// Seed makes the campaign reproducible.
	Seed int64
	// Detector configures detection (off by default).
	Detector core.DetectorConfig
	// Workers bounds concurrency (0 = GOMAXPROCS).
	Workers int
}

// MCResult summarizes a randomized campaign.
type MCResult struct {
	Trials int
	// ByModel aggregates per fault family ("scale", "bitflip-exponent",
	// "bitflip-mantissa", "bitflip-sign").
	ByModel map[string]*MCGroup
	// Overall aggregates everything.
	Overall MCGroup
}

// MCGroup is the statistics of one fault family.
type MCGroup struct {
	Trials int
	// NoEffect counts runs with no extra outer iterations.
	NoEffect int
	// Detected counts runs where the detector fired.
	Detected int
	// NotConverged counts runs that hit the outer cap.
	NotConverged int
	// SilentFailures counts converged-but-wrong runs (the disaster case).
	SilentFailures int
	// ExtraOuter holds the penalty of each run, for quantiles.
	ExtraOuter []int
}

// quantile returns the q-quantile of the penalties (0 <= q <= 1).
func (g *MCGroup) quantile(q float64) int {
	if len(g.ExtraOuter) == 0 {
		return 0
	}
	s := make([]int, len(g.ExtraOuter))
	copy(s, g.ExtraOuter)
	sort.Ints(s)
	idx := int(q * float64(len(s)-1))
	return s[idx]
}

// MaxExtra returns the worst penalty.
func (g *MCGroup) MaxExtra() int {
	m := 0
	for _, v := range g.ExtraOuter {
		if v > m {
			m = v
		}
	}
	return m
}

// MonteCarlo runs the randomized campaign on a calibrated problem.
func MonteCarlo(p *Problem, cfg MCConfig) MCResult {
	if cfg.Trials <= 0 {
		cfg.Trials = 100
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Trials {
		workers = cfg.Trials
	}

	type trial struct {
		model  fault.Model
		family string
		site   fault.Site
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	total := p.FailureFreeOuter * p.InnerIters
	trials := make([]trial, cfg.Trials)
	for i := range trials {
		var tr trial
		switch rng.Intn(4) {
		case 0:
			// Log-uniform multiplicative fault across the whole double
			// range, the generalized version of the paper's three classes.
			exp := -300 + 450*rng.Float64() // 10^-300 .. 10^+150
			tr.model = fault.Scale{Factor: math.Pow(10, exp)}
			tr.family = "scale"
		case 1:
			tr.model = fault.BitFlip{Bit: uint(52 + rng.Intn(11))}
			tr.family = "bitflip-exponent"
		case 2:
			tr.model = fault.BitFlip{Bit: uint(rng.Intn(52))}
			tr.family = "bitflip-mantissa"
		default:
			tr.model = fault.BitFlip{Bit: 63}
			tr.family = "bitflip-sign"
		}
		steps := []fault.StepSelector{fault.FirstMGS, fault.LastMGS, fault.NormStep}
		tr.site = fault.Site{
			AggregateInner: 1 + rng.Intn(total),
			Step:           steps[rng.Intn(len(steps))],
		}
		trials[i] = tr
	}

	res := MCResult{Trials: cfg.Trials, ByModel: map[string]*MCGroup{}}
	var mu sync.Mutex
	var next int
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(trials) {
					return
				}
				tr := trials[i]
				pt := RunPoint(context.Background(), p, SweepConfig{Model: tr.model, Step: tr.site.Step, Detector: cfg.Detector}, tr.site.AggregateInner)

				mu.Lock()
				g := res.ByModel[tr.family]
				if g == nil {
					g = &MCGroup{}
					res.ByModel[tr.family] = g
				}
				for _, grp := range []*MCGroup{g, &res.Overall} {
					grp.Trials++
					if !pt.Converged {
						grp.NotConverged++
						grp.ExtraOuter = append(grp.ExtraOuter, p.MaxOuter-p.FailureFreeOuter)
					} else {
						extra := pt.OuterIters - p.FailureFreeOuter
						if extra < 0 {
							extra = 0
						}
						grp.ExtraOuter = append(grp.ExtraOuter, extra)
						if extra == 0 {
							grp.NoEffect++
						}
						if pt.WrongAnswer {
							grp.SilentFailures++
						}
					}
					if pt.Detections > 0 {
						grp.Detected++
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return res
}

// WriteMCReport renders the campaign statistics.
func WriteMCReport(w io.Writer, p *Problem, res MCResult) {
	fmt.Fprintf(w, "Monte Carlo SDC campaign: %s, %d trials (failure-free outer = %d)\n",
		p.Name, res.Trials, p.FailureFreeOuter)
	fmt.Fprintf(w, "%-20s %7s %9s %9s %8s %8s %8s %7s %7s\n",
		"fault family", "trials", "no-effect", "detected", "p50", "p90", "max", "noconv", "silent")
	keys := make([]string, 0, len(res.ByModel))
	for k := range res.ByModel {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g := res.ByModel[k]
		fmt.Fprintf(w, "%-20s %7d %9d %9d %8d %8d %8d %7d %7d\n",
			k, g.Trials, g.NoEffect, g.Detected, g.quantile(0.5), g.quantile(0.9), g.MaxExtra(), g.NotConverged, g.SilentFailures)
	}
	g := res.Overall
	fmt.Fprintf(w, "%-20s %7d %9d %9d %8d %8d %8d %7d %7d\n",
		"TOTAL", g.Trials, g.NoEffect, g.Detected, g.quantile(0.5), g.quantile(0.9), g.MaxExtra(), g.NotConverged, g.SilentFailures)
}
