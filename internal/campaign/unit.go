package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"sdcgmres/internal/expt"
	"sdcgmres/internal/fault"
)

// Unit is one experiment of a campaign: a single SDC at one site of one
// sweep series. Its ID is derived from the unit's content, never from
// execution order, so the same manifest compiles to the same IDs in every
// process — the property the journal's skip-on-resume logic rests on.
type Unit struct {
	// ID is the stable content-derived identifier (16 hex chars).
	ID string `json:"id"`
	// Problem is the ProblemSpec key ("poisson/64/25/9").
	Problem string `json:"problem"`
	// Model is the fault class spec as written in the manifest.
	Model string `json:"model"`
	// Step is the MGS step selector name.
	Step string `json:"step"`
	// Detector is the DetectorSpec key ("off", "on/frobenius/restart").
	Detector string `json:"detector"`
	// Site is the aggregate inner iteration the SDC strikes.
	Site int `json:"site"`
}

// unitIDVersion guards the ID scheme: bump it if the identity fields ever
// change meaning, so stale journals cannot silently satisfy new campaigns.
const unitIDVersion = "v1"

// unitID derives the content hash identifying one unit.
func unitID(problem, model, step, detector string, site int) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%s|%s|%s|site=%d", unitIDVersion, problem, model, step, detector, site)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// SeriesKey returns the sweep series this unit belongs to.
func (u Unit) SeriesKey() SeriesKey {
	return SeriesKey{Problem: u.Problem, Model: u.Model, Step: u.Step, Detector: u.Detector}
}

// VerifyID recomputes the unit's content hash and reports whether it
// matches u.ID. This is the trust-boundary check a coordinator applies to
// records arriving from remote workers: a record whose unit fields do not
// hash to its claimed ID is corrupt (or fabricated) and must not enter the
// journal.
func (u Unit) VerifyID() bool {
	return unitID(u.Problem, u.Model, u.Step, u.Detector, u.Site) == u.ID
}

// Compiled is a manifest turned executable: calibrated problems plus the
// deterministic unit list. Units are ordered problems × detectors × steps ×
// models × sites, following manifest order, so unit N of a campaign is the
// same experiment in every process.
type Compiled struct {
	Manifest Manifest
	// Problems maps ProblemSpec keys to calibrated instances.
	Problems map[string]*expt.Problem
	// Units is the full work list in deterministic order.
	Units []Unit
}

// Compile validates the manifest, calibrates every problem (the expensive
// step: one failure-free probe solve per problem, exactly as the one-shot
// expt path does) and expands the cross product into units. It keeps no
// calibration; Problems.Compile does.
func Compile(m Manifest) (*Compiled, error) { return NewProblems().Compile(m) }

// Problems is the calibration cache: calibrated problems by ProblemSpec
// key, so a process that compiles many manifests over the same problems (a
// fleet worker serving one campaign generation per figure series, or
// paperfigs' sweeps) calibrates each problem once. Calibration is
// deterministic, which is what lets a remote worker reproduce the
// coordinator's problems from the manifest alone. A cached problem also
// keeps its nested-solve workspaces (one per unit that ran on it at once),
// so later units on it reuse that Krylov storage. The cache is unbounded:
// its memory lives as long as the cache does.
type Problems struct {
	mu       sync.Mutex
	problems map[string]*expt.Problem
}

// NewProblems returns an empty cache.
func NewProblems() *Problems {
	return &Problems{problems: make(map[string]*expt.Problem)}
}

// Put seeds the cache with a problem calibrated elsewhere, under its
// ProblemSpec key.
func (pc *Problems) Put(key string, p *expt.Problem) {
	pc.mu.Lock()
	pc.problems[key] = p
	pc.mu.Unlock()
}

// Compile validates the manifest, calibrates the problems the cache does
// not hold yet, and compiles the manifest into the unit grid.
// Content-derived unit IDs guarantee the result matches what every other
// process compiles from the same manifest.
func (pc *Problems) Compile(m Manifest) (*Compiled, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	problems := make(map[string]*expt.Problem, len(m.Problems))
	for _, ps := range m.Problems {
		key := ps.Key()
		pc.mu.Lock()
		p := pc.problems[key]
		pc.mu.Unlock()
		if p == nil {
			a, err := ps.matrix().Build()
			if err != nil {
				return nil, err
			}
			if p, err = expt.Calibrate(ps.DisplayName(), a, ps.InnerIters, ps.TargetOuter); err != nil {
				return nil, err
			}
			pc.Put(key, p)
		}
		problems[key] = p
	}
	return CompileWith(m, problems)
}

// CompileWith expands a validated manifest against already calibrated
// problems (keyed by ProblemSpec.Key). Callers that calibrate once and run
// several manifests over the same problems — cmd/paperfigs does — use this
// to avoid repeating the probe solves.
func CompileWith(m Manifest, problems map[string]*expt.Problem) (*Compiled, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	m = m.withDefaults()
	c := &Compiled{
		Manifest: m,
		Problems: make(map[string]*expt.Problem, len(m.Problems)),
	}
	for _, ps := range m.Problems {
		p, ok := problems[ps.Key()]
		if !ok || p == nil {
			return nil, fmt.Errorf("campaign: no calibrated problem for %s", ps.Key())
		}
		if p.FailureFreeOuter != ps.TargetOuter || p.InnerIters != ps.InnerIters {
			return nil, fmt.Errorf("campaign: calibrated problem %s does not match spec %s (ff=%d inner=%d)",
				p.Name, ps.Key(), p.FailureFreeOuter, p.InnerIters)
		}
		c.Problems[ps.Key()] = p
		total := p.FailureFreeOuter * p.InnerIters
		for _, d := range m.Detectors {
			for _, step := range m.Steps {
				for _, model := range m.Models {
					for t := 1; t <= total; t += m.Stride {
						c.Units = append(c.Units, Unit{
							ID:       unitID(ps.Key(), model, step, d.Key(), t),
							Problem:  ps.Key(),
							Model:    model,
							Step:     step,
							Detector: d.Key(),
							Site:     t,
						})
						if len(c.Units) > MaxUnits {
							return nil, fmt.Errorf("campaign: unit count exceeds cap %d", MaxUnits)
						}
					}
				}
			}
		}
	}
	return c, nil
}

// SweepConfig reconstructs the expt configuration for one unit, so the
// engine and the aggregator hand the exact same inputs to expt.RunPoint and
// expt.WriteSweepCSV as the one-shot path does.
func (c *Compiled) SweepConfig(u Unit) (expt.SweepConfig, error) {
	cfg, err := u.SeriesKey().SweepConfig()
	if err != nil {
		return expt.SweepConfig{}, fmt.Errorf("campaign: unit %s: %w", u.ID, err)
	}
	cfg.Stride = c.Manifest.Stride
	return cfg, nil
}

// SweepConfig decodes the series' model, step and detector policy into the
// expt configuration its units share. The stride is not in the key and
// stays zero: a compiled campaign sets the manifest's, the store infers it.
func (k SeriesKey) SweepConfig() (expt.SweepConfig, error) {
	model, err := fault.ParseModel(k.Model)
	if err != nil {
		return expt.SweepConfig{}, err
	}
	step, err := fault.ParseStepSelector(k.Step)
	if err != nil {
		return expt.SweepConfig{}, err
	}
	dspec, err := ParseDetectorKey(k.Detector)
	if err != nil {
		return expt.SweepConfig{}, err
	}
	det, err := dspec.Config()
	if err != nil {
		return expt.SweepConfig{}, err
	}
	return expt.SweepConfig{Model: model, Step: step, Detector: det}, nil
}
