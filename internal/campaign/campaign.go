// Package campaign implements durable, resumable fault-injection sweeps:
// the batch layer that turns the paper's one-shot experimental campaign
// (Section VII — one injected SDC at every inner-iteration position × fault
// magnitudes × MGS steps × problems) into a long-running, interruptible,
// observable job.
//
// A declarative Manifest (problems × fault models × MGS steps × detector
// policies) compiles into a deterministic list of work units with stable
// content-derived IDs. Its problems are built, validated and named as
// gallery.Spec operators and its detector names are parsed by
// core.ParseDetector, so a manifest obeys the same caps and names as a
// solver-service job spec. Problems is the one calibration cache:
// compiling many manifests through it calibrates each problem once.
//
// One executor runs the units: a Coordinator that leases units to
// workers, checks every record they return, as the paper's reliable host
// checks its unreliable guest, and appends it to an append-only JSONL
// journal. Runner drains it with in-process goroutines, each running one
// unit at a time under the sandbox reliability model with a per-unit
// deadline; internal/dist serves the same coordinator to remote workers. A
// restarted campaign reloads the journal and skips finished units, so a
// crash or SIGINT loses at most the in-flight experiments. An aggregator
// folds the journal back into the exact artifacts the in-memory expt path
// produces — byte-identical CSVs and summary tables — because both paths
// run expt.RunPoint on the same sites and render through the same writers.
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"sdcgmres/internal/core"
	"sdcgmres/internal/fault"
	"sdcgmres/internal/gallery"
)

// Resource ceilings for untrusted manifests, beside the matrix caps of
// gallery.Spec.
const (
	// MaxInnerIters caps inner iterations per outer iteration.
	MaxInnerIters = 500
	// MaxTargetOuter caps the calibrated failure-free outer count.
	MaxTargetOuter = 500
	// MaxUnits caps the compiled unit count of one campaign.
	MaxUnits = 1_000_000
)

// ProblemSpec names one calibrated experiment problem. Calibration (finding
// the outer tolerance that pins the failure-free outer count, exactly as
// expt.Calibrate does) happens at compile time, so the spec is pure data.
type ProblemSpec struct {
	// Kind is the generator: "poisson" or "circuit".
	Kind string `json:"kind"`
	// N is the generator size (grid side for poisson, dimension for
	// circuit).
	N int `json:"n"`
	// InnerIters is the inner iteration count per outer iteration.
	InnerIters int `json:"inner_iters"`
	// TargetOuter is the failure-free outer count to calibrate to.
	TargetOuter int `json:"target_outer"`
}

// matrix is the gallery spec of the problem's operator.
func (p ProblemSpec) matrix() gallery.Spec { return gallery.Spec{Kind: p.Kind, N: p.N} }

// Key is the problem's canonical identity inside unit IDs and journals.
func (p ProblemSpec) Key() string {
	return fmt.Sprintf("%s/%d/%d/%d", p.Kind, p.N, p.InnerIters, p.TargetOuter)
}

// DisplayName is the calibrated problem's report name for this spec —
// exactly what Compile's calibration produces (expt.Problem.Name) — so
// consumers holding only a problem key (the results store) can render the
// same labels the engine aggregator does.
func (p ProblemSpec) DisplayName() string { return p.matrix().Name() }

// ParseProblemKey inverts ProblemSpec.Key: "poisson/64/25/9" back to the
// spec. Journaled units carry only the key, so store-side analysis parses
// it to recover the failure-free outer count (the overhead baseline) and
// the inner iteration count (the heatmap geometry) without recalibrating.
func ParseProblemKey(key string) (ProblemSpec, error) {
	var p ProblemSpec
	parts := strings.Split(key, "/")
	if len(parts) != 4 {
		return p, fmt.Errorf("campaign: problem key %q: want kind/n/inner/target", key)
	}
	p.Kind = parts[0]
	if _, err := fmt.Sscanf(parts[1]+" "+parts[2]+" "+parts[3], "%d %d %d",
		&p.N, &p.InnerIters, &p.TargetOuter); err != nil {
		return p, fmt.Errorf("campaign: problem key %q: %w", key, err)
	}
	if err := p.Validate(); err != nil {
		return p, err
	}
	return p, nil
}

// Validate rejects malformed or resource-abusive problem specs.
func (p ProblemSpec) Validate() error {
	if p.Kind != "poisson" && p.Kind != "circuit" {
		return fmt.Errorf("campaign: unknown problem kind %q (want poisson | circuit)", p.Kind)
	}
	if err := p.matrix().Validate(); err != nil {
		return err
	}
	if p.InnerIters < 1 || p.InnerIters > MaxInnerIters {
		return fmt.Errorf("campaign: inner_iters = %d out of range [1, %d]", p.InnerIters, MaxInnerIters)
	}
	if p.TargetOuter < 2 || p.TargetOuter > MaxTargetOuter {
		return fmt.Errorf("campaign: target_outer = %d out of range [2, %d]", p.TargetOuter, MaxTargetOuter)
	}
	return nil
}

// DetectorSpec selects a detector policy for a slice of the campaign.
type DetectorSpec struct {
	// Enabled arms the Hessenberg-bound detector.
	Enabled bool `json:"enabled"`
	// Bound is "frobenius" (default) or "spectral".
	Bound string `json:"bound,omitempty"`
	// Response is "warn" (default), "halt", or "restart".
	Response string `json:"response,omitempty"`
}

// Key is the policy's canonical identity inside unit IDs.
func (d DetectorSpec) Key() string {
	if !d.Enabled {
		return "off"
	}
	bound := d.Bound
	if bound == "" {
		bound = "frobenius"
	}
	resp := d.Response
	if resp == "" {
		resp = "warn"
	}
	return "on/" + bound + "/" + resp
}

// ParseDetectorKey inverts DetectorSpec.Key: "off" or "on/<bound>/<resp>"
// back to a spec. Like ParseProblemKey, this lets a consumer holding only
// journaled unit fields rebuild the exact expt.SweepConfig the engine used.
func ParseDetectorKey(key string) (DetectorSpec, error) {
	if key == "off" {
		return DetectorSpec{}, nil
	}
	parts := strings.Split(key, "/")
	if len(parts) != 3 || parts[0] != "on" {
		return DetectorSpec{}, fmt.Errorf("campaign: detector key %q: want off | on/<bound>/<response>", key)
	}
	d := DetectorSpec{Enabled: true, Bound: parts[1], Response: parts[2]}
	if _, err := d.Config(); err != nil {
		return DetectorSpec{}, err
	}
	return d, nil
}

// Config translates the spec into the solver's detector configuration.
func (d DetectorSpec) Config() (core.DetectorConfig, error) {
	if !d.Enabled {
		return core.DetectorConfig{}, nil
	}
	return core.ParseDetector(d.Bound, d.Response)
}

// Manifest declares a campaign: the full cross product of problems × fault
// models × MGS steps × detector policies, swept over every (strided)
// aggregate inner iteration of each problem's failure-free schedule. The
// manifest is pure data — JSON in, deterministic unit list out — so the
// same manifest always compiles to the same units with the same IDs,
// which is what makes journals resumable across processes.
type Manifest struct {
	// Name labels the campaign in journals, logs and the service API.
	Name string `json:"name"`
	// Problems are the calibrated experiment instances to sweep.
	Problems []ProblemSpec `json:"problems"`
	// Models are fault class specs ("large", "slight", "tiny",
	// "bitflip:<bit>", "set:<value>", "scale:<factor>").
	Models []string `json:"models"`
	// Steps are MGS step selectors ("first", "last", "norm").
	Steps []string `json:"steps"`
	// Detectors are the detector policies to cross with; empty means one
	// disabled-detector policy (the paper's Figures 3–4 configuration).
	Detectors []DetectorSpec `json:"detectors,omitempty"`
	// Stride samples every Stride-th aggregate inner iteration (default 1,
	// the paper's full sweep).
	Stride int `json:"stride,omitempty"`
	// UnitBudgetMS caps each unit's wall clock in milliseconds (default
	// 2 minutes).
	UnitBudgetMS int64 `json:"unit_budget_ms,omitempty"`
}

// withDefaults fills the manifest's optional fields.
func (m Manifest) withDefaults() Manifest {
	if len(m.Detectors) == 0 {
		m.Detectors = []DetectorSpec{{}}
	}
	if m.Stride <= 0 {
		m.Stride = 1
	}
	return m
}

// Validate rejects malformed manifests before the (possibly expensive)
// compile step.
func (m *Manifest) Validate() error {
	if strings.TrimSpace(m.Name) == "" {
		return fmt.Errorf("campaign: manifest needs a name")
	}
	if len(m.Problems) == 0 {
		return fmt.Errorf("campaign: manifest needs at least one problem")
	}
	if len(m.Models) == 0 {
		return fmt.Errorf("campaign: manifest needs at least one fault model")
	}
	if len(m.Steps) == 0 {
		return fmt.Errorf("campaign: manifest needs at least one MGS step")
	}
	if m.Stride < 0 {
		return fmt.Errorf("campaign: stride must be >= 0")
	}
	if m.UnitBudgetMS < 0 {
		return fmt.Errorf("campaign: unit_budget_ms must be >= 0")
	}
	seenP := map[string]bool{}
	for _, p := range m.Problems {
		if err := p.Validate(); err != nil {
			return err
		}
		if seenP[p.Key()] {
			return fmt.Errorf("campaign: duplicate problem %s", p.Key())
		}
		seenP[p.Key()] = true
	}
	seenM := map[string]bool{}
	for _, spec := range m.Models {
		if _, err := fault.ParseModel(spec); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
		if seenM[spec] {
			return fmt.Errorf("campaign: duplicate fault model %q", spec)
		}
		seenM[spec] = true
	}
	seenS := map[string]bool{}
	for _, s := range m.Steps {
		if _, err := fault.ParseStepSelector(s); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
		if seenS[s] {
			return fmt.Errorf("campaign: duplicate step %q", s)
		}
		seenS[s] = true
	}
	seenD := map[string]bool{}
	for _, d := range m.Detectors {
		if _, err := d.Config(); err != nil {
			return err
		}
		if seenD[d.Key()] {
			return fmt.Errorf("campaign: duplicate detector policy %s", d.Key())
		}
		seenD[d.Key()] = true
	}
	return nil
}

// Hash is a stable content hash of the manifest (after defaulting), used to
// key journal files so that resubmitting the same manifest resumes the same
// journal.
func (m Manifest) Hash() string {
	canon := m.withDefaults()
	// Canonical form: field order is fixed by the struct, slices keep
	// manifest order (order is part of identity: it fixes unit order).
	raw, err := json.Marshal(canon)
	if err != nil {
		// Manifest is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("campaign: manifest hash: %v", err))
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:8])
}

// Slug renders the campaign name as a filesystem-safe token.
func (m Manifest) Slug() string {
	var b strings.Builder
	for _, r := range strings.ToLower(m.Name) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '-' || r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "campaign"
	}
	return b.String()
}

// SeriesKey identifies one sweep series (one curve of one figure): a
// problem, fault model, MGS step and detector policy. Units of a series
// differ only in their fault site.
type SeriesKey struct {
	Problem  string `json:"problem"`
	Model    string `json:"model"`
	Step     string `json:"step"`
	Detector string `json:"detector"`
}

// String renders the key for logs.
func (k SeriesKey) String() string {
	return fmt.Sprintf("%s × %s × %s × det=%s", k.Problem, k.Model, k.Step, k.Detector)
}
