package service

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"sdcgmres/internal/core"
	"sdcgmres/internal/detect"
	"sdcgmres/internal/fault"
	"sdcgmres/internal/gallery"
	"sdcgmres/internal/kernel"
	"sdcgmres/internal/krylov"
	"sdcgmres/internal/precond"
	"sdcgmres/internal/sparse"
	"sdcgmres/internal/trace"
	"sdcgmres/internal/vec"
)

// SolveRecord is the canonical machine-readable result of one solve. The
// service stores it per job, and cmd/sdcrun -json emits exactly the same
// schema, so CLI and service outputs are interchangeable.
type SolveRecord struct {
	// Problem identifies the system: generator name or "mm".
	Problem string `json:"problem"`
	Rows    int    `json:"rows"`
	Cols    int    `json:"cols"`
	NNZ     int    `json:"nnz"`
	// Solver is the solver kind that ran ("ftgmres", "gmres", "cg").
	Solver    string `json:"solver"`
	Converged bool   `json:"converged"`
	// FinalResidual is the last relative residual (explicitly computed for
	// FT-GMRES).
	FinalResidual float64 `json:"final_residual"`
	// OuterIterations is the reliable iteration count (plain iteration
	// count for gmres/cg).
	OuterIterations int `json:"outer_iterations"`
	// InnerIterations is the total unreliable inner work (0 for gmres/cg).
	InnerIterations int `json:"inner_iterations"`
	InnerHalts      int `json:"inner_halts,omitempty"`
	InnerRestarts   int `json:"inner_restarts,omitempty"`
	SandboxFailures int `json:"sandbox_failures,omitempty"`
	Detections      int `json:"detections,omitempty"`
	DetectorChecked int `json:"detector_checked,omitempty"`
	// FaultInjected reports whether an injector was armed; FaultFired
	// whether it actually struck.
	FaultInjected bool `json:"fault_injected,omitempty"`
	FaultFired    bool `json:"fault_fired,omitempty"`
	// ForwardError is max_i |x_i − 1|: the service always solves the
	// consistent system b = A·1, so the true solution is known and silent
	// failures are measurable.
	ForwardError    float64   `json:"forward_error"`
	ResidualHistory []float64 `json:"residual_history,omitempty"`
	ElapsedMS       float64   `json:"elapsed_ms"`
}

// RecordFromCore converts an FT-GMRES result into the canonical record.
func RecordFromCore(problem string, a *sparse.CSR, res *core.Result, elapsed time.Duration) *SolveRecord {
	rec := &SolveRecord{
		Problem:         problem,
		Rows:            a.Rows(),
		Cols:            a.Cols(),
		NNZ:             a.NNZ(),
		Solver:          "ftgmres",
		Converged:       res.Converged,
		FinalResidual:   res.FinalResidual,
		OuterIterations: res.Stats.OuterIterations,
		InnerIterations: res.Stats.InnerIterations,
		InnerHalts:      res.Stats.InnerHalts,
		InnerRestarts:   res.Stats.InnerRestarts,
		SandboxFailures: res.Stats.SandboxFailures,
		Detections:      res.Stats.Detections,
		DetectorChecked: res.Stats.DetectorChecked,
		ForwardError:    forwardError(res.X),
		ResidualHistory: res.ResidualHistory,
		ElapsedMS:       float64(elapsed) / float64(time.Millisecond),
	}
	return rec
}

// forwardError is max_i |x_i − 1| against the known all-ones solution.
func forwardError(x []float64) float64 {
	worst := 0.0
	for _, v := range x {
		d := math.Abs(v - 1)
		if d > worst || math.IsNaN(d) {
			worst = d
		}
	}
	return worst
}

// BuildMatrix materializes a validated MatrixSpec.
func BuildMatrix(m MatrixSpec) (*sparse.CSR, string, error) {
	switch m.Kind {
	case "poisson":
		return gallery.Poisson2D(m.N), fmt.Sprintf("poisson-%dx%d", m.N, m.N), nil
	case "circuit":
		return gallery.CircuitDCOP(gallery.DefaultCircuitDCOPConfig(m.N)), fmt.Sprintf("circuit-dcop-%d", m.N), nil
	case "convdiff":
		cx, cy := m.convection()
		return gallery.ConvectionDiffusion2D(m.N, cx, cy), fmt.Sprintf("convdiff-%dx%d", m.N, m.N), nil
	case "mm":
		a, err := sparse.ReadMatrixMarket(strings.NewReader(m.MM))
		if err != nil {
			return nil, "", fmt.Errorf("service: bad matrix market payload: %w", err)
		}
		if a.Rows() != a.Cols() {
			return nil, "", fmt.Errorf("service: matrix must be square, got %dx%d", a.Rows(), a.Cols())
		}
		return a, "mm", nil
	}
	return nil, "", fmt.Errorf("service: unknown matrix kind %q", m.Kind)
}

// RunSpec builds the system, solves it under the job's context, and
// reports the canonical record. The caller (the worker pool) provides
// panic isolation and the wall-clock budget via the sandbox, so RunSpec
// itself stays straight-line. A non-nil tr captures the solve's full
// flight-recorder stream (residuals, coefficients, detector verdicts,
// fault strikes, sandbox outcomes). A non-nil pool runs the solver's
// kernels on persistent workers; records are bitwise identical for every
// pool width.
//
// RunSpec always builds the matrix afresh; the engine's default runner
// runs the same solve on an operator from its cache, and RunSpec is the
// uncached reference its records must equal.
func RunSpec(ctx context.Context, spec *JobSpec, tr *trace.Recorder, pool *kernel.Pool) (*SolveRecord, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	a, name, err := BuildMatrix(spec.Matrix)
	if err != nil {
		return nil, err
	}
	return solveSpec(ctx, spec, a, name, tr, pool)
}

// runCached is the engine's default Runner: RunSpec with the operator
// taken from the engine's operator cache.
func (e *Engine) runCached(ctx context.Context, spec *JobSpec, tr *trace.Recorder, pool *kernel.Pool) (*SolveRecord, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	a, name, err := e.ops.matrix(spec.Matrix)
	if err != nil {
		return nil, err
	}
	return solveSpec(ctx, spec, a, name, tr, pool)
}

// solveSpec solves A x = A·1 as a validated spec describes. A is only
// read, so one operator may serve many concurrent solves.
func solveSpec(ctx context.Context, spec *JobSpec, a *sparse.CSR, name string, tr *trace.Recorder, pool *kernel.Pool) (*SolveRecord, error) {
	b := make([]float64, a.Rows())
	a.MatVec(b, vec.Ones(a.Cols()))

	var hooks []krylov.CoeffHook
	var inj *fault.Injector
	if spec.Fault != nil {
		model, _ := ParseFaultModel(spec.Fault.Class)
		stepName := spec.Fault.Step
		if stepName == "" {
			stepName = "first"
		}
		step, _ := ParseStep(stepName)
		inj = fault.NewInjector(model, fault.Site{AggregateInner: spec.Fault.At, Step: step})
		inj.SetRecorder(tr)
		hooks = append(hooks, inj)
	}

	start := time.Now()
	var rec *SolveRecord
	var err error
	switch spec.SolverKind() {
	case "ftgmres":
		rec, err = runFTGMRES(ctx, spec, a, name, b, hooks, tr, pool)
	case "gmres":
		rec, err = runGMRES(ctx, spec, a, name, b, hooks, tr, pool)
	case "cg":
		rec, err = runCG(ctx, spec, a, name, b, tr, pool)
	default:
		return nil, fmt.Errorf("service: unknown solver kind %q", spec.Solver.Kind)
	}
	if err != nil {
		return nil, err
	}
	rec.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	if inj != nil {
		rec.FaultInjected = true
		rec.FaultFired = inj.Fired()
	}
	return rec, nil
}

func runFTGMRES(ctx context.Context, spec *JobSpec, a *sparse.CSR, name string, b []float64, hooks []krylov.CoeffHook, tr *trace.Recorder, pool *kernel.Pool) (*SolveRecord, error) {
	cfg, err := coreConfig(spec, a, hooks)
	if err != nil {
		return nil, err
	}
	cfg.Recorder = tr
	cfg.Pool = pool.WithRecorder(tr)
	start := time.Now()
	res, err := core.New(a, cfg).SolveCtx(ctx, b, nil)
	if err != nil {
		return nil, err
	}
	return RecordFromCore(name, a, res, time.Since(start)), nil
}

// coreConfig translates a SolverSpec into a core.Config.
func coreConfig(spec *JobSpec, a *sparse.CSR, hooks []krylov.CoeffHook) (core.Config, error) {
	s := spec.Solver
	ortho, err := parseOrtho(s.Ortho)
	if err != nil {
		return core.Config{}, err
	}
	policy, err := parsePolicy(s.Policy)
	if err != nil {
		return core.Config{}, err
	}
	pre, err := parsePrecond(s.Precond)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{
		MaxOuter: defaultInt(s.MaxOuter, 60),
		OuterTol: defaultFloat(s.Tol, 1e-8),
		Inner: core.InnerConfig{
			Iterations:       defaultInt(s.InnerIters, 25),
			Ortho:            ortho,
			Policy:           policy,
			Hooks:            hooks,
			RobustFirstSolve: s.RobustFirstSolve,
		},
	}
	if pre != nil {
		m, err := pre(a)
		if err != nil {
			return core.Config{}, err
		}
		cfg.Inner.Precond = m
	}
	if s.Detector {
		kind, err := parseBound(s.Bound)
		if err != nil {
			return core.Config{}, err
		}
		resp, err := parseResponse(s.Response)
		if err != nil {
			return core.Config{}, err
		}
		cfg.Detector = core.DetectorConfig{Enabled: true, Kind: kind, Response: resp}
	}
	return cfg, nil
}

func runGMRES(ctx context.Context, spec *JobSpec, a *sparse.CSR, name string, b []float64, hooks []krylov.CoeffHook, tr *trace.Recorder, pool *kernel.Pool) (*SolveRecord, error) {
	s := spec.Solver
	ortho, _ := parseOrtho(s.Ortho)
	policy, _ := parsePolicy(s.Policy)
	var det *detect.Detector
	if s.Detector {
		kind, err := parseBound(s.Bound)
		if err != nil {
			return nil, err
		}
		det = detect.NewDetector(a, kind)
		hooks = append(hooks, detect.Traced(det, tr))
	}
	opts := krylov.Options{
		MaxIter:  defaultInt(s.MaxOuter, 60),
		Tol:      defaultFloat(s.Tol, 1e-8),
		Ortho:    ortho,
		Policy:   policy,
		Hooks:    hooks,
		Recorder: tr,
		Pool:     pool.WithRecorder(tr),
	}
	res, err := krylov.GMRESCtx(ctx, a, b, nil, opts)
	if err != nil {
		return nil, err
	}
	rec := &SolveRecord{
		Problem:         name,
		Rows:            a.Rows(),
		Cols:            a.Cols(),
		NNZ:             a.NNZ(),
		Solver:          "gmres",
		Converged:       res.Converged,
		FinalResidual:   res.FinalResidual,
		OuterIterations: res.Iterations,
		ForwardError:    forwardError(res.X),
		ResidualHistory: res.ResidualHistory,
	}
	if det != nil {
		ds := det.Stats()
		rec.Detections = ds.Violations
		rec.DetectorChecked = ds.Checked
	}
	return rec, nil
}

func runCG(ctx context.Context, spec *JobSpec, a *sparse.CSR, name string, b []float64, tr *trace.Recorder, pool *kernel.Pool) (*SolveRecord, error) {
	s := spec.Solver
	res, err := krylov.CGCtx(ctx, a, b, nil, krylov.CGOptions{Options: krylov.Options{
		MaxIter:  defaultInt(s.MaxOuter, 60),
		Tol:      defaultFloat(s.Tol, 1e-8),
		Recorder: tr,
		Pool:     pool.WithRecorder(tr),
	}})
	if err != nil {
		return nil, err
	}
	return &SolveRecord{
		Problem:         name,
		Rows:            a.Rows(),
		Cols:            a.Cols(),
		NNZ:             a.NNZ(),
		Solver:          "cg",
		Converged:       res.Converged,
		FinalResidual:   res.FinalResidual,
		OuterIterations: res.Iterations,
		ForwardError:    forwardError(res.X),
		ResidualHistory: res.ResidualHistory,
	}, nil
}

func parseBound(s string) (detect.BoundKind, error) {
	switch s {
	case "", "frobenius":
		return detect.FrobeniusBound, nil
	case "spectral":
		return detect.SpectralBound, nil
	}
	return 0, fmt.Errorf("service: unknown detector bound %q", s)
}

func parseResponse(s string) (core.Response, error) {
	switch s {
	case "", "warn":
		return core.ResponseWarn, nil
	case "halt":
		return core.ResponseHaltInner, nil
	case "restart":
		return core.ResponseRestartInner, nil
	}
	return 0, fmt.Errorf("service: unknown detector response %q", s)
}

// parsePrecond returns a preconditioner factory (nil for "none").
func parsePrecond(s string) (func(*sparse.CSR) (krylov.Preconditioner, error), error) {
	switch s {
	case "", "none":
		return nil, nil
	case "jacobi":
		return func(a *sparse.CSR) (krylov.Preconditioner, error) {
			m, err := precond.NewJacobi(a)
			return m, err
		}, nil
	case "ssor":
		return func(a *sparse.CSR) (krylov.Preconditioner, error) {
			m, err := precond.NewSSOR(a, 1.0)
			return m, err
		}, nil
	case "ilu0":
		return func(a *sparse.CSR) (krylov.Preconditioner, error) {
			m, err := precond.NewILU0(a)
			return m, err
		}, nil
	}
	return nil, fmt.Errorf("service: unknown preconditioner %q", s)
}

func defaultInt(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

func defaultFloat(v, def float64) float64 {
	if v <= 0 {
		return def
	}
	return v
}
