package service

import (
	"context"
	"fmt"
	"math"
	"time"

	"sdcgmres/internal/core"
	"sdcgmres/internal/detect"
	"sdcgmres/internal/fault"
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

// RunSpec builds the system, solves it under the job's context, and
// reports the canonical record. The caller (the worker pool) provides
// panic isolation and the wall-clock budget via the sandbox, so RunSpec
// itself stays straight-line. A non-nil tr captures the solve's full
// flight-recorder stream (residuals, coefficients, detector verdicts,
// fault strikes, sandbox outcomes). A non-nil pool runs the solver's
// kernels on persistent workers; records are bitwise identical for every
// pool width.
//
// RunSpec is the uncached reference: it builds the matrix afresh and solves
// from scratch. The engine's default runner runs the same solve on an
// operator from its cache, where a fresh ftgmres job may resume from a
// failure-free prefix that an earlier job recorded, and its records must
// equal RunSpec's.
func RunSpec(ctx context.Context, spec *JobSpec, tr *trace.Recorder, pool *kernel.Pool) (*SolveRecord, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	a, err := spec.Matrix.Build()
	if err != nil {
		return nil, err
	}
	return solveSpec(ctx, spec, &operator{a: a, name: spec.Matrix.Name()}, tr, pool)
}

// runCached is the engine's default Runner: RunSpec with the operator
// taken from the engine's operator cache, which also passes the cached
// operator's failure-free prefixes to ftgmres jobs (operator.solve). A
// traced job neither resumes nor records, so an engine with a
// TraceCapacity solves every job from scratch.
func (e *Engine) runCached(ctx context.Context, spec *JobSpec, tr *trace.Recorder, pool *kernel.Pool) (*SolveRecord, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	op, err := e.ops.operator(spec.Matrix)
	if err != nil {
		return nil, err
	}
	return solveSpec(ctx, spec, op, tr, pool)
}

// solveSpec solves A x = A·1 as a validated spec describes, on op's
// matrix. A is only read, so one operator may serve many concurrent solves.
func solveSpec(ctx context.Context, spec *JobSpec, op *operator, tr *trace.Recorder, pool *kernel.Pool) (*SolveRecord, error) {
	a, name := op.a, op.name
	b := make([]float64, a.Rows())
	a.MatVec(b, vec.Ones(a.Cols()))

	var hooks []krylov.CoeffHook
	var inj *fault.Injector
	if spec.Fault != nil {
		model, _ := fault.ParseModel(spec.Fault.Class)
		step, _ := fault.ParseStepSelector(spec.Fault.StepName())
		inj = fault.NewInjector(model, fault.Site{AggregateInner: spec.Fault.At, Step: step})
		inj.SetRecorder(tr)
		hooks = append(hooks, inj)
	}

	start := time.Now()
	var rec *SolveRecord
	var err error
	switch spec.SolverKind() {
	case "ftgmres":
		rec, err = runFTGMRES(ctx, spec, op, b, hooks, tr, pool)
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

func runFTGMRES(ctx context.Context, spec *JobSpec, op *operator, b []float64, hooks []krylov.CoeffHook, tr *trace.Recorder, pool *kernel.Pool) (*SolveRecord, error) {
	cfg, err := coreConfig(spec, op.a, hooks)
	if err != nil {
		return nil, err
	}
	cfg.Recorder = tr
	cfg.Pool = pool.WithRecorder(tr)
	start := time.Now()
	res, err := op.solve(ctx, core.New(op.a, cfg), spec, b)
	if err != nil {
		return nil, err
	}
	return RecordFromCore(op.name, op.a, res, time.Since(start)), nil
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
		if cfg.Detector, err = core.ParseDetector(s.Bound, s.Response); err != nil {
			return core.Config{}, err
		}
	}
	return cfg, nil
}

func runGMRES(ctx context.Context, spec *JobSpec, a *sparse.CSR, name string, b []float64, hooks []krylov.CoeffHook, tr *trace.Recorder, pool *kernel.Pool) (*SolveRecord, error) {
	s := spec.Solver
	ortho, _ := parseOrtho(s.Ortho)
	policy, _ := parsePolicy(s.Policy)
	var det *detect.Detector
	if s.Detector {
		dc, err := core.ParseDetector(s.Bound, s.Response)
		if err != nil {
			return nil, err
		}
		det = detect.NewDetector(a, dc.Kind)
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
