// Package service implements the solver job engine behind cmd/solved: typed
// job specs (matrix × solver configuration × optional fault injection), a
// bounded FIFO queue with admission control, a worker pool that runs every
// solve inside the internal/sandbox reliability model, a metrics registry,
// and the HTTP handlers exposing all of it.
//
// The design transplants the paper's Section IV sandbox contract from the
// inner solves of FT-GMRES to the service boundary: each submitted job is an
// unreliable guest — it may be slow, wrong, hung, or panic — and the engine
// is the reliable host that always gets control back within the job's time
// budget. A job can therefore never take down the daemon, exactly as a
// faulty inner solve can never take down the outer iteration.
package service

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"time"

	"sdcgmres/internal/fault"
	"sdcgmres/internal/krylov"
	"sdcgmres/internal/qos"
	"sdcgmres/internal/sparse"
)

// Resource ceilings for untrusted job specs. They bound the memory and
// assembly cost a single request can demand; the wall-clock cost is bounded
// separately by the per-job time budget.
const (
	// MaxGridN caps the grid side for poisson/convdiff (n² rows).
	MaxGridN = 512
	// MaxCircuitN caps the circuit surrogate dimension.
	MaxCircuitN = 60000
	// MaxMMBytes caps inline Matrix Market payloads.
	MaxMMBytes = 8 << 20
	// MaxOuterCap caps the outer iteration budget of a job.
	MaxOuterCap = 2000
	// MaxInnerCap caps the inner iterations per outer iteration.
	MaxInnerCap = 500
)

// MatrixSpec selects the linear system's operator. The right-hand side is
// always b = A·1 (a consistent system with known solution x = 1), which is
// what makes the service able to report a true forward error for every job.
type MatrixSpec struct {
	// Kind is the generator: "poisson", "circuit", "convdiff", or "mm"
	// for an inline Matrix Market payload.
	Kind string `json:"kind"`
	// N is the generator size (grid side for poisson/convdiff, dimension
	// for circuit). Ignored for "mm".
	N int `json:"n,omitempty"`
	// MM is the inline Matrix Market content for Kind "mm".
	MM string `json:"mm,omitempty"`
	// CX, CY are the convection coefficients for "convdiff" (defaults
	// 10, -5 when both zero).
	CX float64 `json:"cx,omitempty"`
	CY float64 `json:"cy,omitempty"`
}

// convection returns the convection field of a "convdiff" spec: CX, CY,
// or the default (10, -5) when both are zero.
func (m MatrixSpec) convection() (cx, cy float64) {
	if m.CX == 0 && m.CY == 0 {
		return 10, -5
	}
	return m.CX, m.CY
}

// matrixKey is the canonical form of a validated matrix spec: two specs
// share a key exactly when BuildMatrix makes the same operator from them.
// Generators key by kind and size (convdiff with its convection field
// resolved), inline Matrix Market payloads by their sha256. It keys the
// engine's operator cache and is the matrix part of SpecDigest.
func matrixKey(m MatrixSpec) string {
	switch m.Kind {
	case "mm":
		sum := sha256.Sum256([]byte(m.MM))
		return fmt.Sprintf("mm|mm=%x|", sum[:])
	case "convdiff":
		cx, cy := m.convection()
		return fmt.Sprintf("convdiff|n=%d|cx=%g|cy=%g|", m.N, cx, cy)
	}
	return fmt.Sprintf("%s|n=%d|", m.Kind, m.N)
}

// SolverSpec selects the solver and its resilience configuration.
type SolverSpec struct {
	// Kind is "ftgmres" (default), "gmres", or "cg".
	Kind string `json:"kind,omitempty"`
	// InnerIters is the FT-GMRES inner iteration count (default 25).
	InnerIters int `json:"inner_iters,omitempty"`
	// MaxOuter bounds outer (or plain GMRES/CG) iterations (default 60).
	MaxOuter int `json:"max_outer,omitempty"`
	// Tol is the relative residual tolerance (default 1e-8).
	Tol float64 `json:"tol,omitempty"`
	// Ortho is "mgs" (default), "cgs", or "cgs2".
	Ortho string `json:"ortho,omitempty"`
	// Policy is the projected least-squares policy: "triangular",
	// "fallback" (default), or "rank-revealing" (Section VI-D).
	Policy string `json:"policy,omitempty"`
	// Detector enables the Hessenberg-bound SDC detector.
	Detector bool `json:"detector,omitempty"`
	// Bound is "frobenius" (default) or "spectral".
	Bound string `json:"bound,omitempty"`
	// Response is "warn" (default), "halt", or "restart".
	Response string `json:"response,omitempty"`
	// Precond is "none" (default), "jacobi", "ssor", or "ilu0".
	Precond string `json:"precond,omitempty"`
	// RobustFirstSolve hardens the first inner solve (Sec. VII-E).
	RobustFirstSolve bool `json:"robust_first_solve,omitempty"`
}

// FaultSpec arms a single-shot SDC injector inside the solve — the service
// equivalent of cmd/sdcrun's fault flags, for resilience testing over HTTP.
type FaultSpec struct {
	// Class is "large", "slight", "tiny", "bitflip:<bit>", "set:<value>",
	// or "scale:<factor>".
	Class string `json:"class"`
	// At is the aggregate inner iteration to strike (1-based).
	At int `json:"at"`
	// Step is "first" (default), "last", or "norm".
	Step string `json:"step,omitempty"`
}

// JobSpec is one unit of work: solve one system with one configuration.
type JobSpec struct {
	Matrix MatrixSpec `json:"matrix"`
	Solver SolverSpec `json:"solver"`
	Fault  *FaultSpec `json:"fault,omitempty"`
	// TimeBudgetMS caps the solve's wall clock in milliseconds. Zero uses
	// the engine default; values above the engine maximum are clamped.
	TimeBudgetMS int64 `json:"time_budget_ms,omitempty"`
	// Tenant names the submitting tenant for QoS accounting. Empty falls
	// under the scheduler's default tenant; the HTTP layer also fills it
	// from the X-Tenant request header. Ignored when the engine runs
	// without a QoS scheduler.
	Tenant string `json:"tenant,omitempty"`
	// Class is the QoS priority class: "interactive", "batch" (the
	// default), or "background". Ignored without a QoS scheduler.
	Class string `json:"class,omitempty"`
	// DeadlineMS, when positive, is the job's start-by budget in
	// milliseconds: if the job cannot reach a worker within it, the
	// scheduler sheds the job instead of running it late. Ignored without
	// a QoS scheduler.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Budget converts the job's time budget to a duration (0 = engine default).
func (s *JobSpec) Budget() time.Duration {
	return time.Duration(s.TimeBudgetMS) * time.Millisecond
}

// Deadline converts the job's start-by budget to a duration (0 = none).
func (s *JobSpec) Deadline() time.Duration {
	return time.Duration(s.DeadlineMS) * time.Millisecond
}

// QoSClass returns the spec's parsed priority class (Batch when unset;
// Validate has already rejected unknown names).
func (s *JobSpec) QoSClass() qos.Class {
	c, err := qos.ParseClass(s.Class)
	if err != nil {
		return qos.Batch
	}
	return c
}

// MaxTenantLen caps tenant names: they label Prometheus series, so an
// unbounded set would let one caller explode metric cardinality.
const MaxTenantLen = 64

// SolverKind returns the normalized solver kind.
func (s *JobSpec) SolverKind() string {
	if s.Solver.Kind == "" {
		return "ftgmres"
	}
	return s.Solver.Kind
}

// Validate rejects malformed or resource-abusive specs before admission.
func (s *JobSpec) Validate() error {
	switch s.Matrix.Kind {
	case "poisson", "convdiff":
		if s.Matrix.N < 2 || s.Matrix.N > MaxGridN {
			return fmt.Errorf("service: matrix n = %d out of range [2, %d]", s.Matrix.N, MaxGridN)
		}
	case "circuit":
		if s.Matrix.N < 2 || s.Matrix.N > MaxCircuitN {
			return fmt.Errorf("service: circuit n = %d out of range [2, %d]", s.Matrix.N, MaxCircuitN)
		}
	case "mm":
		if s.Matrix.MM == "" {
			return fmt.Errorf("service: matrix kind %q needs inline mm content", s.Matrix.Kind)
		}
		if len(s.Matrix.MM) > MaxMMBytes {
			return fmt.Errorf("service: mm payload %d bytes exceeds cap %d", len(s.Matrix.MM), MaxMMBytes)
		}
		// A few bytes can declare a matrix whose assembly alone exhausts
		// memory, so the declared size gets the generators' largest system
		// as its cap.
		rows, cols, err := sparse.ReadMatrixMarketSize(strings.NewReader(s.Matrix.MM))
		if err != nil {
			return fmt.Errorf("service: bad matrix market payload: %w", err)
		}
		if maxRows := MaxGridN * MaxGridN; rows > maxRows || cols > maxRows {
			return fmt.Errorf("service: mm matrix %dx%d exceeds cap of %d rows and columns", rows, cols, maxRows)
		}
	case "":
		return fmt.Errorf("service: matrix kind missing (want poisson | circuit | convdiff | mm)")
	default:
		return fmt.Errorf("service: unknown matrix kind %q", s.Matrix.Kind)
	}

	switch s.SolverKind() {
	case "ftgmres", "gmres":
	case "cg":
		if s.Fault != nil {
			return fmt.Errorf("service: fault injection targets the Arnoldi coefficients; solver %q has none", "cg")
		}
		if s.Solver.Detector {
			return fmt.Errorf("service: the Hessenberg-bound detector does not apply to solver %q", "cg")
		}
	default:
		return fmt.Errorf("service: unknown solver kind %q", s.Solver.Kind)
	}
	if s.Solver.InnerIters < 0 || s.Solver.InnerIters > MaxInnerCap {
		return fmt.Errorf("service: inner_iters = %d out of range [0, %d]", s.Solver.InnerIters, MaxInnerCap)
	}
	if s.Solver.MaxOuter < 0 || s.Solver.MaxOuter > MaxOuterCap {
		return fmt.Errorf("service: max_outer = %d out of range [0, %d]", s.Solver.MaxOuter, MaxOuterCap)
	}
	if s.Solver.Tol < 0 || s.Solver.Tol >= 1 {
		return fmt.Errorf("service: tol = %g out of range [0, 1)", s.Solver.Tol)
	}
	if _, err := parseOrtho(s.Solver.Ortho); err != nil {
		return err
	}
	if _, err := parsePolicy(s.Solver.Policy); err != nil {
		return err
	}
	if _, err := parseBound(s.Solver.Bound); err != nil {
		return err
	}
	if _, err := parseResponse(s.Solver.Response); err != nil {
		return err
	}
	if _, err := parsePrecond(s.Solver.Precond); err != nil {
		return err
	}
	if s.TimeBudgetMS < 0 {
		return fmt.Errorf("service: time_budget_ms must be >= 0")
	}
	if s.DeadlineMS < 0 {
		return fmt.Errorf("service: deadline_ms must be >= 0")
	}
	if len(s.Tenant) > MaxTenantLen {
		return fmt.Errorf("service: tenant name %d bytes exceeds cap %d", len(s.Tenant), MaxTenantLen)
	}
	if _, err := qos.ParseClass(s.Class); err != nil {
		return err
	}

	if s.Fault != nil {
		if _, err := ParseFaultModel(s.Fault.Class); err != nil {
			return err
		}
		step := s.Fault.Step
		if step == "" {
			step = "first"
		}
		if _, err := ParseStep(step); err != nil {
			return err
		}
		if s.Fault.At < 1 {
			return fmt.Errorf("service: fault site %d must be >= 1", s.Fault.At)
		}
	}
	return nil
}

// ---- Spec builders (re-exported through the sdcgmres facade) ----

// defaultSolver is the service's recommended resilient configuration:
// FT-GMRES with the detector armed and the restart-inner response, so a
// detected transient SDC costs one clean re-run of one inner solve.
func defaultSolver() SolverSpec {
	return SolverSpec{
		Kind:     "ftgmres",
		Detector: true,
		Response: "restart",
	}
}

// PoissonJob builds a job spec for the paper's SPD Poisson problem at grid
// side n with the recommended resilient solver configuration.
func PoissonJob(n int) JobSpec {
	return JobSpec{Matrix: MatrixSpec{Kind: "poisson", N: n}, Solver: defaultSolver()}
}

// CircuitJob builds a job spec for the mult_dcop_03 surrogate at dimension n.
func CircuitJob(n int) JobSpec {
	return JobSpec{Matrix: MatrixSpec{Kind: "circuit", N: n}, Solver: defaultSolver()}
}

// ConvDiffJob builds a job spec for the convection-diffusion problem at grid
// side n.
func ConvDiffJob(n int) JobSpec {
	return JobSpec{Matrix: MatrixSpec{Kind: "convdiff", N: n}, Solver: defaultSolver()}
}

// MatrixMarketJob builds a job spec solving an inline Matrix Market system.
func MatrixMarketJob(mm string) JobSpec {
	return JobSpec{Matrix: MatrixSpec{Kind: "mm", MM: mm}, Solver: defaultSolver()}
}

// ---- String-form parsers (shared with cmd/sdcrun) ----

// ParseFaultModel parses a fault class spec: the paper's three classes by
// name ("large", "slight", "tiny") or an explicit model ("bitflip:<bit>",
// "set:<value>", "scale:<factor>"). It delegates to fault.ParseModel, the
// canonical parser shared with cmd/sdcrun and campaign manifests.
func ParseFaultModel(spec string) (fault.Model, error) {
	return fault.ParseModel(spec)
}

// ParseStep parses a Gram-Schmidt step selector name.
func ParseStep(s string) (fault.StepSelector, error) {
	return fault.ParseStepSelector(s)
}

func parseOrtho(s string) (krylov.OrthoMethod, error) {
	switch s {
	case "", "mgs":
		return krylov.MGS, nil
	case "cgs":
		return krylov.CGS, nil
	case "cgs2":
		return krylov.CGS2, nil
	}
	return 0, fmt.Errorf("service: unknown orthogonalization %q", s)
}

func parsePolicy(s string) (krylov.LSQPolicy, error) {
	switch s {
	case "triangular":
		return krylov.LSQTriangular, nil
	case "", "fallback":
		return krylov.LSQFallback, nil
	case "rank-revealing":
		return krylov.LSQRankRevealing, nil
	}
	return 0, fmt.Errorf("service: unknown lsq policy %q", s)
}
