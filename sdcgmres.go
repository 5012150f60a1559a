// Package sdcgmres is a pure-Go reproduction of "Evaluating the Impact of
// SDC on the GMRES Iterative Solver" (Elliott, Hoemmen, Mueller; IPDPS
// 2014): resilient Krylov solvers that tolerate a single silent data
// corruption (SDC) in their computationally intensive phases.
//
// The library provides, from scratch and with no dependencies outside the
// standard library:
//
//   - Sparse (CSR) and small dense linear algebra, including the
//     incremental Hessenberg QR and rank-revealing truncated-SVD solves
//     GMRES needs.
//   - GMRES(m), Flexible GMRES and CG solvers with pluggable
//     orthogonalization (MGS/CGS/CGS2) and a hook seam over every Arnoldi
//     coefficient.
//   - The paper's SDC detector: |h(i,j)| ≤ ‖A‖₂ ≤ ‖A‖F (Eq. 3), checked at
//     every coefficient for one comparison, no communication.
//   - FT-GMRES: a reliable outer FGMRES iteration over sandboxed,
//     unreliable inner GMRES solves that "runs through" faults instead of
//     rolling back.
//   - A deterministic single-SDC fault-injection framework (multiplicative,
//     bit-flip and set-value models) addressed by aggregate inner iteration
//     and Gram-Schmidt step, as in the paper's experiments.
//   - The experiment harness regenerating every table and figure of the
//     paper (see cmd/paperfigs and EXPERIMENTS.md).
//
// # Quick start
//
//	a := sdcgmres.Poisson2D(100)            // the paper's SPD problem
//	b := sdcgmres.OnesRHS(a)                // consistent RHS: b = A·1
//	solver := sdcgmres.NewFTGMRES(a, sdcgmres.FTConfig{
//		MaxOuter: 40,
//		OuterTol: 1e-8,
//		Inner:    sdcgmres.InnerConfig{Iterations: 25},
//		Detector: sdcgmres.DetectorConfig{Enabled: true},
//	})
//	res, err := solver.Solve(b, nil)
//
// See the examples/ directory for complete programs.
package sdcgmres

import (
	"context"

	"sdcgmres/internal/abft"
	"sdcgmres/internal/core"
	"sdcgmres/internal/detect"
	"sdcgmres/internal/fault"
	"sdcgmres/internal/gallery"
	"sdcgmres/internal/krylov"
	"sdcgmres/internal/precond"
	"sdcgmres/internal/sparse"
	"sdcgmres/internal/trace"
	"sdcgmres/internal/vec"
)

// ---- Sparse matrices ----

// Matrix is a compressed-sparse-row matrix, the operator type of every
// solver in this package.
type Matrix = sparse.CSR

// Triplet is a COO entry for matrix assembly.
type Triplet = sparse.Triplet

// MatrixBuilder accumulates triplets and assembles a Matrix.
type MatrixBuilder = sparse.Builder

// NewMatrixBuilder returns an empty builder for an r-by-c matrix.
func NewMatrixBuilder(r, c int) *MatrixBuilder { return sparse.NewBuilder(r, c) }

// NewMatrix assembles a Matrix from triplets, summing duplicates.
func NewMatrix(r, c int, ts []Triplet) *Matrix { return sparse.NewCSRFromTriplets(r, c, ts) }

// ReadMatrixMarketFile loads a Matrix Market file (the format the
// SuiteSparse collection distributes).
var ReadMatrixMarketFile = sparse.ReadMatrixMarketFile

// WriteMatrixMarketFile stores a matrix in Matrix Market format.
var WriteMatrixMarketFile = sparse.WriteMatrixMarketFile

// MatrixProperties is the Table I property set of a matrix.
type MatrixProperties = sparse.Properties

// AnalyzeMatrix computes shape, symmetry, structural rank and the two
// fault-detector norms of a matrix.
func AnalyzeMatrix(a *Matrix) MatrixProperties { return sparse.Analyze(a, 1e-14) }

// ---- Test-problem gallery ----

// Poisson2D returns the n²-by-n² 5-point Poisson matrix — MATLAB's
// gallery('poisson', n) and the paper's SPD problem for n = 100.
var Poisson2D = gallery.Poisson2D

// CircuitDCOPConfig parameterizes the mult_dcop_03 surrogate generator.
type CircuitDCOPConfig = gallery.CircuitDCOPConfig

// DefaultCircuitDCOPConfig returns the reproduction configuration at
// dimension n (25,187 for the paper's scale).
var DefaultCircuitDCOPConfig = gallery.DefaultCircuitDCOPConfig

// CircuitDCOP generates the nonsymmetric, ill-conditioned circuit matrix
// standing in for UF mult_dcop_03 (see DESIGN.md for the substitution).
var CircuitDCOP = gallery.CircuitDCOP

// ConvectionDiffusion2D returns an upwind convection-diffusion operator —
// a mildly nonsymmetric test matrix.
var ConvectionDiffusion2D = gallery.ConvectionDiffusion2D

// OnesRHS returns b = A·1, the consistent right-hand side used throughout
// the experiments (the exact solution is the all-ones vector).
func OnesRHS(a *Matrix) []float64 {
	b := make([]float64, a.Rows())
	a.MatVec(b, vec.Ones(a.Cols()))
	return b
}

// ---- Solvers ----

// Operator is the linear-operator interface solvers accept; *Matrix
// implements it.
type Operator = krylov.Operator

// SolveOptions configures GMRES and FGMRES (Krylov dimension, tolerance,
// orthogonalization, least-squares policy, hooks).
type SolveOptions = krylov.Options

// SolveResult reports a solve: iterate, convergence, residual history,
// hook events.
type SolveResult = krylov.Result

// Orthogonalization kernels.
const (
	MGS  = krylov.MGS
	CGS  = krylov.CGS
	CGS2 = krylov.CGS2
)

// Projected least-squares policies (Section VI-D of the paper).
const (
	LSQTriangular    = krylov.LSQTriangular
	LSQFallback      = krylov.LSQFallback
	LSQRankRevealing = krylov.LSQRankRevealing
)

// GMRES solves A x = b with restarted GMRES(m) (Algorithm 1 of the paper).
// It is shorthand for GMRESCtx with context.Background().
func GMRES(a Operator, b, x0 []float64, opts SolveOptions) (*SolveResult, error) {
	return krylov.GMRES(a, b, x0, opts)
}

// GMRESCtx is GMRES with cancellation: ctx is checked every Arnoldi
// iteration, and a solve cut short returns an error matching both
// ErrCanceled and ctx.Err() under errors.Is.
func GMRESCtx(ctx context.Context, a Operator, b, x0 []float64, opts SolveOptions) (*SolveResult, error) {
	return krylov.GMRESCtx(ctx, a, b, x0, opts)
}

// FGMRESOptions configures Flexible GMRES.
type FGMRESOptions = krylov.FGMRESOptions

// Preconditioner applies z ≈ M⁻¹q; inner-outer iterations implement it
// with an iterative solve.
type Preconditioner = krylov.Preconditioner

// PrecondFunc adapts a function to Preconditioner.
type PrecondFunc = krylov.PrecondFunc

// FGMRES solves A x = b with Saad's Flexible GMRES (Algorithm 2 of the
// paper), allowing the preconditioner to change every iteration. It is
// shorthand for FGMRESCtx with context.Background().
func FGMRES(a Operator, b, x0 []float64, provider krylov.PrecondProvider, opts FGMRESOptions) (*SolveResult, error) {
	return krylov.FGMRES(a, b, x0, provider, opts)
}

// FGMRESCtx is FGMRES with cancellation: ctx is checked every outer
// iteration, and a solve cut short returns an error matching both
// ErrCanceled and ctx.Err() under errors.Is.
func FGMRESCtx(ctx context.Context, a Operator, b, x0 []float64, provider krylov.PrecondProvider, opts FGMRESOptions) (*SolveResult, error) {
	return krylov.FGMRESCtx(ctx, a, b, x0, provider, opts)
}

// FixedPreconditioner adapts one Preconditioner to FGMRES's per-iteration
// provider.
var FixedPreconditioner = krylov.FixedPreconditioner

// GMRESHouseholder solves A x = b with GMRES using Householder
// orthogonalization (Walker's variant) — the third orthogonalization
// kernel the paper names for its bound-invariance claim.
func GMRESHouseholder(a Operator, b, x0 []float64, opts SolveOptions) (*SolveResult, error) {
	return krylov.GMRESHouseholder(a, b, x0, opts)
}

// CGOptions configures the Conjugate Gradient baseline for SPD systems.
type CGOptions = krylov.CGOptions

// CG solves SPD systems; it fails loudly on indefinite matrices. It is
// shorthand for CGCtx with context.Background().
func CG(a Operator, b, x0 []float64, opts CGOptions) (*SolveResult, error) {
	return krylov.CG(a, b, x0, opts)
}

// CGCtx is CG with cancellation: ctx is checked every iteration, and a
// solve cut short returns an error matching both ErrCanceled and ctx.Err()
// under errors.Is.
func CGCtx(ctx context.Context, a Operator, b, x0 []float64, opts CGOptions) (*SolveResult, error) {
	return krylov.CGCtx(ctx, a, b, x0, opts)
}

// FCGOptions configures the flexible Conjugate Gradient solver.
type FCGOptions = krylov.FCGOptions

// FCG solves SPD systems with flexible CG — the alternative flexible outer
// iteration (Golub & Ye) the paper lists alongside FGMRES. It is shorthand
// for FCGCtx with context.Background().
func FCG(a Operator, b, x0 []float64, provider krylov.PrecondProvider, opts FCGOptions) (*SolveResult, error) {
	return krylov.FCG(a, b, x0, provider, opts)
}

// FCGCtx is FCG with cancellation: ctx is checked every outer iteration,
// and a solve cut short returns an error matching both ErrCanceled and
// ctx.Err() under errors.Is.
func FCGCtx(ctx context.Context, a Operator, b, x0 []float64, provider krylov.PrecondProvider, opts FCGOptions) (*SolveResult, error) {
	return krylov.FCGCtx(ctx, a, b, x0, provider, opts)
}

// TrueResidual returns ‖b − A x‖₂/‖b‖₂, the reliably computed residual.
var TrueResidual = krylov.TrueResidual

// ---- Sentinel errors ----

// Sentinel errors for branching on solve outcomes with errors.Is. Solver
// functions return ErrCanceled (joined with the context's own error) when
// a context ends mid-solve; Result.Err() on both SolveResult and FTResult
// maps non-convergence and detector activity onto ErrNotConverged and
// ErrDetected.
var (
	ErrNotConverged = krylov.ErrNotConverged
	ErrDetected     = krylov.ErrDetected
	ErrCanceled     = krylov.ErrCanceled
)

// ---- FT-GMRES (the paper's contribution) ----

// FTConfig configures the fault-tolerant nested solver.
type FTConfig = core.Config

// InnerConfig configures the unreliable inner GMRES solves.
type InnerConfig = core.InnerConfig

// DetectorConfig configures the Hessenberg-bound SDC detector.
type DetectorConfig = core.DetectorConfig

// Detector responses.
const (
	ResponseWarn         = core.ResponseWarn
	ResponseHaltInner    = core.ResponseHaltInner
	ResponseRestartInner = core.ResponseRestartInner
)

// Reliable outer iterations for the nested solver.
const (
	OuterFGMRES = core.OuterFGMRES // the paper's choice; any system
	OuterFCG    = core.OuterFCG    // flexible CG; SPD systems only
)

// FTGMRES is the fault-tolerant nested solver: reliable FGMRES outer,
// sandboxed GMRES inner, Hessenberg-bound detection. Solve takes
// context.Background(); SolveCtx is the context-first form.
type FTGMRES = core.Solver

// FTResult reports an FT-GMRES solve, including fault/detector statistics.
// Its Err method maps the outcome onto the sentinel errors.
type FTResult = core.Result

// NewFTGMRES builds an FT-GMRES solver for the operator.
func NewFTGMRES(a *Matrix, cfg FTConfig) *FTGMRES { return core.New(a, cfg) }

// ---- Flight recorder (solve tracing) ----

// TraceRecorder is the fixed-capacity per-solve flight recorder: set one
// on SolveOptions.Recorder or FTConfig.Recorder and every residual,
// Arnoldi coefficient, detector verdict, fault strike and sandbox outcome
// of the solve lands in its ring buffer. A nil recorder is free — every
// event site costs one pointer check and allocates nothing.
type TraceRecorder = trace.Recorder

// TraceEvent is one recorded flight-recorder event.
type TraceEvent = trace.Event

// NewTraceRecorder builds a recorder holding the most recent capacity
// events (<= 0 selects trace.DefaultCapacity, 65536).
var NewTraceRecorder = trace.NewRecorder

// WriteTraceJSONL streams events as JSON Lines, the canonical trace
// interchange form (read back with ReadTraceJSONL).
var WriteTraceJSONL = trace.WriteJSONL

// ReadTraceJSONL parses a JSONL trace stream.
var ReadTraceJSONL = trace.ReadJSONL

// WriteChromeTrace emits events as a Chrome trace_event document,
// loadable in about://tracing or Perfetto.
var WriteChromeTrace = trace.WriteChromeTrace

// ---- Fault injection ----

// FaultModel produces a corrupted value from the correct one.
type FaultModel = fault.Model

// The paper's three fault classes (Section VII-B1).
var (
	FaultClassLarge  = fault.ClassLarge  // h × 10¹⁵⁰ (detectable)
	FaultClassSlight = fault.ClassSlight // h × 10⁻⁰·⁵ (undetectable)
	FaultClassTiny   = fault.ClassTiny   // h × 10⁻³⁰⁰ (undetectable)
)

// ScaleFault multiplies the correct value by a factor.
type ScaleFault = fault.Scale

// BitFlipFault flips one bit of the IEEE-754 representation.
type BitFlipFault = fault.BitFlip

// SetValueFault replaces the value outright.
type SetValueFault = fault.SetValue

// FaultSite addresses one coefficient: aggregate inner iteration plus
// Gram-Schmidt step.
type FaultSite = fault.Site

// Gram-Schmidt step selectors for fault sites.
const (
	FirstMGSStep      = fault.FirstMGS
	LastMGSStep       = fault.LastMGS
	NormalizationStep = fault.NormStep
)

// FaultInjector is a one-shot SDC injector usable as a solver hook.
type FaultInjector = fault.Injector

// NewFaultInjector arms a single-shot injector.
func NewFaultInjector(model FaultModel, site FaultSite) *FaultInjector {
	return fault.NewInjector(model, site)
}

// SpMVFaultInjector wraps an operator and corrupts one element of one
// matrix-vector product — the fault target of the prior work the paper
// discusses (Section III-A).
type SpMVFaultInjector = fault.OpInjector

// NewSpMVFaultInjector arms a single-shot SpMV injector striking the given
// 1-based MatVec application at output element index (negative = middle).
func NewSpMVFaultInjector(op Operator, model FaultModel, application, index int) *SpMVFaultInjector {
	return fault.NewOpInjector(op, model, application, index)
}

// CoeffHook observes (and may replace) Arnoldi coefficients; injectors and
// detectors implement it.
type CoeffHook = krylov.CoeffHook

// CoeffHookFunc adapts a function to CoeffHook.
type CoeffHookFunc = krylov.CoeffHookFunc

// CoeffContext identifies the coefficient flowing through a hook.
type CoeffContext = krylov.CoeffContext

// ---- Detection ----

// SDCDetector is the standalone Hessenberg-bound detector, usable as a
// hook in any solver.
type SDCDetector = detect.Detector

// Detector bound kinds.
const (
	FrobeniusBound = detect.FrobeniusBound
	SpectralBound  = detect.SpectralBound
)

// NewSDCDetector builds a detector whose bound is ‖A‖F or an ‖A‖₂
// estimate.
func NewSDCDetector(a *Matrix, kind detect.BoundKind) *SDCDetector {
	return detect.NewDetector(a, kind)
}

// ---- Preconditioners ----

// TransposablePreconditioner can also apply its transposed inverse, which
// the preconditioner-aware detector bound needs.
type TransposablePreconditioner = precond.Transposable

// NewJacobiPreconditioner builds diagonal preconditioning M = diag(A).
var NewJacobiPreconditioner = precond.NewJacobi

// NewSSORPreconditioner builds symmetric SOR preconditioning with
// relaxation omega in (0,2).
var NewSSORPreconditioner = precond.NewSSOR

// NewILU0Preconditioner builds the zero-fill incomplete LU factorization.
var NewILU0Preconditioner = precond.NewILU0

// Norm2EstPreconditioned estimates ‖A M⁻¹‖₂ — the Hessenberg detector
// bound for right-preconditioned solves (Section V-B: the bound is on the
// norm of the preconditioned matrix).
var Norm2EstPreconditioned = precond.Norm2EstPreconditioned

// ---- System scaling ----

// Equilibration holds the Ruiz row/column scaling of a system; solving the
// scaled system tightens the detector bound (Section V's scaling remark).
type Equilibration = sparse.Equilibration

// Equilibrate computes B = Dr·A·Dc with unit row/column ∞-norms.
var Equilibrate = sparse.Equilibrate

// ---- Prior-work baseline ----

// ChecksumOperator protects every SpMV with column checksums (the
// ABFT-style baseline of Section III-A).
type ChecksumOperator = abft.ChecksumOperator

// NewChecksumOperator wraps a matrix with checksum verification.
var NewChecksumOperator = abft.NewChecksumOperator

// RollbackOptions configures the checkpoint/rollback GMRES baseline.
type RollbackOptions = abft.RollbackOptions

// RollbackStats reports the baseline's activity and overhead.
type RollbackStats = abft.RollbackStats

// RollbackGMRES is the detect-and-rollback baseline the paper contrasts
// its roll-forward design against.
var RollbackGMRES = abft.RollbackGMRES
