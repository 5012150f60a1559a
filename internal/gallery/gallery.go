// Package gallery generates the test matrices for the SDC study.
//
// Poisson2D reproduces MATLAB's gallery('poisson', n) bit-for-bit in
// structure and values, so the SPD experiment uses exactly the matrix the
// paper used. CircuitDCOP is the documented surrogate for the UF collection
// matrix mult_dcop_03 (a circuit DC-operating-point Jacobian): it is
// nonsymmetric, not positive definite, and engineered to match the published
// Table I characteristics — ‖A‖₂ ≈ 17.18, huge condition number ≈ 7.3e13,
// modest Frobenius norm and ~7.7 nonzeros per row. See DESIGN.md for the
// substitution rationale.
//
// Spec is the problem vocabulary every other surface uses: a generator
// name and size, or an inline Matrix Market payload, with the one
// Validate (resource caps plus each generator's own preconditions), the
// canonical Key, the report Name and Build. Solver-service job specs,
// campaign manifests and the CLIs all go through it, so they accept
// exactly the same problems.
package gallery

import (
	"fmt"
	"math"
	"math/rand"

	"sdcgmres/internal/sparse"
)

// Poisson2D returns the n²-by-n² matrix of the 5-point finite-difference
// discretization of the Poisson equation on an n-by-n interior grid
// (Dirichlet boundary): 4 on the diagonal, -1 for each of the up to four
// neighbours. For n = 100 this is exactly the paper's first sample problem:
// 10,000 rows, 49,600 nonzeros, SPD, ‖A‖₂ ≈ 8, ‖A‖F ≈ 446.
func Poisson2D(n int) *sparse.CSR {
	if n <= 0 {
		panic(fmt.Sprintf("gallery.Poisson2D: n = %d", n))
	}
	N := n * n
	b := sparse.NewBuilder(N, N)
	idx := func(i, j int) int { return i*n + j }
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			r := idx(i, j)
			b.Add(r, r, 4)
			if i > 0 {
				b.Add(r, idx(i-1, j), -1)
			}
			if i < n-1 {
				b.Add(r, idx(i+1, j), -1)
			}
			if j > 0 {
				b.Add(r, idx(i, j-1), -1)
			}
			if j < n-1 {
				b.Add(r, idx(i, j+1), -1)
			}
		}
	}
	return b.Build()
}

// Poisson2DEigBounds returns the exact extreme eigenvalues of Poisson2D(n):
// λ = 4 − 2cos(iπ/(n+1)) − 2cos(jπ/(n+1)). Because the matrix is SPD these
// are also its extreme singular values, which gives the exact 2-norm and
// condition number for Table I without any iteration.
func Poisson2DEigBounds(n int) (lambdaMin, lambdaMax float64) {
	h := math.Pi / float64(n+1)
	s := math.Sin(h / 2)
	l := math.Sin(float64(n) * h / 2)
	lambdaMin = 8 * s * s
	lambdaMax = 8 * l * l
	return lambdaMin, lambdaMax
}

// CircuitDCOPConfig parameterizes the mult_dcop_03 surrogate.
type CircuitDCOPConfig struct {
	// N is the dimension. The UF matrix has 25,187 rows.
	N int
	// Seed makes the generator deterministic.
	Seed int64
	// AvgCouplings is the expected number of off-diagonal entries per row
	// (the UF matrix has ≈ 6.7 off-diagonal nonzeros per row).
	AvgCouplings int
	// BulkSpread is the number of decades the *bulk* of the diagonal spans
	// downward from O(1). This part of the spectrum governs GMRES
	// convergence speed.
	BulkSpread float64
	// FloorDecades places the TinyRows diagonals at 10^-FloorDecades,
	// pinning σmin and hence the condition number (~10^FloorDecades ·
	// ‖A‖₂). Real circuit Jacobians behave the same way: their extreme
	// condition numbers come from a few pathological scales (leakage
	// conductances), while the bulk spectrum — and so the solver's
	// effective difficulty — is far tamer.
	FloorDecades float64
	// TinyRows is the number of rows given near-σmin diagonals.
	TinyRows int
	// NegativeFrac is the fraction of mid-scale rows whose diagonal is
	// negated. Even a small fraction makes GMRES convergence crawl (the
	// Krylov polynomial must be small on both sides of zero), so the
	// default configuration keeps this at zero and instead negates half of
	// the TinyRows: the matrix is then formally indefinite — matching
	// mult_dcop_03's "positive definite? no" in Table I — while the
	// convergence-relevant bulk spectrum stays one-signed.
	NegativeFrac float64
	// NegateTinyRows negates every other tiny row (see NegativeFrac).
	NegateTinyRows bool
	// TargetNorm2 rescales the whole matrix so ‖A‖₂ matches Table I
	// (17.1762 for mult_dcop_03). Zero disables rescaling.
	TargetNorm2 float64
}

// DefaultCircuitDCOPConfig returns the configuration used for the paper
// reproduction at dimension n.
func DefaultCircuitDCOPConfig(n int) CircuitDCOPConfig {
	return CircuitDCOPConfig{
		N:              n,
		Seed:           20140519, // IPDPS 2014 conference date; any fixed seed works
		AvgCouplings:   6,
		BulkSpread:     3.5,
		FloorDecades:   13,
		TinyRows:       8,
		NegativeFrac:   0,
		NegateTinyRows: true,
		TargetNorm2:    17.1762,
	}
}

// CircuitDCOP builds the surrogate circuit matrix. Construction:
//
//   - Every row has a nonzero diagonal d_i. A few "device" rows get large
//     conductances (O(1) before rescaling); the bulk is log-uniform across
//     cfg.BulkSpread decades; cfg.TinyRows rows sit at 10^-FloorDecades,
//     fixing σmin ≈ min|d_i| and hence cond₂ ≈ 7e13 for the default 13
//     decades.
//   - Off-diagonal couplings c_ij are placed at random with
//     |c_ij| ≤ 0.05·min(|d_i|,|d_j|), so the matrix is strictly diagonally
//     dominant by rows *and* columns. Dominance guarantees nonsingularity
//     (Gershgorin) and makes Jacobi iteration convergent for both A and Aᵀ,
//     which the σmin instrumentation exploits.
//   - Couplings are one-directional with probability ~1/2, which makes the
//     nonzero pattern nonsymmetric like the real circuit Jacobian.
//
// The result is then scaled so ‖A‖₂ matches cfg.TargetNorm2.
func CircuitDCOP(cfg CircuitDCOPConfig) *sparse.CSR {
	if cfg.N <= 2 {
		panic(fmt.Sprintf("gallery.CircuitDCOP: N = %d too small", cfg.N))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.N
	d := make([]float64, n)

	// Bulk: log-uniform magnitudes over BulkSpread decades — the part of
	// the spectrum that GMRES actually has to work through.
	for i := range d {
		exp := -cfg.BulkSpread * rng.Float64()
		d[i] = math.Pow(10, exp) * (0.5 + rng.Float64())
	}
	// Device rows: strong conductances that set the top of the spectrum.
	nBig := max(4, n/2500)
	for k := 0; k < nBig; k++ {
		d[rng.Intn(n)] = 0.5 + 0.5*rng.Float64()
	}
	d[0] = 1.0 // pin the max so TargetNorm2 rescaling is well defined
	// Tiny rows: pin σmin far below the bulk, fixing the condition number
	// without affecting convergence (their residual components are tiny).
	floor := math.Pow(10, -cfg.FloorDecades)
	for k := 0; k < cfg.TinyRows; k++ {
		i := 1 + rng.Intn(n-1)
		d[i] = floor * (1 + rng.Float64())
		if cfg.NegateTinyRows && k%2 == 1 {
			d[i] = -d[i] // indefiniteness without convergence impact
		}
	}
	// Optional extra indefiniteness in the mid-scale band (off by default:
	// it dominates solver difficulty far beyond the real matrix's
	// behaviour).
	if cfg.NegativeFrac > 0 {
		for i := range d {
			if d[i] < 0.3 && d[i] > 1e-6 && rng.Float64() < cfg.NegativeFrac {
				d[i] = -d[i]
			}
		}
	}

	b := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, d[i])
	}
	// rowBudget/colBudget track remaining dominance slack per row/column so
	// that strict dominance survives however many couplings land in a line.
	rowBudget := make([]float64, n)
	colBudget := make([]float64, n)
	for i := range d {
		rowBudget[i] = 0.45 * math.Abs(d[i])
		colBudget[i] = 0.45 * math.Abs(d[i])
	}
	target := cfg.AvgCouplings * n
	for placed := 0; placed < target; placed++ {
		i := rng.Intn(n)
		// Mix of local (banded, like node neighbours) and long-range (like
		// supply nets) connections.
		var j int
		if rng.Float64() < 0.8 {
			j = i + rng.Intn(21) - 10
			if j < 0 || j >= n || j == i {
				continue
			}
		} else {
			j = rng.Intn(n)
			if j == i {
				continue
			}
		}
		limit := 0.25 * math.Min(math.Abs(d[i]), math.Abs(d[j]))
		limit = math.Min(limit, math.Min(rowBudget[i], colBudget[j]))
		if limit <= 0 {
			continue
		}
		c := limit * (0.2 + 0.8*rng.Float64())
		if rng.Float64() < 0.5 {
			c = -c
		}
		b.Add(i, j, c)
		rowBudget[i] -= math.Abs(c)
		colBudget[j] -= math.Abs(c)
	}

	m := b.Build()
	if cfg.TargetNorm2 > 0 {
		est := m.Norm2Est(300, 1e-10)
		if est > 0 {
			m = m.Scale(cfg.TargetNorm2 / est)
		}
	}
	return m
}

// ConvectionDiffusion2D returns the n²-by-n² upwind finite-difference
// discretization of −Δu + (wx,wy)·∇u on the unit square. For nonzero wind it
// is nonsymmetric but much better conditioned than the circuit matrix —
// useful as a mild nonsymmetric example.
func ConvectionDiffusion2D(n int, wx, wy float64) *sparse.CSR {
	if n <= 0 {
		panic(fmt.Sprintf("gallery.ConvectionDiffusion2D: n = %d", n))
	}
	N := n * n
	h := 1.0 / float64(n+1)
	b := sparse.NewBuilder(N, N)
	idx := func(i, j int) int { return i*n + j }
	// Upwind first-order convection keeps the matrix an M-matrix.
	cxm := -1.0 - math.Max(wx, 0)*h // coefficient for u(i-1,j)
	cxp := -1.0 + math.Min(wx, 0)*h // coefficient for u(i+1,j)
	cym := -1.0 - math.Max(wy, 0)*h
	cyp := -1.0 + math.Min(wy, 0)*h
	diag := 4.0 + (math.Max(wx, 0)-math.Min(wx, 0))*h + (math.Max(wy, 0)-math.Min(wy, 0))*h
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			r := idx(i, j)
			b.Add(r, r, diag)
			if i > 0 {
				b.Add(r, idx(i-1, j), cxm)
			}
			if i < n-1 {
				b.Add(r, idx(i+1, j), cxp)
			}
			if j > 0 {
				b.Add(r, idx(i, j-1), cym)
			}
			if j < n-1 {
				b.Add(r, idx(i, j+1), cyp)
			}
		}
	}
	return b.Build()
}

// Tridiag returns the n-by-n tridiagonal matrix with constant bands
// (sub, diag, super).
func Tridiag(n int, sub, diag, super float64) *sparse.CSR {
	if n <= 0 {
		panic(fmt.Sprintf("gallery.Tridiag: n = %d", n))
	}
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, diag)
		if i > 0 {
			b.Add(i, i-1, sub)
		}
		if i < n-1 {
			b.Add(i, i+1, super)
		}
	}
	return b.Build()
}

// Diagonal returns diag(vals).
func Diagonal(vals []float64) *sparse.CSR {
	b := sparse.NewBuilder(len(vals), len(vals))
	for i, v := range vals {
		b.Add(i, i, v)
	}
	return b.Build()
}

// RandomSparse returns an n-by-n random sparse matrix with the given density
// and a boosted diagonal for nonsingularity. Used for fuzz-style solver
// tests.
func RandomSparse(n int, density float64, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		var rowSum float64
		for j := 0; j < n; j++ {
			if j != i && rng.Float64() < density {
				v := rng.NormFloat64()
				b.Add(i, j, v)
				rowSum += math.Abs(v)
			}
		}
		b.Add(i, i, rowSum+1+rng.Float64())
	}
	return b.Build()
}
