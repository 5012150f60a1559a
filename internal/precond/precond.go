// Package precond implements the classic preconditioners an FT-GMRES
// deployment would wrap around its inner solves: Jacobi (diagonal), SSOR
// sweeps, and ILU(0) — incomplete LU with zero fill-in on the CSR pattern.
//
// All implement krylov.Preconditioner (Apply solves M z = q approximately)
// and Transposable (ApplyTranspose solves Mᵀ z = q), which the
// preconditioner-aware detector bound needs: with right preconditioning the
// Arnoldi coefficients are bounded by ‖A M⁻¹‖ (the paper's Section V-B
// notes the bound is on "the norm of the preconditioned matrix"), and
// estimating that norm by power iteration on (AM⁻¹)ᵀ(AM⁻¹) requires the
// transpose application.
package precond

import (
	"fmt"
	"math"
	"sync"

	"sdcgmres/internal/krylov"
	"sdcgmres/internal/sparse"
)

// Transposable is a preconditioner that can also apply its transposed
// inverse, enabling norm estimation of the preconditioned operator.
type Transposable interface {
	krylov.Preconditioner
	// ApplyTranspose computes z = M⁻ᵀ q.
	ApplyTranspose(z, q []float64) error
}

// Jacobi is diagonal preconditioning: M = diag(A).
type Jacobi struct {
	inv []float64
}

// NewJacobi builds the Jacobi preconditioner, failing on a zero diagonal.
func NewJacobi(a *sparse.CSR) (*Jacobi, error) {
	d := a.Diagonal()
	inv := make([]float64, len(d))
	for i, v := range d {
		if v == 0 {
			return nil, fmt.Errorf("precond: jacobi needs a nonzero diagonal, row %d is zero", i)
		}
		inv[i] = 1 / v
	}
	return &Jacobi{inv: inv}, nil
}

// Apply implements krylov.Preconditioner.
func (j *Jacobi) Apply(z, q []float64) error {
	if len(z) != len(j.inv) || len(q) != len(j.inv) {
		return fmt.Errorf("precond: jacobi dimension mismatch")
	}
	for i := range z {
		z[i] = q[i] * j.inv[i]
	}
	return nil
}

// ApplyTranspose implements Transposable (diagonal ⇒ symmetric).
func (j *Jacobi) ApplyTranspose(z, q []float64) error { return j.Apply(z, q) }

// SSOR is the symmetric successive-over-relaxation preconditioner
// M = (D/ω + L) · (D/ω)⁻¹ · (D/ω + U) · ω/(2−ω), applied via one forward
// and one backward sweep.
type SSOR struct {
	a     *sparse.CSR
	diag  []float64
	omega float64

	// t is the SSOR preconditioner of Aᵀ, built by the first ApplyTranspose.
	tOnce sync.Once
	t     *SSOR
}

// NewSSOR builds the SSOR preconditioner with relaxation factor omega in
// (0, 2); omega = 1 gives symmetric Gauss-Seidel.
func NewSSOR(a *sparse.CSR, omega float64) (*SSOR, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("precond: SSOR needs a square matrix")
	}
	if omega <= 0 || omega >= 2 {
		return nil, fmt.Errorf("precond: SSOR omega %g outside (0,2)", omega)
	}
	d := a.Diagonal()
	for i, v := range d {
		if v == 0 {
			return nil, fmt.Errorf("precond: SSOR needs a nonzero diagonal, row %d is zero", i)
		}
	}
	return &SSOR{a: a, diag: d, omega: omega}, nil
}

// Apply implements krylov.Preconditioner: z = M⁻¹ q via a forward then a
// backward triangular sweep, both in place in z, so z may alias q.
func (s *SSOR) Apply(z, q []float64) error {
	n := s.a.Rows()
	if len(z) != n || len(q) != n {
		return fmt.Errorf("precond: SSOR dimension mismatch")
	}
	scale := s.omega * (2 - s.omega)
	// Forward: (D/ω + L) y = q, y in z. Row i reads q[i] before writing
	// z[i], and only the y[j], j < i, already in z.
	for i := 0; i < n; i++ {
		sum := q[i]
		cols, vals := s.a.Row(i)
		for k, j := range cols {
			if j < i {
				sum -= vals[k] * z[j]
			}
		}
		z[i] = sum * s.omega / s.diag[i]
	}
	// Scale by D/ω then backward: (D/ω + U) z = (D/ω) y.
	for i := 0; i < n; i++ {
		z[i] *= s.diag[i] / s.omega
	}
	for i := n - 1; i >= 0; i-- {
		sum := z[i]
		cols, vals := s.a.Row(i)
		for k, j := range cols {
			if j > i {
				sum -= vals[k] * z[j]
			}
		}
		z[i] = sum * s.omega / s.diag[i]
	}
	for i := range z {
		z[i] *= scale
	}
	return nil
}

// ApplyTranspose implements Transposable: M(ω)ᵀ swaps the roles of L and
// U, i.e., it is the SSOR preconditioner of Aᵀ.
func (s *SSOR) ApplyTranspose(z, q []float64) error {
	s.tOnce.Do(func() { s.t = &SSOR{a: s.a.Transpose(), diag: s.diag, omega: s.omega} })
	return s.t.Apply(z, q)
}

// ILU0 is the incomplete LU factorization with zero fill-in: L and U share
// A's sparsity pattern exactly. Apply performs the two triangular solves.
type ILU0 struct {
	// lu stores the combined factors on A's pattern: strictly-lower
	// entries are L (unit diagonal implied), diagonal and upper are U.
	lu   *sparse.CSR
	diag []int // index of the diagonal entry within each row of lu
}

// NewILU0 computes the ILU(0) factorization (the IKJ variant). It fails if
// a pivot becomes zero — for the diagonally dominant matrices of this
// study that cannot happen, but arbitrary Matrix Market inputs can trip it.
func NewILU0(a *sparse.CSR) (*ILU0, error) {
	n := a.Rows()
	if a.Cols() != n {
		return nil, fmt.Errorf("precond: ILU(0) needs a square matrix")
	}
	// Deep-copy values (pattern is shared semantics but CSR is immutable,
	// so rebuild from triplets).
	lu := sparse.NewCSRFromTriplets(n, n, a.Triplets())
	diag := make([]int, n)
	// Column-position scratch for the active row.
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}

	cols, vals := rawRows(lu)
	for i := 0; i < n; i++ {
		ci, vi := cols[i], vals[i]
		diag[i] = -1
		for k, j := range ci {
			pos[j] = k
			if j == i {
				diag[i] = k
			}
		}
		if diag[i] == -1 {
			return nil, fmt.Errorf("precond: ILU(0) needs a structurally nonzero diagonal, row %d lacks one", i)
		}
		for k, kcol := range ci {
			if kcol >= i {
				break
			}
			ck, vk := cols[kcol], vals[kcol]
			dk := -1
			for kk, jj := range ck {
				if jj == kcol {
					dk = kk
					break
				}
			}
			if dk == -1 || vk[dk] == 0 {
				return nil, fmt.Errorf("precond: ILU(0) zero pivot at row %d", kcol)
			}
			vi[k] /= vk[dk]
			lik := vi[k]
			for kk := dk + 1; kk < len(ck); kk++ {
				if p := pos[ck[kk]]; p >= 0 {
					vi[p] -= lik * vk[kk]
				}
			}
		}
		if vi[diag[i]] == 0 {
			return nil, fmt.Errorf("precond: ILU(0) zero pivot at row %d", i)
		}
		for _, j := range ci {
			pos[j] = -1
		}
	}
	return &ILU0{lu: lu, diag: diag}, nil
}

// rawRows exposes per-row column/value slices of a CSR matrix.
func rawRows(m *sparse.CSR) (cols [][]int, vals [][]float64) {
	n := m.Rows()
	cols = make([][]int, n)
	vals = make([][]float64, n)
	for i := 0; i < n; i++ {
		cols[i], vals[i] = m.Row(i)
	}
	return cols, vals
}

// Apply implements krylov.Preconditioner: z = U⁻¹ L⁻¹ q, both triangular
// solves in place in z, so z may alias q.
func (p *ILU0) Apply(z, q []float64) error {
	n := p.lu.Rows()
	if len(z) != n || len(q) != n {
		return fmt.Errorf("precond: ILU(0) dimension mismatch")
	}
	// Forward: L y = q, unit diagonal, y in z. Row i reads q[i] before
	// writing z[i], and only the y[j], j < i, already in z.
	for i := 0; i < n; i++ {
		sum := q[i]
		cols, vals := p.lu.Row(i)
		for k, j := range cols {
			if j >= i {
				break
			}
			sum -= vals[k] * z[j]
		}
		z[i] = sum
	}
	// Backward: U z = y.
	for i := n - 1; i >= 0; i-- {
		sum := z[i]
		cols, vals := p.lu.Row(i)
		d := p.diag[i]
		for k := d + 1; k < len(cols); k++ {
			sum -= vals[k] * z[cols[k]]
		}
		z[i] = sum / vals[d]
	}
	return nil
}

// ApplyTranspose implements Transposable: z = (LU)⁻ᵀ q = L⁻ᵀ U⁻ᵀ q, both
// triangular solves in place in z.
func (p *ILU0) ApplyTranspose(z, q []float64) error {
	n := p.lu.Rows()
	if len(z) != n || len(q) != n {
		return fmt.Errorf("precond: ILU(0) dimension mismatch")
	}
	// Uᵀ is lower triangular: forward solve Uᵀ y = q, y in z. Column-oriented
	// over rows of U.
	copy(z, q)
	for i := 0; i < n; i++ {
		cols, vals := p.lu.Row(i)
		d := p.diag[i]
		z[i] /= vals[d]
		for k := d + 1; k < len(cols); k++ {
			z[cols[k]] -= vals[k] * z[i]
		}
	}
	// Lᵀ is upper triangular with unit diagonal: backward solve Lᵀ z = y.
	for i := n - 1; i >= 0; i-- {
		cols, vals := p.lu.Row(i)
		for k, j := range cols {
			if j >= i {
				break
			}
			z[j] -= vals[k] * z[i]
		}
	}
	return nil
}

// Norm2EstPreconditioned estimates ‖A M⁻¹‖₂ by power iteration on
// (AM⁻¹)ᵀ(AM⁻¹) — the bound the Hessenberg detector must use when the
// inner solver is right-preconditioned (Section V-B: "the bound depends on
// the norm of the preconditioned matrix").
func Norm2EstPreconditioned(a *sparse.CSR, m Transposable, maxIter int, tol float64) (float64, error) {
	n := a.Rows()
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 + 0.5*math.Sin(float64(2*i+1))
	}
	bx := make([]float64, n)
	tmp := make([]float64, n)
	prev := 0.0
	for it := 0; it < maxIter; it++ {
		nx := norm2(x)
		if nx == 0 {
			return 0, fmt.Errorf("precond: norm estimation collapsed")
		}
		scale(1/nx, x)
		// bx = A M⁻¹ x
		if err := m.Apply(tmp, x); err != nil {
			return 0, err
		}
		a.MatVec(bx, tmp)
		// x = M⁻ᵀ Aᵀ bx
		a.MatTVec(tmp, bx)
		if err := m.ApplyTranspose(x, tmp); err != nil {
			return 0, err
		}
		est := math.Sqrt(norm2(x))
		if prev > 0 && math.Abs(est-prev) <= tol*est {
			return est, nil
		}
		prev = est
	}
	return prev, nil
}

func norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

func scale(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

var (
	_ Transposable = (*Jacobi)(nil)
	_ Transposable = (*SSOR)(nil)
	_ Transposable = (*ILU0)(nil)
)
