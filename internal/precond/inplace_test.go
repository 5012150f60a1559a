package precond

import (
	"math"
	"math/rand"
	"testing"

	"sdcgmres/internal/gallery"
	"sdcgmres/internal/sparse"
)

// refSSORApply is SSOR.Apply as it was with a separate forward-sweep
// buffer: the reference the in-place sweeps must match bit for bit.
func refSSORApply(s *SSOR, a *sparse.CSR, z, q []float64) {
	n := a.Rows()
	scale := s.omega * (2 - s.omega)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := q[i]
		cols, vals := a.Row(i)
		for k, j := range cols {
			if j < i {
				sum -= vals[k] * y[j]
			}
		}
		y[i] = sum * s.omega / s.diag[i]
	}
	for i := 0; i < n; i++ {
		y[i] *= s.diag[i] / s.omega
	}
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		cols, vals := a.Row(i)
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
}

// refILU0Apply is ILU0.Apply as it was with a separate forward-solve buffer.
func refILU0Apply(p *ILU0, z, q []float64) {
	n := p.lu.Rows()
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := q[i]
		cols, vals := p.lu.Row(i)
		for k, j := range cols {
			if j >= i {
				break
			}
			sum -= vals[k] * y[j]
		}
		y[i] = sum
	}
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		cols, vals := p.lu.Row(i)
		d := p.diag[i]
		for k := d + 1; k < len(cols); k++ {
			sum -= vals[k] * z[cols[k]]
		}
		z[i] = sum / vals[d]
	}
}

// refILU0ApplyTranspose is ILU0.ApplyTranspose as it was with a separate
// buffer for Uᵀ y = q.
func refILU0ApplyTranspose(p *ILU0, z, q []float64) {
	n := p.lu.Rows()
	y := make([]float64, n)
	copy(y, q)
	for i := 0; i < n; i++ {
		cols, vals := p.lu.Row(i)
		d := p.diag[i]
		y[i] /= vals[d]
		for k := d + 1; k < len(cols); k++ {
			y[cols[k]] -= vals[k] * y[i]
		}
	}
	copy(z, y)
	for i := n - 1; i >= 0; i-- {
		cols, vals := p.lu.Row(i)
		for k, j := range cols {
			if j >= i {
				break
			}
			z[j] -= vals[k] * z[i]
		}
	}
}

// TestInPlaceAppliesMatchTwoBufferReference requires the in-place
// triangular sweeps to reproduce the old two-buffer code bit for bit on
// convection-diffusion and Poisson operators, into a separate z and with z
// aliasing q, and to allocate nothing once the SSOR transpose is built.
func TestInPlaceAppliesMatchTwoBufferReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, a := range []*sparse.CSR{gallery.ConvectionDiffusion2D(12, 4, -2), gallery.Poisson2D(12)} {
		n := a.Rows()
		ssor, err := NewSSOR(a, 1.3)
		if err != nil {
			t.Fatal(err)
		}
		ilu, err := NewILU0(a)
		if err != nil {
			t.Fatal(err)
		}
		at := a.Transpose()
		cases := []struct {
			name  string
			apply func(z, q []float64) error
			ref   func(z, q []float64)
		}{
			{"SSOR.Apply", ssor.Apply, func(z, q []float64) { refSSORApply(ssor, a, z, q) }},
			{"SSOR.ApplyTranspose", ssor.ApplyTranspose, func(z, q []float64) { refSSORApply(ssor, at, z, q) }},
			{"ILU0.Apply", ilu.Apply, func(z, q []float64) { refILU0Apply(ilu, z, q) }},
			{"ILU0.ApplyTranspose", ilu.ApplyTranspose, func(z, q []float64) { refILU0ApplyTranspose(ilu, z, q) }},
		}
		for _, c := range cases {
			q := make([]float64, n)
			for i := range q {
				q[i] = rng.NormFloat64()
			}
			want := make([]float64, n)
			c.ref(want, q)
			got := make([]float64, n)
			if err := c.apply(got, q); err != nil {
				t.Fatal(err)
			}
			aliased := append([]float64(nil), q...)
			if err := c.apply(aliased, aliased); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) || math.Float64bits(aliased[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s n=%d: z[%d] = %g (aliased %g), want %g", c.name, n, i, got[i], aliased[i], want[i])
				}
			}
			if allocs := testing.AllocsPerRun(20, func() { _ = c.apply(got, q) }); allocs != 0 {
				t.Fatalf("%s n=%d: %v allocations per call, want 0", c.name, n, allocs)
			}
		}
	}
}
