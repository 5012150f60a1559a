package krylov

import (
	"context"
	"math"
	"testing"

	"sdcgmres/internal/gallery"
)

// poison fills every vector and buffer ws keeps with NaN, so a solve that
// read anything a previous solve left behind would show it in its bits.
// The basis and Z lists are left alone: they may point into a tape.
func poison(ws *Workspace) {
	nan := math.NaN()
	fill := func(v []float64) {
		v = v[:cap(v)]
		for i := range v {
			v[i] = nan
		}
	}
	for _, v := range ws.basis {
		fill(v)
	}
	for _, v := range ws.zs {
		fill(v)
	}
	for _, v := range [][]float64{ws.w, ws.pz, ws.x, ws.r, ws.cand, ws.col, ws.raw, ws.hist} {
		fill(v)
	}
	// The least-squares state is dense's; poison it through its own API:
	// NaN columns reach its matrices, rotations, right-hand side, ICE
	// vectors and column scratch, and a solve its result buffer.
	m := ws.lsq.K()
	if m == 0 {
		return
	}
	ws.lsq.Reset(m, nan)
	for j := 0; j < m; j++ {
		col := make([]float64, j+2)
		fill(col)
		ws.lsq.AppendColumn(col)
	}
	ws.lsq.SolveTriangular()
}

// TestWorkspaceReuseIsInvisible: a solve on a used workspace whose every
// buffer holds NaN equals the same solve on a fresh one bit for bit, for
// GMRES with and without a preconditioner and with restarts, and for
// FGMRES fresh and resumed from a tape.
func TestWorkspaceReuseIsInvisible(t *testing.T) {
	a := gallery.ConvectionDiffusion2D(12, 4, -2)
	b := onesRHS(a)
	other := make([]float64, len(b)) // a different system, to leave state behind
	for i := range other {
		other[i] = float64(i%7) - 3
	}
	diag := PrecondFunc(func(z, q []float64) error {
		for i := range z {
			z[i] = q[i] / (4 + float64(i%3))
		}
		return nil
	})
	gmresCases := []struct {
		name string
		opts Options
	}{
		{"plain", Options{MaxIter: 30, Tol: 1e-10}},
		{"preconditioned", Options{MaxIter: 30, Tol: 1e-10, Precond: diag}},
		{"restarted CGS", Options{MaxIter: 8, MaxRestarts: 6, Tol: 1e-10, Ortho: CGS}},
		{"restarted preconditioned", Options{MaxIter: 8, MaxRestarts: 6, Tol: 1e-10, Precond: diag}},
	}
	for _, c := range gmresCases {
		want, err := GMRESCtx(context.Background(), a, b, nil, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		ws := new(Workspace)
		if _, err := ws.GMRES(context.Background(), a, other, nil, c.opts); err != nil {
			t.Fatal(err)
		}
		poison(ws)
		got, err := ws.GMRES(context.Background(), a, b, nil, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if want.Iterations < 2 || !sameSolve(got, want) {
			t.Errorf("GMRES %s: reused workspace gave %d iterations, residual %g; fresh gave %d, %g",
				c.name, got.Iterations, got.FinalResidual, want.Iterations, want.FinalResidual)
		}
	}

	// The identity as a right preconditioner leaves one cycle from x0 = 0
	// bit for bit as it is without one, which holds only if the
	// preconditioned update sums into a zeroed vector.
	identity := PrecondFunc(func(z, q []float64) error { copy(z, q); return nil })
	plain, err := GMRESCtx(context.Background(), a, b, nil, gmresCases[0].opts)
	if err != nil {
		t.Fatal(err)
	}
	ws := new(Workspace)
	withIdentity := gmresCases[0].opts
	withIdentity.Precond = identity
	for i := 0; i < 2; i++ {
		got, err := ws.GMRES(context.Background(), a, b, nil, withIdentity)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSolve(got, plain) {
			t.Fatalf("solve %d on one workspace: GMRES with an identity preconditioner differs from GMRES without one", i)
		}
		poison(ws)
	}

	provider := FixedPreconditioner(innerGMRES(a, 6))
	opts := FGMRESOptions{Options: Options{MaxIter: 40, Tol: 1e-10}, ExplicitResidual: true}
	want, err := FGMRESCtx(context.Background(), a, b, nil, provider, opts)
	if err != nil {
		t.Fatal(err)
	}
	tape := &Tape{}
	if _, err := FGMRESRecord(context.Background(), a, b, nil, provider, opts, tape); err != nil {
		t.Fatal(err)
	}
	before := tapeCopy(tape)
	ws = new(Workspace)
	for k := 0; k < tape.Len(); k++ {
		if _, err := ws.FGMRES(context.Background(), a, other, nil, provider, opts); err != nil {
			t.Fatal(err)
		}
		poison(ws)
		var got *Result
		if k == 0 {
			got, err = ws.FGMRES(context.Background(), a, b, nil, provider, opts)
		} else {
			got, err = ws.FGMRESResume(context.Background(), a, b, nil, provider, opts, tape, k)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !sameSolve(got, want) {
			t.Fatalf("FGMRES resumed at %d on a reused workspace differs from a fresh solve", k)
		}
		// The poison reaches the vectors a resumed solve took from its
		// workspace; the tape's stay as recorded.
		poison(ws)
	}
	after := tapeCopy(tape)
	for i := range before {
		for j := range before[i] {
			if math.Float64bits(before[i][j]) != math.Float64bits(after[i][j]) {
				t.Fatalf("tape entry %d[%d] was written through a workspace", i, j)
			}
		}
	}
}
