package krylov

import (
	"context"
	"math"
	"sync"
	"testing"

	"sdcgmres/internal/gallery"
)

// sameSolve reports whether two FGMRES results are identical, floats
// compared as bits.
func sameSolve(got, want *Result) bool {
	bits := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	return got.Iterations == want.Iterations && got.Converged == want.Converged &&
		got.Breakdown == want.Breakdown && got.Halted == want.Halted &&
		got.FallbackUsed == want.FallbackUsed && got.Work == want.Work &&
		math.Float64bits(got.FinalResidual) == math.Float64bits(want.FinalResidual) &&
		bits(got.X, want.X) && bits(got.ResidualHistory, want.ResidualHistory)
}

// tapeCopy deep-copies everything a tape holds, to check later that no
// resumed solve wrote to it.
func tapeCopy(t *Tape) [][]float64 {
	var out [][]float64
	for _, vs := range [][][]float64{t.q, t.z} {
		for _, v := range vs {
			out = append(out, append([]float64(nil), v...))
		}
	}
	for _, st := range t.steps {
		out = append(out, append([]float64(nil), st.h...))
	}
	return out
}

// TestFGMRESResumeMatchesFullSolve resumes a recorded nested solve after
// every one of its iterations, from 8 goroutines at once, and requires each
// resumed result to equal the full solve bit for bit and the tape to be
// left exactly as recorded.
func TestFGMRESResumeMatchesFullSolve(t *testing.T) {
	a := gallery.ConvectionDiffusion2D(12, 4, -2)
	b := onesRHS(a)
	provider := FixedPreconditioner(innerGMRES(a, 6))
	for _, explicit := range []bool{false, true} {
		opts := FGMRESOptions{Options: Options{MaxIter: 40, Tol: 1e-10}, ExplicitResidual: explicit}
		want, err := FGMRES(a, b, nil, provider, opts)
		if err != nil {
			t.Fatal(err)
		}
		tape := &Tape{}
		rec, err := FGMRESRecord(context.Background(), a, b, nil, provider, opts, tape)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSolve(rec, want) {
			t.Fatalf("explicit=%v: recording changed the solve", explicit)
		}
		if tape.Len() != want.Iterations || tape.Len() < 3 {
			t.Fatalf("explicit=%v: tape holds %d iterations, solve ran %d", explicit, tape.Len(), want.Iterations)
		}
		before := tapeCopy(tape)

		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 1 + g%2; k < tape.Len(); k += 2 {
					got, err := FGMRESResume(context.Background(), a, b, nil, provider, opts, tape, k)
					if err != nil {
						t.Errorf("explicit=%v k=%d: %v", explicit, k, err)
						return
					}
					if !sameSolve(got, want) {
						t.Errorf("explicit=%v k=%d: resumed solve differs from the full one", explicit, k)
					}
				}
			}()
		}
		wg.Wait()
		after := tapeCopy(tape)
		for i := range before {
			for j := range before[i] {
				if math.Float64bits(before[i][j]) != math.Float64bits(after[i][j]) {
					t.Fatalf("explicit=%v: tape entry %d[%d] was written by a resumed solve", explicit, i, j)
				}
			}
		}
	}
}

func TestFGMRESResumeRejectsBadStart(t *testing.T) {
	a := gallery.Poisson2D(6)
	b := onesRHS(a)
	provider := FixedPreconditioner(innerGMRES(a, 4))
	opts := FGMRESOptions{Options: Options{MaxIter: 20, Tol: 1e-10}, ExplicitResidual: true}
	tape := &Tape{}
	if _, err := FGMRESRecord(context.Background(), a, b, nil, provider, opts, tape); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, -1, tape.Len()} {
		if _, err := FGMRESResume(context.Background(), a, b, nil, provider, opts, tape, k); err == nil {
			t.Errorf("k=%d of a %d-iteration tape: no error", k, tape.Len())
		}
	}
	short := opts
	short.MaxIter = 1
	if _, err := FGMRESResume(context.Background(), a, b, nil, provider, short, tape, 1); err == nil {
		t.Error("k at MaxIter: no error")
	}
	other := gallery.Poisson2D(5)
	if _, err := FGMRESResume(context.Background(), other, onesRHS(other), nil, provider, opts, tape, 1); err == nil {
		t.Error("operator of another size: no error")
	}
	if _, err := FGMRESResume(context.Background(), a, b, nil, provider, opts, &Tape{}, 1); err == nil {
		t.Error("empty tape: no error")
	}
}

// TestFGMRESResumeFromPrefix cuts a recording after each of its iterations
// but the last. Each prefix keeps only what resuming reads, restores every
// iteration it holds, and refuses one more; resuming from it at any k, its
// end included, equals the full solve. A whole recording restores all but
// its last iteration.
func TestFGMRESResumeFromPrefix(t *testing.T) {
	a := gallery.ConvectionDiffusion2D(12, 4, -2)
	b := onesRHS(a)
	provider := FixedPreconditioner(innerGMRES(a, 6))
	opts := FGMRESOptions{Options: Options{MaxIter: 40, Tol: 1e-10}, ExplicitResidual: true}
	tape := &Tape{}
	want, err := FGMRESRecord(context.Background(), a, b, nil, provider, opts, tape)
	if err != nil {
		t.Fatal(err)
	}
	if tape.Restorable() != tape.Len()-1 {
		t.Fatalf("whole recording restores %d of %d iterations", tape.Restorable(), tape.Len())
	}
	n := a.Rows()
	for k := 1; k < tape.Len(); k++ {
		p := tape.Prefix(k)
		if p.Len() != k || p.Restorable() != k || len(p.q) != k+1 || len(p.z) != k {
			t.Fatalf("k=%d: prefix holds %d steps, %d q, %d z, restores %d", k, p.Len(), len(p.q), len(p.z), p.Restorable())
		}
		if got, want := p.Bytes(), 8*int64((2*k+1)*n+k*(k+3)/2); got != want {
			t.Fatalf("k=%d: prefix bytes %d, want %d", k, got, want)
		}
		for _, at := range []int{1, k} {
			got, err := FGMRESResume(context.Background(), a, b, nil, provider, opts, p, at)
			if err != nil {
				t.Fatalf("k=%d resumed at %d: %v", k, at, err)
			}
			if !sameSolve(got, want) {
				t.Fatalf("k=%d resumed at %d: differs from the full solve", k, at)
			}
		}
		if _, err := FGMRESResume(context.Background(), a, b, nil, provider, opts, p, k+1); err == nil {
			t.Fatalf("k=%d: resumed past the prefix's end", k)
		}
	}
}
