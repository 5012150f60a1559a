package service

import (
	"context"
	"strings"
	"testing"
)

func TestValidateAcceptsBuilders(t *testing.T) {
	for _, spec := range []JobSpec{
		PoissonJob(32),
		CircuitJob(500),
		ConvDiffJob(16),
		MatrixMarketJob("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 4.0\n2 2 4.0\n"),
	} {
		if err := spec.Validate(); err != nil {
			t.Fatalf("builder spec invalid: %v", err)
		}
	}
}

// Matrix Market payloads of a few bytes whose size lines declare matrices
// too large to assemble: 20,000,000 rows ask for about 306 MiB, and
// 2,000,000,000 rows for two 16 GB slices.
const (
	mmOversize    = "%%MatrixMarket matrix coordinate real general\n20000000 20000000 0\n"
	mmFarOversize = "%%MatrixMarket matrix coordinate real general\n2000000000 2000000000 0\n"
)

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
		want string
	}{
		{"no kind", JobSpec{}, "matrix kind missing"},
		{"bad kind", JobSpec{Matrix: MatrixSpec{Kind: "dense", N: 4}}, "unknown matrix kind"},
		{"oversize grid", JobSpec{Matrix: MatrixSpec{Kind: "poisson", N: MaxGridN + 1}}, "out of range"},
		{"tiny grid", JobSpec{Matrix: MatrixSpec{Kind: "poisson", N: 1}}, "out of range"},
		{"mm empty", JobSpec{Matrix: MatrixSpec{Kind: "mm"}}, "needs inline mm"},
		{"mm bad header", MatrixMarketJob("%%MatrixMarket matrix array real general\n2 2\n"), "coordinate"},
		{"mm symmetric non-square", MatrixMarketJob("%%MatrixMarket matrix coordinate real symmetric\n2 5 1\n1 5 1.0\n"), "must be square"},
		{"mm oversize", MatrixMarketJob(mmOversize), "exceeds cap"},
		{"mm far oversize", MatrixMarketJob(mmFarOversize), "exceeds cap"},
		{"bad solver", JobSpec{Matrix: MatrixSpec{Kind: "poisson", N: 8}, Solver: SolverSpec{Kind: "sor"}}, "unknown solver"},
		{"cg fault", JobSpec{Matrix: MatrixSpec{Kind: "poisson", N: 8}, Solver: SolverSpec{Kind: "cg"}, Fault: &FaultSpec{Class: "large", At: 1}}, "has none"},
		{"cg detector", JobSpec{Matrix: MatrixSpec{Kind: "poisson", N: 8}, Solver: SolverSpec{Kind: "cg", Detector: true}}, "does not apply"},
		{"bad tol", JobSpec{Matrix: MatrixSpec{Kind: "poisson", N: 8}, Solver: SolverSpec{Tol: 1.5}}, "tol"},
		{"bad ortho", JobSpec{Matrix: MatrixSpec{Kind: "poisson", N: 8}, Solver: SolverSpec{Ortho: "gram"}}, "orthogonalization"},
		{"bad policy", JobSpec{Matrix: MatrixSpec{Kind: "poisson", N: 8}, Solver: SolverSpec{Policy: "qr"}}, "lsq policy"},
		{"bad bound", JobSpec{Matrix: MatrixSpec{Kind: "poisson", N: 8}, Solver: SolverSpec{Bound: "l1"}}, "bound"},
		{"bad response", JobSpec{Matrix: MatrixSpec{Kind: "poisson", N: 8}, Solver: SolverSpec{Response: "reboot"}}, "response"},
		{"bad precond", JobSpec{Matrix: MatrixSpec{Kind: "poisson", N: 8}, Solver: SolverSpec{Precond: "amg"}}, "preconditioner"},
		{"bad fault class", JobSpec{Matrix: MatrixSpec{Kind: "poisson", N: 8}, Fault: &FaultSpec{Class: "huge", At: 1}}, "fault class"},
		{"bad fault site", JobSpec{Matrix: MatrixSpec{Kind: "poisson", N: 8}, Fault: &FaultSpec{Class: "large", At: 0}}, "must be >= 1"},
		{"negative budget", JobSpec{Matrix: MatrixSpec{Kind: "poisson", N: 8}, TimeBudgetMS: -1}, "time_budget_ms"},
		{"huge outer", JobSpec{Matrix: MatrixSpec{Kind: "poisson", N: 8}, Solver: SolverSpec{MaxOuter: MaxOuterCap + 1}}, "max_outer"},
		{"huge inner", JobSpec{Matrix: MatrixSpec{Kind: "poisson", N: 8}, Solver: SolverSpec{InnerIters: MaxInnerCap + 1}}, "inner_iters"},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if err == nil {
			t.Fatalf("%s: expected error", c.name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// FuzzMatrixMarketJob: an inline Matrix Market payload is untrusted, so no
// payload may make validation panic, and a validated one may neither panic
// the build nor yield a matrix that is not square or exceeds the generator
// jobs' largest system.
func FuzzMatrixMarketJob(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 4.0\n2 2 4.0\n")
	f.Fuzz(func(t *testing.T, payload string) {
		spec := MatrixMarketJob(payload)
		if spec.Validate() != nil {
			return
		}
		a, _, err := BuildMatrix(spec.Matrix)
		if err != nil {
			return
		}
		if a.Rows() != a.Cols() || a.Rows() > MaxGridN*MaxGridN {
			t.Fatalf("built a %dx%d matrix from %q", a.Rows(), a.Cols(), payload)
		}
	})
}

func TestParseFaultModelRoundTrip(t *testing.T) {
	for _, spec := range []string{"large", "slight", "tiny", "bitflip:63", "set:1.5", "scale:0.5"} {
		if _, err := ParseFaultModel(spec); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
	}
	for _, spec := range []string{"", "huge", "bitflip:64", "set:x"} {
		if _, err := ParseFaultModel(spec); err == nil {
			t.Fatalf("%q should fail", spec)
		}
	}
}

func TestRunSpecFTGMRES(t *testing.T) {
	spec := PoissonJob(16)
	rec, err := RunSpec(context.Background(), &spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Converged {
		t.Fatalf("failure-free solve should converge: %+v", rec)
	}
	if rec.Solver != "ftgmres" || rec.Rows != 256 || rec.Problem != "poisson-16x16" {
		t.Fatalf("record: %+v", rec)
	}
	if len(rec.ResidualHistory) == 0 || rec.OuterIterations == 0 {
		t.Fatalf("missing history: %+v", rec)
	}
	if rec.ForwardError > 1e-4 {
		t.Fatalf("forward error %g too large for a clean solve", rec.ForwardError)
	}
}

func TestRunSpecWithFaultAndDetector(t *testing.T) {
	spec := PoissonJob(16)
	spec.Fault = &FaultSpec{Class: "large", At: 3}
	rec, err := RunSpec(context.Background(), &spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.FaultInjected || !rec.FaultFired {
		t.Fatalf("fault should fire: %+v", rec)
	}
	if rec.Detections == 0 {
		t.Fatalf("class-1 fault must be detected: %+v", rec)
	}
	if !rec.Converged {
		t.Fatalf("restart-inner response should still converge: %+v", rec)
	}
}

func TestRunSpecGMRESAndCG(t *testing.T) {
	gm := JobSpec{Matrix: MatrixSpec{Kind: "poisson", N: 12}, Solver: SolverSpec{Kind: "gmres", MaxOuter: 200}}
	rec, err := RunSpec(context.Background(), &gm, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Solver != "gmres" || !rec.Converged {
		t.Fatalf("gmres record: %+v", rec)
	}

	cg := JobSpec{Matrix: MatrixSpec{Kind: "poisson", N: 12}, Solver: SolverSpec{Kind: "cg", MaxOuter: 500}}
	rec, err = RunSpec(context.Background(), &cg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Solver != "cg" || !rec.Converged {
		t.Fatalf("cg record: %+v", rec)
	}
}

func TestRunSpecMatrixMarket(t *testing.T) {
	mm := "%%MatrixMarket matrix coordinate real general\n3 3 5\n1 1 4.0\n2 2 4.0\n3 3 4.0\n1 2 -1.0\n2 1 -1.0\n"
	spec := MatrixMarketJob(mm)
	rec, err := RunSpec(context.Background(), &spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Converged || rec.Rows != 3 {
		t.Fatalf("record: %+v", rec)
	}
}

func TestRunSpecCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := PoissonJob(16)
	if _, err := RunSpec(ctx, &spec, nil, nil); err == nil {
		t.Fatal("canceled context should abort the solve")
	}
}
