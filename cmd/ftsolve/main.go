// Command ftsolve is a general-purpose FT-GMRES front end: it solves
// A x = b for a Matrix Market system with the fault-tolerant nested solver
// and writes the solution. The right-hand side may come from a file (one
// value per line), or default to A·1.
//
// Usage:
//
//	ftsolve -A matrix.mtx [-b rhs.txt] [-o x.txt] [-tol 1e-8]
//	        [-inner 25] [-max-outer 100] [-detector]
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"sdcgmres/internal/core"
	"sdcgmres/internal/detect"
	"sdcgmres/internal/gallery"
	"sdcgmres/internal/krylov"
	"sdcgmres/internal/vec"
)

func main() {
	matPath := flag.String("A", "", "Matrix Market file (required)")
	rhsPath := flag.String("b", "", "right-hand side file, one value per line (default: A*ones)")
	outPath := flag.String("o", "", "solution output file (default: stdout summary only)")
	tol := flag.Float64("tol", 1e-8, "relative residual tolerance")
	inner := flag.Int("inner", 25, "inner iterations per outer iteration")
	maxOuter := flag.Int("max-outer", 100, "outer iteration cap")
	detector := flag.Bool("detector", true, "enable the SDC detector with restart response")
	quiet := flag.Bool("q", false, "suppress the per-iteration progress line")
	flag.Parse()

	if *matPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	a, _, err := gallery.FromMatrixMarketFile(*matPath)
	if err != nil {
		fatal(err)
	}
	var b []float64
	if *rhsPath != "" {
		b, err = readVector(*rhsPath)
		if err != nil {
			fatal(err)
		}
		if len(b) != a.Rows() {
			fatal(fmt.Errorf("rhs has %d entries, matrix has %d rows", len(b), a.Rows()))
		}
	} else {
		b = make([]float64, a.Rows())
		a.MatVec(b, vec.Ones(a.Cols()))
	}

	cfg := core.Config{
		MaxOuter: *maxOuter,
		OuterTol: *tol,
		Inner:    core.InnerConfig{Iterations: *inner},
	}
	if *detector {
		cfg.Detector = core.DetectorConfig{Enabled: true, Kind: detect.FrobeniusBound, Response: core.ResponseRestartInner}
	}
	if !*quiet {
		cfg.OnOuter = func(it int, rel float64) {
			fmt.Fprintf(os.Stderr, "outer %4d: relative residual %.6e\n", it, rel)
		}
	}
	res, err := core.New(a, cfg).Solve(b, nil)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("converged=%v residual=%.6e outer=%d inner=%d detections=%d\n",
		res.Converged, res.FinalResidual, res.Stats.OuterIterations, res.Stats.InnerIterations, res.Stats.Detections)
	if *outPath != "" {
		if err := writeVector(*outPath, res.X); err != nil {
			fatal(err)
		}
	}
	// Exit codes via the sentinel errors: 3 when the detector fired and
	// the solve still failed (known-corrupt run), 1 for plain
	// non-convergence.
	if err := res.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "ftsolve:", err)
		if errors.Is(err, krylov.ErrDetected) {
			os.Exit(3)
		}
		os.Exit(1)
	}
}

func readVector(path string) ([]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []float64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %w", line, err)
		}
		out = append(out, v)
	}
	return out, sc.Err()
}

func writeVector(path string, x []float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for _, v := range x {
		if _, err := fmt.Fprintf(w, "%.17g\n", v); err != nil {
			return err
		}
	}
	return w.Flush()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ftsolve:", err)
	os.Exit(1)
}
