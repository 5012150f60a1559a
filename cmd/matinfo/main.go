// Command matinfo prints the Table I property set of a matrix: shape,
// sparsity, structural rank, symmetry, the fault-detector bounds ‖A‖₂ and
// ‖A‖F, and (when requested) a condition-number estimate.
//
// Usage:
//
//	matinfo -gen poisson -n 100
//	matinfo -gen circuit -n 25187
//	matinfo -file matrix.mtx [-cond]
//	matinfo -check-trace solve.jsonl
package main

import (
	"flag"
	"fmt"
	"os"

	"sdcgmres/internal/expt"
	"sdcgmres/internal/gallery"
	"sdcgmres/internal/sparse"
	"sdcgmres/internal/trace"
)

func main() {
	file := flag.String("file", "", "Matrix Market file to analyze")
	gen := flag.String("gen", "", "generator: poisson | circuit | convdiff")
	n := flag.Int("n", 100, "generator size (grid side for poisson/convdiff, dimension for circuit)")
	cond := flag.Bool("cond", false, "also estimate the condition number (file matrices: needs diagonal dominance)")
	checkTrace := flag.String("check-trace", "", "validate a JSONL flight-recorder trace file and print its event count")
	flag.Parse()

	switch {
	case *checkTrace != "":
		count, err := trace.CheckJSONLFile(*checkTrace)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("trace: %s\n  events: %d\n  status: ok (parseable, known kinds, non-decreasing timestamps)\n", *checkTrace, count)
		return
	case *gen != "":
		// Validated as a job spec is: a size the generator refuses is an error.
		spec := gallery.Spec{Kind: *gen, N: *n}
		if err := spec.Validate(); err != nil {
			fatal(err)
		}
		switch spec.Kind {
		case "poisson":
			expt.WriteTable1(os.Stdout, []expt.Table1Row{expt.Table1Poisson(*n)})
		case "circuit":
			row, err := expt.Table1Circuit(*n)
			if err != nil {
				fatal(err)
			}
			expt.WriteTable1(os.Stdout, []expt.Table1Row{row})
		case "convdiff":
			a, err := spec.Build()
			if err != nil {
				fatal(err)
			}
			describe(a, fmt.Sprintf("convdiff-%d", *n), *cond)
		}
		return
	case *file != "":
		m, err := sparse.ReadMatrixMarketFile(*file)
		if err != nil {
			fatal(err)
		}
		describe(m, *file, *cond)
		return
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func describe(m *sparse.CSR, name string, withCond bool) {
	p := sparse.Analyze(m, 1e-14)
	fmt.Printf("matrix: %s\n", name)
	fmt.Printf("  rows x cols:        %d x %d\n", p.Rows, p.Cols)
	fmt.Printf("  nonzeros:           %d (%.2f per row)\n", p.NNZ, float64(p.NNZ)/float64(max(p.Rows, 1)))
	fmt.Printf("  structural rank:    full=%v\n", p.StructuralFullRank)
	fmt.Printf("  pattern symmetric:  %v\n", p.PatternSymmetric)
	fmt.Printf("  numerically symm.:  %v\n", p.NumericallySymmetric)
	fmt.Println("  potential fault detectors (Eq. 3 bounds):")
	fmt.Printf("    ||A||_2 (est):    %.6g\n", p.Norm2Est)
	fmt.Printf("    ||A||_F:          %.6g\n", p.FrobeniusNorm)
	if withCond {
		smin, err := sparse.SigmaMinEstDominant(m, 80)
		if err != nil {
			fmt.Printf("  cond estimate:      unavailable (%v)\n", err)
			return
		}
		fmt.Printf("  cond_2 (est):       %.4e\n", p.Norm2Est/smin)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "matinfo:", err)
	os.Exit(1)
}
