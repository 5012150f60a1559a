package gallery

import (
	"crypto/sha256"
	"fmt"
	"strings"

	"sdcgmres/internal/sparse"
)

// Resource ceilings for untrusted problem specs: job specs and campaign
// manifests alike. They bound the memory and assembly cost one request can
// demand; the wall-clock cost is bounded separately by each solve's time
// budget.
const (
	// MaxGridN caps the grid side for poisson/convdiff (n² rows).
	MaxGridN = 512
	// MaxCircuitN caps the circuit surrogate dimension.
	MaxCircuitN = 60000
	// MaxMMBytes caps inline Matrix Market payloads.
	MaxMMBytes = 8 << 20
)

// Spec names one operator of the gallery: a generator and its size, or an
// inline Matrix Market payload. It is the one problem vocabulary of the
// repository: the solver service's job specs, campaign manifests and the
// CLIs validate, key, name and build their matrices through it, so every
// surface accepts exactly the same specs.
type Spec struct {
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
func (s Spec) convection() (cx, cy float64) {
	if s.CX == 0 && s.CY == 0 {
		return 10, -5
	}
	return s.CX, s.CY
}

// Validate rejects malformed or resource-abusive specs, and every spec a
// generator would refuse, before anything is built.
func (s Spec) Validate() error {
	switch s.Kind {
	case "poisson", "convdiff":
		if s.N < 2 || s.N > MaxGridN {
			return fmt.Errorf("gallery: %s n = %d out of range [2, %d]", s.Kind, s.N, MaxGridN)
		}
	case "circuit":
		// CircuitDCOP needs N >= 3.
		if s.N < 3 || s.N > MaxCircuitN {
			return fmt.Errorf("gallery: circuit n = %d out of range [3, %d]", s.N, MaxCircuitN)
		}
	case "mm":
		if s.MM == "" {
			return fmt.Errorf("gallery: matrix kind %q needs inline mm content", s.Kind)
		}
		if len(s.MM) > MaxMMBytes {
			return fmt.Errorf("gallery: mm payload %d bytes exceeds cap %d", len(s.MM), MaxMMBytes)
		}
		// A few bytes can declare a matrix whose assembly alone exhausts
		// memory, so the declared size gets the generators' largest system
		// as its cap.
		rows, cols, err := sparse.ReadMatrixMarketSize(strings.NewReader(s.MM))
		if err != nil {
			return fmt.Errorf("gallery: bad matrix market payload: %w", err)
		}
		if maxRows := MaxGridN * MaxGridN; rows > maxRows || cols > maxRows {
			return fmt.Errorf("gallery: mm matrix %dx%d exceeds cap of %d rows and columns", rows, cols, maxRows)
		}
	case "":
		return fmt.Errorf("gallery: matrix kind missing (want poisson | circuit | convdiff | mm)")
	default:
		return fmt.Errorf("gallery: unknown matrix kind %q", s.Kind)
	}
	return nil
}

// Key is the canonical form of a validated spec: two specs share a key
// exactly when Build makes the same operator from them. Generators key by
// kind and size (convdiff with its convection field resolved), inline
// Matrix Market payloads by their sha256. It keys cached operators and is
// the matrix part of the service's job digests, so it must never change.
func (s Spec) Key() string {
	switch s.Kind {
	case "mm":
		sum := sha256.Sum256([]byte(s.MM))
		return fmt.Sprintf("mm|mm=%x|", sum[:])
	case "convdiff":
		cx, cy := s.convection()
		return fmt.Sprintf("convdiff|n=%d|cx=%g|cy=%g|", s.N, cx, cy)
	}
	return fmt.Sprintf("%s|n=%d|", s.Kind, s.N)
}

// Name is the operator's report name: "poisson-NxN", "circuit-dcop-N",
// "convdiff-NxN" or "mm".
func (s Spec) Name() string {
	switch s.Kind {
	case "poisson", "convdiff":
		return fmt.Sprintf("%s-%dx%d", s.Kind, s.N, s.N)
	case "circuit":
		return fmt.Sprintf("circuit-dcop-%d", s.N)
	}
	return s.Kind
}

// Build makes the operator of a validated spec.
func (s Spec) Build() (*sparse.CSR, error) {
	switch s.Kind {
	case "poisson":
		return Poisson2D(s.N), nil
	case "circuit":
		return CircuitDCOP(DefaultCircuitDCOPConfig(s.N)), nil
	case "convdiff":
		cx, cy := s.convection()
		return ConvectionDiffusion2D(s.N, cx, cy), nil
	case "mm":
		return FromMatrixMarket(strings.NewReader(s.MM))
	}
	return nil, fmt.Errorf("gallery: unknown matrix kind %q", s.Kind)
}
