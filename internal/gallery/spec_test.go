package gallery

import (
	"strings"
	"testing"
)

const specMM = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 4.0\n2 2 4.0\n"

// TestSpecKeyStable pins Key to the strings the solver service's matrix
// key produced before the spec moved here. The key is the matrix part of
// every job digest, so memo keys and store-warmed caches depend on it.
func TestSpecKeyStable(t *testing.T) {
	for _, c := range []struct {
		spec Spec
		want string
	}{
		{Spec{Kind: "poisson", N: 48}, "poisson|n=48|"},
		{Spec{Kind: "circuit", N: 2000}, "circuit|n=2000|"},
		{Spec{Kind: "convdiff", N: 48}, "convdiff|n=48|cx=10|cy=-5|"},
		{Spec{Kind: "convdiff", N: 48, CX: 1, CY: 2}, "convdiff|n=48|cx=1|cy=2|"},
		{Spec{Kind: "convdiff", N: 16, CX: 0.5, CY: -1e-3}, "convdiff|n=16|cx=0.5|cy=-0.001|"},
		{Spec{Kind: "mm", MM: specMM}, "mm|mm=42a86408a82804df7b3389f1159442244ffee60f38cbcbaa5c4879379b98bc93|"},
	} {
		if got := c.spec.Key(); got != c.want {
			t.Errorf("%+v: key %q, want %q", c.spec, got, c.want)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	for _, s := range []Spec{
		{Kind: "poisson", N: 2}, {Kind: "poisson", N: MaxGridN},
		{Kind: "convdiff", N: 2}, {Kind: "convdiff", N: MaxGridN, CX: 1},
		{Kind: "circuit", N: 3}, {Kind: "circuit", N: MaxCircuitN},
		{Kind: "mm", MM: specMM},
	} {
		if err := s.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", s, err)
		}
	}
	for _, c := range []struct {
		spec Spec
		want string
	}{
		{Spec{}, "matrix kind missing"},
		{Spec{Kind: "dense", N: 4}, "unknown matrix kind"},
		{Spec{Kind: "poisson", N: 1}, "out of range"},
		{Spec{Kind: "poisson", N: MaxGridN + 1}, "out of range"},
		{Spec{Kind: "convdiff", N: -3}, "out of range"},
		{Spec{Kind: "circuit", N: 2}, "out of range"},
		{Spec{Kind: "circuit", N: MaxCircuitN + 1}, "out of range"},
		{Spec{Kind: "mm"}, "needs inline mm"},
		{Spec{Kind: "mm", MM: strings.Repeat("%", MaxMMBytes+1)}, "exceeds cap"},
		{Spec{Kind: "mm", MM: "%%MatrixMarket matrix coordinate real general\n600000 2 0\n"}, "exceeds cap"},
	} {
		err := c.spec.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) || !strings.HasPrefix(err.Error(), "gallery: ") {
			t.Errorf("%.60v: error %v, want a gallery error mentioning %q", c.spec, err, c.want)
		}
	}
}

func TestSpecBuild(t *testing.T) {
	for _, c := range []struct {
		spec Spec
		rows int
		name string
	}{
		{Spec{Kind: "poisson", N: 3}, 9, "poisson-3x3"},
		{Spec{Kind: "circuit", N: 3}, 3, "circuit-dcop-3"},
		{Spec{Kind: "convdiff", N: 4}, 16, "convdiff-4x4"},
		{Spec{Kind: "mm", MM: specMM}, 2, "mm"},
	} {
		a, err := c.spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if a.Rows() != c.rows || a.Cols() != c.rows || c.spec.Name() != c.name {
			t.Errorf("%+v: built %dx%d named %q, want %d rows named %q", c.spec, a.Rows(), a.Cols(), c.spec.Name(), c.rows, c.name)
		}
	}
	if _, err := (Spec{Kind: "mm", MM: "%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1.0\n"}).Build(); err == nil {
		t.Error("non-square mm payload built")
	}
}

// FuzzSpec: no spec may make Validate panic, and an accepted spec of size
// at most 64 must build without panicking, into a square matrix of the
// size its kind promises, under one key.
func FuzzSpec(f *testing.F) {
	f.Add("poisson", 8, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, kind string, n int, cx, cy float64) {
		s := Spec{Kind: kind, N: n, CX: cx, CY: cy}
		if s.Validate() != nil || n > 64 {
			return
		}
		key := s.Key()
		a, err := s.Build()
		if err != nil {
			t.Fatalf("%+v validated but did not build: %v", s, err)
		}
		rows := n * n
		if kind == "circuit" {
			rows = n
		}
		if a.Rows() != rows || a.Cols() != rows {
			t.Fatalf("%+v built a %dx%d matrix, want %d rows", s, a.Rows(), a.Cols(), rows)
		}
		if s.Key() != key {
			t.Fatalf("%+v: key changed from %q to %q", s, key, s.Key())
		}
	})
}
