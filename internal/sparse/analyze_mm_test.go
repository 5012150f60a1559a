package sparse

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestAnalyzeSymmetricMatrix(t *testing.T) {
	// Symmetric tridiagonal.
	b := NewBuilder(4, 4)
	for i := 0; i < 4; i++ {
		b.Add(i, i, 2)
		if i > 0 {
			b.Add(i, i-1, -1)
			b.Add(i-1, i, -1)
		}
	}
	p := Analyze(b.Build(), 1e-14)
	if !p.PatternSymmetric || !p.NumericallySymmetric {
		t.Fatalf("symmetric matrix misclassified: %+v", p)
	}
	if !p.StructuralFullRank {
		t.Fatal("tridiagonal should be structurally full rank")
	}
	if p.Rows != 4 || p.NNZ != 10 {
		t.Fatalf("props: %+v", p)
	}
}

func TestAnalyzePatternSymmetricButNumericallyNot(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 1, 1)
	b.Add(1, 0, 2) // pattern symmetric, values differ
	b.Add(0, 0, 1)
	b.Add(1, 1, 1)
	p := Analyze(b.Build(), 1e-14)
	if !p.PatternSymmetric {
		t.Fatal("pattern should be symmetric")
	}
	if p.NumericallySymmetric {
		t.Fatal("values are not symmetric")
	}
}

func TestAnalyzeNonsymmetric(t *testing.T) {
	b := NewBuilder(3, 3)
	b.Add(0, 0, 1)
	b.Add(0, 2, 5) // no (2,0) partner
	b.Add(1, 1, 1)
	b.Add(2, 2, 1)
	p := Analyze(b.Build(), 1e-14)
	if p.PatternSymmetric || p.NumericallySymmetric {
		t.Fatalf("nonsymmetric misclassified: %+v", p)
	}
}

func TestStructuralRankDeficient(t *testing.T) {
	// Column 1 empty -> structural rank 2 of 3.
	m := NewCSRFromTriplets(3, 3, []Triplet{{0, 0, 1}, {1, 0, 1}, {2, 2, 1}})
	if got := StructuralRank(m); got != 2 {
		t.Fatalf("StructuralRank = %d, want 2", got)
	}
	p := Analyze(m, 1e-14)
	if p.StructuralFullRank {
		t.Fatal("should not be structurally full rank")
	}
}

func TestStructuralRankNeedsAugmentingPath(t *testing.T) {
	// Greedy alone can pick (0->0) and then fail on row 1 unless it
	// augments: rows {0:{0,1}, 1:{0}}.
	m := NewCSRFromTriplets(2, 2, []Triplet{{0, 0, 1}, {0, 1, 1}, {1, 0, 1}})
	if got := StructuralRank(m); got != 2 {
		t.Fatalf("StructuralRank = %d, want 2 (augmenting path)", got)
	}
}

func TestStructuralRankRectangular(t *testing.T) {
	m := NewCSRFromTriplets(2, 4, []Triplet{{0, 1, 1}, {1, 3, 1}})
	if got := StructuralRank(m); got != 2 {
		t.Fatalf("StructuralRank = %d", got)
	}
}

func TestMaxAbsEntry(t *testing.T) {
	if got := small().MaxAbsEntry(); got != 5 {
		t.Fatalf("MaxAbsEntry = %g", got)
	}
}

// --- Matrix Market ---

const mmGeneral = `%%MatrixMarket matrix coordinate real general
% a comment
3 3 4
1 1 1.5
1 3 -2
2 2 3
3 1 4e-2
`

func TestReadMatrixMarketGeneral(t *testing.T) {
	m, err := ReadMatrixMarket(strings.NewReader(mmGeneral))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 3 || m.Cols() != 3 || m.NNZ() != 4 {
		t.Fatalf("shape %dx%d nnz %d", m.Rows(), m.Cols(), m.NNZ())
	}
	if m.At(0, 0) != 1.5 || m.At(0, 2) != -2 || m.At(2, 0) != 4e-2 {
		t.Fatal("values wrong")
	}
}

func TestReadMatrixMarketSymmetricExpansion(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real symmetric
3 3 3
1 1 2
2 1 -1
3 3 5
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != -1 || m.At(1, 0) != -1 {
		t.Fatal("symmetric entry not mirrored")
	}
	if m.NNZ() != 4 {
		t.Fatalf("NNZ = %d, want 4 after expansion", m.NNZ())
	}
}

func TestReadMatrixMarketSkewSymmetric(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real skew-symmetric
2 2 1
2 1 3
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 || m.At(0, 1) != -3 {
		t.Fatalf("skew expansion wrong: %g %g", m.At(1, 0), m.At(0, 1))
	}
}

func TestReadMatrixMarketPattern(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate pattern general
2 2 2
1 1
2 2
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 1 || m.At(1, 1) != 1 {
		t.Fatal("pattern entries should be 1")
	}
}

func TestReadMatrixMarketErrors(t *testing.T) {
	cases := []string{
		"",
		"%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",
		"%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n",
		"not a header\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 xyz\n",
		// A mirrored entry of a non-square symmetric matrix falls outside it.
		"%%MatrixMarket matrix coordinate real symmetric\n2 5 1\n1 5 1.0\n",
		"%%MatrixMarket matrix coordinate real skew-symmetric\n5 2 1\n5 1 1.0\n",
	}
	for i, src := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(src)); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := randomCSR(rng, 9, 7, 0.3)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := m.Dense(), m2.Dense()
	if len(a) != len(b) {
		t.Fatal("shape changed in round trip")
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 0 {
			t.Fatalf("value changed in round trip at %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestMatrixMarketFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.mtx")
	m := small()
	if err := WriteMatrixMarketFile(path, m); err != nil {
		t.Fatal(err)
	}
	m2, err := ReadMatrixMarketFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if m2.NNZ() != m.NNZ() {
		t.Fatal("file round trip changed nnz")
	}
	if _, err := ReadMatrixMarketFile(filepath.Join(dir, "missing.mtx")); !os.IsNotExist(err) {
		t.Fatalf("expected not-exist error, got %v", err)
	}
}

// TestReadMatrixMarketFuzzNoPanic feeds structured garbage to the parser:
// it must reject or accept cleanly, never panic.
func TestReadMatrixMarketFuzzNoPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pieces := []string{
		"%%MatrixMarket", "matrix", "coordinate", "real", "general",
		"symmetric", "pattern", "1", "2", "-3", "1e400", "abc", "\n", " ",
		"%%", "0 0 0", "1 1 1.5", "999 999 1",
	}
	for trial := 0; trial < 300; trial++ {
		var sb strings.Builder
		n := rng.Intn(20)
		for i := 0; i < n; i++ {
			sb.WriteString(pieces[rng.Intn(len(pieces))])
			if rng.Intn(3) == 0 {
				sb.WriteString("\n")
			} else {
				sb.WriteString(" ")
			}
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("parser panicked on %q: %v", sb.String(), r)
				}
			}()
			_, _ = ReadMatrixMarket(strings.NewReader(sb.String()))
		}()
	}
}
