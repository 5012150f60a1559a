package sparse

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Matrix Market exchange-format support (the format the University of
// Florida / SuiteSparse collection distributes, including mult_dcop_03).
// Supported header: "matrix coordinate real|integer|pattern
// general|symmetric|skew-symmetric". Array (dense) files and complex fields
// are rejected with a descriptive error.

// ReadMatrixMarket parses a Matrix Market coordinate stream into a CSR
// matrix. Symmetric and skew-symmetric files are expanded to general form,
// as solvers here expect a fully stored operator.
func ReadMatrixMarket(r io.Reader) (*CSR, error) {
	sc, h, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	b := NewBuilder(h.rows, h.cols)
	read := 0
	for read < h.nnz {
		if !sc.Scan() {
			return nil, fmt.Errorf("matrixmarket: expected %d entries, got %d", h.nnz, read)
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		wantFields := 3
		if h.field == "pattern" {
			wantFields = 2
		}
		if len(f) < wantFields {
			return nil, fmt.Errorf("matrixmarket: bad entry line %q", line)
		}
		i, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("matrixmarket: bad row index %q: %w", f[0], err)
		}
		j, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("matrixmarket: bad col index %q: %w", f[1], err)
		}
		v := 1.0
		if h.field != "pattern" {
			v, err = strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("matrixmarket: bad value %q: %w", f[2], err)
			}
		}
		if i < 1 || i > h.rows || j < 1 || j > h.cols {
			return nil, fmt.Errorf("matrixmarket: entry (%d,%d) out of %dx%d", i, j, h.rows, h.cols)
		}
		i--
		j--
		b.Add(i, j, v)
		if i != j {
			switch h.symm {
			case "symmetric":
				b.Add(j, i, v)
			case "skew-symmetric":
				b.Add(j, i, -v)
			}
		}
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("matrixmarket: %w", err)
	}
	return b.Build(), nil
}

// ReadMatrixMarketSize reads only the banner and size line of a Matrix
// Market stream, with ReadMatrixMarket's checks, and returns the declared
// dimensions. It reads no entries, so a caller can bound an untrusted
// payload before building it.
func ReadMatrixMarketSize(r io.Reader) (rows, cols int, err error) {
	_, h, err := readHeader(r)
	return h.rows, h.cols, err
}

// mmHeader is a validated banner and size line.
type mmHeader struct {
	field, symm     string
	rows, cols, nnz int
}

// readHeader reads the banner and, after any comments, the size line, and
// returns the line scanner positioned at the first entry. Lines may be up
// to 1 MiB; the scanner's buffer grows only as long lines need it.
func readHeader(r io.Reader) (*bufio.Scanner, mmHeader, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	if !sc.Scan() {
		return nil, mmHeader{}, fmt.Errorf("matrixmarket: empty input")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 5 || header[0] != "%%matrixmarket" {
		return nil, mmHeader{}, fmt.Errorf("matrixmarket: bad header %q", sc.Text())
	}
	object, format, field, symm := header[1], header[2], header[3], header[4]
	if object != "matrix" {
		return nil, mmHeader{}, fmt.Errorf("matrixmarket: unsupported object %q", object)
	}
	if format != "coordinate" {
		return nil, mmHeader{}, fmt.Errorf("matrixmarket: only coordinate format supported, got %q", format)
	}
	switch field {
	case "real", "integer", "pattern":
	default:
		return nil, mmHeader{}, fmt.Errorf("matrixmarket: unsupported field %q", field)
	}
	switch symm {
	case "general", "symmetric", "skew-symmetric":
	default:
		return nil, mmHeader{}, fmt.Errorf("matrixmarket: unsupported symmetry %q", symm)
	}

	h := mmHeader{field: field, symm: symm}
	for {
		if !sc.Scan() {
			return nil, mmHeader{}, fmt.Errorf("matrixmarket: missing size line")
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &h.rows, &h.cols, &h.nnz); err != nil {
			return nil, mmHeader{}, fmt.Errorf("matrixmarket: bad size line %q: %w", line, err)
		}
		break
	}
	if h.rows < 0 || h.cols < 0 || h.nnz < 0 {
		return nil, mmHeader{}, fmt.Errorf("matrixmarket: negative sizes %d %d %d", h.rows, h.cols, h.nnz)
	}
	// The mirror of an off-diagonal entry must land inside the matrix.
	if symm != "general" && h.rows != h.cols {
		return nil, mmHeader{}, fmt.Errorf("matrixmarket: %s matrix must be square, got %dx%d", symm, h.rows, h.cols)
	}
	return sc, h, nil
}

// ReadMatrixMarketFile reads a Matrix Market file from disk.
func ReadMatrixMarketFile(path string) (*CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadMatrixMarket(f)
}

// WriteMatrixMarket writes the matrix in general coordinate real form.
func WriteMatrixMarket(w io.Writer, m *CSR) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", m.Rows(), m.Cols(), m.NNZ()); err != nil {
		return err
	}
	for _, t := range m.Triplets() {
		if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", t.Row+1, t.Col+1, t.Val); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteMatrixMarketFile writes the matrix to a file.
func WriteMatrixMarketFile(path string, m *CSR) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return WriteMatrixMarket(f, m)
}
