package gallery

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"sdcgmres/internal/sparse"
)

// csrDigest hashes a CSR's full storage: shape, row pointers, column
// indices and the IEEE-754 bits of every value. Two matrices share a
// digest exactly when they are bit-for-bit the same operator.
func csrDigest(m *sparse.CSR) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(m.Rows()))
	put(uint64(m.Cols()))
	put(0) // rowPtr[0]
	off := 0
	for i := 0; i < m.Rows(); i++ {
		cols, _ := m.Row(i)
		off += len(cols)
		put(uint64(off))
	}
	for i := 0; i < m.Rows(); i++ {
		cols, _ := m.Row(i)
		for _, c := range cols {
			put(uint64(c))
		}
	}
	for i := 0; i < m.Rows(); i++ {
		_, vals := m.Row(i)
		for _, v := range vals {
			put(math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestServiceMatricesPinned pins the generator matrices the solver
// service builds most often bit for bit. The service caches built
// operators and its records must stay byte-identical to a fresh build, so
// any change to assembly order, duplicate summation or scaling shows up
// here first.
func TestServiceMatricesPinned(t *testing.T) {
	cases := []struct {
		name string
		m    func() *sparse.CSR
		want string
	}{
		{"Poisson2D(48)", func() *sparse.CSR { return Poisson2D(48) },
			"3e29629bafb0abdce58364e9677b2ebd3f7cb74d57526fbe06532b9d61c6ba26"},
		{"Poisson2D(64)", func() *sparse.CSR { return Poisson2D(64) },
			"3cc4235e6cca39288bd2d401dcf9d9958389ad58998680fa6abda41a5bb6bccb"},
		{"ConvectionDiffusion2D(48,10,-5)", func() *sparse.CSR { return ConvectionDiffusion2D(48, 10, -5) },
			"428ddb2fda41129cca47388232b485db373815593a14961ac251eed685609d24"},
		{"CircuitDCOP(2000)", func() *sparse.CSR { return CircuitDCOP(DefaultCircuitDCOPConfig(2000)) },
			"d365447f11fcb80f4241359cf5a1ca6f357f81fbc74e46062d793c130a750303"},
	}
	for _, c := range cases {
		if got := csrDigest(c.m()); got != c.want {
			t.Errorf("%s digest = %s, want %s", c.name, got, c.want)
		}
	}
}
