// Package linalg provides the dense matrix kernels used by the matrix
// multiplication study (§4.2) and the OpenAtom PairCalculator proxy
// (§5.1): a blocked DGEMM, small helpers, and verification utilities.
// Everything is plain Go over row-major float64 slices — the simulation
// charges virtual time for these kernels via the platform's FlopNS, while
// the real computation validates numerical correctness at small scales.
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices (all must share a length).
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// blockSize is the cache-blocking tile edge for Gemm.
const blockSize = 64

// Gemm computes C += A * B with cache blocking. Shapes must agree:
// A is m×k, B is k×n, C is m×n.
func Gemm(c, a, b *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: Gemm shape mismatch: C %dx%d = A %dx%d * B %dx%d",
			c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	m, k, n := a.Rows, a.Cols, b.Cols
	for ii := 0; ii < m; ii += blockSize {
		iMax := min(ii+blockSize, m)
		for kk := 0; kk < k; kk += blockSize {
			kMax := min(kk+blockSize, k)
			for jj := 0; jj < n; jj += blockSize {
				jMax := min(jj+blockSize, n)
				for i := ii; i < iMax; i++ {
					arow := a.Data[i*k:]
					crow := c.Data[i*n:]
					for l := kk; l < kMax; l++ {
						av := arow[l]
						if av == 0 {
							continue
						}
						brow := b.Data[l*n:]
						for j := jj; j < jMax; j++ {
							crow[j] += av * brow[j]
						}
					}
				}
			}
		}
	}
}

// GemmFlops returns the floating point operation count of one
// C += A*B with the given inner dimensions (two flops per
// multiply-accumulate).
func GemmFlops(m, k, n int) int64 {
	return 2 * int64(m) * int64(k) * int64(n)
}

// MaxAbsDiff returns the largest absolute elementwise difference between
// two equally shaped matrices.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("linalg: MaxAbsDiff shape mismatch")
	}
	max := 0.0
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > max {
			max = d
		}
	}
	return max
}

// naiveGemm is the reference used by tests.
func naiveGemm(c, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := c.At(i, j)
			for l := 0; l < a.Cols; l++ {
				s += a.At(i, l) * b.At(l, j)
			}
			c.Set(i, j, s)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
