// Package matrix provides dense matrix and vector primitives used by the
// spectral solvers and the diffusion schemes.
//
// The package is deliberately small and allocation-conscious: the spectral
// code calls into it from tight loops, and the simulator uses Vector as the
// canonical representation of a continuous load distribution. Everything is
// float64 and row-major. No external dependencies.
package matrix

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrDimension is returned (or wrapped) when operand shapes are incompatible.
var ErrDimension = errors.New("matrix: dimension mismatch")

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense allocates a rows×cols zero matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic("matrix: negative dimension")
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewDenseFrom builds a matrix from a slice of rows. All rows must have the
// same length. The data is copied.
func NewDenseFrom(rows [][]float64) (*Dense, error) {
	r := len(rows)
	if r == 0 {
		return NewDense(0, 0), nil
	}
	c := len(rows[0])
	m := NewDense(r, c)
	for i, row := range rows {
		if len(row) != c {
			return nil, fmt.Errorf("%w: row %d has %d entries, want %d", ErrDimension, i, len(row), c)
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m, nil
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at (i, j).
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add adds v to the element at (i, j).
func (m *Dense) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Scale multiplies every entry by s, in place, and returns m.
func (m *Dense) Scale(s float64) *Dense {
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// MulVec computes m·x into a new vector.
func (m *Dense) MulVec(x Vector) (Vector, error) {
	if m.cols != len(x) {
		return nil, fmt.Errorf("%w: %dx%d * vec(%d)", ErrDimension, m.rows, m.cols, len(x))
	}
	out := make(Vector, m.rows)
	m.MulVecTo(out, x)
	return out, nil
}

// MulVecTo computes m·x into dst. dst must have length m.Rows() and x length
// m.Cols(); the receiver panics otherwise (hot-path helper).
func (m *Dense) MulVecTo(dst, x Vector) {
	if len(dst) != m.rows || len(x) != m.cols {
		panic("matrix: MulVecTo dimension mismatch")
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// IsSymmetric reports whether |m[i][j]−m[j][i]| ≤ tol for all i, j.
func (m *Dense) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// MaxAbs returns the largest absolute entry.
func (m *Dense) MaxAbs() float64 {
	var s float64
	for _, v := range m.data {
		if a := math.Abs(v); a > s {
			s = a
		}
	}
	return s
}

// RowSums returns the vector of row sums. For a stochastic matrix every
// entry is 1.
func (m *Dense) RowSums() Vector {
	out := make(Vector, m.rows)
	for i := 0; i < m.rows; i++ {
		var s float64
		for _, v := range m.data[i*m.cols : (i+1)*m.cols] {
			s += v
		}
		out[i] = s
	}
	return out
}

// String renders the matrix for debugging; large matrices are abbreviated.
func (m *Dense) String() string {
	const maxShow = 8
	var b strings.Builder
	fmt.Fprintf(&b, "Dense(%dx%d)", m.rows, m.cols)
	if m.rows > maxShow || m.cols > maxShow {
		return b.String()
	}
	for i := 0; i < m.rows; i++ {
		b.WriteString("\n  [")
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%8.4f", m.At(i, j))
		}
		b.WriteByte(']')
	}
	return b.String()
}
