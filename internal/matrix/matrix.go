// Package matrix implements dense matrices over the finite field GF(2^8).
//
// It provides the linear-algebra substrate for the Reed-Solomon codec:
// construction of Vandermonde and Cauchy coding matrices, multiplication,
// Gauss-Jordan inversion, and row/sub-matrix extraction.
package matrix

import (
	"errors"
	"fmt"

	"github.com/agardist/agar/internal/gf256"
)

// ErrSingular is returned when a matrix cannot be inverted.
var ErrSingular = errors.New("matrix: matrix is singular")

// Matrix is a dense rows x cols matrix over GF(2^8).
// The zero value is an empty matrix; use New or a constructor.
type Matrix struct {
	rows int
	cols int
	data []byte // row-major
}

// New returns a zeroed rows x cols matrix. It panics if either dimension is
// not positive.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("matrix: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]byte, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows, copying the
// data. It panics on ragged or empty input.
func FromRows(rows [][]byte) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("matrix: FromRows on empty input")
	}
	m := New(len(rows), len(rows[0]))
	for r, row := range rows {
		if len(row) != m.cols {
			panic("matrix: FromRows on ragged input")
		}
		copy(m.data[r*m.cols:], row)
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Vandermonde returns the rows x cols Vandermonde matrix with entry
// (r, c) = r^c. Any k rows of a (k+m) x k Vandermonde matrix processed
// through the systematic transformation are linearly independent, which is
// what makes it suitable for constructing MDS codes.
func Vandermonde(rows, cols int) *Matrix {
	m := New(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.Set(r, c, gf256.Pow(byte(r), c))
		}
	}
	return m
}

// Cauchy returns the rows x cols Cauchy matrix with entry
// (r, c) = 1 / (x_r + y_c) where x_r = r + cols and y_c = c. Every square
// sub-matrix of a Cauchy matrix is invertible, so it directly yields an MDS
// code without the systematic transformation Vandermonde requires.
// It panics if rows+cols > 256 (indices would collide in GF(2^8)).
func Cauchy(rows, cols int) *Matrix {
	if rows+cols > 256 {
		panic("matrix: Cauchy needs rows+cols <= 256")
	}
	m := New(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.Set(r, c, gf256.Inv(byte(r+cols)^byte(c)))
		}
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Get returns the element at (r, c).
func (m *Matrix) Get(r, c int) byte {
	m.check(r, c)
	return m.data[r*m.cols+c]
}

// Set stores v at (r, c).
func (m *Matrix) Set(r, c int, v byte) {
	m.check(r, c)
	m.data[r*m.cols+c] = v
}

func (m *Matrix) check(r, c int) {
	if r < 0 || r >= m.rows || c < 0 || c >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range for %dx%d", r, c, m.rows, m.cols))
	}
}

// Row returns a copy of row r.
func (m *Matrix) Row(r int) []byte {
	out := make([]byte, m.cols)
	copy(out, m.data[r*m.cols:(r+1)*m.cols])
	return out
}

// RowView returns row r without copying. The caller must not modify it
// unless it owns the matrix.
func (m *Matrix) RowView(r int) []byte {
	return m.data[r*m.cols : (r+1)*m.cols]
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	out := New(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Equal reports whether two matrices have identical shape and contents.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i := range m.data {
		if m.data[i] != o.data[i] {
			return false
		}
	}
	return true
}

// Mul returns the matrix product m * o. It panics on a dimension mismatch.
func (m *Matrix) Mul(o *Matrix) *Matrix {
	if m.cols != o.rows {
		panic(fmt.Sprintf("matrix: cannot multiply %dx%d by %dx%d", m.rows, m.cols, o.rows, o.cols))
	}
	out := New(m.rows, o.cols)
	for r := 0; r < m.rows; r++ {
		for k := 0; k < m.cols; k++ {
			a := m.data[r*m.cols+k]
			if a == 0 {
				continue
			}
			gf256.MulAddSlice(a, o.data[k*o.cols:(k+1)*o.cols], out.data[r*out.cols:(r+1)*out.cols])
		}
	}
	return out
}

// Augment returns the matrix [m | o] formed by horizontal concatenation.
// It panics if the row counts differ.
func (m *Matrix) Augment(o *Matrix) *Matrix {
	if m.rows != o.rows {
		panic("matrix: Augment row count mismatch")
	}
	out := New(m.rows, m.cols+o.cols)
	for r := 0; r < m.rows; r++ {
		copy(out.data[r*out.cols:], m.data[r*m.cols:(r+1)*m.cols])
		copy(out.data[r*out.cols+m.cols:], o.data[r*o.cols:(r+1)*o.cols])
	}
	return out
}

// SubMatrix returns the copy of the rectangle [r0, r1) x [c0, c1).
func (m *Matrix) SubMatrix(r0, r1, c0, c1 int) *Matrix {
	if r0 < 0 || c0 < 0 || r1 > m.rows || c1 > m.cols || r0 >= r1 || c0 >= c1 {
		panic(fmt.Sprintf("matrix: bad sub-matrix [%d:%d, %d:%d] of %dx%d", r0, r1, c0, c1, m.rows, m.cols))
	}
	out := New(r1-r0, c1-c0)
	for r := r0; r < r1; r++ {
		copy(out.data[(r-r0)*out.cols:], m.data[r*m.cols+c0:r*m.cols+c1])
	}
	return out
}

// SelectRows returns a new matrix formed from the given row indices, in
// order. Indices may repeat.
func (m *Matrix) SelectRows(idx []int) *Matrix {
	out := New(len(idx), m.cols)
	for i, r := range idx {
		if r < 0 || r >= m.rows {
			panic(fmt.Sprintf("matrix: SelectRows index %d out of range", r))
		}
		copy(out.data[i*out.cols:], m.data[r*m.cols:(r+1)*m.cols])
	}
	return out
}

// SwapRows exchanges rows r1 and r2 in place.
func (m *Matrix) SwapRows(r1, r2 int) {
	if r1 == r2 {
		return
	}
	a := m.data[r1*m.cols : (r1+1)*m.cols]
	b := m.data[r2*m.cols : (r2+1)*m.cols]
	for i := range a {
		a[i], b[i] = b[i], a[i]
	}
}

// Invert returns the inverse of a square matrix using Gauss-Jordan
// elimination over GF(2^8). It returns ErrSingular if no inverse exists.
func (m *Matrix) Invert() (*Matrix, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("matrix: cannot invert non-square %dx%d matrix", m.rows, m.cols)
	}
	n := m.rows
	work := m.Augment(Identity(n))
	if err := work.gaussJordan(n); err != nil {
		return nil, err
	}
	return work.SubMatrix(0, n, n, 2*n), nil
}

// gaussJordan reduces the left n x n block of work to the identity, applying
// the same operations to the rest of each row.
func (w *Matrix) gaussJordan(n int) error {
	for col := 0; col < n; col++ {
		// Find a pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if w.Get(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			return ErrSingular
		}
		w.SwapRows(col, pivot)
		// Scale the pivot row so the pivot becomes 1.
		if pv := w.Get(col, col); pv != 1 {
			inv := gf256.Inv(pv)
			row := w.data[col*w.cols : (col+1)*w.cols]
			gf256.MulSlice(inv, row, row)
		}
		// Eliminate the column from every other row.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			factor := w.Get(r, col)
			if factor == 0 {
				continue
			}
			gf256.MulAddSlice(factor, w.data[col*w.cols:(col+1)*w.cols], w.data[r*w.cols:(r+1)*w.cols])
		}
	}
	return nil
}

// IsIdentity reports whether m is a square identity matrix.
func (m *Matrix) IsIdentity() bool {
	if m.rows != m.cols {
		return false
	}
	for r := 0; r < m.rows; r++ {
		for c := 0; c < m.cols; c++ {
			want := byte(0)
			if r == c {
				want = 1
			}
			if m.data[r*m.cols+c] != want {
				return false
			}
		}
	}
	return true
}

// String renders the matrix in a compact hex form, one row per line.
func (m *Matrix) String() string {
	out := make([]byte, 0, m.rows*(m.cols*3+1))
	for r := 0; r < m.rows; r++ {
		for c := 0; c < m.cols; c++ {
			if c > 0 {
				out = append(out, ' ')
			}
			out = append(out, fmt.Sprintf("%02x", m.Get(r, c))...)
		}
		out = append(out, '\n')
	}
	return string(out)
}
