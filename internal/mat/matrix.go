package mat

import "fmt"

// Matrix is a dense row-major matrix of float64 values. Rows × Cols elements
// are stored contiguously in Data; element (r, c) lives at Data[r*Cols+c].
// The zero Matrix is empty and unusable; construct with NewMatrix.
type Matrix struct {
	Rows, Cols int
	Data       Vector
}

// NewMatrix returns a zeroed rows×cols matrix. It panics if either dimension
// is negative.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: invalid matrix dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: NewVector(rows * cols)}
}

// At returns the element at row r, column c.
func (m *Matrix) At(r, c int) float64 {
	m.check(r, c)
	return m.Data[r*m.Cols+c]
}

// Set stores x at row r, column c.
func (m *Matrix) Set(r, c int, x float64) {
	m.check(r, c)
	m.Data[r*m.Cols+c] = x
}

// Row returns row r as a slice aliasing the matrix storage.
func (m *Matrix) Row(r int) Vector {
	m.check(r, 0)
	return m.Data[r*m.Cols : (r+1)*m.Cols]
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: m.Data.Clone()}
}

// Flatten returns the row-major contents of m as a vector aliasing the
// matrix storage. This is how an h×h sampled region becomes an
// h²-dimensional feature vector (§3.1.2).
func (m *Matrix) Flatten() Vector {
	return m.Data
}

// MirrorLR returns a new matrix whose columns are reversed: the left-right
// mirror image of §3.2.
func (m *Matrix) MirrorLR() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	for r := 0; r < m.Rows; r++ {
		src := m.Row(r)
		dst := out.Row(r)
		for c := 0; c < m.Cols; c++ {
			dst[c] = src[m.Cols-1-c]
		}
	}
	return out
}

// Rotate90 returns a new matrix rotated 90° clockwise: element (r, c) of
// the input lands at (c, Rows−1−r) of the output. Together with MirrorLR
// this generates the dihedral-8 instance variants used by the rotation
// extension (paper §5 future work: "add more instances to represent
// different angles of view for each image region").
func (m *Matrix) Rotate90() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c := 0; c < m.Cols; c++ {
			out.Set(c, m.Rows-1-r, row[c])
		}
	}
	return out
}

// Rotate180 returns a new matrix rotated 180°.
func (m *Matrix) Rotate180() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	n := len(m.Data)
	for i, v := range m.Data {
		out.Data[n-1-i] = v
	}
	return out
}

// Rotate270 returns a new matrix rotated 90° counter-clockwise.
func (m *Matrix) Rotate270() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c := 0; c < m.Cols; c++ {
			out.Set(m.Cols-1-c, r, row[c])
		}
	}
	return out
}

// Mean returns the mean of all elements.
func (m *Matrix) Mean() float64 { return m.Data.Mean() }

// Variance returns the population variance of all elements.
func (m *Matrix) Variance() float64 { return m.Data.Variance() }

func (m *Matrix) check(r, c int) {
	if r < 0 || r >= m.Rows || c < 0 || c >= m.Cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", r, c, m.Rows, m.Cols))
	}
}
