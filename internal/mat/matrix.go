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

// Row returns row r as a slice aliasing the matrix storage.
func (m *Matrix) Row(r int) Vector {
	m.check(r, 0)
	return m.Data[r*m.Cols : (r+1)*m.Cols]
}

// Flatten returns the row-major contents of m as a vector aliasing the
// matrix storage. This is how an h×h sampled region becomes an
// h²-dimensional feature vector (§3.1.2).
func (m *Matrix) Flatten() Vector {
	return m.Data
}

func (m *Matrix) check(r, c int) {
	if r < 0 || r >= m.Rows || c < 0 || c >= m.Cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", r, c, m.Rows, m.Cols))
	}
}
