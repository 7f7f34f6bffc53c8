package mat

import (
	"slices"
	"testing"
)

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("bad shape: %+v", m)
	}
	for _, x := range m.Data {
		if x != 0 {
			t.Fatalf("not zeroed: %v", m.Data)
		}
	}
}

func TestSetRowAliasing(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Data[2] = 9
	row := m.Row(1)
	if row[0] != 9 {
		t.Fatalf("Row does not alias storage")
	}
	row[1] = 5
	if m.Data[3] != 5 {
		t.Fatalf("writing through Row slice not visible")
	}
}

func TestFlattenRowMajor(t *testing.T) {
	m := &Matrix{Rows: 2, Cols: 3, Data: Vector{1, 2, 3, 4, 5, 6}}
	want := Vector{1, 2, 3, 4, 5, 6}
	if !slices.Equal(m.Flatten(), want) {
		t.Fatalf("Flatten = %v, want %v", m.Flatten(), want)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := NewMatrix(2, 2)
	for _, r := range []int{2, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected out-of-range panic")
				}
			}()
			m.Row(r)
		}()
	}
}
