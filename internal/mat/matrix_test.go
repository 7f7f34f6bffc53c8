package mat

import (
	"math/rand"
	"testing"
	"testing/quick"
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
	m.Set(1, 0, 9)
	row := m.Row(1)
	if row[0] != 9 {
		t.Fatalf("Row does not alias storage")
	}
	row[1] = 5
	if m.At(1, 1) != 5 {
		t.Fatalf("writing through Row slice not visible")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := &Matrix{Rows: 2, Cols: 2, Data: Vector{1, 2, 3, 4}}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatalf("Clone shares storage")
	}
}

func TestFlattenRowMajor(t *testing.T) {
	m := &Matrix{Rows: 2, Cols: 3, Data: Vector{1, 2, 3, 4, 5, 6}}
	want := Vector{1, 2, 3, 4, 5, 6}
	if !Equal(m.Flatten(), want, 0) {
		t.Fatalf("Flatten = %v, want %v", m.Flatten(), want)
	}
}

func TestMirrorLR(t *testing.T) {
	m := &Matrix{Rows: 2, Cols: 3, Data: Vector{1, 2, 3, 4, 5, 6}}
	got := m.MirrorLR()
	want := &Matrix{Rows: 2, Cols: 3, Data: Vector{3, 2, 1, 6, 5, 4}}
	if !Equal(got.Data, want.Data, 0) {
		t.Fatalf("MirrorLR = %v, want %v", got.Data, want.Data)
	}
}

func TestMatrixStats(t *testing.T) {
	m := &Matrix{Rows: 2, Cols: 2, Data: Vector{1, 3, 1, 3}}
	if m.Mean() != 2 {
		t.Fatalf("Mean = %v", m.Mean())
	}
	if m.Variance() != 1 {
		t.Fatalf("Variance = %v", m.Variance())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := NewMatrix(2, 2)
	for _, f := range []func(){
		func() { m.At(2, 0) },
		func() { m.At(0, -1) },
		func() { m.Set(-1, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected out-of-range panic")
				}
			}()
			f()
		}()
	}
}

// Property: mirroring twice is the identity.
func TestQuickMirrorInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		rows, cols := 1+rr.Intn(8), 1+rr.Intn(8)
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = rr.NormFloat64()
		}
		return Equal(m.MirrorLR().MirrorLR().Data, m.Data, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: mirroring preserves mean and variance (it is a permutation).
func TestQuickMirrorPreservesStats(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		rows, cols := 1+rr.Intn(8), 1+rr.Intn(8)
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = rr.NormFloat64()
		}
		g := m.MirrorLR()
		return almostEq(m.Mean(), g.Mean(), 1e-12) && almostEq(m.Variance(), g.Variance(), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRotate90Known(t *testing.T) {
	m := &Matrix{Rows: 2, Cols: 3, Data: Vector{1, 2, 3, 4, 5, 6}}
	got := m.Rotate90()
	want := &Matrix{Rows: 3, Cols: 2, Data: Vector{4, 1, 5, 2, 6, 3}}
	if !Equal(got.Data, want.Data, 0) || got.Rows != 3 || got.Cols != 2 {
		t.Fatalf("Rotate90 = %v (%dx%d)", got.Data, got.Rows, got.Cols)
	}
}

func TestRotate180Known(t *testing.T) {
	m := &Matrix{Rows: 2, Cols: 2, Data: Vector{1, 2, 3, 4}}
	got := m.Rotate180()
	want := &Matrix{Rows: 2, Cols: 2, Data: Vector{4, 3, 2, 1}}
	if !Equal(got.Data, want.Data, 0) {
		t.Fatalf("Rotate180 = %v", got.Data)
	}
}

// Property: four quarter turns are the identity, two quarter turns equal
// Rotate180, and 90 followed by 270 is the identity.
func TestQuickRotationGroup(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		rows, cols := 1+rr.Intn(6), 1+rr.Intn(6)
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = rr.NormFloat64()
		}
		r4 := m.Rotate90().Rotate90().Rotate90().Rotate90()
		if !Equal(r4.Data, m.Data, 0) {
			return false
		}
		r2 := m.Rotate90().Rotate90()
		if !Equal(r2.Data, m.Rotate180().Data, 0) {
			return false
		}
		id := m.Rotate90().Rotate270()
		return Equal(id.Data, m.Data, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: rotations preserve mean and variance (they are permutations).
func TestQuickRotationPreservesStats(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		rows, cols := 1+rr.Intn(6), 1+rr.Intn(6)
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = rr.NormFloat64()
		}
		g := m.Rotate90()
		return almostEq(m.Mean(), g.Mean(), 1e-12) && almostEq(m.Variance(), g.Variance(), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
