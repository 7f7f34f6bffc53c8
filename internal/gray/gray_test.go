package gray

import (
	"image"
	"image/color"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randImage(r *rand.Rand, w, h int) *Image {
	im := New(w, h)
	for i := range im.Pix {
		im.Pix[i] = r.Float64() * 255
	}
	return im
}

// subImage copies the in-bounds pixel rectangle [x0, x1) × [y0, y1).
func subImage(im *Image, x0, y0, x1, y1 int) *Image {
	out := New(x1-x0, y1-y0)
	for y := y0; y < y1; y++ {
		copy(out.Row(y-y0), im.Row(y)[x0:x1])
	}
	return out
}

func TestNewAtSet(t *testing.T) {
	im := New(3, 2)
	im.Set(2, 1, 7)
	if im.Row(1)[2] != 7 {
		t.Fatalf("Set not visible through Row")
	}
	if im.Row(0)[0] != 0 {
		t.Fatalf("image not zeroed")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	im := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	im.Set(2, 0, 1)
}

func TestMirrorLR(t *testing.T) {
	im := New(3, 1)
	im.Set(0, 0, 1)
	im.Set(1, 0, 2)
	im.Set(2, 0, 3)
	g := im.MirrorLR()
	if g.Row(0)[0] != 3 || g.Row(0)[1] != 2 || g.Row(0)[2] != 1 {
		t.Fatalf("mirror wrong: %v", g.Pix)
	}
}

func TestFromImageGrayValues(t *testing.T) {
	src := image.NewRGBA(image.Rect(0, 0, 2, 1))
	src.Set(0, 0, color.RGBA{R: 255, G: 255, B: 255, A: 255})
	src.Set(1, 0, color.RGBA{A: 255})
	im := FromImage(src)
	if math.Abs(im.Row(0)[0]-255) > 1 {
		t.Fatalf("white pixel = %v, want ~255", im.Row(0)[0])
	}
	if math.Abs(im.Row(0)[1]) > 1 {
		t.Fatalf("black pixel = %v, want ~0", im.Row(0)[1])
	}
}

func TestFromImageLumaOrdering(t *testing.T) {
	// Green contributes more luma than red, red more than blue.
	src := image.NewRGBA(image.Rect(0, 0, 3, 1))
	src.Set(0, 0, color.RGBA{R: 255, A: 255})
	src.Set(1, 0, color.RGBA{G: 255, A: 255})
	src.Set(2, 0, color.RGBA{B: 255, A: 255})
	im := FromImage(src)
	if !(im.Row(0)[1] > im.Row(0)[0] && im.Row(0)[0] > im.Row(0)[2]) {
		t.Fatalf("luma ordering wrong: r=%v g=%v b=%v", im.Row(0)[0], im.Row(0)[1], im.Row(0)[2])
	}
}

func TestQuickIntegralMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w, h := 1+r.Intn(16), 1+r.Intn(16)
		im := randImage(r, w, h)
		it := NewIntegral(im)
		x0, x1 := r.Intn(w+1), r.Intn(w+1)
		y0, y1 := r.Intn(h+1), r.Intn(h+1)
		if x0 > x1 {
			x0, x1 = x1, x0
		}
		if y0 > y1 {
			y0, y1 = y1, y0
		}
		var naive float64
		for y := y0; y < y1; y++ {
			for x := x0; x < x1; x++ {
				naive += im.Row(y)[x]
			}
		}
		return math.Abs(it.Sum(x0, y0, x1, y1)-naive) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIntegralClipsOutOfRange(t *testing.T) {
	im := New(2, 2)
	im.Pix = []float64{1, 2, 3, 4}
	it := NewIntegral(im)
	if got := it.Sum(-10, -10, 10, 10); got != 10 {
		t.Fatalf("clipped full sum = %v, want 10", got)
	}
	if got := it.Sum(1, 1, 1, 1); got != 0 {
		t.Fatalf("empty block sum = %v, want 0", got)
	}
	if got := it.Mean(0, 0, 0, 0); got != 0 {
		t.Fatalf("empty block mean = %v, want 0", got)
	}
}

func TestSmoothSampleShapeAndRange(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	im := randImage(r, 37, 23)
	m, err := SmoothSample(im, 10)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 10 || m.Cols != 10 {
		t.Fatalf("sampled shape %dx%d, want 10x10", m.Rows, m.Cols)
	}
	for _, v := range m.Data {
		if v < 0 || v > 255 {
			t.Fatalf("sampled value %v outside input range", v)
		}
	}
}

func TestSmoothSampleConstantImage(t *testing.T) {
	im := New(20, 20)
	for i := range im.Pix {
		im.Pix[i] = 42
	}
	m, err := SmoothSample(im, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range m.Data {
		if math.Abs(v-42) > 1e-9 {
			t.Fatalf("constant image sampled to %v", v)
		}
	}
}

func TestSmoothSampleEmptyImage(t *testing.T) {
	if _, err := SmoothSample(New(0, 0), 10); err == nil {
		t.Fatalf("expected error for empty image")
	}
}

func TestSmoothSampleNonPositiveResolutionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for h=0")
		}
	}()
	_, _ = SmoothSample(New(4, 4), 0)
}

func TestSmoothSampleSmallerThanTarget(t *testing.T) {
	// A 3x3 image sampled to 10x10 must still produce finite values.
	r := rand.New(rand.NewSource(11))
	im := randImage(r, 3, 3)
	m, err := SmoothSample(im, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range m.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite sample %v", v)
		}
	}
}

// The 50%-overlap kernel means a one-pixel shift changes the sampled
// representation much less than it changes raw pixels (§3.1.2 motivation).
func TestSmoothSampleShiftTolerance(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	w, h := 60, 40
	// Structured content (low-frequency waves) plus mild noise: real images
	// have spatial coherence, unlike white noise.
	big := New(w+1, h)
	for y := 0; y < h; y++ {
		for x := 0; x <= w; x++ {
			v := 128 + 80*math.Sin(float64(x)/7)*math.Cos(float64(y)/5) + r.NormFloat64()*8
			big.Set(x, y, v)
		}
	}
	a := subImage(big, 0, 0, w, h)
	b := subImage(big, 1, 0, w+1, h) // same content shifted one pixel

	sa, err := SmoothSample(a, 10)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := SmoothSample(b, 10)
	if err != nil {
		t.Fatal(err)
	}
	sampledCorr := Corr(sa, sb)
	pixelCorr := CorrVec(a.Pix, b.Pix)
	if sampledCorr <= pixelCorr {
		t.Fatalf("sampling should increase shift tolerance: sampled %v <= pixel %v", sampledCorr, pixelCorr)
	}
	if sampledCorr < 0.95 {
		t.Fatalf("one-pixel shift correlation after sampling = %v, want > 0.95", sampledCorr)
	}
}

func TestSmoothSampleRectMatchesCrop(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	im := randImage(r, 48, 36)
	it := NewIntegral(im)
	got, err := SmoothSampleRect(it, 8, 4, 40, 30, 10)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SmoothSample(subImage(im, 8, 4, 40, 30), 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-9 {
			t.Fatalf("rect sampling differs from crop sampling at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestSmoothSampleRectEmpty(t *testing.T) {
	im := New(8, 8)
	it := NewIntegral(im)
	if _, err := SmoothSampleRect(it, 4, 4, 4, 8, 10); err == nil {
		t.Fatalf("expected error for empty rect")
	}
}

func TestImageRotate90Known(t *testing.T) {
	im := New(3, 2)
	// 1 2 3
	// 4 5 6
	copy(im.Pix, []float64{1, 2, 3, 4, 5, 6})
	g := im.Rotate90()
	if g.W != 2 || g.H != 3 {
		t.Fatalf("rotated shape %dx%d", g.W, g.H)
	}
	want := []float64{4, 1, 5, 2, 6, 3}
	for i := range want {
		if g.Pix[i] != want[i] {
			t.Fatalf("Rotate90 = %v, want %v", g.Pix, want)
		}
	}
}

func TestImageRotationGroup(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	im := randImage(r, 7, 5)
	r4 := im.Rotate90().Rotate90().Rotate90().Rotate90()
	for i := range im.Pix {
		if r4.Pix[i] != im.Pix[i] {
			t.Fatalf("four quarter turns != identity")
		}
	}
	r2 := im.Rotate90().Rotate90()
	alt := im.Rotate180()
	for i := range alt.Pix {
		if r2.Pix[i] != alt.Pix[i] {
			t.Fatalf("two quarter turns != Rotate180")
		}
	}
	id := im.Rotate90().Rotate270()
	for i := range im.Pix {
		if id.Pix[i] != im.Pix[i] {
			t.Fatalf("90 then 270 != identity")
		}
	}
}
