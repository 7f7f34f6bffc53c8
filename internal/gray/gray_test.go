package gray

import (
	"image"
	"image/color"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"milret/internal/mat"
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
	got := mat.NewMatrix(10, 10)
	if err := SmoothSampleRect(got, it, 8, 4, 40, 30); err != nil {
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
	if err := SmoothSampleRect(mat.NewMatrix(10, 10), it, 4, 4, 4, 8); err == nil {
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

// typedPathImages returns an RGBA picture, the one type RGBRows reads
// straight from Pix, whole and as a sub-image (non-zero Bounds().Min, a
// stride wider than its rows), plus NRGBA with alpha below 255, Gray,
// RGBA64 and Paletted pictures, which stay on At.
func typedPathImages(r *rand.Rand) map[string]image.Image {
	rgba := image.NewRGBA(image.Rect(0, 0, 37, 23))
	nrgba := image.NewNRGBA(image.Rect(0, 0, 37, 23))
	gr := image.NewGray(image.Rect(0, 0, 37, 23))
	rgba64 := image.NewRGBA64(image.Rect(-3, 2, 20, 17))
	pal := image.NewPaletted(image.Rect(0, 0, 19, 11), color.Palette{
		color.RGBA{10, 200, 30, 255}, color.NRGBA{250, 40, 90, 100}, color.Gray{77}, color.Transparent,
	})
	for y := 0; y < 23; y++ {
		for x := 0; x < 37; x++ {
			rgba.SetRGBA(x, y, color.RGBA{uint8(r.Intn(256)), uint8(r.Intn(256)), uint8(r.Intn(256)), 255})
			nrgba.SetNRGBA(x, y, color.NRGBA{uint8(r.Intn(256)), uint8(r.Intn(256)), uint8(r.Intn(256)), uint8(r.Intn(256))})
			gr.SetGray(x, y, color.Gray{uint8(r.Intn(256))})
		}
	}
	for i := range rgba64.Pix {
		rgba64.Pix[i] = uint8(r.Intn(256))
	}
	for i := range pal.Pix {
		pal.Pix[i] = uint8(r.Intn(4))
	}
	sub := image.Rect(5, 3, 31, 20)
	return map[string]image.Image{
		"RGBA":      rgba,
		"RGBA sub":  rgba.SubImage(sub),
		"NRGBA":     nrgba,
		"NRGBA sub": nrgba.SubImage(sub),
		"Gray":      gr,
		"Gray sub":  gr.SubImage(sub),
		"RGBA64":    rgba64,
		"Paletted":  pal,
	}
}

// TestTypedPixelPathsMatchAt: for each pixel type, RGBRows hands over
// exactly the channels of the generic At(x, y).RGBA() loop, and FromImage
// the gray levels that loop's Rec. 601 formula gives, bit for bit.
func TestTypedPixelPathsMatchAt(t *testing.T) {
	for name, img := range typedPathImages(rand.New(rand.NewSource(8))) {
		t.Run(name, func(t *testing.T) {
			b := img.Bounds()
			rows := 0
			RGBRows(img, func(y int, r, g, bl []uint32) {
				rows++
				if len(r) != b.Dx() || len(g) != b.Dx() || len(bl) != b.Dx() {
					t.Fatalf("row %d: %d/%d/%d channels, want %d", y, len(r), len(g), len(bl), b.Dx())
				}
				for x := range r {
					wr, wg, wb, _ := img.At(b.Min.X+x, b.Min.Y+y).RGBA()
					if r[x] != wr || g[x] != wg || bl[x] != wb {
						t.Fatalf("(%d,%d): RGBRows %d,%d,%d, At %d,%d,%d", x, y, r[x], g[x], bl[x], wr, wg, wb)
					}
				}
			})
			if rows != b.Dy() {
				t.Fatalf("RGBRows visited %d rows, want %d", rows, b.Dy())
			}
			got := FromImage(img)
			if got.W != b.Dx() || got.H != b.Dy() {
				t.Fatalf("FromImage %dx%d, want %dx%d", got.W, got.H, b.Dx(), b.Dy())
			}
			for y := b.Min.Y; y < b.Max.Y; y++ {
				for x := b.Min.X; x < b.Max.X; x++ {
					r, g, bl, _ := img.At(x, y).RGBA()
					want := (float64(0.299*float64(r)) + float64(0.587*float64(g)) + float64(0.114*float64(bl))) / 257.0
					if v := got.Pix[(y-b.Min.Y)*got.W+x-b.Min.X]; math.Float64bits(v) != math.Float64bits(want) {
						t.Fatalf("(%d,%d): FromImage %v, At loop %v", x, y, v, want)
					}
				}
			}
		})
	}
}

// TestIntegralBuildersMatchMaterialized: the squares' and the mirror's
// integrals, built straight from the picture, equal NewIntegral over the
// materialized squared and mirrored pictures bit for bit.
func TestIntegralBuildersMatchMaterialized(t *testing.T) {
	im := randImage(rand.New(rand.NewSource(9)), 29, 17)
	sq := New(im.W, im.H)
	for i, v := range im.Pix {
		sq.Pix[i] = v * v
	}
	for _, tc := range []struct {
		name      string
		got, want *Integral
	}{
		{"squares", NewSquaresIntegral(im), NewIntegral(sq)},
		{"mirror", NewMirrorIntegral(im), NewIntegral(im.MirrorLR())},
	} {
		if tc.got.w != tc.want.w || tc.got.h != tc.want.h || len(tc.got.sum) != len(tc.want.sum) {
			t.Fatalf("%s: shape differs", tc.name)
		}
		for i := range tc.got.sum {
			if math.Float64bits(tc.got.sum[i]) != math.Float64bits(tc.want.sum[i]) {
				t.Fatalf("%s: entry %d is %v, want %v", tc.name, i, tc.got.sum[i], tc.want.sum[i])
			}
		}
	}
}

// TestSmoothSampleRectMatchesMean: every sampled cell is Integral.Mean of
// its block bit for bit, for rectangles inside, across and outside the
// picture's edges and at every resolution the experiments use.
func TestSmoothSampleRectMatchesMean(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	it := NewIntegral(randImage(r, 41, 27))
	for trial := 0; trial < 200; trial++ {
		x0, y0 := r.Intn(60)-10, r.Intn(40)-10
		w, hh := 1+r.Intn(50), 1+r.Intn(35)
		h := []int{1, 6, 10, 15, 40}[r.Intn(5)]
		got := mat.NewMatrix(h, h)
		smoothSampleRect(got, it, x0, y0, w, hh)
		fy, fx := float64(hh)/float64(h), float64(w)/float64(h)
		for i := 0; i < h; i++ {
			r0 := y0 + int(math.Floor(float64(i)*fy))
			r1 := min(y0+int(math.Ceil(float64(i+2)*fy)), y0+hh)
			if r1 <= r0 {
				r1 = r0 + 1
			}
			for j := 0; j < h; j++ {
				c0 := x0 + int(math.Floor(float64(j)*fx))
				c1 := min(x0+int(math.Ceil(float64(j+2)*fx)), x0+w)
				if c1 <= c0 {
					c1 = c0 + 1
				}
				want := it.Mean(c0, r0, c1, r1)
				if v := got.Row(i)[j]; math.Float64bits(v) != math.Float64bits(want) {
					t.Fatalf("rect (%d,%d)+%dx%d h=%d cell (%d,%d): %v, Mean %v", x0, y0, w, hh, h, i, j, v, want)
				}
			}
		}
	}
}
