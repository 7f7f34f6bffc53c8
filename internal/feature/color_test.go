package feature

import (
	"image"
	"image/color"
	"math"
	"math/rand"
	"strings"
	"testing"

	"milret/internal/gray"
	"milret/internal/mat"
)

func texturedRGBA(r *rand.Rand, w, h int) *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			img.SetRGBA(x, y, color.RGBA{
				R: uint8(128 + 80*math.Sin(float64(x)/5) + r.NormFloat64()*10),
				G: uint8(128 + 80*math.Cos(float64(y)/4) + r.NormFloat64()*10),
				B: uint8(128 + 60*math.Sin(float64(x+y)/6) + r.NormFloat64()*10),
				A: 255,
			})
		}
	}
	return img
}

func TestColorBagShape(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	img := texturedRGBA(r, 96, 64)
	b, err := BagFromColorImage("c1", img, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := b.Dim(), 300; got != want {
		t.Fatalf("color dim %d, want %d (3h²)", got, want)
	}
	if len(b.Instances) != 40 {
		t.Fatalf("instances %d, want 40", len(b.Instances))
	}
}

func TestColorBagPerChannelStandardized(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	img := texturedRGBA(r, 64, 48)
	b, err := BagFromColorImage("c2", img, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range b.Instances {
		for ch := 0; ch < 3; ch++ {
			sub := mat.Vector(inst[ch*100 : (ch+1)*100])
			if m := sub.Mean(); math.Abs(m) > 1e-9 {
				t.Fatalf("channel %d mean %v", ch, m)
			}
			if sd := sub.Std(); math.Abs(sd-1) > 1e-9 {
				t.Fatalf("channel %d std %v", ch, sd)
			}
		}
	}
}

func TestColorBagErrors(t *testing.T) {
	if _, err := BagFromColorImage("x", nil, Options{}); err == nil {
		t.Fatalf("nil image accepted")
	}
	empty := image.NewRGBA(image.Rect(0, 0, 0, 0))
	if _, err := BagFromColorImage("x", empty, Options{}); err == nil {
		t.Fatalf("empty image accepted")
	}
	r := rand.New(rand.NewSource(3))
	if _, err := BagFromColorImage("x", texturedRGBA(r, 32, 32), Options{Regions: 11}); err == nil {
		t.Fatalf("bad region family accepted")
	}
}

func TestColorBagBlankFallback(t *testing.T) {
	img := image.NewRGBA(image.Rect(0, 0, 48, 48)) // all black, zero variance
	b, err := BagFromColorImage("blank", img, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Instances) == 0 {
		t.Fatalf("blank color image produced empty bag")
	}
}

func TestColorRegionSetMatchesGrayPipeline(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	img := texturedRGBA(r, 96, 64)
	cb, err := BagFromColorImage("c", img, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gb, err := BagFromImage("g", gray.FromImage(img), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cb.Names) != len(gb.Names) {
		t.Fatalf("region sets differ: %d vs %d", len(cb.Names), len(gb.Names))
	}
	for i := range cb.Names {
		if cb.Names[i] != gb.Names[i] {
			t.Fatalf("region order differs at %d: %s vs %s", i, cb.Names[i], gb.Names[i])
		}
	}
}

func TestRotationsQuadrupleBag(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	im := texturedImage(r, 96, 64)
	b, err := BagFromImage("rot", im, Options{Rotations: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Instances) != 160 {
		t.Fatalf("rotation bag has %d instances, want 160", len(b.Instances))
	}
	if (Options{Rotations: true}).MaxInstances() != 160 {
		t.Fatalf("MaxInstances with rotations wrong")
	}
	foundR90 := false
	for _, n := range b.Names {
		if strings.HasSuffix(n, "-r90") {
			foundR90 = true
		}
	}
	if !foundR90 {
		t.Fatalf("rotation instance names missing")
	}
}

// A rotated image must be retrievable through its rotation instances: the
// min-distance between the bag of an image and the bag of its 180° rotation
// drops to ~0 when rotations are enabled.
func TestRotationsMatchRotatedImage(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	im := texturedImage(r, 64, 64)
	rot := rotate180Image(im)

	minDist := func(opts Options) float64 {
		a, err := BagFromImage("a", im, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := BagFromImage("b", rot, opts)
		if err != nil {
			t.Fatal(err)
		}
		best := math.Inf(1)
		for _, u := range a.Instances {
			for _, v := range b.Instances {
				if d := mat.WeightedSqDist(u, v, mat.NewVector(len(u)).Fill(1)); d < best {
					best = d
				}
			}
		}
		return best
	}
	plain := minDist(Options{})
	withRot := minDist(Options{Rotations: true})
	if withRot >= plain {
		t.Fatalf("rotations did not help: %v >= %v", withRot, plain)
	}
	if withRot > 1e-9 {
		t.Fatalf("180° rotation should match exactly via rotation instances, dist %v", withRot)
	}
}

// rotate180Image rotates a gray image by 180° pixel-exactly.
func rotate180Image(im *gray.Image) *gray.Image {
	out := gray.New(im.W, im.H)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			out.Set(im.W-1-x, im.H-1-y, im.Row(y)[x])
		}
	}
	return out
}
