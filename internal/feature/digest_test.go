package feature

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"image"
	"image/color"
	"math"
	"math/rand"
	"testing"

	"milret/internal/gray"
	"milret/internal/mil"
)

// bagDigest hashes a bag's instance names and the bits of every value, in
// instance order.
func bagDigest(b *mil.Bag) []byte {
	h := sha256.New()
	var buf [8]byte
	for i, inst := range b.Instances {
		h.Write([]byte(b.Names[i]))
		h.Write([]byte{0})
		for _, v := range inst {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum(nil)
}

// quadrantRGBA is texturedRGBA with everything outside the top-left
// quadrant painted flat, so the variance filter drops some regions.
func quadrantRGBA(r *rand.Rand, w, h int) *image.RGBA {
	img := texturedRGBA(r, w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x >= w/2 || y >= h/2 {
				img.SetRGBA(x, y, color.RGBA{R: 90, G: 140, B: 200, A: 255})
			}
		}
	}
	return img
}

// typedPics returns three pictures off the full-frame RGBA path synth
// produces: an RGBA sub-image (non-zero Bounds().Min, stride ≠ 4·W), which
// gray.RGBRows reads from Pix, and an NRGBA with alpha below 255 and an
// 8-bit Gray, which it reads through At.
func typedPics() []image.Image {
	r := rand.New(rand.NewSource(35))
	sub := texturedRGBA(r, 120, 90).SubImage(image.Rect(13, 9, 109, 73))
	nrgba := image.NewNRGBA(image.Rect(0, 0, 80, 60))
	for y := 0; y < 60; y++ {
		for x := 0; x < 80; x++ {
			nrgba.SetNRGBA(x, y, color.NRGBA{
				R: uint8(128 + 90*math.Sin(float64(x)/6) + r.NormFloat64()*10),
				G: uint8(128 + 70*math.Cos(float64(y)/5) + r.NormFloat64()*10),
				B: uint8(r.Intn(256)),
				A: uint8(40 + r.Intn(216)),
			})
		}
	}
	g := image.NewGray(image.Rect(0, 0, 64, 48))
	for y := 0; y < 48; y++ {
		for x := 0; x < 64; x++ {
			g.SetGray(x, y, color.Gray{Y: uint8(128 + 80*math.Sin(float64(x*y)/40) + r.NormFloat64()*12)})
		}
	}
	return []image.Image{sub, nrgba, g}
}

// TestBagDigestsPinned pins featurization bit for bit. Each case hashes the
// bags of three fixed pictures — fully textured, textured in one quadrant
// only (the variance filter drops regions) and blank (the whole-picture
// fallback) — under one option set. A digest change means a bag changed:
// an instance's values, its name, or the order of instances or colour
// planes. Never re-pin one to make a refactor pass.
func TestBagDigestsPinned(t *testing.T) {
	grayPics := func() []*gray.Image {
		r := rand.New(rand.NewSource(33))
		quad := texturedImage(r, 80, 60)
		for y := 0; y < quad.H; y++ {
			for x := 0; x < quad.W; x++ {
				if x >= quad.W/2 || y >= quad.H/2 {
					quad.Set(x, y, 117)
				}
			}
		}
		return []*gray.Image{texturedImage(r, 96, 64), quad, gray.New(48, 40)}
	}
	colorPics := func() []image.Image {
		r := rand.New(rand.NewSource(34))
		return []image.Image{texturedRGBA(r, 96, 64), quadrantRGBA(r, 80, 60), image.NewRGBA(image.Rect(0, 0, 48, 40))}
	}
	digest := func(t *testing.T, bag func(i int) (*mil.Bag, error)) string {
		h := sha256.New()
		for i := 0; i < 3; i++ {
			b, err := bag(i)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(bagDigest(b))
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	grayCase := func(opts Options) func(t *testing.T) string {
		return func(t *testing.T) string {
			pics := grayPics()
			return digest(t, func(i int) (*mil.Bag, error) { return BagFromImage("g", pics[i], opts) })
		}
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T) string
		want string
	}{
		{"gray defaults", grayCase(Options{}), "d7f2f375d0a5c3d58fe99880b31aad1585d60f946098cdf1a7b65b6e81a3b614"},
		{"gray h=6, 42 regions", grayCase(Options{Resolution: 6, Regions: 42}), "0fef029b82c99695fc90ccddefca118eb5aeb292f607c8193570d1051e68bc21"},
		{"gray rotations", grayCase(Options{Rotations: true}), "c69237c01d6211418c0f1ab91bf2580448c679b9d38a6429ce14f3efa8a65945"},
		{"colour defaults", func(t *testing.T) string {
			pics := colorPics()
			return digest(t, func(i int) (*mil.Bag, error) { return BagFromColorImage("c", pics[i], Options{}) })
		}, "9b73e24a96d860a492e8027c0cdd5ac6c6f582b77570723c068265a7ea794972"},
		{"gray via FromImage, typed pixels", func(t *testing.T) string {
			pics := typedPics()
			return digest(t, func(i int) (*mil.Bag, error) { return BagFromImage("t", gray.FromImage(pics[i]), Options{}) })
		}, "fdb603fd76918c11d29f5fecedf0dee75c20b8d9e4a7c2a999fca0379cc0830a"},
		{"colour, typed pixels", func(t *testing.T) string {
			pics := typedPics()
			return digest(t, func(i int) (*mil.Bag, error) { return BagFromColorImage("t", pics[i], Options{}) })
		}, "d7d59b16efdee8b324cdd9328baa3f24c0f2870a91c5a6b44545918dfe5818b5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.run(t); got != tc.want {
				t.Fatalf("bag digest %s, pinned %s", got, tc.want)
			}
		})
	}
}
