package feature

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"milret/internal/gray"
	"milret/internal/mat"
	"milret/internal/region"
)

func texturedImage(r *rand.Rand, w, h int) *gray.Image {
	im := gray.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			im.Set(x, y, 128+70*math.Sin(float64(x)/5)*math.Cos(float64(y)/4)+r.NormFloat64()*15)
		}
	}
	return im
}

func TestBagFromImageDefaults(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	im := texturedImage(r, 96, 64)
	b, err := BagFromImage("img1", im, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if b.ID != "img1" {
		t.Fatalf("bag ID %q", b.ID)
	}
	if got, want := b.Dim(), 100; got != want {
		t.Fatalf("feature dim %d, want %d", got, want)
	}
	// A fully textured image keeps all 20 regions × 2 mirrors.
	if len(b.Instances) != 40 {
		t.Fatalf("instances = %d, want 40", len(b.Instances))
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBagInstancesAreStandardized(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	im := texturedImage(r, 80, 60)
	b, err := BagFromImage("s", im, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, inst := range b.Instances {
		if m := inst.Mean(); math.Abs(m) > 1e-9 {
			t.Fatalf("instance %d mean %v, want 0", i, m)
		}
		if sd := inst.Std(); math.Abs(sd-1) > 1e-9 {
			t.Fatalf("instance %d std %v, want 1", i, sd)
		}
	}
}

func TestBagOptionsSweep(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	im := texturedImage(r, 96, 64)
	for _, tc := range []struct {
		opts     Options
		wantDim  int
		wantInst int
	}{
		{Options{Resolution: 6, Regions: region.Small}, 36, 18},
		{Options{Resolution: 10, Regions: region.Default}, 100, 40},
		{Options{Resolution: 15, Regions: region.Large}, 225, 84},
	} {
		b, err := BagFromImage("x", im, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if b.Dim() != tc.wantDim {
			t.Errorf("opts %+v: dim %d, want %d", tc.opts, b.Dim(), tc.wantDim)
		}
		if len(b.Instances) != tc.wantInst {
			t.Errorf("opts %+v: instances %d, want %d", tc.opts, len(b.Instances), tc.wantInst)
		}
		if tc.opts.Dim() != tc.wantDim {
			t.Errorf("Options.Dim() = %d, want %d", tc.opts.Dim(), tc.wantDim)
		}
		if tc.opts.MaxInstances() != tc.wantInst {
			t.Errorf("Options.MaxInstances() = %d, want %d", tc.opts.MaxInstances(), tc.wantInst)
		}
	}
}

func TestVarianceFilterDropsFlatRegions(t *testing.T) {
	// Texture only in the top-left quadrant; everything else is flat.
	r := rand.New(rand.NewSource(4))
	im := gray.New(80, 60)
	for y := 0; y < 30; y++ {
		for x := 0; x < 40; x++ {
			im.Set(x, y, r.Float64()*255)
		}
	}
	b, err := BagFromImage("tl", im, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Instances) >= 40 {
		t.Fatalf("flat regions were not filtered: %d instances", len(b.Instances))
	}
	// Regions fully inside the flat area must be gone.
	for _, n := range b.Names {
		if strings.HasPrefix(n, "c-quad-br") {
			t.Fatalf("flat bottom-right quadrant survived the filter")
		}
	}
	// The textured quadrant must survive.
	found := false
	for _, n := range b.Names {
		if strings.HasPrefix(n, "c-quad-tl") {
			found = true
		}
	}
	if !found {
		t.Fatalf("textured top-left quadrant missing; names: %v", b.Names)
	}
}

func TestBlankImageFallback(t *testing.T) {
	im := gray.New(64, 48) // all zeros: every region fails the filter
	b, err := BagFromImage("blank", im, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Instances) == 0 {
		t.Fatalf("blank image produced an empty bag")
	}
	if b.Names[0] != "a-whole" {
		t.Fatalf("fallback should keep the whole image, got %v", b.Names)
	}
}

func TestEmptyImageRejected(t *testing.T) {
	if _, err := BagFromImage("e", gray.New(0, 0), Options{}); err == nil {
		t.Fatalf("empty image accepted")
	}
	if _, err := BagFromImage("n", nil, Options{}); err == nil {
		t.Fatalf("nil image accepted")
	}
}

func TestUnknownRegionFamilyRejected(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	im := texturedImage(r, 32, 32)
	if _, err := BagFromImage("x", im, Options{Regions: 13}); err == nil {
		t.Fatalf("unknown region family accepted")
	}
}

// Mirror correctness: the bag of a mirrored image contains the same
// instance set as the original (original and mirror instances swap roles).
func TestMirrorImageBagEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	im := texturedImage(r, 64, 48)
	b1, err := BagFromImage("a", im, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := BagFromImage("a-mirrored", im.MirrorLR(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(b1.Instances) != len(b2.Instances) {
		t.Fatalf("instance counts differ: %d vs %d", len(b1.Instances), len(b2.Instances))
	}
	// Every instance of b1 must appear in b2 (up to numerical noise).
	for i, inst := range b1.Instances {
		found := false
		for _, cand := range b2.Instances {
			if inst.Clone().AddScaled(-1, cand).MaxAbs() <= 1e-9 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("instance %d (%s) of original not found in mirrored bag", i, b1.Names[i])
		}
	}
}

// The §3.4 Claim, end to end: for standardized instances u, v of dimension
// n, ‖u − v‖² = 2n − 2n·corr of the underlying sampled matrices.
func TestClaimSection34EndToEnd(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	imA := texturedImage(r, 64, 48)
	imB := texturedImage(r, 64, 48)
	sa, err := gray.SmoothSample(imA, 10)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := gray.SmoothSample(imB, 10)
	if err != nil {
		t.Fatal(err)
	}
	u := sa.Flatten().Standardize()
	v := sb.Flatten().Standardize()
	n := float64(len(u))
	lhs := mat.WeightedSqDist(u, v, mat.NewVector(len(u)).Fill(1))
	rhs := 2*n - 2*n*gray.Corr(sa, sb)
	if math.Abs(lhs-rhs) > 1e-6*n {
		t.Fatalf("§3.4 Claim violated: ‖u−v‖²=%v, 2n−2n·corr=%v", lhs, rhs)
	}
}

func TestBagDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	im := texturedImage(r, 48, 48)
	b1, err := BagFromImage("d", im, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := BagFromImage("d", im, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range b1.Instances {
		if !slices.Equal(b1.Instances[i], b2.Instances[i]) {
			t.Fatalf("bag generation not deterministic at instance %d", i)
		}
	}
}
