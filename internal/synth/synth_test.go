package synth

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"milret/internal/gray"
)

func TestCanvasSetAtBounds(t *testing.T) {
	c := NewCanvas(4, 3, RGB{10, 20, 30})
	if c.At(0, 0) != (RGB{10, 20, 30}) {
		t.Fatalf("background not applied")
	}
	c.Set(-1, 0, RGB{1, 1, 1}) // must not panic
	c.Set(0, 99, RGB{1, 1, 1})
	if c.At(-5, -5) != (RGB{}) {
		t.Fatalf("out-of-bounds read should be black")
	}
}

func TestFillRectAndCircle(t *testing.T) {
	c := NewCanvas(10, 10, RGB{})
	c.FillRect(2, 2, 5, 5, RGB{255, 0, 0})
	if c.At(3, 3) != (RGB{255, 0, 0}) || c.At(5, 5) != (RGB{}) {
		t.Fatalf("FillRect bounds wrong")
	}
	c2 := NewCanvas(20, 20, RGB{})
	c2.FillCircle(10, 10, 5, RGB{0, 255, 0})
	if c2.At(10, 10) != (RGB{0, 255, 0}) {
		t.Fatalf("circle center unpainted")
	}
	if c2.At(10, 4) != (RGB{}) || c2.At(1, 1) != (RGB{}) {
		t.Fatalf("circle overpaints")
	}
}

func TestFillTriangleContainment(t *testing.T) {
	c := NewCanvas(20, 20, RGB{})
	c.FillTriangle(10, 2, 2, 18, 18, 18, RGB{9, 9, 9})
	if c.At(10, 12) != (RGB{9, 9, 9}) {
		t.Fatalf("triangle interior unpainted")
	}
	if c.At(2, 2) != (RGB{}) || c.At(18, 2) != (RGB{}) {
		t.Fatalf("triangle exterior painted")
	}
	// Degenerate triangle must not paint or panic.
	c.FillTriangle(5, 5, 5, 5, 5, 5, RGB{1, 1, 1})
}

func TestRingCircleHollow(t *testing.T) {
	c := NewCanvas(30, 30, RGB{})
	c.RingCircle(15, 15, 10, 3, RGB{7, 7, 7})
	if c.At(15, 15) != (RGB{}) {
		t.Fatalf("ring center painted")
	}
	if c.At(15, 6) != (RGB{7, 7, 7}) {
		t.Fatalf("ring stroke unpainted")
	}
}

func TestVGradientMonotone(t *testing.T) {
	c := NewCanvas(4, 10, RGB{})
	c.VGradient(0, 10, RGB{0, 0, 0}, RGB{255, 255, 255})
	prev := -1.0
	for y := 0; y < 10; y++ {
		v := c.At(0, y)[0]
		if v < prev {
			t.Fatalf("gradient not monotone at %d", y)
		}
		prev = v
	}
}

func TestMirrorLRInvolution(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	c := NewCanvas(7, 5, RGB{})
	for i := range c.Pix {
		c.Pix[i] = RGB{r.Float64() * 255, 0, 0}
	}
	want := append([]RGB(nil), c.Pix...)
	c.MirrorLR()
	c.MirrorLR()
	for i := range want {
		if c.Pix[i] != want[i] {
			t.Fatalf("mirror involution broken at %d", i)
		}
	}
}

func TestToRGBAClamps(t *testing.T) {
	c := NewCanvas(2, 1, RGB{})
	c.Pix[0] = RGB{-50, 300, 128}
	img := c.ToRGBA()
	r, g, b, _ := img.At(0, 0).RGBA()
	if r>>8 != 0 || g>>8 != 255 || b>>8 != 128 {
		t.Fatalf("clamping wrong: %d %d %d", r>>8, g>>8, b>>8)
	}
}

func TestSceneGeneratorsCoverCategories(t *testing.T) {
	if len(SceneCategories) != 5 {
		t.Fatalf("want 5 scene categories")
	}
	for _, cat := range SceneCategories {
		gen, ok := SceneGenerators[cat]
		if !ok {
			t.Fatalf("no generator for %q", cat)
		}
		c := gen(rand.New(rand.NewSource(1)))
		if c.W != SceneW || c.H != SceneH {
			t.Fatalf("%s: size %dx%d", cat, c.W, c.H)
		}
	}
}

func TestObjectGeneratorsCoverCategories(t *testing.T) {
	if len(ObjectCategories) != 19 {
		t.Fatalf("want 19 object categories, have %d", len(ObjectCategories))
	}
	for _, cat := range ObjectCategories {
		gen, ok := ObjectGenerators[cat]
		if !ok {
			t.Fatalf("no generator for %q", cat)
		}
		c := gen(rand.New(rand.NewSource(1)))
		if c.W != ObjectW || c.H != ObjectH {
			t.Fatalf("%s: size %dx%d", cat, c.W, c.H)
		}
	}
}

func TestCorpusSizes(t *testing.T) {
	scenes := ScenesN(1, 2)
	if len(scenes) != 10 {
		t.Fatalf("ScenesN(2) = %d images", len(scenes))
	}
	objects := ObjectsN(1, 2)
	if len(objects) != 38 {
		t.Fatalf("ObjectsN(2) = %d images", len(objects))
	}
	// Full corpus counts match the paper exactly.
	if n := ScenesPerCategory * len(SceneCategories); n != 500 {
		t.Fatalf("scene corpus = %d, want 500", n)
	}
	if n := ObjectsPerCategory * len(ObjectCategories); n != 228 {
		t.Fatalf("object corpus = %d, want 228", n)
	}
}

func TestCorpusDeterministic(t *testing.T) {
	a := ScenesN(42, 1)
	b := ScenesN(42, 1)
	for i := range a {
		if a[i].ID != b[i].ID || !bytes.Equal(a[i].Image.Pix, b[i].Image.Pix) {
			t.Fatalf("scene corpus not deterministic at %d", i)
		}
	}
	c := ScenesN(43, 1)
	same := true
	for i := range a {
		if !bytes.Equal(a[i].Image.Pix, c[i].Image.Pix) {
			same = false
		}
	}
	if same {
		t.Fatalf("different seeds produced identical corpora")
	}
}

func TestCorpusSeedIndependentOfCount(t *testing.T) {
	// The i-th image of a category must not depend on how many images are
	// generated in total.
	small := ScenesN(7, 1)
	big := ScenesN(7, 3)
	if !bytes.Equal(small[0].Image.Pix, big[0].Image.Pix) {
		t.Fatalf("image content depends on corpus size")
	}
}

func TestIntraCategoryVariation(t *testing.T) {
	// Two images of the same category must differ (jitter is real).
	items := ScenesN(5, 2)
	if bytes.Equal(items[0].Image.Pix, items[1].Image.Pix) {
		t.Fatalf("no intra-category variation")
	}
}

// Category separability in gray space: the mean within-category sampled
// correlation must exceed the mean across-category correlation — otherwise
// the corpus cannot stand in for COREL (the retrieval signal would be
// absent).
func TestSceneCategorySeparability(t *testing.T) {
	perCat := 6
	items := ScenesN(11, perCat)
	type sampled struct {
		label string
		vec   []float64
	}
	var all []sampled
	for _, it := range items {
		g := gray.FromImage(it.Image)
		m, err := gray.SmoothSample(g, 10)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, sampled{it.Label, m.Data})
	}
	var within, across []float64
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			c := gray.CorrVec(all[i].vec, all[j].vec)
			if all[i].label == all[j].label {
				within = append(within, c)
			} else {
				across = append(across, c)
			}
		}
	}
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	mw, ma := mean(within), mean(across)
	if mw <= ma {
		t.Fatalf("no category structure: within-corr %.3f <= across-corr %.3f", mw, ma)
	}
	if mw-ma < 0.05 {
		t.Fatalf("category structure too weak: within %.3f vs across %.3f", mw, ma)
	}
}

func TestObjectCategorySeparability(t *testing.T) {
	perCat := 4
	items := ObjectsN(13, perCat)
	var vecs [][]float64
	var labels []string
	for _, it := range items {
		g := gray.FromImage(it.Image)
		m, err := gray.SmoothSample(g, 10)
		if err != nil {
			t.Fatal(err)
		}
		vecs = append(vecs, m.Data)
		labels = append(labels, it.Label)
	}
	// 1-NN classification by correlation must beat chance comfortably.
	correct := 0
	for i := range vecs {
		bestJ, bestC := -1, math.Inf(-1)
		for j := range vecs {
			if i == j {
				continue
			}
			if c := gray.CorrVec(vecs[i], vecs[j]); c > bestC {
				bestC, bestJ = c, j
			}
		}
		if labels[bestJ] == labels[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(len(vecs))
	if acc < 0.5 {
		t.Fatalf("object 1-NN accuracy %.2f too low (chance = %.2f)", acc, 1.0/19)
	}
}

func TestObjectBackgroundsUniform(t *testing.T) {
	// Corners must be background (light) in unmirrored coordinates for all
	// categories: objects stay centered.
	for _, cat := range ObjectCategories {
		c := ObjectGenerators[cat](rand.New(rand.NewSource(3)))
		for _, pt := range [][2]int{{1, 1}, {ObjectW - 2, 1}} {
			px := c.At(pt[0], pt[1])
			if px[0] < 180 {
				t.Errorf("%s: corner (%d,%d) not background: %v", cat, pt[0], pt[1], px)
			}
		}
	}
}

// TestEachMatchesN pins the streaming/materialized equivalence: ScenesEach
// and ObjectsEach, called directly, must visit exactly the items
// ScenesN/ObjectsN return, in order, pixel for pixel.
func TestEachMatchesN(t *testing.T) {
	check := func(name string, batch []Item, each func(int64, int, func(Item) error) error, seed int64, n int) {
		i := 0
		err := each(seed, n, func(it Item) error {
			if i >= len(batch) {
				t.Fatalf("%s: stream longer than batch (%d items)", name, len(batch))
			}
			want := batch[i]
			if it.ID != want.ID || it.Label != want.Label {
				t.Fatalf("%s item %d: got %s/%s want %s/%s", name, i, it.ID, it.Label, want.ID, want.Label)
			}
			if !bytes.Equal(it.Image.Pix, want.Image.Pix) {
				t.Fatalf("%s item %d (%s): pixels differ", name, i, it.ID)
			}
			i++
			return nil
		})
		if err != nil {
			t.Fatalf("%s: unexpected error: %v", name, err)
		}
		if i != len(batch) {
			t.Fatalf("%s: stream visited %d items, batch has %d", name, i, len(batch))
		}
	}
	check("scenes", ScenesN(7, 3), ScenesEach, 7, 3)
	check("objects", ObjectsN(7, 2), ObjectsEach, 7, 2)
}

// TestEachStopsOnError pins the early-exit contract: visit's error aborts
// the stream immediately and is returned unchanged.
func TestEachStopsOnError(t *testing.T) {
	sentinel := errEarlyStop{}
	seen := 0
	err := ObjectsEach(1, 2, func(Item) error {
		seen++
		if seen == 3 {
			return sentinel
		}
		return nil
	})
	if err != sentinel {
		t.Fatalf("error not propagated: %v", err)
	}
	if seen != 3 {
		t.Fatalf("stream continued past error: %d visits", seen)
	}
}

type errEarlyStop struct{}

func (errEarlyStop) Error() string { return "stop" }
