// Package region implements the region-selection scheme of §3.2: every image
// is covered by a fixed family of overlapping sub-rectangles, each of which
// becomes (with its left-right mirror) one or two instances in the image's
// bag. The paper's default family has 20 regions (Figure 3-5, 40 instances
// per bag); smaller (9 → 18 instances) and larger (42 → 84 instances)
// families reproduce the instances-per-bag sweep of Figure 4-18.
//
// Regions are expressed in fractional image coordinates so the same family
// applies to any image size; low-variance regions are filtered out before
// bag generation because they are unlikely to be interesting (§3.2).
package region

import (
	"fmt"
	"math"
	"sort"
)

// Rect is a region in fractional image coordinates: the half-open rectangle
// [X0, X1) × [Y0, Y1) with all coordinates in [0, 1]. X grows rightwards and
// Y downwards, matching pixel coordinates.
type Rect struct {
	X0, Y0, X1, Y1 float64
	// Name identifies the region for diagnostics ("whole", "q-tl", ...).
	Name string
}

// Pixels maps r onto a w×h pixel grid, returning the half-open pixel
// rectangle [x0, x1) × [y0, y1). The result always contains at least one
// pixel for a valid region on a non-empty image. Both endpoints round
// half-to-even so that the mapping commutes with left-right mirroring
// (round(w−a) == w−round(a)); without this, a region and its mirror could
// cover pixel rectangles of different widths and the mirror instances of
// §3.2 would not be exact mirrors.
func (r Rect) Pixels(w, h int) (x0, y0, x1, y1 int) {
	x0 = int(math.RoundToEven(r.X0 * float64(w)))
	y0 = int(math.RoundToEven(r.Y0 * float64(h)))
	x1 = int(math.RoundToEven(r.X1 * float64(w)))
	y1 = int(math.RoundToEven(r.Y1 * float64(h)))
	if x1 > w {
		x1 = w
	}
	if y1 > h {
		y1 = h
	}
	if x1 <= x0 {
		x1 = x0 + 1
		if x1 > w {
			x0, x1 = w-1, w
		}
	}
	if y1 <= y0 {
		y1 = y0 + 1
		if y1 > h {
			y0, y1 = h-1, h
		}
	}
	return x0, y0, x1, y1
}

func (r Rect) String() string {
	return fmt.Sprintf("%s[%.2f,%.2f,%.2f,%.2f]", r.Name, r.X0, r.Y0, r.X1, r.Y1)
}

// SetSize selects one of the three region families studied in Figure 4-18,
// identified by the number of instances per bag it induces (two instances —
// original and mirror — per region).
type SetSize int

const (
	// Small is 9 regions → up to 18 instances per bag.
	Small SetSize = 9
	// Default is the paper's 20 regions (Figure 3-5) → up to 40 instances.
	Default SetSize = 20
	// Large is 42 regions → up to 84 instances per bag.
	Large SetSize = 42
)

// Set returns the region family of the requested size. The returned slice is
// freshly allocated and sorted by name for determinism. Unknown sizes return
// an error so configuration typos fail loudly.
func Set(size SetSize) ([]Rect, error) {
	var rs []Rect
	switch size {
	case Small:
		rs = smallSet()
	case Default:
		rs = defaultSet()
	case Large:
		rs = largeSet()
	default:
		return nil, fmt.Errorf("region: no region family with %d regions (have 9, 20, 42)", size)
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].Name < rs[j].Name })
	return rs, nil
}

// MustSet is Set for statically known sizes; it panics on error.
func MustSet(size SetSize) []Rect {
	rs, err := Set(size)
	if err != nil {
		panic(err)
	}
	return rs
}

// smallSet: whole image, four halves, four quadrants — 9 regions.
func smallSet() []Rect {
	return append(baseNine(), nil...)
}

func baseNine() []Rect {
	return []Rect{
		{0, 0, 1, 1, "a-whole"},
		{0, 0, 0.5, 1, "b-half-left"},
		{0.5, 0, 1, 1, "b-half-right"},
		{0, 0, 1, 0.5, "b-half-top"},
		{0, 0.5, 1, 1, "b-half-bottom"},
		{0, 0, 0.5, 0.5, "c-quad-tl"},
		{0.5, 0, 1, 0.5, "c-quad-tr"},
		{0, 0.5, 0.5, 1, "c-quad-bl"},
		{0.5, 0.5, 1, 1, "c-quad-br"},
	}
}

// defaultSet: the 20-region family of Figure 3-5 — the 9 base regions plus
// the centre half-size window, four 2/3-size corner windows, a 2/3-size
// centre window, three vertical thirds, and the central horizontal and
// vertical bands.
func defaultSet() []Rect {
	rs := baseNine()
	rs = append(rs,
		Rect{0.25, 0.25, 0.75, 0.75, "d-center-half"},
		Rect{0, 0, 2.0 / 3, 2.0 / 3, "e-two3-tl"},
		Rect{1.0 / 3, 0, 1, 2.0 / 3, "e-two3-tr"},
		Rect{0, 1.0 / 3, 2.0 / 3, 1, "e-two3-bl"},
		Rect{1.0 / 3, 1.0 / 3, 1, 1, "e-two3-br"},
		Rect{1.0 / 6, 1.0 / 6, 5.0 / 6, 5.0 / 6, "e-two3-center"},
		Rect{0, 0, 1.0 / 3, 1, "f-vthird-left"},
		Rect{1.0 / 3, 0, 2.0 / 3, 1, "f-vthird-mid"},
		Rect{2.0 / 3, 0, 1, 1, "f-vthird-right"},
		Rect{0, 0.25, 1, 0.75, "g-hband"},
		Rect{0.25, 0, 0.75, 1, "g-vband"},
	)
	return rs
}

// largeSet: the 42-region family — the default 20 plus a 4×4 grid of
// half-size windows (stride 1/6), three horizontal thirds, and the three
// horizontal thirds' central halves.
func largeSet() []Rect {
	rs := defaultSet()
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			x0 := float64(j) / 6
			y0 := float64(i) / 6
			rs = append(rs, Rect{x0, y0, x0 + 0.5, y0 + 0.5, fmt.Sprintf("h-grid-%d%d", i, j)})
		}
	}
	rs = append(rs,
		Rect{0, 0, 1, 1.0 / 3, "i-hthird-top"},
		Rect{0, 1.0 / 3, 1, 2.0 / 3, "i-hthird-mid"},
		Rect{0, 2.0 / 3, 1, 1, "i-hthird-bottom"},
		Rect{0.25, 0, 0.75, 1.0 / 3, "j-hthirdband-top"},
		Rect{0.25, 1.0 / 3, 0.75, 2.0 / 3, "j-hthirdband-mid"},
		Rect{0.25, 2.0 / 3, 0.75, 1, "j-hthirdband-bottom"},
	)
	return rs
}

// DefaultVarianceThreshold is the gray-level variance below which a sampled
// region is discarded (§3.2): low-variance regions — blank sky, uniform
// backgrounds — are not likely to be interesting and only add noise to the
// bag. The value is in squared gray levels of the sampled h×h matrix.
const DefaultVarianceThreshold = 25.0
