package mat

import (
	"math"
	"math/rand"
	"testing"
)

// gradInputs is one GradAccumRows problem. gw is nil for the t-only form,
// b nil beside a gw for the direct-weight form.
type gradInputs struct {
	gt, gw, t, a, b, rows, coefs []float64
	st, sw                       float64
}

// runGrad accumulates into copies of the gt/gw seeds on the named tier and
// returns the results.
func (in gradInputs) runGrad(tier string) (gt, gw []float64) {
	gt = append([]float64(nil), in.gt...)
	if in.gw != nil {
		gw = append([]float64(nil), in.gw...)
	}
	withTier(tier, func() {
		GradAccumRows(gt, gw, in.t, in.a, in.b, in.rows, in.coefs, in.st, in.sw)
	})
	return gt, gw
}

// tileRows packs row-major rows into the tile layout, every padding lane
// set to pad.
func tileRows(rows []float64, dim int, pad float64) (tiles []float64, padded int) {
	n := len(rows) / dim
	padded = TileLanes(n)
	tiles = make([]float64, padded*dim)
	for i := range tiles {
		tiles[i] = pad
	}
	for r := 0; r < n; r++ {
		SetTileRow(tiles, r, rows[r*dim:(r+1)*dim])
	}
	return tiles, padded
}

// compareTiles fails unless WeightedSqDistTiles returns, on the scalar oracle
// and on every assembly tier in tiers, the bits of WeightedSqDistBlocked for
// each row — whatever the padding lanes hold.
func compareTiles(t *testing.T, tiers []string, p, w, rows []float64) {
	t.Helper()
	dim := len(p)
	n := len(rows) / dim
	want := make([]float64, n)
	withTier("scalar", func() {
		for r := range want {
			want[r] = WeightedSqDistBlocked(p, rows[r*dim:(r+1)*dim], w)
		}
	})
	for _, pad := range []float64{0, math.NaN(), math.Inf(-1)} {
		tiles, padded := tileRows(rows, dim, pad)
		for _, tier := range append([]string{"scalar"}, tiers...) {
			out := make([]float64, padded)
			for i := range out {
				out[i] = -1 // every lane, padding included, is overwritten
			}
			withTier(tier, func() { WeightedSqDistTiles(p, w, tiles, out) })
			for r, d := range want {
				if !eqBits(out[r], d) {
					t.Fatalf("%s, padding %v: dist row %d of %d (dim %d) = %x, WeightedSqDistBlocked %x\np=%v\nw=%v\nrows=%v",
						tier, pad, r, n, dim, math.Float64bits(out[r]), math.Float64bits(d), p, w, rows)
				}
			}
		}
	}
}

// compareGrad fails unless every assembly tier in tiers agrees with the
// scalar gradient kernel on every accumulator element (identical bits, or
// both NaN), and the tiled distance pass agrees with the single-vector
// kernel row by row.
func compareGrad(t *testing.T, tiers []string, in gradInputs) {
	t.Helper()
	sGt, sGw := in.runGrad("scalar")
	for _, tier := range tiers {
		aGt, aGw := in.runGrad(tier)
		for k := range sGt {
			if !eqBits(sGt[k], aGt[k]) {
				t.Fatalf("gt[%d] diverged: scalar %x %s %x\n%+v", k, math.Float64bits(sGt[k]), tier, math.Float64bits(aGt[k]), in)
			}
		}
		for k := range sGw {
			if !eqBits(sGw[k], aGw[k]) {
				t.Fatalf("gw[%d] diverged: scalar %x %s %x\n%+v", k, math.Float64bits(sGw[k]), tier, math.Float64bits(aGw[k]), in)
			}
		}
	}
	compareTiles(t, tiers, in.t, in.a, in.rows)
}

func randGradInputs(rng *rand.Rand, dim, nRows int, withW bool) gradInputs {
	in := gradInputs{
		gt:    randKernelVec(rng, dim),
		t:     randKernelVec(rng, dim),
		a:     randKernelVec(rng, dim),
		rows:  randKernelVec(rng, dim*nRows),
		coefs: randKernelVec(rng, nRows), // zeros, NaN and ±Inf included
		st:    2,
		sw:    float64(1 + rng.Intn(2)),
	}
	if rng.Intn(3) == 0 {
		in.coefs[rng.Intn(nRows)] = math.Copysign(0, -1) // −0 is zero too
	}
	if withW {
		in.gw = randKernelVec(rng, dim)
		if rng.Intn(2) == 0 {
			in.b = randKernelVec(rng, dim)
		}
	}
	return in
}

// wideGradInputs is randGradInputs for shapes where randKernelVec's
// stress values would turn nearly every accumulator into NaN and hide
// which terms went into it: ordinary values, a few stress values in the
// rows, some coefficients ±0 and, in one case of eight, one NaN.
func wideGradInputs(rng *rand.Rand, dim, nRows, form int) gradInputs {
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	in := gradInputs{gt: vec(dim), t: vec(dim), a: vec(dim), rows: vec(dim * nRows), coefs: vec(nRows), st: 2, sw: 1}
	for i := 0; i < 3; i++ {
		in.rows[rng.Intn(len(in.rows))] = []float64{math.Inf(1), 1e300, 1e-300}[i]
	}
	for r := range in.coefs {
		if rng.Intn(4) == 0 {
			in.coefs[r] = math.Copysign(0, float64(1-2*rng.Intn(2)))
		}
	}
	if rng.Intn(8) == 0 {
		in.coefs[rng.Intn(nRows)] = math.NaN()
	}
	switch form {
	case 1: // direct weights
		in.gw = vec(dim)
	case 2: // squared weights
		in.gw, in.b, in.sw = vec(dim), vec(dim), 2
	}
	return in
}

// TestGradKernelSIMDBitIdentity: random shapes (every tail size of both
// register widths, row counts on both sides of a tile), stress values, the
// (t, w), the direct-weight and the t-only form — scalar ≡ AVX2 ≡ AVX-512.
// Then every dim from 1 to 140, in all three forms: each side of every
// group edge of both bodies' passes (20 dimensions for AVX2, 48 for
// AVX-512), every tail after each, and the served 100, with 1–60 rows.
func TestGradKernelSIMDBitIdentity(t *testing.T) {
	eachSIMDTier(t, func(t *testing.T, tier string) {
		rng := rand.New(rand.NewSource(23))
		for iter := 0; iter < 2000; iter++ {
			compareGrad(t, []string{tier}, randGradInputs(rng, 1+rng.Intn(21), 1+rng.Intn(19), iter%3 != 0))
		}
		for dim := 1; dim <= 140; dim++ {
			for form := 0; form < 3; form++ {
				compareGrad(t, []string{tier}, wideGradInputs(rng, dim, 1+rng.Intn(60), form))
			}
		}
	})
}

// TestDistTilesMatchesBlocked is the tile kernel's identity on every tier the
// host has, the scalar oracle included (so it means something under purego):
// each row's distance carries the bits of WeightedSqDistBlocked for
// rows % 8 ≠ 0, dim % 4 ≠ 0, dim < 4, NaN/±Inf inputs, and padding lanes
// holding anything — on one to six tiles, so the paired passes of the
// AVX-512 body run with and without an odd last tile.
func TestDistTilesMatchesBlocked(t *testing.T) {
	tiers, _ := simdTiers()
	rng := rand.New(rand.NewSource(29))
	for dim := 1; dim <= 13; dim++ {
		for _, n := range []int{1, 7, 8, 9, 16, 21, 24, 33, 48} {
			compareTiles(t, tiers, randKernelVec(rng, dim), randKernelVec(rng, dim), randKernelVec(rng, dim*n))
		}
	}
	// The training shapes, ordinary values: a bag of 40 rows (five tiles)
	// and one of 48 (six).
	for _, n := range []int{40, 48} {
		p, w, rows := make([]float64, 100), make([]float64, 100), make([]float64, 100*n)
		for _, v := range [][]float64{p, w, rows} {
			for i := range v {
				v[i] = rng.NormFloat64()
			}
		}
		compareTiles(t, tiers, p, w, rows)
	}
}

// TestGradAccumRowsMatchesChainRule pins the kernel's argument forms to the
// per-mode chain-rule expressions Diverse Density training used before the
// kernel existed, bit for bit, on every tier: leaving b out (with sw = 1)
// must be the direct-weight expression exactly, so one kernel covers all
// weight modes.
func TestGradAccumRowsMatchesChainRule(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const dim, nRows = 11, 7
	tv, w, rows, coefs := make([]float64, dim), make([]float64, dim), make([]float64, dim*nRows), make([]float64, nRows)
	for i := range tv {
		tv[i], w[i] = rng.NormFloat64(), rng.Float64()
	}
	for i := range rows {
		rows[i] = rng.NormFloat64()
	}
	for i := range coefs {
		coefs[i] = rng.NormFloat64()
	}
	coefs[3] = 0
	W := make([]float64, dim)
	for k, v := range w {
		W[k] = v * v
	}
	ones := NewVector(dim).Fill(1)

	type form struct {
		name         string
		a, b         []float64
		sw           float64
		withW        bool
		refGt, refGw func(c, diff float64, k int) float64
	}
	forms := []form{
		{"identical", ones, nil, 0, false,
			func(c, diff float64, k int) float64 { return c * 2 * diff }, nil},
		{"sum-constraint", w, nil, 1, true,
			func(c, diff float64, k int) float64 { return c * 2 * w[k] * diff },
			func(c, diff float64, k int) float64 { return c * diff * diff }},
		{"sum-constraint, multiplied by ones", w, ones, 1, true,
			func(c, diff float64, k int) float64 { return c * 2 * w[k] * diff },
			func(c, diff float64, k int) float64 { return c * diff * diff }},
		{"original", W, w, 2, true,
			func(c, diff float64, k int) float64 { return c * 2 * W[k] * diff },
			func(c, diff float64, k int) float64 { return c * 2 * w[k] * diff * diff }},
	}
	tiers, _ := simdTiers()
	for _, f := range forms {
		for _, tier := range append([]string{"scalar"}, tiers...) {
			wantGt, wantGw := make([]float64, dim), make([]float64, dim)
			for r, c := range coefs {
				if c == 0 {
					continue
				}
				for k := range tv {
					diff := tv[k] - rows[r*dim+k]
					wantGt[k] += f.refGt(c, diff, k)
					if f.withW {
						wantGw[k] += f.refGw(c, diff, k)
					}
				}
			}
			gt := make([]float64, dim)
			var gw []float64
			if f.withW {
				gw = make([]float64, dim)
			}
			withTier(tier, func() { GradAccumRows(gt, gw, tv, f.a, f.b, rows, coefs, 2, f.sw) })
			for k := range gt {
				if math.Float64bits(gt[k]) != math.Float64bits(wantGt[k]) {
					t.Fatalf("%s on %s: gt[%d] = %x, chain rule %x", f.name, tier, k, math.Float64bits(gt[k]), math.Float64bits(wantGt[k]))
				}
				if f.withW && math.Float64bits(gw[k]) != math.Float64bits(wantGw[k]) {
					t.Fatalf("%s on %s: gw[%d] = %x, chain rule %x", f.name, tier, k, math.Float64bits(gw[k]), math.Float64bits(wantGw[k]))
				}
			}
		}
	}
}

func TestGradAccumRowsEmpty(t *testing.T) {
	tiers, _ := simdTiers()
	for _, tier := range append([]string{"scalar"}, tiers...) {
		withTier(tier, func() {
			gt := []float64{1, 2}
			GradAccumRows(gt, nil, []float64{0, 0}, []float64{1, 1}, nil, nil, nil, 2, 1)
			WeightedSqDistTiles([]float64{0, 0}, []float64{1, 1}, nil, nil)
			if gt[0] != 1 || gt[1] != 2 {
				t.Fatalf("empty rows changed the accumulator: %v", gt)
			}
		})
	}
}

// FuzzGradKernelSIMDvsScalar differentially fuzzes the AVX2 and AVX-512
// gradient kernels (and the tiled distance pass) against the scalar oracle.
// As in FuzzKernelSIMDvsScalar the byte stream is reinterpreted as float64
// bits — NaNs of every payload, ±Inf, ±0 and denormals arise naturally — and
// dim and the row count come from their own bytes so every tail size of both
// register widths (dim % 4, dim % 8), both sides of every group edge of the
// gradient passes (up to 140 dimensions) and one to five tiles of rows are
// explored. zeroMask forces chosen coefficients to ±0, the rows the
// kernel must skip; withW and sw = 1 together select the direct-weight form
// (b nil).
func FuzzGradKernelSIMDvsScalar(f *testing.F) {
	f.Add(uint8(8), uint8(3), mkBytes(1, 2, 3, 4, 5, 6, 7, 8), uint8(0), true, 2.0)
	f.Add(uint8(3), uint8(1), mkBytes(0.5, -0.5, 2), uint8(1), false, 1.0)
	f.Add(uint8(5), uint8(2), mkBytes(math.NaN(), math.Inf(1), -1, 1e-300, 1e300, math.Copysign(0, -1)), uint8(2), true, 1.0)
	f.Add(uint8(13), uint8(5), mkBytes(-1, -2, -3), uint8(0x15), true, 2.0)

	f.Fuzz(func(t *testing.T, dimRaw, nRaw uint8, data []byte, zeroMask uint8, withW bool, sw float64) {
		tiers, missing := simdTiers()
		if len(tiers) == 0 {
			t.Skip("nothing to differentiate:" + missing)
		}
		dim := 1 + int(dimRaw)%140
		nRows := 1 + int(nRaw)%40
		vals := floatsFromBytes(data, (5+nRows)*dim+nRows)
		next := func(n int) []float64 {
			out := vals[:n:n]
			vals = vals[n:]
			return out
		}
		in := gradInputs{gt: next(dim), t: next(dim), a: next(dim), st: 2, sw: sw}
		gw, b := next(dim), next(dim)
		if withW {
			in.gw = gw
			// sw = 1 is the direct-weight form's only caller; let every
			// other value keep the factor b.
			if sw != 1 {
				in.b = b
			}
		}
		in.rows, in.coefs = next(dim*nRows), next(nRows)
		for r := range in.coefs {
			if zeroMask&(1<<uint(r%8)) != 0 {
				in.coefs[r] = math.Copysign(0, float64(1-2*(r%2)))
			}
		}
		compareGrad(t, tiers, in)
	})
}

// FuzzDistTilesVsBlocked fuzzes the tile kernel on every tier the host has —
// the scalar oracle included — against WeightedSqDistBlocked row by row: dim
// from its own byte (dim < 4, every dim % 4, up to 140), up to six tiles of
// rows — an even and an odd count of them — with any number of rows in the
// last, values from raw float64 bits.
func FuzzDistTilesVsBlocked(f *testing.F) {
	f.Add(uint8(8), uint8(3), mkBytes(1, 2, 3, 4, 5, 6, 7, 8))
	f.Add(uint8(2), uint8(8), mkBytes(0.5, -0.5, 2))
	f.Add(uint8(5), uint8(12), mkBytes(math.NaN(), math.Inf(1), -1, 1e-300, 1e300, math.Copysign(0, -1)))
	f.Add(uint8(13), uint8(23), mkBytes(-1, -2, -3))

	f.Fuzz(func(t *testing.T, dimRaw, nRaw uint8, data []byte) {
		tiers, _ := simdTiers()
		dim := 1 + int(dimRaw)%140
		nRows := 1 + int(nRaw)%48
		vals := floatsFromBytes(data, (2+nRows)*dim)
		compareTiles(t, tiers, vals[:dim], vals[dim:2*dim], vals[2*dim:])
	})
}
