package mat

import (
	"math"
	"math/rand"
	"testing"
)

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

// TestGradAccumRowsEmpty: no rows leave the accumulator as it was, on every
// tier. TestKernelTiers holds the scalar tier to its own run, so this is
// where the scalar loop's no-op is checked.
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

// likelihoodRandom draws n inputs of the named kind; the one kind left is
// "domain", domainValue's.
func likelihoodRandom(rng *rand.Rand, _ string, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = domainValue(rng)
	}
	return out
}

// TestLikelihoodBodiesCoverTheDomain: the identity suite would pass a body
// that hands every group to the scalar loop. Here each exp and log body
// must store all of an input the objective can produce — distances up to
// exp's last normal result, probabilities and complements — and stop at the
// group of the one element that leaves math's straight-line path.
func TestLikelihoodBodiesCoverTheDomain(t *testing.T) {
	eachSIMDTier(t, func(t *testing.T, tier string) {
		rng := rand.New(rand.NewSource(47))
		lanes := map[string]int{"avx2": 4, "avx512": 8}[tier]
		for n := 1; n <= 40; n++ {
			d := make([]float64, n)
			for i := range d {
				d[i] = rng.Float64() * 708
			}
			x := likelihoodRandom(rng, "domain", n)
			for i := range x {
				x[i] = math.Min(math.Abs(x[i]), 1) + 1e-10
			}
			out, q := make([]float64, n), make([]float64, n)
			bodies := map[string]func() int{
				"exp": func() int {
					if tier == "avx512" {
						return expNegAVX512(&d[0], &out[0], n, 0)
					}
					return expNegAVX2(&d[0], &out[0], n, 0)
				},
				"clamped": func() int {
					if tier == "avx512" {
						return expNegClampedAVX512(&d[0], &out[0], &q[0], n, 1-1e-10)
					}
					return expNegClampedAVX2(&d[0], &out[0], &q[0], n, 1-1e-10)
				},
				"log": func() int {
					if tier == "avx512" {
						return logAVX512(&x[0], &out[0], n)
					}
					return logAVX2(&x[0], &out[0], n)
				},
			}
			for name, body := range bodies {
				if name != "log" && !haveFMA {
					continue
				}
				if got := body(); got != n {
					t.Fatalf("%s %s body stored %d of %d in-domain elements", tier, name, got, n)
				}
				bad := rng.Intn(n)
				d[bad], x[bad] = 746, 0 // exp underflows to zero; log(0) is −Inf
				if got, want := body(), bad/lanes*lanes; got != want {
					t.Fatalf("%s %s body stopped at %d, want the start %d of element %d's group", tier, name, got, want, bad)
				}
				d[bad], x[bad] = 1, 1
			}
		}
	})
}
