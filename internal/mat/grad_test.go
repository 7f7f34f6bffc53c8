package mat

import (
	"math"
	"math/rand"
	"testing"
)

// gradInputs is one GradAccumRows problem. gw/b are nil for the t-only form.
type gradInputs struct {
	gt, gw, t, a, b, rows, coefs []float64
	st, sw                       float64
}

// runGrad accumulates into copies of the gt/gw seeds with the kernel forced
// on or off and returns the results.
func (in gradInputs) runGrad(avx2 bool) (gt, gw []float64) {
	gt = append([]float64(nil), in.gt...)
	if in.gw != nil {
		gw = append([]float64(nil), in.gw...)
	}
	withKernel(avx2, func() {
		GradAccumRows(gt, gw, in.t, in.a, in.b, in.rows, in.coefs, in.st, in.sw)
	})
	return gt, gw
}

// compareGrad fails unless the AVX2 and scalar gradient kernels agree on
// every accumulator element (identical bits, or both NaN), and the batched
// distance pass agrees with the single-vector kernel row by row.
func compareGrad(t *testing.T, in gradInputs) {
	t.Helper()
	sGt, sGw := in.runGrad(false)
	aGt, aGw := in.runGrad(true)
	for k := range sGt {
		if !eqBits(sGt[k], aGt[k]) {
			t.Fatalf("gt[%d] diverged: scalar %x avx2 %x\n%+v", k, math.Float64bits(sGt[k]), math.Float64bits(aGt[k]), in)
		}
	}
	for k := range sGw {
		if !eqBits(sGw[k], aGw[k]) {
			t.Fatalf("gw[%d] diverged: scalar %x avx2 %x\n%+v", k, math.Float64bits(sGw[k]), math.Float64bits(aGw[k]), in)
		}
	}

	dim := len(in.t)
	n := len(in.coefs)
	sOut, aOut := make([]float64, n), make([]float64, n)
	withKernel(false, func() { WeightedSqDistRows(in.t, in.a, in.rows, sOut) })
	withKernel(true, func() { WeightedSqDistRows(in.t, in.a, in.rows, aOut) })
	for r := range sOut {
		want, _ := weightedSqDistResume(in.t, in.rows[r*dim:(r+1)*dim], in.a, 0, 0, math.Inf(1))
		if !eqBits(sOut[r], want) || !eqBits(aOut[r], want) {
			t.Fatalf("dist row %d diverged: single %x scalar %x avx2 %x\n%+v",
				r, math.Float64bits(want), math.Float64bits(sOut[r]), math.Float64bits(aOut[r]), in)
		}
	}
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
		in.b = randKernelVec(rng, dim)
		if rng.Intn(2) == 0 {
			in.b = Ones(dim)
		}
	}
	return in
}

// TestGradKernelSIMDBitIdentity: random shapes (every tail size), stress
// values, both the (t, w) and the t-only form.
func TestGradKernelSIMDBitIdentity(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 2000; iter++ {
		compareGrad(t, randGradInputs(rng, 1+rng.Intn(21), 1+rng.Intn(11), iter%3 != 0))
	}
}

// TestGradAccumRowsMatchesChainRule pins the kernel's argument forms to the
// per-mode chain-rule expressions Diverse Density training used before the
// kernel existed, bit for bit: multiplying by a ones vector (and by sw = 1)
// must be exact, so one kernel covers all weight modes.
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
	ones := Ones(dim)

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
		{"sum-constraint", w, ones, 1, true,
			func(c, diff float64, k int) float64 { return c * 2 * w[k] * diff },
			func(c, diff float64, k int) float64 { return c * diff * diff }},
		{"original", W, w, 2, true,
			func(c, diff float64, k int) float64 { return c * 2 * W[k] * diff },
			func(c, diff float64, k int) float64 { return c * 2 * w[k] * diff * diff }},
	}
	for _, f := range forms {
		for _, avx2 := range []bool{false, true} {
			if avx2 && !kernelAVX2Available() {
				continue
			}
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
			withKernel(avx2, func() { GradAccumRows(gt, gw, tv, f.a, f.b, rows, coefs, 2, f.sw) })
			for k := range gt {
				if math.Float64bits(gt[k]) != math.Float64bits(wantGt[k]) {
					t.Fatalf("%s avx2=%v: gt[%d] = %x, chain rule %x", f.name, avx2, k, math.Float64bits(gt[k]), math.Float64bits(wantGt[k]))
				}
				if f.withW && math.Float64bits(gw[k]) != math.Float64bits(wantGw[k]) {
					t.Fatalf("%s avx2=%v: gw[%d] = %x, chain rule %x", f.name, avx2, k, math.Float64bits(gw[k]), math.Float64bits(wantGw[k]))
				}
			}
		}
	}
}

func TestGradAccumRowsEmpty(t *testing.T) {
	for _, avx2 := range []bool{false, kernelAVX2Available()} {
		withKernel(avx2, func() {
			gt := []float64{1, 2}
			GradAccumRows(gt, nil, []float64{0, 0}, []float64{1, 1}, nil, nil, nil, 2, 1)
			WeightedSqDistRows([]float64{0, 0}, []float64{1, 1}, nil, nil)
			if gt[0] != 1 || gt[1] != 2 {
				t.Fatalf("empty rows changed the accumulator: %v", gt)
			}
		})
	}
}

// FuzzGradKernelSIMDvsScalar differentially fuzzes the AVX2 gradient kernel
// (and the batched distance pass) against the scalar oracle. As in
// FuzzKernelSIMDvsScalar the byte stream is reinterpreted as float64 bits —
// NaNs of every payload, ±Inf, ±0 and denormals arise naturally — and dim
// and the row count come from their own bytes so every tail size
// (dim % KernelBlock) and every four-row grouping of the distance pass is
// explored. zeroMask forces chosen coefficients to
// ±0, the rows the kernel must skip.
func FuzzGradKernelSIMDvsScalar(f *testing.F) {
	f.Add(uint8(8), uint8(3), mkBytes(1, 2, 3, 4, 5, 6, 7, 8), uint8(0), true, 2.0)
	f.Add(uint8(3), uint8(1), mkBytes(0.5, -0.5, 2), uint8(1), false, 1.0)
	f.Add(uint8(5), uint8(2), mkBytes(math.NaN(), math.Inf(1), -1, 1e-300, 1e300, math.Copysign(0, -1)), uint8(2), true, 1.0)
	f.Add(uint8(13), uint8(5), mkBytes(-1, -2, -3), uint8(0x15), true, 2.0)

	f.Fuzz(func(t *testing.T, dimRaw, nRaw uint8, data []byte, zeroMask uint8, withW bool, sw float64) {
		if !kernelAVX2Available() {
			t.Skip("no AVX2; nothing to differentiate")
		}
		dim := 1 + int(dimRaw)%21
		nRows := 1 + int(nRaw)%11
		vals := floatsFromBytes(data, (5+nRows)*dim+nRows)
		next := func(n int) []float64 {
			out := vals[:n:n]
			vals = vals[n:]
			return out
		}
		in := gradInputs{gt: next(dim), t: next(dim), a: next(dim), st: 2, sw: sw}
		gw, b := next(dim), next(dim)
		if withW {
			in.gw, in.b = gw, b
		}
		in.rows, in.coefs = next(dim*nRows), next(nRows)
		for r := range in.coefs {
			if zeroMask&(1<<uint(r)) != 0 {
				in.coefs[r] = math.Copysign(0, float64(1-2*(r%2)))
			}
		}
		compareGrad(t, in)
	})
}
