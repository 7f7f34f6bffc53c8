package mat

import (
	"math"
	"math/rand"
	"testing"
)

// The likelihood kernels' identity suite: on every tier the host has, each
// kernel returns, element by element, the bits of its scalar statement —
// math.Exp and math.Log called one element at a time, the standard
// library's own results, not a copy of them. Only a NaN's payload may
// differ (eqBits), as everywhere in this package.

// likelihoodEdges are the inputs at which math.Exp and math.Log change
// branch or regime: ±0, subnormals, the extremes, both sides of exp's
// overflow (709.78) and of the ends of its normal results (−708.40, and
// −745.13 where it reaches zero), log's √2/2 comparison, 1 − 1e−10 (the
// noisy-or's pMax), NaN and ±Inf.
func likelihoodEdges() []float64 {
	edges := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308, math.Nextafter(2.2250738585072014e-308, 0),
		math.MaxFloat64, -math.MaxFloat64, 1, -1, 0.5, 2,
		709.782712893384, 709.7827128933841, 709.78, 709.79, 708, 710,
		-708.39, -708.3964185322641, -708.4, -708.5, -709, -744, -745.1332191019411, -745.2, -746,
		math.Sqrt2 / 2, math.Nextafter(math.Sqrt2/2, 0), math.Nextafter(math.Sqrt2/2, 2), math.Sqrt2, math.Sqrt2 / 4,
		1 - 1e-10, 1e-10, 1e-300, 36.7, 36.8, 30, -30, 1e9, -1e9, 1e10, -1e10,
		math.NaN(), -math.NaN(), math.Inf(1), math.Inf(-1),
	}
	// Around every edge by an ulp, and each edge's negation: ExpNeg and
	// ExpNegClamped take −d.
	for _, x := range edges[:len(edges)-4] {
		edges = append(edges, -x, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1)))
	}
	// Every x whose Frexp fraction is exactly √2/2, where log_amd64.s's
	// "f1 < √2/2" is in fact ≤.
	for e := -1074; e <= 1024; e++ {
		edges = append(edges, math.Ldexp(math.Sqrt2/2, e))
	}
	return edges
}

// likelihoodRandom draws n inputs of the named kind: "bits" — any float64
// bit pattern, so every exponent and NaN payload; "domain" — what the
// objective hands the kernels: distances from 0 to past exp's underflow
// (the logTiny shift included), probabilities and complements in
// [1e−10, 1].
func likelihoodRandom(rng *rand.Rand, kind string, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		switch kind {
		case "bits":
			out[i] = math.Float64frombits(rng.Uint64())
		case "domain":
			switch rng.Intn(4) {
			case 0:
				out[i] = rng.ExpFloat64() * 40
			case 1:
				out[i] = rng.Float64() * 800
			case 2:
				out[i] = 1 - rng.Float64()*(1-1e-10)
			default:
				out[i] = math.Exp(-rng.Float64() * 40)
			}
		}
	}
	return out
}

// likelihoodOut is every kernel's output on one input. runLikelihood fills
// it on a tier, or, for tier "", from the scalar statements themselves; in
// place, each kernel's input is its output (the objective computes its
// coefficients over the probabilities and its logs over the complements).
type likelihoodOut struct{ exp, shifted, p, q, log, loo, neg []float64 }

func runLikelihood(tier string, x []float64, shift, prod, P float64, inPlace bool) likelihoodOut {
	n := len(x)
	o := likelihoodOut{}
	for _, s := range []*[]float64{&o.exp, &o.shifted, &o.p, &o.q, &o.log, &o.loo, &o.neg} {
		*s = make([]float64, n)
		for i := range *s {
			(*s)[i] = -7 // every element is overwritten
		}
	}
	in := func(out []float64) []float64 {
		if !inPlace {
			return x
		}
		copy(out, x)
		return out
	}
	run := func() {
		ExpNeg(in(o.exp), 0, o.exp)
		ExpNeg(in(o.shifted), shift, o.shifted)
		ExpNegClamped(in(o.p), 1-1e-10, o.p, o.q)
		Log(in(o.log), o.log)
		LeaveOneOutRatios(in(o.loo), o.q, prod, P, o.loo)
		NegRatios(in(o.neg), o.q, o.neg)
	}
	if tier == "" {
		for i, d := range x {
			o.exp[i] = math.Exp(-d)
			o.shifted[i] = math.Exp(-d - shift)
			p := math.Exp(-d)
			if p > 1-1e-10 {
				p = 1 - 1e-10
			}
			o.p[i], o.q[i] = p, 1-p
			o.log[i] = math.Log(d)
			loo := prod / o.q[i]
			o.loo[i] = d * loo / P
			o.neg[i] = -d / o.q[i]
		}
		return o
	}
	withTier(tier, run)
	return o
}

// compareLikelihood fails unless tier (and the scalar tier) match the
// scalar statements on x, out of place and in place.
func compareLikelihood(t testing.TB, tier string, x []float64, shift, prod, P float64) {
	t.Helper()
	want := runLikelihood("", x, shift, prod, P, false)
	for _, run := range []struct {
		tier    string
		inPlace bool
	}{{"scalar", false}, {tier, false}, {tier, true}} {
		tr := run.tier
		got := runLikelihood(tr, x, shift, prod, P, run.inPlace)
		for _, c := range []struct {
			name      string
			got, want []float64
		}{
			{"ExpNeg", got.exp, want.exp}, {"ExpNeg shifted", got.shifted, want.shifted},
			{"ExpNegClamped p", got.p, want.p}, {"ExpNegClamped q", got.q, want.q},
			{"Log", got.log, want.log}, {"LeaveOneOutRatios", got.loo, want.loo}, {"NegRatios", got.neg, want.neg},
		} {
			for j := range c.want {
				if !eqBits(c.got[j], c.want[j]) {
					t.Fatalf("%s (in place: %v) %s[%d] of %d: input %v (%#x), shift %v: got %#x, scalar statement %#x",
						tr, run.inPlace, c.name, j, len(x), x[j], math.Float64bits(x[j]), shift,
						math.Float64bits(c.got[j]), math.Float64bits(c.want[j]))
				}
			}
		}
	}
}

// TestLikelihoodKernelSIMDBitIdentity holds ExpNeg, ExpNegClamped, Log,
// LeaveOneOutRatios and NegRatios to math.Exp, math.Log and their scalar
// statements on every tier: the edge list, random bit patterns, the
// objective's domain, and every length 0–17 (each tail of both widths,
// short bags) with the odd element anywhere in the group.
func TestLikelihoodKernelSIMDBitIdentity(t *testing.T) {
	eachSIMDTier(t, func(t *testing.T, tier string) {
		if !haveFMA {
			t.Logf("math.Exp takes its unfused form here: the exp kernels run their scalar loop on %s", tier)
		}
		edges := likelihoodEdges()
		for _, shift := range []float64{0, -30.5, 30, 1e-300, math.NaN()} {
			compareLikelihood(t, tier, edges, shift, 0.25, 0.75)
		}
		rng := rand.New(rand.NewSource(41))
		for _, kind := range []string{"bits", "domain"} {
			for rep := 0; rep < 200; rep++ {
				x := likelihoodRandom(rng, kind, 1000)
				shift := -30 - rng.Float64()*20
				if kind == "bits" {
					shift = math.Float64frombits(rng.Uint64())
				}
				compareLikelihood(t, tier, x, shift, rng.Float64(), rng.Float64())
			}
		}
		for n := 0; n <= 17; n++ {
			for rep := 0; rep < 50; rep++ {
				x := likelihoodRandom(rng, "domain", n)
				if n > 0 && rep%2 == 1 {
					x[rng.Intn(n)] = edges[rng.Intn(len(edges))]
				}
				compareLikelihood(t, tier, x, -30-rng.Float64()*10, rng.Float64(), 1e-300)
			}
		}
	})
}

// FuzzLikelihoodSIMDvsScalar: the byte stream is float64 bits, so every
// payload, sign and exponent reaches the kernels; the length comes from its
// own byte (every tail of both widths), the shift and the two ratios'
// scalars from the fuzzer's floats.
func FuzzLikelihoodSIMDvsScalar(f *testing.F) {
	f.Add(uint8(5), mkBytes(0, 1, 36.8, 709.79, -745.2), -30.5, 0.5, 0.25)
	f.Add(uint8(17), mkBytes(math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, math.Sqrt2/2, 1-1e-10), 0.0, 1.0, 1e-300)
	f.Add(uint8(8), mkBytes(-708.39, -708.4, 40, 50, 60, 70, 80, 90), -40.0, 1e-10, 1.0)
	f.Fuzz(func(t *testing.T, nRaw uint8, data []byte, shift, prod, P float64) {
		tiers, missing := simdTiers()
		if len(tiers) == 0 {
			t.Skip("nothing to differentiate:" + missing)
		}
		x := floatsFromBytes(data, int(nRaw)%33)
		for _, tier := range tiers {
			compareLikelihood(t, tier, x, shift, prod, P)
		}
	})
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
